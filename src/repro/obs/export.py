"""Exporters: stable-schema JSON dict and Prometheus text format.

The JSON form is what the CLI folds into ``--json`` output (under
``"metrics"``) and writes for ``--metrics-out file.json``; its schema
is versioned independently of the report schema so dashboards can gate
on it.  The Prometheus form (``--metrics-out file.prom``) emits one
sample per line — ``name{labels} value`` — with names sanitized to the
Prometheus grammar (dots become underscores, counters get ``_total``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from . import ObsSession
from .metrics import Counter, Gauge, Histogram, LabelsKey, MetricsRegistry
from .trace import Tracer

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "instrument_values",
    "session_to_dict",
    "session_to_prometheus",
]

METRICS_SCHEMA_VERSION = 1


def _flat_key(name: str, labels: LabelsKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _span_seconds(tracer: Tracer) -> Dict[str, float]:
    """Total wall seconds per span name (summed over occurrences)."""
    totals: Dict[str, float] = {}
    for span in tracer.all_spans():
        if span.duration_s is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
    return totals


def instrument_values(registry: MetricsRegistry) -> Dict[str, Any]:
    """``{"counters": ..., "gauges": ...}``, each ``{flat key: value}``.

    Costs one pass over the instruments and nothing per span, so a
    long-lived daemon can report it on every ``status`` call.
    """
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    for inst in registry.iter_instruments():
        if isinstance(inst, Counter):
            counters[_flat_key(inst.name, inst.labels)] = inst.value
        elif isinstance(inst, Gauge):
            gauges[_flat_key(inst.name, inst.labels)] = inst.value
    return {"counters": counters, "gauges": gauges}


def session_to_dict(session: ObsSession) -> Dict[str, Any]:
    """The versioned JSON snapshot of one observed scope."""
    registry = session.registry
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        **instrument_values(registry),
        "histograms": {
            _flat_key(h.name, h.labels): {
                "count": h.count,
                "sum": h.sum,
                "min": h.min,
                "max": h.max,
                "mean": h.mean,
            }
            for h in registry.histograms.values()
        },
        "span_seconds": _span_seconds(session.tracer),
        "spans": session.tracer.to_dicts(),
    }


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    sanitized = "".join(out)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_labels(labels: LabelsKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def session_to_prometheus(session: ObsSession) -> str:
    """Prometheus text exposition: one ``name{labels} value`` per line."""
    lines: List[str] = []
    registry: MetricsRegistry = session.registry
    for c in registry.counters.values():
        lines.append(
            f"{_prom_name(c.name)}_total{_prom_labels(c.labels)}"
            f" {_prom_value(c.value)}"
        )
    for g in registry.gauges.values():
        lines.append(
            f"{_prom_name(g.name)}{_prom_labels(g.labels)}"
            f" {_prom_value(g.value)}"
        )
    for h in registry.histograms.values():
        base = _prom_name(h.name)
        labels = _prom_labels(h.labels)
        lines.append(f"{base}_count{labels} {_prom_value(h.count)}")
        lines.append(f"{base}_sum{labels} {_prom_value(h.sum)}")
        if h.count:
            lines.append(f"{base}_min{labels} {_prom_value(h.min)}")
            lines.append(f"{base}_max{labels} {_prom_value(h.max)}")
    for name, seconds in sorted(_span_seconds(session.tracer).items()):
        lines.append(
            f'repro_span_seconds{{span="{name}"}} {_prom_value(seconds)}'
        )
    return "\n".join(lines) + ("\n" if lines else "")
