"""Structured serialization of analysis results.

Every report type becomes a plain JSON-compatible dict with a stable
schema, so downstream tooling (CI gates, dashboards, diffing between
runs) can consume analysis output without touching library objects.
The CLI's ``--json`` output is built from these functions.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from .analysis.confirm import ConfirmedReport
from .analysis.results import DeadlockEvidence, DeadlockReport, StallReport
from .api import AnalysisResult
from .interp.runtime import SimulationSummary
from .lang.ast_nodes import Program
from .lang.validate import ValidationReport
from .waves.witness import AnomalyWitness

if TYPE_CHECKING:  # pragma: no cover
    from .repair.model import RepairReport

__all__ = [
    "render_json",
    "deadlock_report_to_dict",
    "stall_report_to_dict",
    "validation_to_dict",
    "simulation_to_dict",
    "witness_to_dict",
    "confirmation_to_dict",
    "repair_report_to_dict",
    "analysis_result_to_dict",
    "own_validation",
    "summary_result_to_dict",
]

# 2: added optional top-level "metrics" (repro.obs snapshot: counters,
#    gauges, histograms, span_seconds, spans); graph metrics from
#    --stats merge into the same key.
# 3: validation findings became structured diagnostics — "validation"
#    gained a "diagnostics" list (rule id, severity, span, task,
#    related); the "warnings" string list is kept, derived from them.
#    Lint mode has its own payload (see repro.lint.output.lint_to_dict).
# 4: optional top-level "repair" (repro.repair.RepairReport: certified
#    fixes with kind/description/certifier/diff, generation and
#    rejection counters); deadlock stats may carry
#    "unroll_approximated" / "explored_pre_unroll_graph" from the
#    exact-path loop-faithfulness fix.
SCHEMA_VERSION = 4


def render_json(payload: Dict[str, Any]) -> str:
    """The canonical JSON rendering of a report payload.

    One definition of the output format (two-space indent, default
    separators, no trailing newline) shared by the CLI, the protocol
    tests, and clients of :mod:`repro.server` — the daemon ships the
    same payload dicts compactly, and re-rendering them through this
    function reproduces the one-shot CLI's stdout byte for byte.

    The bytes are exactly ``json.dumps(payload, indent=2)``'s, which
    CPython serves with its pure-Python encoder; this writer joins
    strings quoted by the C ``encode_basestring_ascii`` instead.
    """
    return _dump(payload, "\n")


def _dump(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the
    nesting level whose line break (with indent) is ``newline``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (_INF, -_INF):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _key(k) + ": " + (
                _quote(v) if type(v) is str else _dump(v, inner)
            )
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            _quote(v) if type(v) is str else _dump(v, inner) for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _key(key: Any) -> str:
    """A dict key as ``json.dumps`` writes it: a string, or a number,
    bool or None written as a string."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _dump(key, "") + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not "
        f"{type(key).__name__}"
    )


_CONSTANTS = {None: "null", True: "true", False: "false"}
_INF = float("inf")


def _evidence_to_dict(
    evidence: DeadlockEvidence, labels: Sequence[str]
) -> Dict[str, Any]:
    head, tail = evidence.head, evidence.tail
    return {
        "head": labels[head.uid] if head is not None else None,
        "tail": labels[tail.uid] if tail is not None else None,
        "tasks": sorted(evidence.tasks),
        "component": sorted([labels[u] for u in evidence.uids]),
    }


def deadlock_report_to_dict(report: DeadlockReport) -> Dict[str, Any]:
    return {
        "verdict": report.verdict,
        "algorithm": report.algorithm,
        "deadlock_free": report.deadlock_free,
        "loops_transformed": report.loops_transformed,
        "heads_examined": report.heads_examined,
        "evidence": [
            _evidence_to_dict(ev, ev.graph.labels()) for ev in report.evidence
        ],
        "stats": dict(report.stats),
    }


def stall_report_to_dict(report: StallReport) -> Dict[str, Any]:
    return {
        "verdict": report.verdict,
        "method": report.method,
        "stall_free": report.stall_free,
        "imbalanced": {
            str(sig): {"sends": sends, "accepts": accepts}
            for sig, (sends, accepts) in report.imbalanced.items()
        },
        "transforms_applied": list(report.transforms_applied),
        "notes": list(report.notes),
    }


def validation_to_dict(report: ValidationReport) -> Dict[str, Any]:
    return {
        "program": report.program_name,
        "tasks": list(report.task_names),
        "signals": [str(sig) for sig in report.signals],
        "fully_matched": report.fully_matched,
        "unmatched_sends": [str(s) for s in report.unmatched_sends],
        "unmatched_accepts": [str(s) for s in report.unmatched_accepts],
        # derived directly from diagnostics to keep the legacy key
        # without tripping the ValidationReport.warnings deprecation
        "warnings": [d.message for d in report.diagnostics],
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }


def simulation_to_dict(summary: SimulationSummary) -> Dict[str, Any]:
    return {
        "runs": summary.runs,
        "completed": summary.completed,
        "stuck": summary.stuck,
        "deadlock_runs": summary.deadlock_runs,
        "stall_runs": summary.stall_runs,
        "deadlocked_tasks": dict(summary.observed_deadlock_tasks),
        "stalled_tasks": dict(summary.observed_stall_tasks),
    }


def witness_to_dict(witness: AnomalyWitness) -> Dict[str, Any]:
    return {
        "kind": "deadlock" if witness.is_deadlock else "stall",
        "steps": len(witness.schedule),
        "initial_wave": [str(n) for n in witness.initial.positions],
        "schedule": [
            {"sender_side": str(r), "accepter_side": str(s)}
            for r, s in witness.schedule
        ],
        "stuck_wave": [
            str(n) for n in witness.classification.wave.positions
        ],
        "stall_nodes": [str(n) for n in witness.classification.stalls],
        "deadlock_sets": [
            sorted(str(n) for n in d)
            for d in witness.classification.deadlocks
        ],
    }


def repair_report_to_dict(
    report: "RepairReport", original: Optional[Program] = None
) -> Dict[str, Any]:
    """Serialize one repair run; pass the original program to include
    per-fix changed-task lists and unified diffs."""
    from .repair.model import changed_tasks, unified_fix_diff

    fixes = []
    for fix in report.fixes:
        entry: Dict[str, Any] = {
            "kind": fix.kind,
            "description": fix.description,
            "certified_by": fix.certified_by,
            "stall_verdict": fix.stall_verdict,
            "introduced_stall": fix.introduced_stall,
            "edit_size": fix.candidate.edit_size,
            "task": fix.candidate.task,
            "spans": [
                {
                    "line": span.line,
                    "column": span.column,
                    "end_line": span.end_line,
                    "end_column": span.end_column,
                }
                for span in fix.candidate.spans
            ],
            "source": fix.source,
        }
        if original is not None:
            entry["changed_tasks"] = changed_tasks(
                original, fix.candidate.program
            )
            entry["diff"] = unified_fix_diff(original, fix)
        fixes.append(entry)
    return {
        "program": report.program_name,
        "original_verdict": report.original_verdict,
        "original_stall_verdict": report.original_stall_verdict,
        "algorithm": report.algorithm,
        "candidates_generated": report.candidates_generated,
        "candidates_rejected": report.candidates_rejected,
        "fixed": report.fixed,
        "fixes": fixes,
        "stats": dict(report.stats),
        "wall_time_s": round(report.wall_time_s, 6),
    }


def confirmation_to_dict(confirmed: ConfirmedReport) -> Dict[str, Any]:
    return {
        "outcome": confirmed.outcome,
        "final_verdict": confirmed.final_verdict,
        "states_budget": confirmed.states_budget,
        "witness": (
            witness_to_dict(confirmed.witness)
            if confirmed.witness is not None
            else None
        ),
    }


def analysis_result_to_dict(
    result: AnalysisResult,
    simulation: Optional[SimulationSummary] = None,
    confirmation: Optional[ConfirmedReport] = None,
    metrics: Optional[Dict[str, Any]] = None,
    repair: Optional["RepairReport"] = None,
) -> Dict[str, Any]:
    """The full CLI/CI payload for one analysis run.

    ``metrics`` is an observability snapshot (see
    :func:`repro.obs.export.session_to_dict`); the CLI passes one when
    ``--trace`` or ``--metrics-out`` enabled the obs layer.  ``repair``
    is the :class:`~repro.repair.RepairReport` from ``--suggest-fixes``.
    """
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "program": result.program.name,
        "tasks": list(result.program.task_names),
        "procedures": list(result.program.procedure_names),
        "loops_transformed": result.loops_transformed,
        "sync_graph": result.sync_graph.stats(),
        "deadlock": deadlock_report_to_dict(result.deadlock),
        "stall": stall_report_to_dict(result.stall),
        "validation": validation_to_dict(result.validation),
    }
    if simulation is not None:
        payload["simulation"] = simulation_to_dict(simulation)
    if confirmation is not None:
        payload["confirmation"] = confirmation_to_dict(confirmation)
    if repair is not None:
        payload["repair"] = repair_report_to_dict(
            repair, original=result.program
        )
    if metrics is not None:
        payload["metrics"] = metrics
    return payload


def own_validation(
    payload: Dict[str, Any], validation: Callable[[], ValidationReport]
) -> Dict[str, Any]:
    """A cached ``payload`` with the requester's own validation.

    Cache keys hash the canonical program, so a cached payload may come
    from another layout of the requesting text, and its validation
    diagnostics are the one part of it that is located.  When there
    are any, ``validation`` is called for the requester's own
    :class:`ValidationReport` and renders that key; a payload without
    them is returned as it is.
    """
    if not payload["validation"]["diagnostics"]:
        return payload
    return dict(payload, validation=validation_to_dict(validation()))


def summary_result_to_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compact per-program record for batch (JSONL) output.

    A strict subset of an :func:`analysis_result_to_dict` ``payload``:
    program identity and verdicts, without the validation/evidence
    detail — small enough to emit once per line for thousands of items.
    """
    deadlock, stall = payload["deadlock"], payload["stall"]
    return {
        "program": payload["program"],
        "tasks": list(payload["tasks"]),
        "loops_transformed": payload["loops_transformed"],
        "deadlock": {
            "verdict": deadlock["verdict"],
            "algorithm": deadlock["algorithm"],
            "deadlock_free": deadlock["deadlock_free"],
            "evidence_count": len(deadlock["evidence"]),
        },
        "stall": {
            "verdict": stall["verdict"],
            "method": stall["method"],
            "stall_free": stall["stall_free"],
        },
    }
