"""Runs one workload and prints its census and result lines."""

from __future__ import annotations

from typing import Any, Dict, Tuple

from . import common
from .common import Metrics
from .inprocess import (
    SETUP_RUNS,
    Workload,
    cold_workload,
    exact_workload,
    pass_orders,
    run_op,
    run_traced,
    run_untraced,
)
from .inputs import input_properties


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if name == "daemon_session":
        from . import daemon

        attempted, failed, metrics, census = daemon.run(seed, seconds, trace)
    else:
        workload = cold_workload() if name == "cold_corpus" else (
            exact_workload()
        )
        attempted, failed, metrics, census = run_inprocess(
            workload, seed, seconds, trace
        )
    census.update(common.host_facts())
    census.update(common.source_identity())
    census.update({"workload": name, "seed": seed, "trace": trace})
    common.emit(True, attempted, failed, metrics, census)
    return 0


def run_inprocess(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> Tuple[int, int, Metrics, Dict[str, Any]]:
    probe = common.HostProbe()
    setup_spans = common.spawn_import_spans(SETUP_RUNS, probe)
    setup = [probe.at_reference(t0, t1) for t0, t1 in setup_spans]
    passes = common.passes_for(seconds, workload.nominal_pass_s)
    # Lazily imported modules load here, untimed, once per op kind.
    warmed = set()
    for case, strategy in workload.items:
        if strategy not in warmed:
            warmed.add(strategy)
            run_op(case, strategy)
    orders = pass_orders(len(workload.items), seed, passes)
    if trace:
        phase, metrics = run_traced(workload, orders, probe)
        metrics.update(common.import_metrics())
        metrics["host.probe_ms"] = (probe.median_ms, "ms")
        metrics = common.complete_per_layer(metrics)
    else:
        phase = run_untraced(workload, orders, probe)
    ops, wall_s = phase.at_reference()
    if not trace:
        metrics = common.end_to_end(
            ops, wall_s, setup, common.self_peak_rss_mb()
        )
    census = {
        "why": workload.why,
        "seconds": seconds,
        "passes": passes,
        "operations": len(ops),
        "latency_samples": len(ops),
        "classes": common.class_census(ops, workload.classes),
        "inputs": input_properties(
            list({case.name: case for case, _ in workload.items}.values())
        ),
        "payload_sha256": phase.digest,
        "host_probe_ms": probe.census(),
        "setup_samples_s": [round(s, 4) for s in setup],
        "unscaled": common.unscaled(phase.ops, phase.wall_s, setup_spans),
    }
    failed = sum(not op.ok for op in phase.ops)
    return len(ops), failed, metrics, census
