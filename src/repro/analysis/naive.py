"""The naive deadlock detection algorithm (paper, Section 3.1).

A depth-first search of the CLG finds a cycle iff the sync graph has a
cycle satisfying deadlock constraint 1 (the CLG's node splitting
enforces 1b).  No cycle in the CLG certifies the program deadlock-free:
every deadlock requires a constraint-1 cycle.

The search is one Tarjan pass over the CLG's out-edge lists
(:func:`~repro.syncgraph.clg.cyclic_components`); it needs none of the
orderings, co-executability or bit rows the refined family precomputes.

The algorithm assumes acyclic control flow; callers hand it programs
whose loops were removed by the Lemma-1 unroll transform (the
:mod:`repro.api` pipeline does this automatically and records it in the
report).
"""

from __future__ import annotations

from typing import List

from .. import obs
from ..errors import AnalysisError
from ..syncgraph.clg import (
    clg_out_edges,
    cyclic_components,
    rendezvous_uids,
)
from ..syncgraph.model import SyncGraph
from .results import DeadlockEvidence, DeadlockReport, Verdict

__all__ = ["naive_deadlock_analysis"]


def naive_deadlock_analysis(graph: SyncGraph) -> DeadlockReport:
    """Certify deadlock-freedom by CLG cycle detection (Algorithm 1).

    Raises :class:`AnalysisError` when the sync graph still has control
    cycles — the CLG method is only valid on loop-free programs
    (Section 3.1.4).
    """
    if graph.has_control_cycle():
        raise AnalysisError(
            "naive CLG analysis requires acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    out_edges = clg_out_edges(graph)
    with obs.span("naive.scc", clg_nodes=len(out_edges)):
        components = cyclic_components(out_edges)
    if obs.is_enabled():
        obs.counter("naive.scc_passes").inc()
        obs.counter("naive.cyclic_components").inc(len(components))
    evidence: List[DeadlockEvidence] = [
        DeadlockEvidence(graph, rendezvous_uids(ids)) for ids in components
    ]
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="naive-clg",
        evidence=evidence,
        stats={
            "clg_nodes": len(out_edges),
            "clg_edges": sum(map(len, out_edges)),
            "cyclic_components": len(components),
        },
    )
