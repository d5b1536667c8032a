"""The naive deadlock detection algorithm (paper, Section 3.1).

A depth-first search of the CLG finds a cycle iff the sync graph has a
cycle satisfying deadlock constraint 1 (the CLG's node splitting
enforces 1b).  No cycle in the CLG certifies the program deadlock-free:
every deadlock requires a constraint-1 cycle.

The CLG is the one :class:`~repro.analysis.index.AnalysisIndex` holds
as int rows; :meth:`AnalysisIndex.cyclic_components` lists its cyclic
SCCs in the order a Tarjan pass over a ``build_clg`` object would.

The algorithm assumes acyclic control flow; callers hand it programs
whose loops were removed by the Lemma-1 unroll transform (the
:mod:`repro.api` pipeline does this automatically and records it in the
report).
"""

from __future__ import annotations

from typing import List, Optional

from .. import obs
from ..errors import AnalysisError
from ..syncgraph.model import SyncGraph
from .index import AnalysisIndex, project_ids
from .results import DeadlockEvidence, DeadlockReport, Verdict

__all__ = ["naive_deadlock_analysis"]


def naive_deadlock_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """Certify deadlock-freedom by CLG cycle detection (Algorithm 1).

    A prebuilt ``index`` over ``graph`` (or a uid-equal graph) may be
    shared.  Raises :class:`AnalysisError` when the sync graph still has
    control cycles — the CLG method is only valid on loop-free programs
    (Section 3.1.4).
    """
    if graph.has_control_cycle():
        raise AnalysisError(
            "naive CLG analysis requires acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    if index is None:
        index = AnalysisIndex(graph)
    with obs.span("naive.scc", clg_nodes=index.node_count):
        components = index.cyclic_components()
    if obs.is_enabled():
        obs.counter("naive.scc_passes").inc()
        obs.counter("naive.cyclic_components").inc(len(components))
    rendezvous = graph.rendezvous_nodes
    evidence: List[DeadlockEvidence] = [
        DeadlockEvidence(component=project_ids(rendezvous, ids))
        for ids in components
    ]
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="naive-clg",
        evidence=evidence,
        stats={
            "clg_nodes": index.node_count,
            "clg_edges": index.edge_count,
            "cyclic_components": len(components),
        },
    )
