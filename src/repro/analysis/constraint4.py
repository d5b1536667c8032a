"""The global deadlock condition — constraint 4 (paper, Section 3, Fig 3).

Constraint 4: when the head nodes of a deadlock execute simultaneously,
this must not imply that a node able to rendezvous with one of them is
also executing with them — otherwise the deadlock is always broken from
outside.

The paper's Figure 3 shows the archetype: node ``w`` in an outside task
can only rendezvous with ``t`` or with nodes that must execute *after*
``t``; hence whenever ``t`` is waiting, ``w``'s task is still parked at
``w`` and the pair ``{w, t}`` could rendezvous — so no anomalous wave
ever contains ``t``.  The paper leaves general application "under
investigation"; we implement the Figure-3 pattern as a sound global
strengthening of the refined algorithm.

Soundness of ``find_breaker`` (candidate ``t``, breaker ``w``):

* ``w`` is the unique first rendezvous of its task, so until ``w``
  rendezvouses, its task's wave entry is ``w``;
* every sync partner of ``w`` is ``t`` itself or a node not reachable
  until ``t`` has completed; so while ``t`` is waiting, ``w`` cannot
  have rendezvoused — its task is parked at ``w``;
* then any wave with ``t`` waiting has the ready pair ``{w, t}`` and is
  not anomalous.

Hence a breakable node never appears waiting on an anomalous wave: it
can be neither a deadlock head nor any other waiting member.  Marking
its ``t_i`` NO-SYNC in *every* head hypothesis (it may still be a
never-reached tail through ``t_o``) is sound and eliminates every
spurious cycle that needed ``t`` as a head.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from ..syncgraph.model import SyncGraph, SyncNode
from .index import AnalysisIndex
from .orderings import OrderingInfo, compute_orderings
from .refined import refined_deadlock_analysis
from .results import DeadlockReport

__all__ = ["find_breaker", "breakable_nodes", "constraint4_deadlock_analysis"]


def find_breaker(
    graph: SyncGraph, node: SyncNode, orderings: OrderingInfo
) -> Optional[SyncNode]:
    """A node ``w`` that always breaks waits at ``node`` (Figure 3 pattern).

    Returns None when no breaker exists.
    """
    for w in graph.sync_neighbors(node):
        if w.task == node.task:
            continue
        if graph.initial_options(w.task) != (w,):
            continue
        partners_ok = all(
            x is node or orderings.must_precede(node, x)
            for x in graph.sync_neighbors(w)
        )
        if partners_ok:
            return w
    return None


def breakable_nodes(
    graph: SyncGraph, orderings: Optional[OrderingInfo] = None
) -> FrozenSet[SyncNode]:
    """All rendezvous nodes that can never wait on an anomalous wave."""
    if orderings is None:
        orderings = compute_orderings(graph)
    return frozenset(
        node
        for node in graph.rendezvous_nodes
        if find_breaker(graph, node, orderings) is not None
    )


def constraint4_deadlock_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """Refined analysis strengthened with constraint-4 breaker marks.

    Every breakable node loses head-entry sync edges in every head
    hypothesis, so cycles that can only be completed through a
    breakable head disappear.  ``index`` passes through to
    :func:`refined_deadlock_analysis`, and its orderings find the
    breakers.
    """
    if index is None:
        index = AnalysisIndex(graph)
    breakable = breakable_nodes(graph, index.orderings)
    report = refined_deadlock_analysis(
        graph, global_no_sync=breakable, index=index
    )
    report.algorithm = "refined+constraint4"
    report.stats["breakable_nodes"] = len(breakable)
    return report
