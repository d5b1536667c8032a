"""Set-based marking/search engine for the four extension analyses.

:mod:`repro.analysis.extensions` runs each analysis as a private loop
over an ``ops`` engine; the product's only engine is ``_IndexOps`` on
the bitsets of :class:`~repro.analysis.index.AnalysisIndex`.
:class:`SetOps` is the same engine over hashed :class:`CLGNode` sets:
plugged into the same loops, it yields the oracle reports the
differential tests compare against, so the combination logic is
compared too.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from repro.analysis import extensions
from repro.analysis.coexec import CoExecInfo, compute_coexec
from repro.analysis.index import AnalysisIndex, coaccept_of
from repro.analysis.orderings import OrderingInfo, compute_orderings
from repro.analysis.results import DeadlockReport
from repro.syncgraph.clg import CLGEdge, CLGNode, EdgeKind
from repro.syncgraph.model import SyncGraph, SyncNode

from .clg import CLG, build_clg
from .refined import project_component


class SetOps:
    """Reference marking/search engine over hashed CLG node sets."""

    empty: FrozenSet[CLGNode] = frozenset()

    def __init__(
        self,
        graph: SyncGraph,
        clg: CLG,
        orderings: OrderingInfo,
        coexec: CoExecInfo,
    ) -> None:
        self.graph = graph
        self.clg = clg
        self.orderings = orderings
        self.coexec = coexec

    def in_ref(self, node: SyncNode) -> CLGNode:
        return self.clg.in_node(node)

    def out_ref(self, node: SyncNode) -> CLGNode:
        return self.clg.out_node(node)

    def head_marks(
        self, head: SyncNode, use_coaccept: bool = True
    ) -> Tuple[Set[CLGNode], Set[CLGNode]]:
        return _head_marks(
            self.graph, self.clg, head, self.orderings, self.coexec,
            use_coaccept,
        )

    def tail_marks(self, tail: SyncNode) -> Set[CLGNode]:
        """DO-NOT-ENTER marks for nodes not co-executable with ``tail``."""
        clg = self.clg
        marks: Set[CLGNode] = set()
        for k in self.coexec.not_coexec_with(tail):
            marks.add(clg.in_node(k))
            marks.add(clg.out_node(k))
        return marks

    def task_restriction(self, tasks: Set[str]) -> Set[CLGNode]:
        """DO-NOT-ENTER marks removing split nodes outside ``tasks``."""
        return {
            n
            for n in self.clg.nodes
            if n.sync is not None and n.sync.task not in tasks
        }

    def search(
        self,
        required: Tuple[CLGNode, ...],
        no_sync: Set[CLGNode],
        do_not_enter: Set[CLGNode],
    ) -> Optional[Tuple[int, ...]]:
        """Cyclic component containing all ``required``, as sorted
        rendezvous uids."""
        if any(n in do_not_enter or n in no_sync for n in required):
            return None

        def edge_ok(edge: CLGEdge) -> bool:
            if edge.kind != EdgeKind.SYNC:
                return True
            return edge.src not in no_sync and edge.dst not in no_sync

        def node_ok(node: CLGNode) -> bool:
            return node not in do_not_enter

        for component in self.clg.cyclic_components(edge_ok, node_ok):
            if all(n in component for n in required):
                return project_component(component)
        return None


def _head_marks(
    graph: SyncGraph,
    clg: CLG,
    head: SyncNode,
    orderings: OrderingInfo,
    coexec: CoExecInfo,
    use_coaccept: bool = True,
) -> Tuple[Set[CLGNode], Set[CLGNode]]:
    """(no_sync, do_not_enter) marks for one hypothesized head."""
    no_sync: Set[CLGNode] = set()
    do_not_enter: Set[CLGNode] = set()
    for k in orderings.sequenceable_with(head):
        no_sync.add(clg.in_node(k))
    for k in graph.nodes_of_task(head.task):  # constraint 1c
        if k is not head:
            no_sync.add(clg.in_node(k))
    for k in graph.sync_neighbors(head):  # constraint 2
        no_sync.add(clg.in_node(k))
    if use_coaccept:
        for k in coaccept_of(graph, head):
            no_sync.add(clg.in_node(k))
            no_sync.add(clg.out_node(k))
    for k in coexec.not_coexec_with(head):
        do_not_enter.add(clg.in_node(k))
        do_not_enter.add(clg.out_node(k))
    return no_sync, do_not_enter


def _set_ops(graph: SyncGraph, index: Optional[AnalysisIndex]) -> SetOps:
    """A :class:`SetOps` over ``index``'s precompute, or a fresh one."""
    if index is not None:
        return SetOps(graph, build_clg(graph), index.orderings, index.coexec)
    return SetOps(
        graph, build_clg(graph), compute_orderings(graph),
        compute_coexec(graph),
    )


def head_pairs_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    return extensions._head_pairs(graph, _set_ops(graph, index))


def head_tail_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    return extensions._head_tail(graph, _set_ops(graph, index))


def combined_pairs_analysis(
    graph: SyncGraph,
    index: Optional[AnalysisIndex] = None,
    max_hypotheses: int = 250_000,
) -> DeadlockReport:
    return extensions._combined_pairs(
        graph, _set_ops(graph, index), max_hypotheses
    )


def k_pairs_analysis(
    graph: SyncGraph,
    k: int = 3,
    index: Optional[AnalysisIndex] = None,
    max_hypotheses: int = 500_000,
) -> DeadlockReport:
    return extensions._k_pairs(
        graph, _set_ops(graph, index), k, max_hypotheses
    )
