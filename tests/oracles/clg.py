"""Object oracle for the cycle location graph (paper, Section 3.1).

:mod:`repro.syncgraph.clg` applies the construction rules once, as
per-id out-edge lists that the bit rows, the cycle search and the
export all read.  This oracle applies the six rules literally: it
creates ``b``/``e`` and each ``r_i``/``r_o`` as :class:`CLGNode`
objects and adds every edge as a :class:`CLGEdge`, skipping duplicates.
Its Tarjan pass is keyed by node objects and takes per-node and
per-edge filters, the form the refined and extension oracles prune
with.  ``tests/test_index_rows.py`` compares the product's bit rows,
cycle list and export against it.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.syncgraph.clg import CLGEdge, CLGNode, EdgeKind
from repro.syncgraph.model import SyncGraph, SyncNode

EdgeFilter = Optional[Callable[[CLGEdge], bool]]
NodeFilter = Optional[Callable[[CLGNode], bool]]


class CLG:
    """The cycle location graph ``C_P = (N_CLG, E_CLG)`` as objects."""

    def __init__(self, sync_graph: SyncGraph) -> None:
        self.sync_graph = sync_graph
        self.b = CLGNode("b")
        self.e = CLGNode("e")
        self._nodes: List[CLGNode] = [self.b, self.e]
        self._in_node: Dict[SyncNode, CLGNode] = {}
        self._out_node: Dict[SyncNode, CLGNode] = {}
        self._succ: Dict[CLGNode, List[CLGEdge]] = {self.b: [], self.e: []}

    # -- construction ----------------------------------------------------

    def add_split_nodes(self, sync_node: SyncNode) -> None:
        r_i = CLGNode("i", sync_node)
        r_o = CLGNode("o", sync_node)
        self._in_node[sync_node] = r_i
        self._out_node[sync_node] = r_o
        for node in (r_i, r_o):
            self._nodes.append(node)
            self._succ[node] = []

    def add_edge(self, src: CLGNode, dst: CLGNode, kind: str) -> None:
        edge = CLGEdge(src, dst, kind)
        if edge not in self._succ[src]:
            self._succ[src].append(edge)

    # -- mapping and queries ----------------------------------------------

    def in_node(self, sync_node: SyncNode) -> CLGNode:
        """The ``r_i`` node of sync-graph node ``r``."""
        return self._in_node[sync_node]

    def out_node(self, sync_node: SyncNode) -> CLGNode:
        """The ``r_o`` node of sync-graph node ``r``."""
        return self._out_node[sync_node]

    @property
    def nodes(self) -> Tuple[CLGNode, ...]:
        return tuple(self._nodes)

    def edges(self) -> Iterator[CLGEdge]:
        for edges in self._succ.values():
            yield from edges

    @property
    def node_index(self) -> Dict[CLGNode, int]:
        """Construction-order id per node: ``b`` = 0, ``e`` = 1, then
        the ``r_i``/``r_o`` pairs in sync-graph order."""
        return {node: i for i, node in enumerate(self._nodes)}

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self._succ.values())

    # -- cycle machinery ----------------------------------------------------

    def strongly_connected_components(
        self, edge_filter: EdgeFilter = None, node_filter: NodeFilter = None
    ) -> List[FrozenSet[CLGNode]]:
        """Tarjan SCCs of the (optionally filtered) CLG.

        ``node_filter``/``edge_filter`` return False to exclude a node or
        edge; excluded nodes also drop their incident edges.  Iterative,
        since CLGs of large generated programs overflow Python's
        recursion limit otherwise.
        """
        index: Dict[CLGNode, int] = {}
        lowlink: Dict[CLGNode, int] = {}
        on_stack: Set[CLGNode] = set()
        stack: List[CLGNode] = []
        counter = 0
        components: List[FrozenSet[CLGNode]] = []

        def allowed(node: CLGNode) -> bool:
            return node_filter is None or node_filter(node)

        def neighbors(node: CLGNode) -> List[CLGNode]:
            return [
                edge.dst
                for edge in self._succ[node]
                if (edge_filter is None or edge_filter(edge))
                and allowed(edge.dst)
            ]

        for root in self._nodes:
            if root in index or not allowed(root):
                continue
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            work: List[Tuple[CLGNode, Iterator[CLGNode]]] = [
                (root, iter(neighbors(root)))
            ]
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = lowlink[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(neighbors(nxt))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        lowlink[node] = min(lowlink[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[CLGNode] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member is node:
                            break
                    components.append(frozenset(component))
        return components

    def cyclic_components(
        self, edge_filter: EdgeFilter = None, node_filter: NodeFilter = None
    ) -> List[FrozenSet[CLGNode]]:
        """SCCs that actually contain a cycle (size > 1 or a self-loop)."""
        return [
            comp
            for comp in self.strongly_connected_components(
                edge_filter, node_filter
            )
            if len(comp) > 1
            or any(e.dst in comp for e in self._succ[next(iter(comp))])
        ]

    def has_cycle(self) -> bool:
        return bool(self.cyclic_components())


def build_clg(sync_graph: SyncGraph) -> CLG:
    """Construct the CLG of ``sync_graph`` by the six paper rules."""
    clg = CLG(sync_graph)
    for node in sync_graph.rendezvous_nodes:  # rules 1-2
        clg.add_split_nodes(node)
    for node in sync_graph.rendezvous_nodes:  # rule 3
        clg.add_edge(clg.out_node(node), clg.in_node(node), EdgeKind.INTERNAL)
    for src, dst in sync_graph.control_edges():  # rules 4-5
        if src is sync_graph.b and dst is sync_graph.e:
            clg.add_edge(clg.b, clg.e, EdgeKind.CONTROL)
        elif src is sync_graph.b:
            clg.add_edge(clg.b, clg.out_node(dst), EdgeKind.CONTROL)
        elif dst is sync_graph.e:
            clg.add_edge(clg.in_node(src), clg.e, EdgeKind.CONTROL)
        else:
            clg.add_edge(clg.in_node(src), clg.out_node(dst), EdgeKind.CONTROL)
    for r, s in sync_graph.sync_edges():  # rule 6
        clg.add_edge(clg.out_node(r), clg.in_node(s), EdgeKind.SYNC)
        clg.add_edge(clg.out_node(s), clg.in_node(r), EdgeKind.SYNC)
    return clg
