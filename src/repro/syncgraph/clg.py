"""The cycle location graph (CLG) — paper, Section 3.1.

The CLG transforms the sync graph so that a plain depth-first search
finds exactly the cycles satisfying deadlock constraint 1: every node
entered via a sync edge can only be exited via a control flow edge
(constraint 1b).  Each rendezvous node ``r`` splits into ``r_i``
(incoming sync edges only) and ``r_o`` (outgoing sync edges only),
linked by an internal edge ``(r_o, r_i)``.

Construction rules (paper, verbatim numbering):

1. create distinguished ``b`` and ``e``;
2. create ``r_i``/``r_o`` per rendezvous node;
3. create internal edge ``(r_o, r_i)``;
4. control edge ``(b, r)`` → ``(b, r_o)``; ``(r, e)`` → ``(r_i, e)``;
5. control edge ``(r, s)`` → ``(r_i, s_o)``;
6. sync edge ``{r, s}`` → directed ``(r_o, s_i)`` and ``(s_o, r_i)``.

Edges carry their provenance (``control``/``internal``/``sync``) because
the refined algorithm's NO-SYNC marking suppresses only sync-derived
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .. import obs
from .model import SyncGraph, SyncNode

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["CLGNode", "CLGEdge", "CLG", "build_clg", "EdgeKind"]


class EdgeKind:
    CONTROL = "control"
    INTERNAL = "internal"
    SYNC = "sync"


@dataclass(frozen=True)
class CLGNode:
    """A CLG node: ``side`` is ``"b"``, ``"e"``, ``"i"`` or ``"o"``.

    ``sync`` is the originating sync-graph node (None for ``b``/``e``).
    """

    side: str
    sync: Optional[SyncNode] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.sync is None:
            return self.side
        return f"{self.sync}:{self.side}"


@dataclass(frozen=True)
class CLGEdge:
    src: CLGNode
    dst: CLGNode
    kind: str


class CLG:
    """The cycle location graph ``C_P = (N_CLG, E_CLG)``."""

    def __init__(self, sync_graph: SyncGraph) -> None:
        self.sync_graph = sync_graph
        self.b = CLGNode("b")
        self.e = CLGNode("e")
        self._nodes: List[CLGNode] = [self.b, self.e]
        self._in_node: Dict[SyncNode, CLGNode] = {}
        self._out_node: Dict[SyncNode, CLGNode] = {}
        self._succ: Dict[CLGNode, List[CLGEdge]] = {self.b: [], self.e: []}
        self._pred: Dict[CLGNode, List[CLGEdge]] = {self.b: [], self.e: []}
        self._node_index: Optional[Dict[CLGNode, int]] = None

    # -- construction ----------------------------------------------------

    def add_split_nodes(self, sync_node: SyncNode) -> Tuple[CLGNode, CLGNode]:
        r_i = CLGNode("i", sync_node)
        r_o = CLGNode("o", sync_node)
        self._in_node[sync_node] = r_i
        self._out_node[sync_node] = r_o
        for node in (r_i, r_o):
            self._nodes.append(node)
            self._succ[node] = []
            self._pred[node] = []
        return r_i, r_o

    def add_edge(self, src: CLGNode, dst: CLGNode, kind: str) -> None:
        edge = CLGEdge(src, dst, kind)
        if edge not in self._succ[src]:
            self._succ[src].append(edge)
            self._pred[dst].append(edge)

    # -- mapping -----------------------------------------------------------

    def in_node(self, sync_node: SyncNode) -> CLGNode:
        """The ``r_i`` node of sync-graph node ``r``."""
        return self._in_node[sync_node]

    def out_node(self, sync_node: SyncNode) -> CLGNode:
        """The ``r_o`` node of sync-graph node ``r``."""
        return self._out_node[sync_node]

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[CLGNode, ...]:
        return tuple(self._nodes)

    def out_edges(self, node: CLGNode) -> Tuple[CLGEdge, ...]:
        return tuple(self._succ[node])

    def in_edges(self, node: CLGNode) -> Tuple[CLGEdge, ...]:
        return tuple(self._pred[node])

    def edges(self) -> Iterator[CLGEdge]:
        for edges in self._succ.values():
            yield from edges

    @property
    def node_index(self) -> Dict[CLGNode, int]:
        """Dense construction-order id per node (``b``=0, ``e``=1, then
        the ``r_i``/``r_o`` pairs in sync-graph order).

        Cached; rebuilt if nodes were added since the last call.
        """
        cached = self._node_index
        if cached is None or len(cached) != len(self._nodes):
            cached = {node: i for i, node in enumerate(self._nodes)}
            self._node_index = cached
        return cached

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self._succ.values())

    # -- cycle machinery ----------------------------------------------------

    def strongly_connected_components(
        self,
        edge_filter: Optional[Callable[[CLGEdge], bool]] = None,
        node_filter: Optional[Callable[[CLGNode], bool]] = None,
    ) -> List[FrozenSet[CLGNode]]:
        """Tarjan SCCs of the (optionally filtered) CLG.

        ``node_filter``/``edge_filter`` return False to exclude a node or
        edge; excluded nodes also drop their incident edges.  Iterative
        implementation — CLGs of large generated programs overflow
        Python's recursion limit otherwise.
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
            result = []
            for edge in self._succ[node]:
                if edge_filter is not None and not edge_filter(edge):
                    continue
                if allowed(edge.dst):
                    result.append(edge.dst)
            return result

        for root in self._nodes:
            if root in index or not allowed(root):
                continue
            work: List[Tuple[CLGNode, Iterator[CLGNode]]] = []
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(neighbors(root))))
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

    def _has_self_loop(self, node: CLGNode) -> bool:
        return any(e.dst is node or e.dst == node for e in self._succ[node])

    def cyclic_components(
        self,
        edge_filter: Optional[Callable[[CLGEdge], bool]] = None,
        node_filter: Optional[Callable[[CLGNode], bool]] = None,
    ) -> List[FrozenSet[CLGNode]]:
        """SCCs that actually contain a cycle (size > 1 or a self-loop)."""
        return [
            comp
            for comp in self.strongly_connected_components(
                edge_filter, node_filter
            )
            if len(comp) > 1
            or self._has_self_loop(next(iter(comp)))
        ]

    def has_cycle(self) -> bool:
        return bool(self.cyclic_components())

    def to_networkx(self) -> "nx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._nodes)
        for edge in self.edges():
            g.add_edge(edge.src, edge.dst, kind=edge.kind)
        return g


def build_clg(sync_graph: SyncGraph) -> CLG:
    """Construct the CLG of ``sync_graph`` by the six paper rules."""
    with obs.span("clg.build") as span:
        clg = _build_clg(sync_graph)
        span.set_attribute("nodes", clg.node_count)
        span.set_attribute("edges", clg.edge_count)
    if obs.is_enabled():
        obs.counter("clg.builds").inc()
        obs.counter("clg.split_nodes").inc(
            len(sync_graph.rendezvous_nodes)
        )
        obs.gauge("clg.nodes").set(clg.node_count)
        obs.gauge("clg.edges").set(clg.edge_count)
        obs.histogram("clg.nodes_per_build").observe(clg.node_count)
    return clg


def _build_clg(sync_graph: SyncGraph) -> CLG:
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
