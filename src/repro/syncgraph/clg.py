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

Rules 1–2 are the id layout: ``b`` = 0, ``e`` = 1, and for the
rendezvous node of uid ``u``, ``r_i`` = 2u − 2 and ``r_o`` = 2u − 1
(:func:`in_id_of`, :func:`out_id_of`).  Rules 3–6 are applied in one
place, :func:`clg_out_edges`, and everything else reads its list:
:class:`~repro.analysis.index.AnalysisIndex` turns it into bit rows,
:func:`cyclic_components` (the naive algorithm, lint's ADL010) runs
Tarjan over it, and :func:`build_clg` turns it into node and edge
objects for DOT, ``--stats`` and the paper-figure benches.

Edges carry their provenance (``control``/``internal``/``sync``) because
the refined algorithm's NO-SYNC marking suppresses only sync-derived
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .. import obs
from .model import SyncGraph, SyncNode

__all__ = [
    "CLG",
    "CLGEdge",
    "CLGNode",
    "EdgeKind",
    "build_clg",
    "clg_out_edges",
    "cyclic_components",
    "in_id_of",
    "out_id_of",
    "rendezvous_uids",
]


class EdgeKind:
    CONTROL = "control"
    INTERNAL = "internal"
    SYNC = "sync"


def in_id_of(node: SyncNode) -> int:
    """CLG id of rendezvous node ``r``'s ``r_i``: ``2·uid − 2``."""
    return 2 * node.uid - 2


def out_id_of(node: SyncNode) -> int:
    """CLG id of rendezvous node ``r``'s ``r_o``: ``2·uid − 1``."""
    return 2 * node.uid - 1


def rendezvous_uids(ids: Iterable[int]) -> Tuple[int, ...]:
    """CLG ids → the sorted uids of their rendezvous nodes; ``b`` and
    ``e`` drop out, and ``r_i``/``r_o`` give one uid."""
    return tuple(sorted({(i >> 1) + 1 for i in ids if i >= 2}))


def clg_out_edges(graph: SyncGraph) -> List[List[Tuple[int, str]]]:
    """Each CLG id's out-edges as ``(target id, kind)``, in rule order.

    An ``r_o`` lists its rule-3 internal edge first, then its rule-6
    sync edges in ``sync_edges()`` order; ``b`` and every ``r_i`` list
    their rule 4–5 control edges in ``control_edges()`` order.  The
    order is what :func:`cyclic_components` lists its components by.
    """
    control, internal = EdgeKind.CONTROL, EdgeKind.INTERNAL
    sync = EdgeKind.SYNC
    # The id arithmetic of in_id_of / out_id_of, inlined: this runs per
    # edge on every analysis.
    out: List[List[Tuple[int, str]]] = [[], []]
    for i in range(2, 2 * len(graph) - 2, 2):  # rule 3: (r_o, r_i)
        out += ([], [(i, internal)])
    b, e = graph.b, graph.e
    for src, dst in graph.control_edges():  # rules 4-5
        out[0 if src is b else 2 * src.uid - 2].append(
            (1 if dst is e else 2 * dst.uid - 1, control)
        )
    for r, s in graph.sync_edges():  # rule 6
        out[2 * r.uid - 1].append((2 * s.uid - 2, sync))
        out[2 * s.uid - 1].append((2 * r.uid - 2, sync))
    return out


def cyclic_components(
    out_edges: List[List[Tuple[int, str]]],
) -> List[List[int]]:
    """Cyclic SCCs of the unpruned CLG, as sorted id lists.

    One iterative Tarjan pass, O(N + E), over :func:`clg_out_edges`:
    roots in id order, successors in rule order.  Tarjan emits
    components in DFS completion order, so the successor order decides
    the list's order; visiting successors in id order would list them
    differently.  A component is cyclic when it has two or more nodes
    or a self-loop.
    """
    n = len(out_edges)
    order = [-1] * n  # discovery index, -1 until visited
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    counter = 0
    components: List[List[int]] = []
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(out_edges[root]))]
        while work:
            v, successors = work[-1]
            for w, _ in successors:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out_edges[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1 or any(
                        w == v for w, _ in out_edges[v]
                    ):
                        components.append(sorted(component))
    return components


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


@dataclass(frozen=True)
class CLG:
    """The CLG ``C_P = (N_CLG, E_CLG)`` as objects: nodes in id order,
    edges grouped by source id in :func:`clg_out_edges` order."""

    nodes: Tuple[CLGNode, ...]
    edges: Tuple[CLGEdge, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_clg(sync_graph: SyncGraph) -> CLG:
    """The CLG of ``sync_graph`` as objects, for export."""
    with obs.span("clg.build") as span:
        nodes = [CLGNode("b"), CLGNode("e")]
        for r in sync_graph.rendezvous_nodes:
            nodes += (CLGNode("i", r), CLGNode("o", r))
        clg = CLG(
            tuple(nodes),
            tuple(
                CLGEdge(nodes[v], nodes[w], kind)
                for v, out in enumerate(clg_out_edges(sync_graph))
                for w, kind in out
            ),
        )
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
