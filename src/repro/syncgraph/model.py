"""The sync graph ``SG_P = (T, N, E_C, E_S)`` (paper, Section 2).

* ``T`` — the program's tasks.
* ``N`` — one node per rendezvous statement, plus distinguished ``b``
  (begin / fork point) and ``e`` (end) nodes shared by all tasks.
* ``E_C`` — directed control flow edges between rendezvous points: an
  edge ``(r, s)`` exists iff the program has a control path from ``r``
  to ``s`` containing no other rendezvous point.
* ``E_S`` — undirected sync edges between every complementary pair of
  rendezvous points of the same signal type.

A rendezvous point is written ``(t, m, s)`` where ``(t, m)`` is the
signal (receiving task, message type) and the sign ``s`` is ``+`` for a
signaling (send) point and ``-`` for an accepting point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..cfg.graph import CFGNode
from ..errors import UnknownTaskError
from ..lang.ast_nodes import Signal

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = ["SyncNode", "SyncGraph", "SIGN_SEND", "SIGN_ACCEPT"]

SIGN_SEND = "+"
SIGN_ACCEPT = "-"


@dataclass(frozen=True)
class SyncNode:
    """One node of the sync graph.

    ``kind`` is ``"b"``, ``"e"``, ``"send"`` or ``"accept"``.  For
    rendezvous nodes, ``task`` is the task containing the statement and
    ``signal`` is the signal ``(t, m)``; the paper's triple notation is
    available via :attr:`triple`.
    """

    uid: int
    kind: str
    task: str = ""
    signal: Optional[Signal] = None
    label: str = ""
    cfg_node: Optional[CFGNode] = field(default=None, compare=False, repr=False)

    @property
    def is_rendezvous(self) -> bool:
        return self.kind in ("send", "accept")

    @property
    def sign(self) -> str:
        if self.kind == "send":
            return SIGN_SEND
        if self.kind == "accept":
            return SIGN_ACCEPT
        raise ValueError(f"node {self} has no sign")

    @property
    def triple(self) -> Tuple[str, str, str]:
        """The paper's ``(t, m, s)`` notation."""
        assert self.signal is not None
        return (self.signal.task, self.signal.message, self.sign)

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.kind in ("b", "e"):
            return self.kind
        t, m, s = self.triple
        return f"{self.task}#{self.uid}:({t},{m},{s})"


class SyncGraph:
    """The sync graph of a program.

    Construction is incremental (see :mod:`repro.syncgraph.build`);
    afterwards the graph is treated as immutable.  ``b`` and ``e`` are
    shared across tasks; per-task entry information lives in
    :meth:`initial_options`, which reflects the ``b → r`` control edges
    belonging to each task (a task with a rendezvous-free path
    contributes ``e`` as an option, modelling the paper's ``(b, e)``
    edge).

    Node uids are dense: ``b`` is 0, ``e`` is 1, and the rendezvous
    nodes follow as 2, 3, … in :attr:`rendezvous_nodes` order, so a
    rendezvous node's position there is ``uid - 2``.  The dense-id
    analyses (orderings, coexec, :class:`~repro.analysis.index.
    AnalysisIndex`) index their rows by it.
    """

    def __init__(self, tasks: Sequence[str]) -> None:
        self.tasks: Tuple[str, ...] = tuple(tasks)
        self._task_index: Dict[str, int] = {
            t: i for i, t in enumerate(self.tasks)
        }
        self._nodes: List[SyncNode] = []
        self.b = self._make_node("b", label="b")
        self.e = self._make_node("e", label="e")
        self._control_succ: Dict[SyncNode, List[SyncNode]] = {
            self.b: [],
            self.e: [],
        }
        self._control_pred: Dict[SyncNode, List[SyncNode]] = {
            self.b: [],
            self.e: [],
        }
        self._sync_adj: Dict[SyncNode, List[SyncNode]] = {}
        self._by_task: Dict[str, List[SyncNode]] = {t: [] for t in tasks}
        self._initial: Dict[str, List[SyncNode]] = {t: [] for t in tasks}
        self._by_signal: Dict[Tuple[Signal, str], List[SyncNode]] = {}

    # -- construction ----------------------------------------------------

    def _make_node(
        self,
        kind: str,
        task: str = "",
        signal: Optional[Signal] = None,
        label: str = "",
        cfg_node: Optional[CFGNode] = None,
    ) -> SyncNode:
        node = SyncNode(
            uid=len(self._nodes),
            kind=kind,
            task=task,
            signal=signal,
            label=label or kind,
            cfg_node=cfg_node,
        )
        self._nodes.append(node)
        return node

    def add_rendezvous(
        self,
        kind: str,
        task: str,
        signal: Signal,
        cfg_node: Optional[CFGNode] = None,
    ) -> SyncNode:
        """Add a rendezvous node ``(signal.task, signal.message, ±)``."""
        if kind not in ("send", "accept"):
            raise ValueError(f"bad rendezvous kind {kind!r}")
        sign = SIGN_SEND if kind == "send" else SIGN_ACCEPT
        label = f"({signal.task},{signal.message},{sign})"
        node = self._make_node(kind, task, signal, label, cfg_node)
        self._control_succ[node] = []
        self._control_pred[node] = []
        self._sync_adj[node] = []
        self._by_task[task].append(node)
        self._by_signal.setdefault((signal, sign), []).append(node)
        return node

    def add_control_edge(self, src: SyncNode, dst: SyncNode) -> None:
        if dst not in self._control_succ[src]:
            self._control_succ[src].append(dst)
            self._control_pred[dst].append(src)
        if src is self.b:
            task = dst.task if dst.is_rendezvous else None
            if task is not None and dst not in self._initial[task]:
                self._initial[task].append(dst)

    def mark_task_skippable(self, task: str) -> None:
        """Record a rendezvous-free entry→exit path in ``task``.

        Models the paper's ``(b, e)`` control edge: the task's initial
        wave entry may be ``e``.
        """
        if self.e not in self._initial[task]:
            self._initial[task].append(self.e)
        self.add_control_edge(self.b, self.e)

    def add_sync_edge(self, r: SyncNode, s: SyncNode) -> None:
        """Insert one undirected sync edge explicitly.

        Normal construction derives ``E_S`` from signal types via
        :meth:`connect_sync_edges`; this raw insertion exists for
        hand-built graphs — notably the Theorem-3 reduction, whose sync
        graph "cannot in general correspond to an actual program"
        (paper, Appendix A).
        """
        if s not in self._sync_adj[r]:
            self._sync_adj[r].append(s)
            self._sync_adj[s].append(r)

    def connect_sync_edges(self) -> None:
        """Create ``E_S``: one undirected edge per complementary pair."""
        for (signal, sign), senders in self._by_signal.items():
            if sign != SIGN_SEND:
                continue
            accepters = self._by_signal.get((signal, SIGN_ACCEPT), [])
            for r in senders:
                for s in accepters:
                    if s not in self._sync_adj[r]:
                        self._sync_adj[r].append(s)
                        self._sync_adj[s].append(r)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[SyncNode, ...]:
        return tuple(self._nodes)

    @property
    def rendezvous_nodes(self) -> Tuple[SyncNode, ...]:
        return tuple(n for n in self._nodes if n.is_rendezvous)

    def task_index(self, task: str) -> int:
        """Dense position of ``task`` in :attr:`tasks` (cached map).

        Raises :class:`~repro.errors.UnknownTaskError` for names outside
        the graph instead of leaking ``ValueError``/``KeyError``.
        """
        try:
            return self._task_index[task]
        except KeyError:
            raise UnknownTaskError(task, self.tasks) from None

    def nodes_of_task(self, task: str) -> Tuple[SyncNode, ...]:
        return tuple(self._by_task[task])

    def initial_options(self, task: str) -> Tuple[SyncNode, ...]:
        """Possible initial wave entries of ``task`` (successors of ``b``)."""
        return tuple(self._initial[task])

    def control_successors(self, node: SyncNode) -> Tuple[SyncNode, ...]:
        return tuple(self._control_succ[node])

    def control_predecessors(self, node: SyncNode) -> Tuple[SyncNode, ...]:
        return tuple(self._control_pred[node])

    def control_edges(self) -> Iterator[Tuple[SyncNode, SyncNode]]:
        for src, dsts in self._control_succ.items():
            for dst in dsts:
                yield (src, dst)

    def sync_neighbors(self, node: SyncNode) -> Tuple[SyncNode, ...]:
        return tuple(self._sync_adj.get(node, ()))

    def sync_edges(self) -> Iterator[Tuple[SyncNode, SyncNode]]:
        """Each undirected sync edge once (lower uid first)."""
        for node, neighbors in self._sync_adj.items():
            for other in neighbors:
                if node.uid < other.uid:
                    yield (node, other)

    def has_sync_edge(self, a: SyncNode, b: SyncNode) -> bool:
        return b in self._sync_adj.get(a, ())

    def senders_of(self, signal: Signal) -> Tuple[SyncNode, ...]:
        return tuple(self._by_signal.get((signal, SIGN_SEND), ()))

    def accepters_of(self, signal: Signal) -> Tuple[SyncNode, ...]:
        return tuple(self._by_signal.get((signal, SIGN_ACCEPT), ()))

    @property
    def signals(self) -> Tuple[Signal, ...]:
        return tuple(sorted({sig for (sig, _) in self._by_signal},
                            key=lambda s: (s.task, s.message)))

    # -- reachability -----------------------------------------------------

    def control_descendants(
        self, node: SyncNode, strict: bool = True
    ) -> FrozenSet[SyncNode]:
        """Nodes reachable from ``node`` along control edges.

        With ``strict=True`` the node itself is excluded unless it lies
        on a control cycle through itself.
        """
        seen: Set[SyncNode] = set()
        stack = list(self._control_succ.get(node, ()))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._control_succ.get(cur, ()))
        if not strict:
            seen.add(node)
        return frozenset(seen)

    def control_reaches(self, src: SyncNode, dst: SyncNode) -> bool:
        """True iff ``dst`` is reachable from ``src`` (reflexively)."""
        return src is dst or dst in self.control_descendants(src)

    def has_control_cycle(self) -> bool:
        """True iff the control edges contain a directed cycle.

        Kahn's algorithm over ``uid``s: the graph is acyclic iff
        repeatedly removing nodes without incoming edges removes all.
        """
        indegree = [0] * len(self._nodes)
        succ: List[List[int]] = [[] for _ in self._nodes]
        for src, dsts in self._control_succ.items():
            out = succ[src.uid]
            for dst in dsts:
                out.append(dst.uid)
                indegree[dst.uid] += 1
        ready = [u for u, d in enumerate(indegree) if d == 0]
        removed = 0
        while ready:
            u = ready.pop()
            removed += 1
            for v in succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        return removed < len(indegree)

    # -- export ------------------------------------------------------------

    def to_networkx(self) -> "nx.DiGraph":
        """Directed graph with both edge kinds, tagged ``kind=`` attribute.

        Sync edges appear in both directions with ``kind="sync"``.
        """
        import networkx as nx

        g = nx.DiGraph()
        for node in self._nodes:
            g.add_node(node, kind=node.kind, task=node.task)
        for src, dst in self.control_edges():
            g.add_edge(src, dst, kind="control")
        for a, b in self.sync_edges():
            g.add_edge(a, b, kind="sync")
            g.add_edge(b, a, kind="sync")
        return g

    def stats(self) -> Dict[str, int]:
        return {
            "tasks": len(self.tasks),
            "nodes": len(self._nodes),
            "control_edges": sum(1 for _ in self.control_edges()),
            "sync_edges": sum(1 for _ in self.sync_edges()),
        }

    def __len__(self) -> int:
        return len(self._nodes)
