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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import UnknownTaskError
from ..lang.ast_nodes import Signal, Statement

__all__ = ["SyncNode", "SyncGraph", "SIGN_SEND", "SIGN_ACCEPT"]

SIGN_SEND = "+"
SIGN_ACCEPT = "-"


@dataclass(frozen=True)
class SyncNode:
    """One node of the sync graph.

    ``kind`` is ``"b"``, ``"e"``, ``"send"`` or ``"accept"``.  For
    rendezvous nodes, ``task`` is the task containing the statement and
    ``signal`` is the signal ``(t, m)``; the paper's triple notation is
    available via :attr:`triple`.  ``stmt`` is the rendezvous statement
    of the AST the graph was built from (None for ``b``/``e`` and for
    hand-built graphs); lint reads its span.
    """

    uid: int
    kind: str
    task: str = ""
    signal: Optional[Signal] = None
    label: str = ""
    stmt: Optional[Statement] = field(default=None, compare=False, repr=False)

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
    AnalysisIndex`) index their rows by it.  The adjacency itself is
    uid lists indexed by uid, so no query hashes or compares a
    :class:`SyncNode`; the ``*_uids`` accessors hand those lists out as
    tuples, and :meth:`descendant_row` and :meth:`labels` are computed
    on first use and kept until the graph changes.
    """

    def __init__(self, tasks: Sequence[str]) -> None:
        self.tasks: Tuple[str, ...] = tuple(tasks)
        self._task_index: Dict[str, int] = {
            t: i for i, t in enumerate(self.tasks)
        }
        self._nodes: List[SyncNode] = []
        # Per uid: control successor uids, control predecessor uids and
        # sync partner uids, each in insertion order.
        self._succ: List[List[int]] = []
        self._pred: List[List[int]] = []
        self._sync: List[List[int]] = []
        self._by_task: Dict[str, List[int]] = {t: [] for t in tasks}
        self._initial: Dict[str, List[int]] = {t: [] for t in tasks}
        # (task, message) -> the signal, its senders and its accepters.
        self._by_signal: Dict[
            Tuple[str, str], Tuple[Signal, List[SyncNode], List[SyncNode]]
        ] = {}
        self._cyclic: Optional[bool] = None  # has_control_cycle, cached
        # descendant_row per uid (None: not computed yet) and labels,
        # cached until the next node or control edge.
        self._desc: Optional[List[Optional[int]]] = None
        self._labels: Optional[Tuple[str, ...]] = None
        self.b = self._make_node("b", label="b")
        self.e = self._make_node("e", label="e")

    # -- construction ----------------------------------------------------

    def _make_node(
        self,
        kind: str,
        task: str = "",
        signal: Optional[Signal] = None,
        label: str = "",
        stmt: Optional[Statement] = None,
    ) -> SyncNode:
        node = SyncNode(
            uid=len(self._nodes),
            kind=kind,
            task=task,
            signal=signal,
            label=label or kind,
            stmt=stmt,
        )
        self._nodes.append(node)
        self._succ.append([])
        self._pred.append([])
        self._sync.append([])
        self._desc = self._labels = None
        return node

    def add_rendezvous(
        self,
        kind: str,
        task: str,
        signal: Signal,
        stmt: Optional[Statement] = None,
    ) -> SyncNode:
        """Add a rendezvous node ``(signal.task, signal.message, ±)``."""
        if kind not in ("send", "accept"):
            raise ValueError(f"bad rendezvous kind {kind!r}")
        sign = SIGN_SEND if kind == "send" else SIGN_ACCEPT
        label = f"({signal.task},{signal.message},{sign})"
        node = self._make_node(kind, task, signal, label, stmt)
        self._by_task[task].append(node.uid)
        key = (signal.task, signal.message)
        entry = self._by_signal.get(key)
        if entry is None:
            entry = self._by_signal[key] = (signal, [], [])
        entry[1 if kind == "send" else 2].append(node)
        return node

    def add_control_edge(self, src: SyncNode, dst: SyncNode) -> None:
        succ = self._succ[src.uid]
        if dst.uid not in succ:
            succ.append(dst.uid)
            self._pred[dst.uid].append(src.uid)
            self._cyclic = self._desc = None
        if src is self.b and dst.is_rendezvous:
            initial = self._initial[dst.task]
            if dst.uid not in initial:
                initial.append(dst.uid)

    def mark_task_skippable(self, task: str) -> None:
        """Record a rendezvous-free entry→exit path in ``task``.

        Models the paper's ``(b, e)`` control edge: the task's initial
        wave entry may be ``e``.
        """
        initial = self._initial[task]
        if self.e.uid not in initial:
            initial.append(self.e.uid)
        self.add_control_edge(self.b, self.e)

    def add_sync_edge(self, r: SyncNode, s: SyncNode) -> None:
        """Insert one undirected sync edge explicitly.

        Normal construction derives ``E_S`` from signal types via
        :meth:`connect_sync_edges`; this raw insertion exists for
        hand-built graphs — notably the Theorem-3 reduction, whose sync
        graph "cannot in general correspond to an actual program"
        (paper, Appendix A).
        """
        if s.uid not in self._sync[r.uid]:
            self._sync[r.uid].append(s.uid)
            self._sync[s.uid].append(r.uid)

    def connect_sync_edges(self) -> None:
        """Create ``E_S``: one undirected edge per complementary pair.

        A node has one signal, so it gains its partners in uid order;
        edges already present (:meth:`add_sync_edge`) are skipped.
        """
        sync = self._sync
        present = {(u, v) for u, partners in enumerate(sync) for v in partners}
        for _, senders, accepters in self._by_signal.values():
            for r in senders:
                out = sync[r.uid]
                for s in accepters:
                    if not present or (r.uid, s.uid) not in present:
                        out.append(s.uid)
                        sync[s.uid].append(r.uid)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[SyncNode, ...]:
        return tuple(self._nodes)

    @property
    def rendezvous_nodes(self) -> Tuple[SyncNode, ...]:
        return tuple(self._nodes[2:])

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
        return self._node_tuple(self._by_task[task])

    def _node_tuple(self, uids: List[int]) -> Tuple[SyncNode, ...]:
        nodes = self._nodes
        return tuple([nodes[u] for u in uids])

    def initial_options(self, task: str) -> Tuple[SyncNode, ...]:
        """Possible initial wave entries of ``task`` (successors of ``b``)."""
        return self._node_tuple(self._initial[task])

    def control_successors(self, node: SyncNode) -> Tuple[SyncNode, ...]:
        return self._node_tuple(self._succ[node.uid])

    def control_edges(self) -> Iterator[Tuple[SyncNode, SyncNode]]:
        nodes = self._nodes
        for src, dsts in zip(nodes, self._succ):
            for v in dsts:
                yield (src, nodes[v])

    def sync_neighbors(self, node: SyncNode) -> Tuple[SyncNode, ...]:
        return self._node_tuple(self._sync[node.uid])

    def sync_edges(self) -> Iterator[Tuple[SyncNode, SyncNode]]:
        """Each undirected sync edge once (lower uid first)."""
        nodes = self._nodes
        for u, partners in enumerate(self._sync):
            for v in partners:
                if u < v:
                    yield (nodes[u], nodes[v])

    def has_sync_edge(self, a: SyncNode, b: SyncNode) -> bool:
        return b.uid in self._sync[a.uid]

    def senders_of(self, signal: Signal) -> Tuple[SyncNode, ...]:
        entry = self._by_signal.get((signal.task, signal.message))
        return tuple(entry[1]) if entry is not None else ()

    def accepters_of(self, signal: Signal) -> Tuple[SyncNode, ...]:
        entry = self._by_signal.get((signal.task, signal.message))
        return tuple(entry[2]) if entry is not None else ()

    @property
    def signals(self) -> Tuple[Signal, ...]:
        return tuple(
            self._by_signal[key][0] for key in sorted(self._by_signal)
        )

    # -- uid views -----------------------------------------------------------

    def node(self, uid: int) -> SyncNode:
        return self._nodes[uid]

    def successor_uids(self, uid: int) -> Tuple[int, ...]:
        """Control successor uids of ``uid``, in insertion order."""
        return tuple(self._succ[uid])

    def predecessor_uids(self, uid: int) -> Tuple[int, ...]:
        return tuple(self._pred[uid])

    def partner_uids(self, uid: int) -> Tuple[int, ...]:
        """Sync partner uids of ``uid``, in insertion order."""
        return tuple(self._sync[uid])

    def task_uids(self, task: str) -> Tuple[int, ...]:
        """Uids of ``task``'s rendezvous nodes, ascending."""
        return tuple(self._by_task[task])

    def initial_uids(self, task: str) -> Tuple[int, ...]:
        """Uids of :meth:`initial_options`, in the same order."""
        return tuple(self._initial[task])

    def descendant_row(self, uid: int) -> int:
        """Bitset over uids of the nodes reachable from ``uid`` along
        one or more control edges: ``uid`` itself only when it lies on
        a control cycle.

        Computed on first use per uid and kept until the next
        :meth:`add_control_edge`; a walk that meets a node whose row is
        known takes that row whole instead of walking it again.
        """
        rows = self._desc
        if rows is None:
            rows = self._desc = [None] * len(self._nodes)
        row = rows[uid]
        if row is None:
            succ = self._succ
            row = 0
            stack = list(succ[uid])
            while stack:
                u = stack.pop()
                bit = 1 << u
                if row & bit:
                    continue
                known = rows[u]
                if known is None:
                    row |= bit
                    stack.extend(succ[u])
                else:
                    row |= bit | known
            rows[uid] = row
        return row

    def labels(self) -> Tuple[str, ...]:
        """``str(node)`` per uid: the one rendering of a node in
        reports, computed once per graph."""
        if self._labels is None:
            self._labels = tuple([str(node) for node in self._nodes])
        return self._labels

    # -- reachability -----------------------------------------------------

    def has_control_cycle(self) -> bool:
        """True iff the control edges contain a directed cycle.

        Computed once and kept until the next :meth:`add_control_edge`.
        """
        if self._cyclic is None:
            self._cyclic = _has_cycle(self._succ)
        return self._cyclic

    # -- export ------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "tasks": len(self.tasks),
            "nodes": len(self._nodes),
            "control_edges": sum(map(len, self._succ)),
            "sync_edges": sum(map(len, self._sync)) // 2,
        }

    def __len__(self) -> int:
        return len(self._nodes)


def bit_ids(bits: int) -> List[int]:
    """The indices of the set bits of ``bits``, lowest first."""
    ids = []
    while bits:
        low = bits & -bits
        bits ^= low
        ids.append(low.bit_length() - 1)
    return ids


def _has_cycle(succ: List[List[int]]) -> bool:
    """Kahn's algorithm over uid lists: the graph is acyclic iff
    repeatedly removing nodes without incoming edges removes all."""
    indegree = [0] * len(succ)
    for dsts in succ:
        for v in dsts:
            indegree[v] += 1
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
