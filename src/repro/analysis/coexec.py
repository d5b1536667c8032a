"""Co-executability approximation and the ``NOT-COEXEC`` vector.

Constraint 3b requires all head nodes of a deadlock cycle to be
*co-executable* in the sense of Callahan and Subhlok: executable in the
same run of the program.  Exact co-executability needs whole-program
path information; the paper assumes it "through other static analysis".

Our built-in approximation is intra-task and exact for acyclic control
flow: two rendezvous points of one task are co-executable iff one is
control-reachable from the other (a single run of a task follows one
path; two nodes both lie on some path iff one reaches the other).
Cross-task pairs default to co-executable (the conservative answer).
External facts — e.g. from a symbolic analysis — can be injected via
``extra_not_coexec``.

Like :mod:`repro.analysis.orderings`, everything is computed over
positions in ``graph.rendezvous_nodes`` (``uid - 2``, see
:class:`~repro.syncgraph.model.SyncGraph`) as int bitset rows;
:class:`SyncNode` sets are built only when a query asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from ..syncgraph.model import SyncGraph, SyncNode
from .orderings import _members

__all__ = ["CoExecInfo", "compute_coexec"]


@dataclass
class CoExecInfo:
    """``NOT-COEXEC`` facts: pairs that can never execute in one run.

    ``reach_rows[i]`` is the bitset of positions control-reachable from
    ``nodes[i]`` (strict: ``i`` itself only on a cycle through it);
    ``not_coexec_rows[i]`` the positions never co-executable with it.
    """

    nodes: Tuple[SyncNode, ...]
    reach_rows: List[int]
    not_coexec_rows: List[int]

    def position(self, node: SyncNode) -> int:
        """Position of ``node`` in :attr:`nodes`, ``-1`` if absent."""
        i = node.uid - 2
        nodes = self.nodes
        if 0 <= i < len(nodes) and (nodes[i] is node or nodes[i] == node):
            return i
        return -1

    def not_coexecutable(self, a: SyncNode, b: SyncNode) -> bool:
        i = self.position(a)
        j = self.position(b)
        return i >= 0 and j >= 0 and bool((self.not_coexec_rows[i] >> j) & 1)

    def not_coexec_with(self, a: SyncNode) -> FrozenSet[SyncNode]:
        i = self.position(a)
        if i < 0:
            return frozenset()
        return _members(self.nodes, self.not_coexec_rows[i])

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.not_coexec_rows) // 2


def compute_coexec(
    graph: SyncGraph,
    extra_not_coexec: Iterable[Tuple[SyncNode, SyncNode]] = (),
) -> CoExecInfo:
    """Compute ``NOT-COEXEC`` for every rendezvous node.

    Intra-task rule: ``a`` and ``b`` of the same task are not
    co-executable when neither control-reaches the other (they sit on
    exclusive conditional branches).  With control cycles the
    reachability test is still safe — loop bodies reach themselves.

    The reach rows are the least fixpoint of ``reach[i] = succ[i] ∪
    ⋃ reach[j]`` over the control successors ``j`` of ``i``, swept in
    reverse position order: control edges of acyclic programs run
    forward in position order, so one sweep computes them and a
    second confirms; each loop back edge costs one more sweep.
    """
    nodes = graph.rendezvous_nodes
    n = len(nodes)
    succ = [0] * n
    for src, dst in graph.control_edges():
        i = src.uid - 2
        j = dst.uid - 2
        if i >= 0 and j >= 0:  # b and e are no rendezvous
            succ[i] |= 1 << j

    reach = list(succ)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            row = succ[i]
            acc = reach[i]
            while row:
                low = row & -row
                row ^= low
                acc |= reach[low.bit_length() - 1]
            if acc != reach[i]:
                reach[i] = acc
                changed = True

    # Control edges stay inside a task, so reach rows do too.
    reached_by = [0] * n
    for i, row in enumerate(reach):
        bit = 1 << i
        while row:
            low = row & -row
            row ^= low
            reached_by[low.bit_length() - 1] |= bit

    rows = [0] * n
    for task in graph.tasks:
        members = [u - 2 for u in graph.task_uids(task)]
        task_mask = 0
        for i in members:
            task_mask |= 1 << i
        for i in members:
            rows[i] = task_mask & ~reach[i] & ~reached_by[i] & ~(1 << i)
    info = CoExecInfo(nodes=nodes, reach_rows=reach, not_coexec_rows=rows)
    for a, b in extra_not_coexec:
        i = info.position(a)
        j = info.position(b)
        if i < 0 or j < 0:
            raise KeyError(f"not a rendezvous node of this graph: {(a, b)}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return info
