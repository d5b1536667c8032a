"""Coupling relations between nodes of an execution wave (paper §2).

Node ``r`` is *coupled to* node ``s`` on wave ``W`` if there is a path
from ``s`` forward through at least one control flow edge in ``s``'s
task, then across exactly one sync edge, arriving at ``r`` — i.e. ``r``
may rendezvous with a node that executes after ``s``.  Transitive
coupling chains tasks together; Theorem 1 uses them to show deadlocks
and stalls cover all infinite waits.

The relation is computed on uid bit rows: ``r`` is coupled to ``s``
iff ``r``'s partner row meets ``s``'s strict descendant row
(:meth:`~repro.syncgraph.model.SyncGraph.descendant_row`).  The kernels
take a wave's rendezvous entries as index lists, so no
:class:`SyncNode` is hashed; the public functions build node sets only
for what they return.  ``tests/oracles/anomaly.py`` keeps the
node-keyed reading they are tested against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..syncgraph.model import SyncGraph, SyncNode, bit_ids
from .wave import Wave

__all__ = ["coupled_to", "coupling_graph", "transitively_coupled_sets"]


def partner_row(graph: SyncGraph, uid: int) -> int:
    """Bitset over uids of the sync partners of ``uid``."""
    row = 0
    for p in graph.partner_uids(uid):
        row |= 1 << p
    return row


def entry_rows(
    graph: SyncGraph, entries: Sequence[SyncNode]
) -> Tuple[List[int], List[int], List[int]]:
    """The uids of a wave's rendezvous ``entries``, their partner rows
    and their strict descendant rows."""
    uids = [n.uid for n in entries]
    return (
        uids,
        [partner_row(graph, u) for u in uids],
        [graph.descendant_row(u) for u in uids],
    )


def coupling_rows(
    uids: Sequence[int], partners: Sequence[int], descendants: Sequence[int]
) -> List[int]:
    """The coupling relation over a wave's rendezvous entries: per
    entry ``i``, the bitmask of the entries ``j != i`` that entry ``i``
    is coupled to.  ``partners`` and ``descendants`` are the entries'
    partner and strict descendant rows."""
    rows = []
    for u, mine in zip(uids, partners):
        m = 0
        if mine:
            for j, row in enumerate(descendants):
                if mine & row and uids[j] != u:
                    m |= 1 << j
        rows.append(m)
    return rows


def cyclic_sets(rows: Sequence[int]) -> List[int]:
    """Tarjan over entry indices: the strongly connected components of
    ``rows`` that contain a cycle, as bitmasks of entry indices, in the
    order they complete (roots and successors taken in wave order).
    Recursion depth is bounded by the number of tasks."""
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    stack: List[int] = []
    on_stack = 0
    counter = 0
    out: List[int] = []

    def strongconnect(v: int) -> None:
        nonlocal counter, on_stack
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack |= 1 << v
        m = rows[v]
        while m:
            bit = m & -m
            m ^= bit
            w = bit.bit_length() - 1
            if index[w] < 0:
                strongconnect(w)
                if low[w] < low[v]:
                    low[v] = low[w]
            elif on_stack & bit and index[w] < low[v]:
                low[v] = index[w]
        if low[v] == index[v]:
            comp = 0
            while True:
                w = stack.pop()
                on_stack &= ~(1 << w)
                comp |= 1 << w
                if w == v:
                    break
            if comp & (comp - 1) or (rows[v] >> v) & 1:
                out.append(comp)

    for v in range(n):
        if index[v] < 0:
            strongconnect(v)
    return out


def coupled_to(graph: SyncGraph, wave: Wave, r: SyncNode) -> FrozenSet[SyncNode]:
    """Wave nodes ``s`` such that ``r`` is coupled to ``s``.

    ``r`` is coupled to ``s`` iff some strict control descendant of ``s``
    is a sync neighbor of ``r``.
    """
    mine = partner_row(graph, r.uid)
    if not mine:
        return frozenset()
    return frozenset(
        s for s in wave.real_nodes()
        if s.uid != r.uid and mine & graph.descendant_row(s.uid)
    )


def coupling_graph(
    graph: SyncGraph, wave: Wave
) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """The depends-on relation of the wave: ``r -> coupled_to(r)``.

    An edge ``r → s`` means ``r`` can only proceed after ``s``'s task
    executes past ``s``.
    """
    entries = wave.real_nodes()
    return {
        r: frozenset(entries[j] for j in bit_ids(m))
        for r, m in zip(entries, coupling_rows(*entry_rows(graph, entries)))
    }


def transitively_coupled_sets(
    graph: SyncGraph, wave: Wave
) -> List[FrozenSet[SyncNode]]:
    """Cycles of the coupling relation on ``wave``.

    Each returned set is a strongly connected component of the coupling
    graph that contains a cycle — on an anomalous wave, exactly the
    deadlock sets ``D`` of the paper's deadlock-anomaly definition.
    """
    entries = wave.real_nodes()
    return [
        frozenset(entries[j] for j in bit_ids(comp))
        for comp in cyclic_sets(coupling_rows(*entry_rows(graph, entries)))
    ]
