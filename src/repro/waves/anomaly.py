"""Anomaly classification of execution waves (paper §2).

``Anomalous(W)``: the wave contains at least one real rendezvous node
and no two wave entries share a sync edge — no rendezvous can fire, yet
some task has not terminated.

An anomalous wave exhibits a *stall* at node ``r = (t, m, s)`` when no
complementary node ``z = (t, m, s̄)`` is control-reachable from any wave
entry: nothing can ever rendezvous with ``r`` again.

It exhibits a *deadlock* when some subset ``D`` of its entries is
cyclically coupled: each node of ``D`` waits on a control descendant of
another node of ``D``.

Theorem 1 (checked by :func:`classify_wave` and enforced in property
tests): every node of an anomalous wave is a stall node, a deadlock
participant, or transitively coupled to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..syncgraph.model import SyncGraph, SyncNode, bit_ids
from .coupling import (
    coupling_rows,
    cyclic_sets,
    entry_rows,
    transitively_coupled_sets,
)
from .wave import Wave, ready_pairs

__all__ = ["WaveClassification", "is_anomalous", "stall_nodes", "deadlock_sets",
           "classify_wave"]


def is_anomalous(graph: SyncGraph, wave: Wave) -> bool:
    """``Anomalous(W)`` exactly as defined in the paper."""
    if not wave.real_nodes():
        return False
    return not ready_pairs(graph, wave)


def _stall_bits(
    uids: List[int], partners: List[int], descendants: List[int]
) -> int:
    """Bitmask of the entries none of whose partners is reachable."""
    reachable = 0
    for u, row in zip(uids, descendants):
        reachable |= (1 << u) | row
    stalled = 0
    for i, row in enumerate(partners):
        if not row & reachable:
            stalled |= 1 << i
    return stalled


def stall_nodes(graph: SyncGraph, wave: Wave) -> Tuple[SyncNode, ...]:
    """Wave entries that are stall nodes of the (anomalous) wave.

    ``r`` stalls when no sync partner of ``r`` is control-reachable
    (reflexively) from the current position of any task.  A partner
    *on* the wave would contradict anomaly, so reflexive reachability
    is safe.
    """
    entries = wave.real_nodes()
    stalled = _stall_bits(*entry_rows(graph, entries))
    return tuple(entries[i] for i in bit_ids(stalled))


def deadlock_sets(graph: SyncGraph, wave: Wave) -> List[FrozenSet[SyncNode]]:
    """The deadlock sets ``D`` of the (anomalous) wave — coupling cycles."""
    return transitively_coupled_sets(graph, wave)


@dataclass(frozen=True)
class WaveClassification:
    """Full classification of one anomalous wave."""

    wave: Wave
    stalls: Tuple[SyncNode, ...]
    deadlocks: Tuple[FrozenSet[SyncNode], ...]
    coupled_to_anomaly: Tuple[SyncNode, ...]

    @property
    def has_stall(self) -> bool:
        return bool(self.stalls)

    @property
    def has_deadlock(self) -> bool:
        return bool(self.deadlocks)

    @property
    def covers_all_nodes(self) -> bool:
        """Theorem 1: every real wave node is accounted for."""
        accounted = set(self.stalls) | set(self.coupled_to_anomaly)
        for d in self.deadlocks:
            accounted |= d
        return all(r in accounted for r in self.wave.real_nodes())


def classify_wave(graph: SyncGraph, wave: Wave) -> WaveClassification:
    """Classify an anomalous wave into stalls, deadlocks and coupled nodes.

    Works on the rendezvous entries' uid rows (partner rows, and
    :meth:`~repro.syncgraph.model.SyncGraph.descendant_row`); nodes are
    hashed only to build the returned deadlock sets.  Stalls and
    coupled nodes are listed in wave order.  Raises ``ValueError`` if
    the wave is not anomalous.
    """
    if not is_anomalous(graph, wave):
        raise ValueError(f"wave {wave} is not anomalous")
    entries = wave.real_nodes()
    uids, partners, descendants = entry_rows(graph, entries)
    stalled = _stall_bits(uids, partners, descendants)
    rows = coupling_rows(uids, partners, descendants)
    cycles = cyclic_sets(rows)
    anchor = stalled
    for comp in cycles:
        anchor |= comp

    # Transitive closure of the depends-on relation into the anchor set.
    coupled = 0
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            held = anchor | coupled
            if not (held >> i) & 1 and row & held:
                coupled |= 1 << i
                changed = True
    return WaveClassification(
        wave=wave,
        stalls=tuple(entries[i] for i in bit_ids(stalled)),
        deadlocks=tuple(
            frozenset([entries[i] for i in bit_ids(comp)]) for comp in cycles
        ),
        coupled_to_anomaly=tuple(entries[i] for i in bit_ids(coupled)),
    )
