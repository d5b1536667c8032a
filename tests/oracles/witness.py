"""Tuple-of-nodes oracle for shortest anomaly-witness search.

:func:`find_witness_reference` is breadth-first search over
:class:`~repro.waves.wave.Wave` objects with parent links.  The
product's packed-integer kernel
(:meth:`repro.waves.engine.WaveIndex.find_witness`) has the same
contract and must return the same schedule, wave chain and state count.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import ExplorationLimitError
from repro.syncgraph.model import SyncGraph
from repro.waves.anomaly import WaveClassification
from repro.waves.wave import Wave, iter_initial_waves, next_waves_with_events
from repro.waves.witness import AnomalyWitness, Rendezvous

from .anomaly import classify_wave, is_anomalous


def find_witness_reference(
    graph: SyncGraph,
    matches,
    state_limit: int,
) -> Tuple[
    Optional[Tuple[Wave, Tuple[Rendezvous, ...], Tuple[Wave, ...],
                   WaveClassification]],
    int,
    bool,
]:
    """Oracle BFS kernel (same contract as
    :meth:`WaveIndex.find_witness`)."""
    parents: Dict[Wave, Optional[Tuple[Wave, Rendezvous]]] = {}
    queue: deque = deque()
    limited = False
    for wave in iter_initial_waves(graph):
        if wave in parents:
            continue
        if len(parents) >= state_limit:
            limited = True
            break
        parents[wave] = None
        queue.append(wave)
    while queue:
        wave = queue.popleft()
        if wave.is_terminal(graph):
            continue
        if is_anomalous(graph, wave):
            classification = classify_wave(graph, wave)
            if not matches(classification):
                continue
            schedule: List[Rendezvous] = []
            chain: List[Wave] = [wave]
            cursor = wave
            while True:
                parent = parents[cursor]
                if parent is None:
                    break
                cursor, event = parent
                schedule.append(event)
                chain.append(cursor)
            schedule.reverse()
            chain.reverse()
            return (
                (cursor, tuple(schedule), tuple(chain), classification),
                len(parents),
                limited,
            )
        if limited:
            continue
        for event, nxt in next_waves_with_events(graph, wave):
            if nxt in parents:
                continue
            if len(parents) >= state_limit:
                limited = True
                break
            parents[nxt] = (wave, event)
            queue.append(nxt)
    return None, len(parents), limited


def find_anomaly_witness(
    graph: SyncGraph,
    kind: str = "deadlock",
    state_limit: int = 200_000,
) -> Optional[AnomalyWitness]:
    """:func:`repro.waves.witness.find_anomaly_witness`
    (``strategy="bfs"``) on the oracle kernel: a witness found within
    budget is returned, a limited witnessless search raises."""

    def matches(classification: WaveClassification) -> bool:
        if kind == "deadlock":
            return classification.has_deadlock
        if kind == "stall":
            return classification.has_stall
        return True

    data, _states, limited = find_witness_reference(
        graph, matches, state_limit
    )
    if data is None:
        if limited:
            raise ExplorationLimitError(state_limit)
        return None
    initial, schedule, waves, classification = data
    return AnomalyWitness(
        initial=initial,
        schedule=schedule,
        waves=waves,
        classification=classification,
    )
