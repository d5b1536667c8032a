"""Tuple-of-nodes oracle for exhaustive wave exploration.

:func:`explore_reference` walks ``NextWavesSet*`` over
:class:`~repro.waves.wave.Wave` objects, the paper's semantics read
literally.  The product's packed-integer kernel
(:meth:`repro.waves.engine.WaveIndex.explore`) has the same contract
and must agree with it bit for bit: visited count, termination,
anomaly classifications in order, and budget behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set, Tuple

from repro.errors import ExplorationLimitError
from repro.syncgraph.model import SyncGraph
from repro.waves.anomaly import WaveClassification
from repro.waves.explore import DEFAULT_STATE_LIMIT, ExplorationResult
from repro.waves.wave import (
    Wave,
    _advance_options,
    iter_initial_waves,
    ready_pairs,
)

from .anomaly import classify_wave


def explore_reference(
    graph: SyncGraph, state_limit: int
) -> Tuple[int, bool, List[WaveClassification], bool, int]:
    """The tuple-of-nodes oracle kernel (same contract as
    :meth:`WaveIndex.explore`)."""
    visited: Set[Wave] = set()
    queue: deque = deque()
    limited = False
    for wave in iter_initial_waves(graph):
        if wave in visited:
            continue
        if len(visited) >= state_limit:
            limited = True
            break
        visited.add(wave)
        queue.append(wave)
    can_terminate = False
    anomalous: List[WaveClassification] = []
    frontier_peak = 0
    while queue:
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)
        wave = queue.popleft()
        if wave.is_terminal(graph):
            can_terminate = True
            continue
        pairs = ready_pairs(graph, wave)
        if not pairs:
            if wave.real_nodes():
                anomalous.append(classify_wave(graph, wave))
            continue
        if limited:
            continue  # budget spent: classify what we have, no growth
        for i, j in pairs:
            for succ_i in _advance_options(graph, wave.positions[i]):
                for succ_j in _advance_options(graph, wave.positions[j]):
                    nxt = wave.replace(i, succ_i).replace(j, succ_j)
                    if nxt in visited:
                        continue
                    if len(visited) >= state_limit:
                        limited = True
                        break
                    visited.add(nxt)
                    queue.append(nxt)
                if limited:
                    break
            if limited:
                break
    return len(visited), can_terminate, anomalous, limited, frontier_peak


def explore(
    graph: SyncGraph,
    state_limit: int = DEFAULT_STATE_LIMIT,
    on_limit: str = "raise",
) -> ExplorationResult:
    """:func:`repro.waves.explore.explore` (``strategy="bfs"``) on the
    oracle kernel: same result, same ``on_limit`` contract."""
    visited_count, can_terminate, anomalous, limited, _peak = (
        explore_reference(graph, state_limit)
    )
    result = ExplorationResult(
        graph=graph,
        visited_count=visited_count,
        anomalous=anomalous,
        can_terminate=can_terminate,
        limited=limited,
        state_limit=state_limit,
    )
    if limited and on_limit == "raise":
        raise ExplorationLimitError(state_limit, result)
    return result
