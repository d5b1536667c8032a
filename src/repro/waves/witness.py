"""Anomaly witnesses: concrete schedules reaching an anomalous wave.

The static algorithms certify or report *possible* deadlocks; a witness
upgrades "possible" to *demonstrated*: a sequence of rendezvous, from
program start, after which no pair of waiting tasks can ever proceed.
Witnesses are found by breadth-first search over the wave space (so the
schedule is shortest) with parent tracking — exponential like all exact
analyses, bounded by a state budget.

The search runs on the packed-int engine and expands one persistent set
of ready pairs per wave (see :mod:`repro.waves.engine`): it finds a
witness exactly when a search of the whole space would, as short as the
BFS oracle's in ``tests/oracles/witness.py``, though not necessarily the
same schedule among equally short ones, and ``states`` counts the
reduced graph.  It is budget-faithful: the state
budget is enforced during seeding, and when it runs out the queue is
still drained — an anomalous wave discovered *before* exhaustion still
yields its witness, so downstream confirmation can answer CONFIRMED
instead of throwing the evidence away.  Only when no discovered wave
matches does a limited search raise
:class:`~repro.errors.ExplorationLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .. import obs
from ..errors import ExplorationLimitError
from ..syncgraph.model import SyncGraph, SyncNode
from .anomaly import WaveClassification
from .engine import GOALS, WaveIndex
from .guide import validate_strategy
from .wave import Wave

__all__ = [
    "AnomalyWitness",
    "WitnessSearchOutcome",
    "find_anomaly_witness",
    "search_anomaly_witness",
]

Rendezvous = Tuple[SyncNode, SyncNode]


@dataclass(frozen=True)
class AnomalyWitness:
    """A shortest schedule from start to an anomalous wave.

    ``schedule`` lists the rendezvous pairs fired in order; ``initial``
    is the branch-choice starting wave; ``waves`` the full wave
    sequence (``len(schedule) + 1`` entries, ending at the anomalous
    wave); ``classification`` the anomaly analysis of the final wave.
    """

    initial: Wave
    schedule: Tuple[Rendezvous, ...]
    waves: Tuple[Wave, ...]
    classification: WaveClassification

    @property
    def is_deadlock(self) -> bool:
        return self.classification.has_deadlock

    @property
    def is_stall(self) -> bool:
        return self.classification.has_stall

    def describe(self) -> str:
        lines = [f"initial wave: {self.initial}"]
        for step, (r, s) in enumerate(self.schedule, start=1):
            lines.append(f"  step {step}: rendezvous {r}  <->  {s}")
        final = self.classification
        kinds = []
        if final.has_deadlock:
            kinds.append("deadlock")
        if final.has_stall:
            kinds.append("stall")
        lines.append(
            f"stuck wave {final.wave} ({' + '.join(kinds) or 'anomalous'})"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class WitnessSearchOutcome:
    """One witness search, with its search-effort accounting.

    ``states`` counts distinct waves discovered before the search
    stopped — the quantity the state budget gates, and the honest
    guided-vs-BFS comparison metric; waves of the persistent-set
    reduced graph, which is what the search walks.  ``limited`` means the budget ran
    out (or, for beam, states were dropped to the width — ``truncated``
    names that cause); a witnessless limited search proves nothing,
    while ``witness is None`` with ``limited=False`` is a refutation of
    the requested anomaly over the whole reachable space.
    """

    witness: Optional[AnomalyWitness]
    states: int
    limited: bool
    truncated: bool
    strategy: str

    @property
    def refuted(self) -> bool:
        return self.witness is None and not self.limited


def find_anomaly_witness(
    graph: SyncGraph,
    kind: str = "deadlock",
    state_limit: int = 200_000,
    engine: Optional[WaveIndex] = None,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> Optional[AnomalyWitness]:
    """Shortest witness of an anomaly of the requested kind, or None.

    ``kind`` is ``"deadlock"``, ``"stall"`` or ``"any"``.  Returns None
    when no reachable wave exhibits the anomaly (which, for
    ``"deadlock"``, proves deadlock-freedom of the explored space).
    Raises :class:`ExplorationLimitError` only when the state budget is
    exhausted *and* no matching anomaly was discovered first — a
    witness found within budget is returned even if the search could
    not finish.  The contract is strategy-independent: ``"astar"``
    witnesses are shortest like BFS ones (the future-cost table is
    admissible and consistent), ``"beam"`` witnesses are valid but a
    truncated beam forfeits shortest-ness and counts as limited.
    """
    outcome = search_anomaly_witness(
        graph, kind=kind, state_limit=state_limit, engine=engine,
        strategy=strategy, beam_width=beam_width,
    )
    if outcome.witness is not None:
        return outcome.witness
    if outcome.limited:
        raise ExplorationLimitError(state_limit)
    return None


def search_anomaly_witness(
    graph: SyncGraph,
    kind: str = "deadlock",
    state_limit: int = 200_000,
    engine: Optional[WaveIndex] = None,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> WitnessSearchOutcome:
    """Like :func:`find_anomaly_witness` but never raises on a limited
    witnessless search: the :class:`WitnessSearchOutcome` carries the
    partial-result facts (states discovered, limited/truncated flags)
    for callers that must grade CONFIRMED/REFUTED/INCONCLUSIVE
    themselves."""
    if kind not in GOALS:
        raise ValueError(f"unknown anomaly kind {kind!r}")
    effective_width = validate_strategy(strategy, beam_width)
    with obs.span(
        "witness.search", kind=kind, state_limit=state_limit,
        strategy=strategy,
    ) as sp:
        if engine is None:
            engine = WaveIndex(graph)
        run = engine.search(state_limit, strategy, effective_width, goal=kind)
        data, states, limited = run.witness, run.states, run.limited
        obs.counter("witness.states_visited").inc(states)
        sp.set_attribute("states", states)
        if limited:
            obs.counter("witness.state_limit_hits").inc()
            if data is not None:
                obs.counter("witness.found_past_limit").inc()
    witness = None
    if data is not None:
        initial, schedule, waves, classification = data
        witness = AnomalyWitness(
            initial=initial,
            schedule=schedule,
            waves=waves,
            classification=classification,
        )
    return WitnessSearchOutcome(
        witness=witness,
        states=states,
        limited=limited,
        truncated=run.truncated,
        strategy=strategy,
    )
