"""Exhaustive feasible-wave exploration — the exact, exponential baseline.

``NextWavesSet*`` (the reflexive transitive closure of ``NextWavesSet``
applied to the initial waves) enumerates every synchronization state a
program can reach.  The state space is the product of per-task position
sets, so this is worst-case exponential in the number of tasks — which
is exactly why the paper develops polynomial approximations.  Here it
serves as the ground-truth oracle for precision measurements and as the
exponential comparator in the scaling benchmarks.

Waves are memoized, so exploration terminates even when the sync graph
has control cycles (source loops): the wave vector space is finite.

The search runs on the packed-integer
:class:`~repro.waves.engine.WaveIndex` engine.  It is bit-exact with
the tuple-of-nodes oracle in ``tests/oracles/explore.py``: same
``visited_count``, ``can_terminate``, anomaly classifications (in the
same order), and budget behavior.

Exploration is *budget-faithful*: ``state_limit`` is enforced during
seeding (the initial cross product can be exponentially wide on its
own) as well as expansion, and when the budget runs out everything
already discovered is still classified — the partial
:class:`ExplorationResult` (``limited=True``) is attached to the raised
:class:`~repro.errors.ExplorationLimitError`, or returned directly with
``on_limit="partial"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set

from .. import obs
from ..errors import ExplorationLimitError
from ..syncgraph.model import SyncGraph, SyncNode
from .anomaly import WaveClassification
from .engine import WaveIndex
from .guide import STRATEGIES, validate_strategy

__all__ = [
    "STRATEGIES",
    "ExplorationResult",
    "explore",
    "exact_deadlock",
    "exact_anomaly",
]

DEFAULT_STATE_LIMIT = 200_000

ON_LIMIT_MODES = ("raise", "partial")


@dataclass
class ExplorationResult:
    """Everything learned from an exhaustive exploration.

    ``anomalous`` holds the classification of every anomalous feasible
    wave.  ``can_terminate`` is True when some feasible wave has every
    task at ``e``.

    ``limited`` marks a run that exhausted ``state_limit`` **or** (for
    ``strategy="beam"``) dropped states to the beam width: the result
    is then a *partial* truth — anomalies listed and
    ``can_terminate=True`` are definite (every classified wave is
    genuinely reachable), but absence of anomalies and
    ``can_terminate=False`` are inconclusive.  ``truncated`` singles
    out the beam-width cause; it always implies ``limited``.

    ``strategy`` records the expansion order used (see
    :data:`repro.waves.guide.STRATEGIES`).  Strategy never changes
    what an *exhaustive* run finds — only which states are in hand
    when a budget trips.
    """

    graph: SyncGraph
    visited_count: int
    anomalous: List[WaveClassification] = field(default_factory=list)
    can_terminate: bool = False
    limited: bool = False
    state_limit: Optional[int] = None
    strategy: str = "bfs"
    truncated: bool = False

    @property
    def has_anomaly(self) -> bool:
        return bool(self.anomalous)

    @property
    def has_deadlock(self) -> bool:
        return any(c.has_deadlock for c in self.anomalous)

    @property
    def has_stall(self) -> bool:
        return any(c.has_stall for c in self.anomalous)

    @property
    def deadlock_waves(self) -> List[WaveClassification]:
        return [c for c in self.anomalous if c.has_deadlock]

    @property
    def stall_waves(self) -> List[WaveClassification]:
        return [c for c in self.anomalous if c.has_stall]

    @property
    def exhaustive(self) -> bool:
        """True when the whole reachable wave space was enumerated."""
        return not self.limited

    def deadlock_head_nodes(self) -> FrozenSet[SyncNode]:
        """Union of all deadlock-set members over all feasible waves."""
        heads: Set[SyncNode] = set()
        for c in self.anomalous:
            for d in c.deadlocks:
                heads |= d
        return frozenset(heads)


def explore(
    graph: SyncGraph,
    state_limit: int = DEFAULT_STATE_LIMIT,
    engine: Optional[WaveIndex] = None,
    on_limit: str = "raise",
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> ExplorationResult:
    """Enumerate ``NextWavesSet*(W_INIT)`` and classify anomalies.

    ``engine`` optionally reuses a prebuilt :class:`WaveIndex`.

    ``strategy`` selects the expansion order: ``"bfs"`` (default,
    bit-exact with the tuple-of-nodes oracle), ``"astar"`` best-first on
    the admissible future-cost table of :mod:`repro.waves.guide`, or
    ``"beam"`` (with ``beam_width``) keeping only the most promising
    states per depth layer.  An exhaustive bfs/astar run visits the
    same state set either way; beam truncation marks the result
    ``limited`` because dropped states certify nothing.

    When more than ``state_limit`` distinct waves are reached the
    search stops discovering but still classifies everything already in
    hand; ``on_limit="raise"`` (default) then raises
    :class:`~repro.errors.ExplorationLimitError` with the partial
    result attached as ``.result``, while ``on_limit="partial"``
    returns the partial :class:`ExplorationResult` (``limited=True``).
    The budget contract is identical for every strategy.
    """
    if on_limit not in ON_LIMIT_MODES:
        raise ValueError(
            f"unknown on_limit mode {on_limit!r}; "
            f"choose one of {ON_LIMIT_MODES}"
        )
    effective_width = validate_strategy(strategy, beam_width)
    with obs.span(
        "explore", state_limit=state_limit, strategy=strategy,
    ) as span:
        if engine is None:
            engine = WaveIndex(graph)
        run = engine.search(state_limit, strategy, effective_width)
        result = ExplorationResult(
            graph=graph,
            visited_count=run.states,
            anomalous=run.anomalous,
            can_terminate=run.can_terminate,
            limited=run.limited,
            state_limit=state_limit,
            strategy=strategy,
            truncated=run.truncated,
        )
        _record_exploration(span, run.states, run.frontier_peak, run.limited)
    if result.limited and on_limit == "raise":
        raise ExplorationLimitError(state_limit, result)
    return result


def _record_exploration(
    span, visited: int, frontier_peak: int, limited: bool
) -> None:
    """Publish one exploration's stats (no-op when obs is disabled)."""
    if not obs.is_enabled():
        return
    span.set_attribute("states", visited)
    span.set_attribute("frontier_peak", frontier_peak)
    obs.counter("explore.states_visited").inc(visited)
    obs.gauge("explore.frontier_peak").set(frontier_peak)
    obs.histogram("explore.states_per_run").observe(visited)
    if limited:
        obs.counter("explore.state_limit_hits").inc()


def exact_deadlock(
    graph: SyncGraph,
    state_limit: int = DEFAULT_STATE_LIMIT,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> bool:
    """True iff some feasible wave exhibits a deadlock anomaly."""
    return explore(
        graph, state_limit, strategy=strategy, beam_width=beam_width
    ).has_deadlock


def exact_anomaly(
    graph: SyncGraph,
    state_limit: int = DEFAULT_STATE_LIMIT,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> bool:
    """True iff some feasible wave is anomalous (stall or deadlock)."""
    return explore(
        graph, state_limit, strategy=strategy, beam_width=beam_width
    ).has_anomaly
