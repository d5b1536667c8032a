"""Execution-wave semantics: the paper's dynamic model and exact oracle."""

from .anomaly import (
    WaveClassification,
    classify_wave,
    deadlock_sets,
    is_anomalous,
    stall_nodes,
)
from .coupling import coupled_to, coupling_graph, transitively_coupled_sets
from .dot import wave_graph_to_dot
from .engine import WaveIndex
from .explore import (
    DEFAULT_STATE_LIMIT,
    ExplorationResult,
    exact_anomaly,
    exact_deadlock,
    explore,
)
from .guide import (
    DEFAULT_BEAM_WIDTH,
    STRATEGIES,
    FutureCostTable,
    build_guide,
    guide_for,
    validate_strategy,
)
from .wave import (
    Wave,
    initial_waves,
    iter_initial_waves,
    next_waves,
    next_waves_with_events,
    ready_pairs,
)
from .states import NodeState, StateSnapshot, label_wave, trace_states
from .witness import (
    AnomalyWitness,
    WitnessSearchOutcome,
    find_anomaly_witness,
    search_anomaly_witness,
)

__all__ = [
    "DEFAULT_BEAM_WIDTH",
    "DEFAULT_STATE_LIMIT",
    "STRATEGIES",
    "ExplorationResult",
    "AnomalyWitness",
    "FutureCostTable",
    "WaveIndex",
    "WitnessSearchOutcome",
    "build_guide",
    "guide_for",
    "search_anomaly_witness",
    "validate_strategy",
    "NodeState",
    "StateSnapshot",
    "Wave",
    "WaveClassification",
    "classify_wave",
    "coupled_to",
    "coupling_graph",
    "deadlock_sets",
    "exact_anomaly",
    "exact_deadlock",
    "explore",
    "initial_waves",
    "iter_initial_waves",
    "is_anomalous",
    "label_wave",
    "find_anomaly_witness",
    "next_waves",
    "next_waves_with_events",
    "ready_pairs",
    "stall_nodes",
    "trace_states",
    "wave_graph_to_dot",
    "transitively_coupled_sets",
]
