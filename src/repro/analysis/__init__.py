"""Static analyses: orderings, co-executability, and the two algorithms."""

from .coexec import CoExecInfo, compute_coexec
from .confirm import (
    ConfirmationOutcome,
    ConfirmedReport,
    confirm_deadlock_report,
)
from .constraint4 import (
    breakable_nodes,
    constraint4_deadlock_analysis,
    find_breaker,
)
from .extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_analysis,
)
from .index import AnalysisIndex, coaccept_of
from .naive import naive_deadlock_analysis
from .orderings import OrderingInfo, compute_orderings
from .refined import possible_heads, refined_deadlock_analysis
from .results import (
    DeadlockEvidence,
    DeadlockReport,
    StallReport,
    StallVerdict,
    Verdict,
)
from .stalls import (
    exact_stall_analysis,
    has_conditional_rendezvous,
    lemma3_stall_analysis,
    lemma4_stall_analysis,
    signal_balance,
    stall_analysis,
)

__all__ = [
    "AnalysisIndex",
    "CoExecInfo",
    "ConfirmationOutcome",
    "ConfirmedReport",
    "DeadlockEvidence",
    "DeadlockReport",
    "OrderingInfo",
    "StallReport",
    "StallVerdict",
    "Verdict",
    "breakable_nodes",
    "coaccept_of",
    "constraint4_deadlock_analysis",
    "combined_pairs_analysis",
    "compute_coexec",
    "confirm_deadlock_report",
    "compute_orderings",
    "exact_stall_analysis",
    "find_breaker",
    "has_conditional_rendezvous",
    "head_pairs_analysis",
    "head_tail_analysis",
    "k_pairs_analysis",
    "lemma3_stall_analysis",
    "lemma4_stall_analysis",
    "naive_deadlock_analysis",
    "possible_heads",
    "refined_deadlock_analysis",
    "signal_balance",
    "stall_analysis",
]
