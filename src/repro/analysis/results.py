"""Result types shared by the deadlock and stall analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..lang.ast_nodes import Signal
from ..syncgraph.model import SyncGraph, SyncNode

__all__ = [
    "Verdict",
    "DeadlockEvidence",
    "DeadlockReport",
    "StallVerdict",
    "StallReport",
]


class Verdict:
    """Deadlock analysis verdicts.

    ``CERTIFIED_FREE`` is definitive (the analyses are conservative);
    ``POSSIBLE_DEADLOCK`` may be a false alarm.
    """

    CERTIFIED_FREE = "certified-deadlock-free"
    POSSIBLE_DEADLOCK = "possible-deadlock"


@dataclass(frozen=True)
class DeadlockEvidence:
    """One possible deadlock found by a detector.

    ``uids`` are the sorted uids of the rendezvous nodes of the
    strongly connected CLG component, in ``graph``, the graph under
    analysis.  ``head`` is the hypothesized head node (None for the
    naive algorithm, which reports whole components).  ``nodes``,
    ``component`` and ``tasks`` are views of ``uids`` built when read.
    """

    graph: SyncGraph = field(compare=False, repr=False)
    uids: Tuple[int, ...]
    head: Optional[SyncNode] = None
    tail: Optional[SyncNode] = None

    @property
    def nodes(self) -> Tuple[SyncNode, ...]:
        """The component's nodes in uid order."""
        node = self.graph.node
        return tuple([node(u) for u in self.uids])

    @property
    def component(self) -> FrozenSet[SyncNode]:
        return frozenset(self.nodes)

    @property
    def tasks(self) -> FrozenSet[str]:
        node = self.graph.node
        return frozenset([node(u).task for u in self.uids])

    def describe(self) -> str:
        members = ", ".join(sorted(str(n) for n in self.nodes))
        prefix = f"head {self.head}: " if self.head is not None else ""
        return f"{prefix}cycle through {{{members}}}"


@dataclass
class DeadlockReport:
    """Outcome of a deadlock analysis run."""

    verdict: str
    algorithm: str
    evidence: List[DeadlockEvidence] = field(default_factory=list)
    loops_transformed: bool = False
    heads_examined: int = 0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def deadlock_free(self) -> bool:
        return self.verdict == Verdict.CERTIFIED_FREE

    @property
    def possible_heads(self) -> FrozenSet[SyncNode]:
        return frozenset(
            e.head for e in self.evidence if e.head is not None
        )

    def describe(self) -> str:
        lines = [f"[{self.algorithm}] {self.verdict}"]
        if self.loops_transformed:
            lines.append("  (loops removed by the Lemma-1 unroll transform)")
        for ev in self.evidence:
            lines.append("  " + ev.describe())
        return "\n".join(lines)


class StallVerdict:
    """Stall analysis verdicts.

    Stall certification is intractable in general (Lemma 4), so UNKNOWN
    is a legitimate outcome for branching programs.
    """

    CERTIFIED_FREE = "certified-stall-free"
    POSSIBLE_STALL = "possible-stall"
    UNKNOWN = "unknown"


@dataclass
class StallReport:
    """Outcome of a stall analysis run.

    ``imbalanced`` lists signals whose send/accept node counts differ
    (after discounting co-dependent pairs), with their counts.
    """

    verdict: str
    method: str
    imbalanced: Dict[Signal, Tuple[int, int]] = field(default_factory=dict)
    transforms_applied: Tuple[str, ...] = ()
    notes: List[str] = field(default_factory=list)

    @property
    def stall_free(self) -> bool:
        return self.verdict == StallVerdict.CERTIFIED_FREE

    def describe(self) -> str:
        lines = [f"[{self.method}] {self.verdict}"]
        for sig, (sends, accepts) in sorted(
            self.imbalanced.items(), key=lambda kv: (kv[0].task, kv[0].message)
        ):
            lines.append(f"  signal {sig}: {sends} send(s) vs {accepts} accept(s)")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)
