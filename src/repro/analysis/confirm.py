"""Bounded confirmation of possible-deadlock reports.

The polynomial detectors are conservative; when they report a possible
deadlock, a bounded exact search can often settle the question on
real-world-sized programs:

* a witness upgrades the verdict to **confirmed** with a concrete
  schedule;
* exhausting the wave space without an anomaly *disproves* the report
  (the alarm was false) — the program is certified after all;
* hitting the state budget leaves the verdict **possible**, faithfully
  — *unless* a deadlock wave was already discovered within the budget,
  in which case the search still returns its witness and the verdict is
  CONFIRMED (budget-faithful search keeps partial findings instead of
  discarding them).

The search runs on the indexed wave engine (see
:mod:`repro.waves.engine`).

This is a practical layer on top of the paper: it composes the paper's
cheap certification with its own exact semantics as an escalation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..syncgraph.model import SyncGraph
from ..waves.engine import WaveIndex
from ..waves.guide import build_guide
from ..waves.witness import AnomalyWitness, search_anomaly_witness
from .results import DeadlockReport, Verdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> confirm)
    from ..api import AnalysisResult

__all__ = [
    "ConfirmationOutcome",
    "ConfirmedReport",
    "confirm_deadlock_report",
    "confirm_analysis",
]


class ConfirmationOutcome:
    CONFIRMED = "confirmed-deadlock"
    REFUTED = "false-alarm-refuted"
    INCONCLUSIVE = "inconclusive-budget-exhausted"
    NOT_NEEDED = "not-needed-already-certified"
    # No witness exists in the *unrolled* graph, but the Lemma-1 guarded
    # copies bound loop iterations, so absence there does not refute a
    # deadlock needing more iterations.  Use :func:`confirm_analysis`
    # (which searches the pre-unroll graph) for a definitive answer.
    UNROLL_LIMITED = "refuted-modulo-loop-unroll"


@dataclass
class ConfirmedReport:
    """A deadlock report augmented with a confirmation attempt."""

    report: DeadlockReport
    outcome: str
    witness: Optional[AnomalyWitness] = None
    states_budget: int = 0

    @property
    def final_verdict(self) -> str:
        if self.outcome == ConfirmationOutcome.CONFIRMED:
            return ConfirmationOutcome.CONFIRMED
        if self.outcome == ConfirmationOutcome.REFUTED:
            return Verdict.CERTIFIED_FREE
        return self.report.verdict

    def describe(self) -> str:
        lines = [self.report.describe(), f"confirmation: {self.outcome}"]
        if self.witness is not None:
            lines.append(self.witness.describe())
        return "\n".join(lines)


def _unroll_approximated(report: DeadlockReport) -> bool:
    """Whether the unrolled graph of ``report``'s program
    under-approximates its loops; exact reports, which searched the
    pre-unroll graph instead, say ``explored_pre_unroll_graph``."""
    stats = report.stats
    return bool(
        stats.get("unroll_approximated")
        or stats.get("explored_pre_unroll_graph")
    )


def confirm_deadlock_report(
    graph: SyncGraph,
    report: DeadlockReport,
    state_limit: int = 100_000,
    loop_faithful: Optional[bool] = None,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
    engine: Optional[WaveIndex] = None,
) -> ConfirmedReport:
    """Attempt to confirm or refute a possible-deadlock report.

    Does nothing when the report already certifies the program.
    ``strategy`` selects the expansion order (``"bfs"``, ``"astar"``, or
    ``"beam"`` with ``beam_width`` — see :mod:`repro.waves.guide`).
    Strategy never changes the outcome grading: a CONFIRMED witness is
    a real schedule whatever order found it, and REFUTED requires an
    unlimited, untruncated search (a truncated beam can only CONFIRM
    or stay INCONCLUSIVE).

    ``loop_faithful`` states whether ``graph`` reflects the program's
    true loop semantics.  When it does not (an approximate Lemma-1
    unroll — inferred from the report by :func:`_unroll_approximated`
    when left ``None``), an exhausted witness search yields
    :data:`ConfirmationOutcome.UNROLL_LIMITED` instead of REFUTED: the
    unrolled graph under-approximates loop behaviours, so absence of a
    witness there cannot certify the program.

    ``engine`` optionally reuses a :class:`~repro.waves.engine.WaveIndex`
    built over ``graph`` (with its cached guide).
    """
    if loop_faithful is None:
        loop_faithful = not _unroll_approximated(report)
    if report.deadlock_free:
        return ConfirmedReport(
            report=report,
            outcome=ConfirmationOutcome.NOT_NEEDED,
            states_budget=state_limit,
        )
    outcome = search_anomaly_witness(
        graph, kind="deadlock", state_limit=state_limit, engine=engine,
        strategy=strategy, beam_width=beam_width,
    )
    if outcome.witness is not None:
        return ConfirmedReport(
            report=report,
            outcome=ConfirmationOutcome.CONFIRMED,
            witness=outcome.witness,
            states_budget=state_limit,
        )
    if outcome.limited:
        return ConfirmedReport(
            report=report,
            outcome=ConfirmationOutcome.INCONCLUSIVE,
            states_budget=state_limit,
        )
    return ConfirmedReport(
        report=report,
        outcome=(
            ConfirmationOutcome.REFUTED
            if loop_faithful
            else ConfirmationOutcome.UNROLL_LIMITED
        ),
        states_budget=state_limit,
    )


def confirm_analysis(
    result: "AnalysisResult",
    state_limit: int = 100_000,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> ConfirmedReport:
    """Confirm or refute one :func:`repro.api.analyze` result.

    Unlike calling :func:`confirm_deadlock_report` on
    ``result.sync_graph`` directly, this picks a *loop-faithful* search
    graph: when the analysis ran on an approximate Lemma-1 unroll, the
    witness search runs on the pre-unroll (inlined) graph instead —
    wave memoization keeps it terminating on cyclic control flow — so
    REFUTED outcomes genuinely certify the program.

    A guided search on ``result.sync_graph`` takes its future-cost
    table from the refined report the analysis already holds instead of
    rerunning the refined analysis for it.
    """
    graph = result.sync_graph
    engine = None
    if _unroll_approximated(result.deadlock):
        from ..syncgraph.build import build_sync_graph
        from ..transforms.inline import inline_procedures

        inlined, _ = inline_procedures(result.program)
        graph = build_sync_graph(inlined)
    elif (
        strategy != "bfs"
        and result.deadlock.algorithm == "refined"
        and not result.deadlock.deadlock_free
    ):
        engine = WaveIndex(graph)
        build_guide(engine, result.deadlock)
    return confirm_deadlock_report(
        graph,
        result.deadlock,
        state_limit=state_limit,
        loop_faithful=True,
        strategy=strategy,
        beam_width=beam_width,
        engine=engine,
    )
