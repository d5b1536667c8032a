"""Candidate verification: re-analyze every candidate, keep the free ones.

Verification is the certification step of the repair pipeline and it
reuses the production analysis stack wholesale:

1. Every candidate is pretty-printed and run as one serial, uncached
   farm batch (:func:`repro.farm.runner.run_batch`), so a candidate
   the pipeline rejects becomes a failed item, not an exception.
2. A candidate whose report payload comes back
   ``certified-deadlock-free`` under the requested polynomial detector
   is certified by that detector.
3. A candidate the detector still convicts gets one escalation: exact
   wave exploration (``repro.analyze(..., algorithm="exact")`` on the
   WaveIndex engine) under ``exact_budget`` states, optionally guided
   (``strategy="astar"``/``"beam"`` — see :mod:`repro.waves.guide`).
   The polynomial analyses are conservative, so this rescues
   candidates that are actually free but trip a residual false alarm.
   The escalation grades three ways: an exhaustive run with no
   deadlock wave *rescues* the candidate (``certified_exact``); a run
   that found a concrete deadlock wave — guided search reaches these
   under budgets where BFS drowns — rejects it with proof
   (``rejected_confirmed_deadlock``); a budget-limited witnessless run
   proves nothing and the candidate stays rejected
   (``rejected_still_convicted``).

Every rejection bumps the ``repair.candidates_rejected`` observability
counter — a nonzero count is the audit trail showing the verifier
filters rather than rubber-stamps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..api import analyze
from ..farm.runner import run_batch
from .model import CertifiedFix, RepairCandidate

if TYPE_CHECKING:  # pragma: no cover
    from ..api import AnalysisResult

__all__ = ["verify_candidates"]

_EMPTY_STATS = {
    "certified_static": 0,
    "certified_exact": 0,
    "rejected_failed": 0,
    "rejected_still_convicted": 0,
    "rejected_confirmed_deadlock": 0,
}


# Escalation dispositions (internal; surfaced through the stats dict).
_RESCUED = "rescued"
_CONFIRMED = "confirmed"
_INCONCLUSIVE = "inconclusive"


def _exact_escalation(
    candidate: RepairCandidate,
    exact_budget: int,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> str:
    """Exact-search a still-convicted candidate; return the outcome.

    ``analyze`` folds budget exhaustion into a conservative
    possible-deadlock verdict, so the grading reads the stats: a clean
    unlimited run rescues, a run whose search *found* a deadlock wave
    confirms the conviction (no point retrying with a bigger budget),
    and a limited witnessless run stays inconclusive.  A guided
    ``strategy`` changes only which of those a given budget lands on —
    typically turning inconclusive into rescued or confirmed.
    """
    if exact_budget <= 0:
        return _INCONCLUSIVE
    try:
        result = analyze(
            candidate.program,
            algorithm="exact",
            state_limit=exact_budget,
            strategy=strategy,
            beam_width=beam_width,
        )
    except Exception:
        return _INCONCLUSIVE
    if result.deadlock.deadlock_free:
        return _RESCUED
    if result.deadlock.stats.get("deadlock_waves", 0) > 0:
        # A reachable deadlock wave is in hand — definite even when
        # the run was budget-limited (budget-faithful partial result).
        return _CONFIRMED
    return _INCONCLUSIVE


def verify_candidates(
    original: "AnalysisResult",
    candidates: Sequence[RepairCandidate],
    algorithm: str = "refined",
    state_limit: int = 200_000,
    exact_budget: int = 50_000,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> Tuple[List[CertifiedFix], Dict[str, int]]:
    """Certify or reject every candidate; returns (fixes, stats).

    ``stats`` breaks the rejections down: ``rejected_failed`` (candidate
    did not survive the pipeline at all — parse/validation/crash),
    ``rejected_confirmed_deadlock`` (the exact escalation *found* a
    deadlock wave in the candidate — rejection with proof),
    ``rejected_still_convicted`` (analyzed fine but the conviction
    stands unsettled), plus ``certified_static`` / ``certified_exact``
    for the survivors.  ``strategy``/``beam_width`` steer the exact
    escalation's expansion order only — the static batch is
    strategy-independent.
    """
    if not candidates:
        return [], dict(_EMPTY_STATS)

    batch = run_batch(
        [
            (f"candidate-{i}-{cand.kind}", cand.source)
            for i, cand in enumerate(candidates)
        ],
        algorithm=algorithm,
        state_limit=state_limit,
    )

    original_stall_free = original.stall.stall_free
    fixes: List[CertifiedFix] = []
    stats = dict(_EMPTY_STATS)
    for cand, item in zip(candidates, batch.items):
        if not item.ok:
            stats["rejected_failed"] += 1
            continue
        if item.result["deadlock"]["deadlock_free"]:
            certified_by = algorithm
            stats["certified_static"] += 1
        else:
            disposition = _exact_escalation(
                cand, exact_budget,
                strategy=strategy, beam_width=beam_width,
            )
            if disposition == _CONFIRMED:
                stats["rejected_confirmed_deadlock"] += 1
                continue
            if disposition == _INCONCLUSIVE:
                stats["rejected_still_convicted"] += 1
                continue
            certified_by = "exact-waves"
            stats["certified_exact"] += 1
        # The stall pass does not depend on the deadlock algorithm, so
        # the batch's verdict is the rescued candidate's too.
        stall = item.result["stall"]
        fixes.append(
            CertifiedFix(
                candidate=cand,
                certified_by=certified_by,
                stall_verdict=stall["verdict"],
                introduced_stall=(
                    original_stall_free and not stall["stall_free"]
                ),
            )
        )

    rejected = (
        stats["rejected_failed"]
        + stats["rejected_still_convicted"]
        + stats["rejected_confirmed_deadlock"]
    )
    if rejected:
        obs.counter("repair.candidates_rejected").inc(rejected)
    if fixes:
        obs.counter("repair.fixes_certified").inc(len(fixes))
    return fixes, stats
