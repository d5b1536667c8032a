"""Counterexample-driven deadlock repair (``repro.repair``).

Given a program the static pipeline convicts, synthesize candidate
edits from the deadlock evidence (:mod:`.generator`), certify each one
by re-running the analysis pipeline — one farm batch of polynomial
re-analysis with exact WaveIndex escalation (:mod:`.verifier`) — and
rank the certified fixes by locality and safety (:mod:`.ranking`).

One-call entry point::

    import repro
    from repro.repair import suggest_repairs

    report = suggest_repairs('''
        program crossed;
        task a is begin send b.x; accept y; end;
        task b is begin send a.y; accept x; end;
    ''')
    assert report.fixed
    print(report.fixes[0].description)

Certified fixes flow out three ways: SARIF ``fix`` objects on the lint
diagnostics (:func:`repro.lint.output.sarif_report`), unified diffs via
the CLI's ``--suggest-fixes``, and the JSON ``RepairReport``
serialisation (:func:`repro.reporting.repair_report_to_dict`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Union

from .. import obs
from ..api import analyze
from ..lang.ast_nodes import Program
from .generator import generate_candidates
from .model import (
    CertifiedFix,
    RepairCandidate,
    RepairReport,
    changed_tasks,
    unified_fix_diff,
)
from .ranking import rank_fixes
from .verifier import verify_candidates

if TYPE_CHECKING:  # pragma: no cover
    from ..api import AnalysisResult

__all__ = [
    "CertifiedFix",
    "RepairCandidate",
    "RepairReport",
    "changed_tasks",
    "generate_candidates",
    "rank_fixes",
    "suggest_repairs",
    "unified_fix_diff",
    "verify_candidates",
]


def suggest_repairs(
    program: Union[str, Program, None] = None,
    algorithm: str = "refined",
    state_limit: int = 200_000,
    exact_budget: int = 50_000,
    max_candidates: int = 64,
    max_fixes: int = 5,
    result: Optional["AnalysisResult"] = None,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> RepairReport:
    """Synthesize and certify deadlock fixes for one convicted program.

    Pass either ``program`` (source text or AST; it is analyzed first
    with ``algorithm``) or a ready ``result`` from a previous
    :func:`repro.analyze` call.  Returns a :class:`RepairReport`; when
    the program is already certified deadlock-free the report is empty
    with ``original_verdict`` recording the clean verdict.

    ``max_candidates`` bounds generation, ``max_fixes`` bounds how many
    ranked certified fixes the report keeps, ``exact_budget`` is the
    WaveIndex state budget for the exact escalation pass (0 disables
    it).  ``strategy``/``beam_width`` steer the exact escalation's expansion
    order (see :mod:`repro.waves.guide`): a guided escalation can
    rescue — or reject with a concrete deadlock wave — candidates the
    same budget leaves inconclusive under BFS.
    """
    if result is None:
        if program is None:
            raise TypeError("suggest_repairs needs a program or a result")
        result = analyze(
            program,
            algorithm=algorithm,
            state_limit=state_limit,
        )

    started = time.perf_counter()
    with obs.span("repair.suggest", algorithm=algorithm):
        report = RepairReport(
            program_name=result.program.name,
            original_verdict=result.deadlock.verdict,
            original_stall_verdict=result.stall.verdict,
            algorithm=algorithm,
        )
        if result.deadlock.deadlock_free:
            report.wall_time_s = time.perf_counter() - started
            return report

        candidates = generate_candidates(
            result, max_candidates=max_candidates
        )
        report.candidates_generated = len(candidates)
        fixes, stats = verify_candidates(
            result,
            candidates,
            algorithm=algorithm,
            state_limit=state_limit,
            exact_budget=exact_budget,
            strategy=strategy,
            beam_width=beam_width,
        )
        report.candidates_rejected = (
            stats["rejected_failed"]
            + stats["rejected_still_convicted"]
            + stats["rejected_confirmed_deadlock"]
        )
        report.stats = stats
        report.fixes = rank_fixes(fixes)[:max_fixes]
        report.wall_time_s = time.perf_counter() - started
        if obs.is_enabled():
            obs.counter("repair.runs").inc()
    return report
