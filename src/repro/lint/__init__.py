"""``repro.lint`` — a rule-based static lint engine for ADL programs.

The analysis pipeline answers *is this program anomaly-free*; the lint
engine answers *where, exactly, is this program suspicious* — as
source-located, machine-readable diagnostics, the way production
checkers for message-passing programs report (cf. MPI deadlock
checkers, X10 clocked-race checkers).  Rules are cheap, local,
paper-grounded screens (Lemma-3 stall counts, constraint-1 coupling
candidates, Lemma-1 precision hazards) that run without the full
certification pipeline.

Typical use::

    from repro.lint import lint_source

    result = lint_source(open("program.adl").read(), path="program.adl")
    for diag in result.diagnostics:
        print(diag.format("program.adl"))

or from the CLI: ``repro-analyze program.adl --lint --fail-on warning``.
Output backends live in :mod:`repro.lint.output` (text, JSON, SARIF
2.1.0); suppressions use ``-- lint: disable=RULE`` source comments.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..diagnostics import Diagnostic, Related, Severity
from ..lang.parser import parse_program
from .engine import (
    LintContext,
    LintResult,
    LintRule,
    all_rules,
    get_rule,
    lint_rule,
    run_lint,
    scan_suppressions,
)
from .output import (
    LINT_SCHEMA_VERSION,
    SARIF_VERSION,
    RepairAttachment,
    lint_to_dict,
    render_text,
    sarif_report,
    validate_sarif_shape,
)

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintResult",
    "LintRule",
    "LINT_SCHEMA_VERSION",
    "Related",
    "RepairAttachment",
    "SARIF_VERSION",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_rule",
    "lint_source",
    "lint_to_dict",
    "render_text",
    "run_lint",
    "sarif_report",
    "scan_suppressions",
    "validate_sarif_shape",
]


def lint_source(
    source: str,
    path: str = "<source>",
    disable: Sequence[str] = (),
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Parse ADL source text and lint it.

    Raises :class:`~repro.errors.LexError` /
    :class:`~repro.errors.ParseError` on malformed input — lint rules
    need a syntax tree; syntax errors stay the parser's.
    """
    program = parse_program(source)
    return run_lint(
        program, source=source, path=path, disable=disable, select=select
    )
