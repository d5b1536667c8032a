"""Lint rule registry, execution engine, and suppression handling.

A :class:`LintRule` bundles a stable id (``ADL0xx``), a kebab-case
name, a default severity, a one-line summary, and the paper grounding
for the check.  Rules register themselves with the :func:`lint_rule`
decorator at import time (:mod:`repro.lint.rules`); the engine runs
every registered rule (minus ``disable``/``select`` filters) over a
:class:`LintContext` and returns a :class:`LintResult` of
source-ordered diagnostics.

Expensive shared inputs are the analysis's own layers: the prepared
pipeline front half (:func:`repro.api.prepare` — inline, validate,
unroll, sync graph), whose CLG gives ADL010 its cyclic components, and
its memoized refined report (:attr:`repro.api.PreparedProgram.refined`),
which ADL012 reads.  No CLG object is built.  A caller that already
holds the prepared program (the CLI, a farm worker, the daemon's
document) passes it to :func:`run_lint`, so lint and the analysis share
one refined run; a caller whose attempt failed passes its
:class:`~repro.errors.ReproError` instead, and lint does not try
again.  Otherwise lint prepares the program lazily, at most once per
run.  The layers degrade to ``None`` when the program is too broken to
build them (e.g. duplicate task names), so structural rules still
report on programs the analysis pipeline would reject outright.

Suppressions are pre-scanned from source comments::

    send t2.orphan;   -- lint: disable=ADL001
    -- lint: disable=while-rendezvous
    while busy loop ... end loop;

A trailing comment suppresses matching diagnostics on its own line; a
comment alone on a line also covers the following line.  Rules can be
named by id (``ADL001``), by name (``unmatched-send``), or ``all``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import obs
from ..diagnostics import Diagnostic, Related, Severity
from ..errors import ReproError
from ..lang.ast_nodes import Program
from ..lang.validate import collect_signals, unmatched_signal_diagnostics

if TYPE_CHECKING:  # pragma: no cover - imported lazily at run time
    from ..analysis.results import DeadlockReport
    from ..api import PreparedProgram

__all__ = [
    "LintRule",
    "LintContext",
    "LintResult",
    "lint_rule",
    "all_rules",
    "get_rule",
    "run_lint",
    "scan_suppressions",
]


@dataclass(frozen=True)
class LintRule:
    """One registered check."""

    rule_id: str
    name: str
    severity: str
    summary: str
    paper_ref: str
    check: Callable[["LintContext", "LintRule"], Iterable[Diagnostic]]

    def diagnostic(
        self,
        message: str,
        span=None,
        task: Optional[str] = None,
        related: Sequence[Related] = (),
        severity: Optional[str] = None,
    ) -> Diagnostic:
        """A diagnostic pre-filled with this rule's id and severity."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
            span=span,
            task=task,
            related=tuple(related),
        )


_REGISTRY: Dict[str, LintRule] = {}


def lint_rule(
    rule_id: str,
    name: str,
    severity: str,
    summary: str,
    paper_ref: str,
):
    """Class decorator-style registration for rule check functions."""

    def decorate(fn):
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        Severity.rank(severity)
        _REGISTRY[rule_id] = LintRule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            summary=summary,
            paper_ref=paper_ref,
            check=fn,
        )
        return fn

    return decorate


def _ensure_rules_loaded() -> None:
    # Rules live in their own module to keep the engine importable from
    # rule code; importing it here registers everything on first use.
    from . import rules  # noqa: F401


def all_rules() -> Tuple[LintRule, ...]:
    """Every registered rule, ordered by rule id."""
    _ensure_rules_loaded()
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def get_rule(rule_id: str) -> LintRule:
    _ensure_rules_loaded()
    return _REGISTRY[rule_id]


class LintContext:
    """Shared, lazily computed inputs for one lint run.

    ``prepared`` must be :func:`repro.api.prepare` of ``program``: rules
    read nodes and spans off it.  The error that call raised stands for
    a program that cannot reach the front half.
    """

    def __init__(
        self,
        program: Program,
        source: Optional[str] = None,
        path: str = "<source>",
        prepared: Union["PreparedProgram", ReproError, None] = None,
    ) -> None:
        self.program = program
        self.source = source
        self.path = path
        self._prepared = (
            None if isinstance(prepared, ReproError) else prepared
        )
        self._prepared_built = prepared is not None
        self._fallback: Optional[Program] = None
        self._unmatched: Optional[Tuple[Diagnostic, ...]] = None
        self._counts = None

    @property
    def prepared(self) -> Optional["PreparedProgram"]:
        """The analysis pipeline's front half for ``program``, or
        ``None`` when the program cannot reach it (unresolved calls,
        validation errors, ...)."""
        if not self._prepared_built:
            self._prepared_built = True
            from ..api import prepare

            try:
                self._prepared = prepare(self.program)
            except ReproError:
                self._prepared = None
        return self._prepared

    @property
    def effective(self) -> Program:
        """The inlined program when inlining succeeds, else the raw one.

        Signal-count rules prefer this: an ``accept`` inside a shared
        procedure only gains its signal identity once inlined into a
        concrete task.  Leaf statements are shared by the inliner, so
        their source spans survive.
        """
        prepared = self.prepared
        if prepared is not None:
            return prepared.inlined
        if self._fallback is None:
            # The pipeline stopped after (or at) inlining: inline again
            # on its own, keeping the raw program if that fails too.
            from ..transforms.inline import inline_procedures

            try:
                self._fallback, _ = inline_procedures(self.program)
            except ReproError:
                self._fallback = self.program
        return self._fallback

    @property
    def signal_counts(self):
        """``{signal: (sends, accepts)}`` over the effective program."""
        if self._counts is None:
            prepared = self.prepared
            if prepared is not None:  # validation counted them
                self._counts = prepared.validation.signal_counts
            if self._counts is None:
                self._counts = collect_signals(self.effective)
        return self._counts

    @property
    def unmatched_diagnostics(self) -> Tuple[Diagnostic, ...]:
        """Shared ADL001/ADL002 findings: the prepared pipeline's
        validation diagnostics, which are exactly these."""
        if self._unmatched is None:
            prepared = self.prepared
            self._unmatched = (
                prepared.validation.diagnostics
                if prepared is not None
                else unmatched_signal_diagnostics(self.effective)
            )
        return self._unmatched

    @property
    def analysis_graph(self):
        """Sync graph of the unrolled effective program, or ``None``
        when the program cannot reach the graph pipeline."""
        prepared = self.prepared
        return prepared.sync_graph if prepared is not None else None

    @property
    def deadlock(self) -> Optional["DeadlockReport"]:
        """``prepared.refined``, the refined polynomial deadlock report
        that is also the analysis's ``algorithm="refined"`` answer, or
        ``None`` when the program cannot reach the analysis pipeline."""
        prepared = self.prepared
        if prepared is None:
            return None
        try:
            return prepared.refined
        except ReproError:
            return None


@dataclass
class LintResult:
    """Outcome of one lint run over one program."""

    path: str
    diagnostics: Tuple[Diagnostic, ...]
    suppressed: int = 0
    rules_run: Tuple[str, ...] = ()

    def counts(self) -> Dict[str, int]:
        out = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.NOTE: 0}
        for diag in self.diagnostics:
            out[diag.severity] += 1
        return out

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        return tuple(sorted({d.rule_id for d in self.diagnostics}))

    def fails(self, threshold: str = Severity.ERROR) -> bool:
        """True when a diagnostic meets the ``--fail-on`` threshold."""
        return any(
            Severity.at_least(d.severity, threshold)
            for d in self.diagnostics
        )


_SUPPRESS_RE = re.compile(
    r"--\s*lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """``{line: {rule tokens}}`` from ``-- lint: disable=...`` comments.

    Tokens are lower-cased rule ids, rule names, or ``all``.  A comment
    with code before it covers its own line; a comment alone on a line
    covers that line *and* the next.
    """
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        tokens = {
            tok.strip().lower()
            for tok in match.group(1).split(",")
            if tok.strip()
        }
        suppressions.setdefault(lineno, set()).update(tokens)
        if not line[: match.start()].strip():
            suppressions.setdefault(lineno + 1, set()).update(tokens)
    return suppressions


def _rule_tokens(rule: LintRule) -> Set[str]:
    return {rule.rule_id.lower(), rule.name.lower(), "all"}


def _select_rules(
    disable: Sequence[str], select: Optional[Sequence[str]]
) -> Tuple[LintRule, ...]:
    disabled = {tok.lower() for tok in disable}
    selected = (
        None if select is None else {tok.lower() for tok in select}
    )
    known = set()
    chosen = []
    for rule in all_rules():
        tokens = {rule.rule_id.lower(), rule.name.lower()}
        known |= tokens
        if tokens & disabled:
            continue
        if selected is not None and not (tokens & selected):
            continue
        chosen.append(rule)
    unknown = (disabled | (selected or set())) - known
    if unknown:
        raise KeyError(
            f"unknown lint rule(s): {', '.join(sorted(unknown))}"
        )
    return tuple(chosen)


def run_lint(
    program: Program,
    source: Optional[str] = None,
    path: str = "<source>",
    disable: Sequence[str] = (),
    select: Optional[Sequence[str]] = None,
    prepared: Union["PreparedProgram", ReproError, None] = None,
) -> LintResult:
    """Run every (selected) registered rule over ``program``.

    ``source`` enables comment suppressions and is otherwise optional —
    rules work from the AST and its attached spans.  The program is
    never mutated (statements are frozen dataclasses and rules only
    read).  A caller holding ``prepared = repro.api.prepare(program)``
    passes it in, so lint reuses the analysis's layers, its refined
    report included (see :class:`LintContext`), or passes the
    :class:`~repro.errors.ReproError` that call raised; the diagnostics
    are the same either way.  Per-rule emission/suppression counters are
    recorded in :mod:`repro.obs` when a session is active.
    """
    rules = _select_rules(disable, select)
    suppressions = (
        scan_suppressions(source) if source is not None else {}
    )
    ctx = LintContext(program, source=source, path=path, prepared=prepared)
    found: List[Diagnostic] = []
    suppressed_count = 0
    with obs.span("lint.run", path=path, rules=len(rules)):
        for rule in rules:
            for diag in rule.check(ctx, rule):
                tokens = suppressions.get(diag.line)
                if tokens and tokens & _rule_tokens(rule):
                    suppressed_count += 1
                    if obs.is_enabled():
                        obs.counter(
                            "lint.suppressed", rule=rule.rule_id
                        ).inc()
                    continue
                found.append(diag)
                if obs.is_enabled():
                    obs.counter(
                        "lint.diagnostics", rule=rule.rule_id
                    ).inc()
    if obs.is_enabled():
        obs.counter("lint.runs").inc()
        obs.gauge("lint.last_run_diagnostics").set(len(found))
    return LintResult(
        path=path,
        diagnostics=tuple(sorted(found, key=Diagnostic.sort_key)),
        suppressed=suppressed_count,
        rules_run=tuple(r.rule_id for r in rules),
    )
