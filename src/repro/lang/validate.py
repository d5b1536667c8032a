"""Semantic validation of ADL programs against the paper's model.

Hard errors (:class:`~repro.errors.ValidationError`):

* duplicate task names;
* a ``send`` naming a task that does not exist;
* a task sending a signal to itself (a self-rendezvous can never
  complete under the barrier model and the paper's tasks never do it).

Soft findings (returned, not raised):

* signals that are sent but never accepted, or accepted but never sent —
  these are legal programs but guaranteed stall candidates, and the
  stall analysis (Section 5) reports them.

Soft findings are reported as structured, source-located
:class:`~repro.diagnostics.Diagnostic` values carrying the same rule
ids as the lint engine (ADL001/ADL002); the legacy ``warnings`` string
list is kept as a deprecated property derived from them.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import Diagnostic, Severity
from ..errors import ValidationError
from .ast_nodes import Accept, Call, Program, Send, Signal, walk_statements

__all__ = [
    "ValidationReport",
    "validate_program",
    "collect_signals",
    "unmatched_signal_diagnostics",
]


@dataclass
class ValidationReport:
    """Result of validating a program.

    ``unmatched_sends`` / ``unmatched_accepts`` list signals with no
    complementary rendezvous point anywhere in the program;
    ``diagnostics`` carries one source-located finding per offending
    rendezvous statement.  ``signal_counts`` is the
    :func:`collect_signals` table they come from, kept so the stall
    analysis of the same program does not count again.
    """

    program_name: str
    task_names: Tuple[str, ...]
    signals: Tuple[Signal, ...]
    unmatched_sends: Tuple[Signal, ...] = ()
    unmatched_accepts: Tuple[Signal, ...] = ()
    diagnostics: Tuple[Diagnostic, ...] = ()
    signal_counts: Optional[Dict[Signal, Tuple[int, int]]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def fully_matched(self) -> bool:
        return not self.unmatched_sends and not self.unmatched_accepts

    @property
    def warnings(self) -> List[str]:
        """Deprecated: plain-string findings; use ``diagnostics``."""
        _warnings.warn(
            "ValidationReport.warnings is deprecated; use the structured "
            "ValidationReport.diagnostics instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return [d.message for d in self.diagnostics]


def collect_signals(program: Program) -> Dict[Signal, Tuple[int, int]]:
    """Count send and accept rendezvous points per signal.

    Returns ``{signal: (send_count, accept_count)}`` over the whole
    program, counting every syntactic rendezvous point (conditional or
    not).  This is the raw input to the Lemma-3 stall count check.
    """
    counts: Dict[Signal, List[int]] = {}
    for task in program.tasks:
        for stmt in walk_statements(task.body):
            if isinstance(stmt, Send):
                sig = Signal(stmt.task, stmt.message)
                counts.setdefault(sig, [0, 0])[0] += 1
            elif isinstance(stmt, Accept):
                sig = Signal(task.name, stmt.message)
                counts.setdefault(sig, [0, 0])[1] += 1
    return {sig: (c[0], c[1]) for sig, c in counts.items()}


def unmatched_signal_diagnostics(
    program: Program,
) -> Tuple[Diagnostic, ...]:
    """One ADL001/ADL002 diagnostic per rendezvous point whose signal
    has no complementary point anywhere in the program (Lemma 3 stall
    candidates).  Shared by validation and the lint rules so both report
    identical findings.
    """
    return _unmatched_signal_diagnostics(program, collect_signals(program))


def _unmatched_signal_diagnostics(
    program: Program, counts: Dict[Signal, Tuple[int, int]]
) -> Tuple[Diagnostic, ...]:
    task_names = {t.name for t in program.tasks}
    found: List[Diagnostic] = []
    for task in program.tasks:
        for stmt in walk_statements(task.body):
            if isinstance(stmt, Send):
                if stmt.task not in task_names:
                    continue  # unknown target: ADL004's finding, not ours
                sends, accepts = counts[Signal(stmt.task, stmt.message)]
                if accepts == 0:
                    found.append(
                        Diagnostic(
                            rule_id="ADL001",
                            severity=Severity.WARNING,
                            message=(
                                f"signal {Signal(stmt.task, stmt.message)} "
                                "is sent but never accepted"
                            ),
                            span=stmt.loc,
                            task=task.name,
                        )
                    )
            elif isinstance(stmt, Accept):
                sends, accepts = counts[Signal(task.name, stmt.message)]
                if sends == 0:
                    found.append(
                        Diagnostic(
                            rule_id="ADL002",
                            severity=Severity.WARNING,
                            message=(
                                f"signal {Signal(task.name, stmt.message)} "
                                "is accepted but never sent"
                            ),
                            span=stmt.loc,
                            task=task.name,
                        )
                    )
    return tuple(sorted(found, key=Diagnostic.sort_key))


def validate_program(program: Program) -> ValidationReport:
    """Validate ``program``; raise on model violations, report findings."""
    names = [t.name for t in program.tasks]
    seen: Set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate task name {name!r}")
        seen.add(name)

    proc_names: Set[str] = set()
    for proc in program.procedures:
        if proc.name in proc_names:
            raise ValidationError(
                f"duplicate procedure name {proc.name!r}"
            )
        proc_names.add(proc.name)

    def check_calls(owner: str, body) -> None:
        for stmt in walk_statements(body):
            if isinstance(stmt, Call) and stmt.name not in proc_names:
                raise ValidationError(
                    f"{owner} calls unknown procedure {stmt.name!r}"
                )

    for proc in program.procedures:
        check_calls(f"procedure {proc.name!r}", proc.body)
        for stmt in walk_statements(proc.body):
            if isinstance(stmt, Send) and stmt.task not in seen:
                raise ValidationError(
                    f"procedure {proc.name!r} sends to unknown task "
                    f"{stmt.task!r}"
                )

    for task in program.tasks:
        check_calls(f"task {task.name!r}", task.body)
        for stmt in walk_statements(task.body):
            if isinstance(stmt, Send):
                if stmt.task not in seen:
                    raise ValidationError(
                        f"task {task.name!r} sends to unknown task "
                        f"{stmt.task!r}"
                    )
                if stmt.task == task.name:
                    raise ValidationError(
                        f"task {task.name!r} sends signal "
                        f"{stmt.message!r} to itself; a self-rendezvous "
                        "can never complete"
                    )

    counts = collect_signals(program)
    unmatched_sends = tuple(
        sig for sig, (s, a) in sorted(counts.items(), key=_sig_key) if a == 0
    )
    unmatched_accepts = tuple(
        sig for sig, (s, a) in sorted(counts.items(), key=_sig_key) if s == 0
    )
    return ValidationReport(
        program_name=program.name,
        task_names=tuple(names),
        signals=tuple(sorted(counts, key=lambda s: (s.task, s.message))),
        unmatched_sends=unmatched_sends,
        unmatched_accepts=unmatched_accepts,
        diagnostics=_unmatched_signal_diagnostics(program, counts),
        signal_counts=counts,
    )


def _sig_key(item: Tuple[Signal, Tuple[int, int]]) -> Tuple[str, str]:
    sig = item[0]
    return (sig.task, sig.message)
