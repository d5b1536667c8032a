"""The built-in lint rules — each grounded in the paper.

=======  ======================  ========  ==============================
id       name                    severity  paper grounding
=======  ======================  ========  ==============================
ADL001   unmatched-send          warning   Lemma 3: zero accepts for a
                                           sent signal is a guaranteed
                                           stall candidate.
ADL002   unmatched-accept        warning   Lemma 3, dual case.
ADL003   self-rendezvous         error     §2 model: a task signalling
                                           itself can never complete the
                                           barrier rendezvous.
ADL004   unknown-target          error     §2: signals name statically
                                           existing tasks; calls name
                                           declared procedures.
ADL005   duplicate-name          error     §2: tasks (and procedures)
                                           are statically named, once.
ADL006   recursive-procedure     error     §2/§6: recursion has no
                                           finite sync graph; inlining
                                           rejects it.
ADL007   dead-procedure          warning   Hygiene: never-called
                                           procedures are dead weight
                                           the inliner silently drops.
ADL008   zero-trip-for           warning   §3.1.4: a static trip count
                                           of zero unrolls to nothing —
                                           its rendezvous vanish from
                                           the analyzed program.
ADL009   while-rendezvous        note      Lemma 1: while loops are
                                           double-unrolled; rendezvous
                                           counts inside them are
                                           over-approximated.
ADL010   coupling-cycle          warning   Constraint 1 (§3.1): cyclic
                                           CLG components are candidate
                                           coupling cycles the full
                                           analysis must refute.
ADL011   unreachable-after-stall warning   Lemma 3 corollary: code after
                                           a guaranteed-stall rendezvous
                                           in the same sequence never
                                           executes in the wave model.
ADL012   possible-deadlock       warning   §3: the refined polynomial
                                           analysis convicts the program
                                           — a coupling cycle satisfies
                                           every deadlock constraint.
                                           Anchor of the SARIF ``fix``
                                           objects repair emits.
=======  ======================  ========  ==============================

Rules only read the AST and, for ADL010/ADL012, the analysis layers
derived from it (the prepared sync graph, its CLG and its refined
report, ``prepared.refined``); they never mutate the program.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Related
from ..lang.ast_nodes import (
    Accept,
    Call,
    For,
    If,
    Program,
    Send,
    Signal,
    Statement,
    While,
    walk_statements,
)
from ..syncgraph.clg import (
    clg_out_edges,
    cyclic_components,
    rendezvous_uids,
)
from ..transforms.inline import call_graph
from .engine import LintContext, LintRule, lint_rule

__all__: List[str] = []


def _bodies(program: Program) -> Iterator[Tuple[str, Tuple[Statement, ...]]]:
    """Every top-level body with its owner label (task or procedure)."""
    for task in program.tasks:
        yield task.name, task.body
    for proc in program.procedures:
        yield proc.name, proc.body


@lint_rule(
    "ADL001",
    "unmatched-send",
    "warning",
    "signal is sent but never accepted (guaranteed stall candidate)",
    "Lemma 3, Section 5",
)
def check_unmatched_send(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    return [
        d for d in ctx.unmatched_diagnostics if d.rule_id == rule.rule_id
    ]


@lint_rule(
    "ADL002",
    "unmatched-accept",
    "warning",
    "signal is accepted but never sent (guaranteed stall candidate)",
    "Lemma 3, Section 5",
)
def check_unmatched_accept(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    return [
        d for d in ctx.unmatched_diagnostics if d.rule_id == rule.rule_id
    ]


@lint_rule(
    "ADL003",
    "self-rendezvous",
    "error",
    "task sends a signal to itself; the rendezvous can never complete",
    "Section 2 program model",
)
def check_self_rendezvous(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    for task in ctx.effective.tasks:
        for stmt in walk_statements(task.body):
            if isinstance(stmt, Send) and stmt.task == task.name:
                yield rule.diagnostic(
                    f"task {task.name!r} sends signal {stmt.message!r} "
                    "to itself; a self-rendezvous can never complete",
                    span=stmt.loc,
                    task=task.name,
                )


@lint_rule(
    "ADL004",
    "unknown-target",
    "error",
    "send names an undeclared task, or call names an undeclared procedure",
    "Section 2 program model",
)
def check_unknown_target(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    task_names = {t.name for t in ctx.program.tasks}
    proc_names = {p.name for p in ctx.program.procedures}
    for owner, body in _bodies(ctx.program):
        for stmt in walk_statements(body):
            if isinstance(stmt, Send) and stmt.task not in task_names:
                yield rule.diagnostic(
                    f"send targets unknown task {stmt.task!r}",
                    span=stmt.loc,
                    task=owner,
                )
            elif isinstance(stmt, Call) and stmt.name not in proc_names:
                yield rule.diagnostic(
                    f"call to unknown procedure {stmt.name!r}",
                    span=stmt.loc,
                    task=owner,
                )


@lint_rule(
    "ADL005",
    "duplicate-name",
    "error",
    "duplicate task or procedure name",
    "Section 2 program model",
)
def check_duplicate_name(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    for kind, decls in (
        ("task", ctx.program.tasks),
        ("procedure", ctx.program.procedures),
    ):
        first: Dict[str, object] = {}
        for decl in decls:
            if decl.name in first:
                original = first[decl.name]
                yield rule.diagnostic(
                    f"duplicate {kind} name {decl.name!r}",
                    span=decl.loc,
                    task=decl.name,
                    related=(
                        Related(
                            message="first declared here",
                            span=original.loc,  # type: ignore[attr-defined]
                            task=decl.name,
                        ),
                    ),
                )
            else:
                first[decl.name] = decl


@lint_rule(
    "ADL006",
    "recursive-procedure",
    "error",
    "recursive procedure call chain; recursion has no finite sync graph",
    "Section 2 (interprocedural extension)",
)
def check_recursive_procedure(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    graph = call_graph(ctx.program)
    decls = {p.name: p for p in ctx.program.procedures}
    reported: Set[str] = set()
    for name in sorted(graph):
        if name in reported:
            continue
        cycle = _find_cycle(graph, name)
        if cycle is None:
            continue
        reported.update(cycle)
        anchor = decls[cycle[0]]
        yield rule.diagnostic(
            "recursive procedure call chain: "
            + " -> ".join(cycle + [cycle[0]]),
            span=anchor.loc,
            task=anchor.name,
            related=tuple(
                Related(
                    message=f"procedure {member!r} participates in the cycle",
                    span=decls[member].loc,
                    task=member,
                )
                for member in cycle[1:]
            ),
        )


def _find_cycle(
    graph: Dict[str, Set[str]], start: str
) -> "List[str] | None":
    """A call cycle reachable from ``start``, as an ordered name list."""
    trail: List[str] = []
    on_trail: Set[str] = set()
    done: Set[str] = set()

    def visit(name: str) -> "List[str] | None":
        if name in on_trail:
            return trail[trail.index(name):]
        if name in done or name not in graph:
            return None
        trail.append(name)
        on_trail.add(name)
        for callee in sorted(graph.get(name, ())):
            cycle = visit(callee)
            if cycle is not None:
                return cycle
        trail.pop()
        on_trail.discard(name)
        done.add(name)
        return None

    return visit(start)


@lint_rule(
    "ADL007",
    "dead-procedure",
    "warning",
    "procedure is never called from any task",
    "hygiene (the inliner silently drops it)",
)
def check_dead_procedure(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    graph = call_graph(ctx.program)
    live: Set[str] = set()
    stack: List[str] = []
    for task in ctx.program.tasks:
        for stmt in walk_statements(task.body):
            if isinstance(stmt, Call):
                stack.append(stmt.name)
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        stack.extend(graph.get(name, ()))
    for proc in ctx.program.procedures:
        if proc.name not in live:
            yield rule.diagnostic(
                f"procedure {proc.name!r} is never called from any task",
                span=proc.loc,
                task=proc.name,
            )


@lint_rule(
    "ADL008",
    "zero-trip-for",
    "warning",
    "for loop with upper < lower executes zero times and unrolls to nothing",
    "Section 3.1.4 (exact unrolling)",
)
def check_zero_trip_for(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    for owner, body in _bodies(ctx.program):
        for stmt in walk_statements(body):
            if isinstance(stmt, For) and stmt.trip_count == 0:
                yield rule.diagnostic(
                    f"for loop bounds {stmt.lower} .. {stmt.upper} give a "
                    "zero trip count: the body (and any rendezvous in it) "
                    "unrolls to nothing",
                    span=stmt.loc,
                    task=owner,
                )


def _has_rendezvous(body: Sequence[Statement]) -> bool:
    return any(
        isinstance(s, (Send, Accept)) for s in walk_statements(body)
    )


@lint_rule(
    "ADL009",
    "while-rendezvous",
    "note",
    "rendezvous inside an unbounded while loop; Lemma-1 double-unroll "
    "over-approximates its executions",
    "Lemma 1, Section 3.1.4",
)
def check_while_rendezvous(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    for owner, body in _bodies(ctx.program):
        for stmt in walk_statements(body):
            if isinstance(stmt, While) and _has_rendezvous(stmt.body):
                yield rule.diagnostic(
                    "rendezvous inside an unbounded while loop: the "
                    "Lemma-1 transform analyzes two guarded copies, so "
                    "per-signal counts and verdicts are conservative here",
                    span=stmt.loc,
                    task=owner,
                )


@lint_rule(
    "ADL010",
    "coupling-cycle",
    "warning",
    "rendezvous points form a candidate coupling cycle (constraint 1)",
    "Section 3.1 (cycle location graph)",
)
def check_coupling_cycle(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    graph = ctx.analysis_graph
    if graph is None:
        return
    for ids in cyclic_components(clg_out_edges(graph)):
        sync_nodes = [graph.node(u) for u in rendezvous_uids(ids)]
        if not sync_nodes:
            continue
        tasks = sorted({n.task for n in sync_nodes})
        spans = []
        seen_spans = set()
        for node in sync_nodes:
            loc = getattr(node.stmt, "loc", None)
            if loc is not None and loc not in seen_spans:
                seen_spans.add(loc)
                spans.append((loc, node))
        spans.sort(key=lambda pair: (pair[0].line, pair[0].column))
        primary = spans[0][0] if spans else None
        related = tuple(
            Related(
                message=f"cycle member {node}",
                span=loc,
                task=node.task,
            )
            for loc, node in spans[1:8]
        )
        yield rule.diagnostic(
            f"{len(sync_nodes)} rendezvous points across tasks "
            f"{', '.join(tasks)} form a candidate coupling cycle "
            "(deadlock constraint 1); run the full analysis to confirm "
            "or refute it",
            span=primary,
            task=tasks[0] if len(tasks) == 1 else None,
            related=related,
        )


@lint_rule(
    "ADL011",
    "unreachable-after-stall",
    "warning",
    "statements after a guaranteed-stall rendezvous never execute",
    "Lemma 3 corollary, Section 5",
)
def check_unreachable_after_stall(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    program = ctx.effective
    counts = ctx.signal_counts
    task_names = {t.name for t in program.tasks}

    def stalls(owner: str, stmt: Statement) -> bool:
        if isinstance(stmt, Send) and stmt.task in task_names:
            sends, accepts = counts[Signal(stmt.task, stmt.message)]
            return accepts == 0
        if isinstance(stmt, Accept):
            sends, accepts = counts[Signal(owner, stmt.message)]
            return sends == 0
        return False

    def scan(owner: str, body: Sequence[Statement]) -> Iterator[Diagnostic]:
        for index, stmt in enumerate(body):
            if stalls(owner, stmt):
                rest = body[index + 1:]
                if rest:
                    kind = "send" if isinstance(stmt, Send) else "accept"
                    yield rule.diagnostic(
                        f"unreachable: the preceding {kind} can never "
                        "complete (its signal has no counterpart), so "
                        f"{len(rest)} following statement(s) never execute",
                        span=rest[0].loc,
                        task=owner,
                        related=(
                            Related(
                                message="guaranteed-stall rendezvous here",
                                span=stmt.loc,
                                task=owner,
                            ),
                        ),
                    )
                return  # everything after the stall is dead; stop here
            if isinstance(stmt, If):
                yield from scan(owner, stmt.then_body)
                yield from scan(owner, stmt.else_body)
            elif isinstance(stmt, (While, For)):
                yield from scan(owner, stmt.body)

    for task in program.tasks:
        yield from scan(task.name, task.body)


@lint_rule(
    "ADL012",
    "possible-deadlock",
    "warning",
    "the refined polynomial analysis convicts the program: a coupling "
    "cycle satisfies every deadlock constraint",
    "Section 3 (refined analysis)",
)
def check_possible_deadlock(
    ctx: LintContext, rule: LintRule
) -> Iterable[Diagnostic]:
    """Full-conviction rule: the refined detector's own report.

    Where ADL010 flags *candidate* coupling cycles (constraint 1 only),
    ADL012 fires only when the refined analysis fails to refute one —
    the lint-layer anchor that ``repro.repair`` attaches SARIF ``fix``
    objects to.
    """
    report = ctx.deadlock
    if report is None or report.deadlock_free:
        return
    emitted = False
    seen_components: Set[Tuple[int, ...]] = set()
    for evidence in report.evidence:
        # Several heads can convict the same cycle component; one
        # diagnostic per component is enough.
        if evidence.uids in seen_components:
            continue
        seen_components.add(evidence.uids)
        spans = []
        seen = set()
        for node in evidence.nodes:
            loc = getattr(node.stmt, "loc", None)
            if loc is not None and loc not in seen:
                seen.add(loc)
                spans.append((loc, node))
        spans.sort(key=lambda pair: (pair[0].line, pair[0].column))
        tasks = sorted(evidence.tasks)
        emitted = True
        yield rule.diagnostic(
            f"possible deadlock ({report.algorithm}): rendezvous across "
            f"task(s) {', '.join(tasks)} form a coupling cycle the "
            "analysis cannot refute; repro.repair can synthesize "
            "certified fixes (--suggest-fixes)",
            span=spans[0][0] if spans else None,
            task=tasks[0] if len(tasks) == 1 else None,
            related=tuple(
                Related(
                    message=f"cycle member {node}",
                    span=loc,
                    task=node.task,
                )
                for loc, node in spans[1:8]
            ),
        )
    if not emitted:
        yield rule.diagnostic(
            f"possible deadlock ({report.algorithm}): the analysis "
            "convicts the program but carries no located evidence"
        )
