"""Candidate generation: localized edits derived from cycle evidence.

The generator walks a convicted program's deadlock evidence — the CLG
cycle components the detector reported, projected back to tasks and
signals — and enumerates small source edits that could break the
cycle:

* ``swap_adjacent`` / ``move`` — reorder rendezvous within a task.
  Circular-wait deadlocks (crossed handshakes, dining philosophers)
  are ordering bugs; reordering is the canonical fix.
* ``insert_accept`` — add a missing ``accept`` for an evidence signal
  whose sends outnumber its accepts.
* ``delete`` / ``guard`` — remove, or make conditional, a rendezvous
  on the cycle.  Guarding never helps under the paper's all-paths-
  executable assumption (the guarded node still synchronizes on some
  path), so these candidates exist to be *rejected* — they exercise
  the verifier and keep the generator honest about the model.
* ``branch_merge`` / ``codependent`` — the paper's own Lemma-4 / §5.1
  transforms (Figure 5): semantics-preserving rewrites that enlarge
  what the polynomial analysis can certify, fixing *false* alarms
  without changing behaviour.

Only top-level statements of a task are edited (rendezvous nested in
conditionals are reachable through the transform-based candidates);
every candidate is tagged with the source spans it touches so the lint
layer can emit SARIF ``fix`` replacements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..lang.ast_nodes import (
    Accept,
    Condition,
    If,
    Program,
    Send,
    Signal,
    Statement,
    TaskDecl,
)
from ..lang.pretty import pretty
from ..lang.validate import collect_signals
from ..transforms.branch_merge import merge_branch_rendezvous
from ..transforms.codependent import factor_codependent
from .model import RepairCandidate

if TYPE_CHECKING:  # pragma: no cover
    from ..api import AnalysisResult

__all__ = ["generate_candidates"]

# Bound on how far a `move` candidate displaces a statement: deadlock
# fixes are reorderings of *nearby* rendezvous; long-distance moves
# explode the candidate space without adding plausible fixes.
MAX_MOVE_DISTANCE = 3


def _stmt_signal(owner: str, stmt: Statement) -> Optional[Signal]:
    if isinstance(stmt, Send):
        return Signal(stmt.task, stmt.message)
    if isinstance(stmt, Accept):
        return Signal(owner, stmt.message)
    return None


def _stmt_text(owner: str, stmt: Statement) -> str:
    if isinstance(stmt, Send):
        return f"send {stmt.task}.{stmt.message}"
    if isinstance(stmt, Accept):
        return f"accept {stmt.message}"
    return type(stmt).__name__.lower()


def _spans(*stmts: Statement) -> Tuple:
    return tuple(s.loc for s in stmts if getattr(s, "loc", None) is not None)


def _evidence_tasks_and_signals(
    result: "AnalysisResult",
) -> Tuple[List[str], Set[Signal]]:
    """Tasks and signals implicated by the deadlock evidence.

    Falls back to every task/signal when the report carries no
    evidence (e.g. the exact algorithm, which reports waves, not CLG
    components).
    """
    tasks: Set[str] = set()
    signals: Set[Signal] = set()
    for ev in result.deadlock.evidence:
        tasks |= ev.tasks
        for node in ev.nodes:
            if node.signal is not None:
                signals.add(node.signal)
    if not tasks:
        tasks = set(result.program.task_names)
    if not signals:
        signals = set(collect_signals(result.program))
    order = {name: i for i, name in enumerate(result.program.task_names)}
    return sorted(tasks, key=lambda n: order.get(n, len(order))), signals


def _replace_task(
    program: Program, task: TaskDecl, body: Sequence[Statement]
) -> Program:
    return program.with_tasks(
        tuple(
            t.with_body(body) if t.name == task.name else t
            for t in program.tasks
        )
    )


def _reorder_candidates(
    program: Program,
    task: TaskDecl,
    relevant: Sequence[int],
) -> List[RepairCandidate]:
    body = task.body
    out: List[RepairCandidate] = []
    # swap_adjacent: both neighbours must be statements (any kind), at
    # least one a rendezvous on the cycle.
    for i in relevant:
        for j in (i - 1, i + 1):
            if not 0 <= j < len(body) or j < i:
                continue
            swapped = list(body)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(
                RepairCandidate(
                    kind="swap_adjacent",
                    description=(
                        f"swap `{_stmt_text(task.name, body[i])}` with "
                        f"`{_stmt_text(task.name, body[j])}` in task "
                        f"{task.name}"
                    ),
                    program=_replace_task(program, task, swapped),
                    task=task.name,
                    spans=_spans(body[i], body[j]),
                    edit_size=2,
                )
            )
    # move: displace one cycle rendezvous up to MAX_MOVE_DISTANCE slots.
    for i in relevant:
        for j in range(
            max(0, i - MAX_MOVE_DISTANCE),
            min(len(body), i + MAX_MOVE_DISTANCE + 1),
        ):
            if abs(i - j) < 2:  # 0 = no-op, 1 = swap_adjacent already
                continue
            moved = list(body)
            stmt = moved.pop(i)
            moved.insert(j, stmt)
            out.append(
                RepairCandidate(
                    kind="move",
                    description=(
                        f"move `{_stmt_text(task.name, stmt)}` from "
                        f"position {i + 1} to {j + 1} in task {task.name}"
                    ),
                    program=_replace_task(program, task, moved),
                    task=task.name,
                    spans=_spans(stmt),
                    edit_size=abs(i - j) + 1,
                )
            )
    return out


def _insert_accept_candidates(
    program: Program, signals: Set[Signal]
) -> List[RepairCandidate]:
    counts = collect_signals(program)
    tasks = {t.name: t for t in program.tasks}
    out: List[RepairCandidate] = []
    for signal in sorted(signals, key=lambda s: (s.task, s.message)):
        sends, accepts = counts.get(signal, (0, 0))
        if sends <= accepts or signal.task not in tasks:
            continue
        task = tasks[signal.task]
        for pos in range(len(task.body) + 1):
            body = list(task.body)
            body.insert(pos, Accept(message=signal.message))
            anchor = task.body[pos] if pos < len(task.body) else None
            out.append(
                RepairCandidate(
                    kind="insert_accept",
                    description=(
                        f"insert `accept {signal.message}` at position "
                        f"{pos + 1} of task {task.name} "
                        f"({sends} send(s) vs {accepts} accept(s))"
                    ),
                    program=_replace_task(program, task, body),
                    task=task.name,
                    spans=_spans(anchor) if anchor is not None else (),
                    edit_size=1,
                )
            )
    return out


def _delete_and_guard_candidates(
    program: Program,
    task: TaskDecl,
    relevant: Sequence[int],
) -> List[RepairCandidate]:
    body = task.body
    out: List[RepairCandidate] = []
    for i in relevant:
        stmt = body[i]
        deleted = list(body)
        del deleted[i]
        out.append(
            RepairCandidate(
                kind="delete",
                description=(
                    f"delete `{_stmt_text(task.name, stmt)}` from task "
                    f"{task.name}"
                ),
                program=_replace_task(program, task, deleted),
                task=task.name,
                spans=_spans(stmt),
                edit_size=1,
            )
        )
        guarded = list(body)
        guarded[i] = If(condition=Condition.unknown(), then_body=(stmt,))
        out.append(
            RepairCandidate(
                kind="guard",
                description=(
                    f"guard `{_stmt_text(task.name, stmt)}` behind a "
                    f"conditional in task {task.name}"
                ),
                program=_replace_task(program, task, guarded),
                task=task.name,
                spans=_spans(stmt),
                edit_size=2,
            )
        )
    return out


def _transform_candidates(program: Program) -> List[RepairCandidate]:
    out: List[RepairCandidate] = []
    merged, merges = merge_branch_rendezvous(program)
    if merges:
        out.append(
            RepairCandidate(
                kind="branch_merge",
                description=(
                    f"merge {merges} both-branches rendezvous pair(s) "
                    "(Figure 5 b/c; semantics-preserving)"
                ),
                program=merged,
                spans=(),
                edit_size=2 * merges,
            )
        )
    factored, pairs = factor_codependent(program)
    if pairs:
        out.append(
            RepairCandidate(
                kind="codependent",
                description=(
                    f"hoist {len(pairs)} co-dependent conditional "
                    "rendezvous pair(s) (Figure 5 d; "
                    "semantics-preserving)"
                ),
                program=factored,
                spans=(),
                edit_size=2 * len(pairs),
            )
        )
    return out


def generate_candidates(
    result: "AnalysisResult", max_candidates: int = 64
) -> List[RepairCandidate]:
    """Enumerate repair candidates for one convicted analysis result.

    Candidates are generated in a deterministic order (reorderings
    first — the likeliest real fixes — then transforms, insertions,
    guards, deletions), de-duplicated by their canonical source text,
    and capped at ``max_candidates``.
    """
    program = result.program
    tasks, signals = _evidence_tasks_and_signals(result)
    by_name = {t.name: t for t in program.tasks}

    candidates: List[RepairCandidate] = []
    for name in tasks:
        task = by_name.get(name)
        if task is None:
            continue
        relevant = [
            i
            for i, stmt in enumerate(task.body)
            if _stmt_signal(task.name, stmt) in signals
        ]
        candidates.extend(_reorder_candidates(program, task, relevant))
    candidates.extend(_transform_candidates(program))
    candidates.extend(_insert_accept_candidates(program, signals))
    for name in tasks:
        task = by_name.get(name)
        if task is None:
            continue
        relevant = [
            i
            for i, stmt in enumerate(task.body)
            if _stmt_signal(task.name, stmt) in signals
        ]
        candidates.extend(
            _delete_and_guard_candidates(program, task, relevant)
        )

    original = pretty(program)
    seen = {original}
    unique: List[RepairCandidate] = []
    for cand in candidates:
        text = pretty(cand.program)
        if text in seen:
            continue
        seen.add(text)
        unique.append(cand)
        if len(unique) >= max_candidates:
            break
    return unique
