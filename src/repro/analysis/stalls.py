"""Stallability analysis (paper, Section 5).

* **Lemma 3** — a program whose rendezvous are all unconditional is
  stall-free iff every signal has equally many send and accept nodes.
  The check is ``O(|N|)``.
* **Lemma 4** — with conditionally executed rendezvous, stall freedom
  requires balance over *every feasible linearized execution*, which is
  intractable; certification then returns UNKNOWN unless the source
  transforms of Section 5.1 (both-branches merge, co-dependent
  factoring) remove all conditional rendezvous.

``exact_stall_analysis`` uses exhaustive wave exploration as the
(exponential) oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..lang.ast_nodes import (
    Accept,
    For,
    If,
    Program,
    Send,
    Signal,
    Statement,
    While,
)
from ..lang.validate import collect_signals
from ..syncgraph.build import build_sync_graph
from ..waves.explore import explore
from .results import StallReport, StallVerdict

__all__ = [
    "signal_balance",
    "has_conditional_rendezvous",
    "lemma3_stall_analysis",
    "lemma4_stall_analysis",
    "stall_analysis",
    "exact_stall_analysis",
]


def signal_balance(program: Program) -> Dict[Signal, Tuple[int, int]]:
    """Per-signal ``(send_count, accept_count)`` over the whole program."""
    return collect_signals(program)


def _body_has_rendezvous(body: Tuple[Statement, ...]) -> bool:
    for stmt in body:
        if isinstance(stmt, (Send, Accept)):
            return True
        if isinstance(stmt, If):
            if _body_has_rendezvous(stmt.then_body) or _body_has_rendezvous(
                stmt.else_body
            ):
                return True
        elif isinstance(stmt, (While, For)):
            if _body_has_rendezvous(stmt.body):
                return True
    return False


def _conditional_rendezvous_in(body: Tuple[Statement, ...]) -> bool:
    """True if some rendezvous sits inside a conditional or loop."""
    for stmt in body:
        if isinstance(stmt, If):
            if _body_has_rendezvous(stmt.then_body) or _body_has_rendezvous(
                stmt.else_body
            ):
                return True
        elif isinstance(stmt, (While, For)):
            if _body_has_rendezvous(stmt.body):
                return True
    return False


def has_conditional_rendezvous(program: Program) -> bool:
    """True when some rendezvous executes only on certain paths.

    Lemma 3 applies exactly when this is False: every task then has a
    fixed rendezvous sequence, so per-signal node counts determine
    stallability.
    """
    return any(
        _conditional_rendezvous_in(task.body) for task in program.tasks
    )


def _conditional_signal_occurrences(
    program: Program,
) -> Dict[Signal, Tuple[int, int]]:
    """Per-signal (conditional_sends, conditional_accepts) counts."""

    def scan(
        task_name: str, body: Tuple[Statement, ...], conditional: bool
    ) -> None:
        for stmt in body:
            if isinstance(stmt, Send) and conditional:
                sig = Signal(stmt.task, stmt.message)
                counts.setdefault(sig, [0, 0])[0] += 1
            elif isinstance(stmt, Accept) and conditional:
                sig = Signal(task_name, stmt.message)
                counts.setdefault(sig, [0, 0])[1] += 1
            elif isinstance(stmt, If):
                scan(task_name, stmt.then_body, True)
                scan(task_name, stmt.else_body, True)
            elif isinstance(stmt, (While, For)):
                scan(task_name, stmt.body, True)

    counts: Dict[Signal, List[int]] = {}
    for task in program.tasks:
        scan(task.name, task.body, False)
    return {sig: (c[0], c[1]) for sig, c in counts.items()}


def lemma3_stall_analysis(
    program: Program,
    certified_codependent: Iterable[Signal] = (),
) -> StallReport:
    """The O(|N|) count-balance check; UNKNOWN on conditional rendezvous.

    ``certified_codependent`` implements the paper's first alternative
    for hard co-dependence cases (§5.1): the programmer certifies that a
    signal's conditional send/accept pair always executes together, so
    the pair is factored out of the count *and* out of the
    conditional-rendezvous obstruction.  A wrong certification makes
    the verdict unsafe — exactly the trade-off the paper states.
    """
    return _lemma3(program, certified_codependent, None)


def _lemma3(
    program: Program,
    certified_codependent: Iterable[Signal],
    signal_counts: Optional[Dict[Signal, Tuple[int, int]]],
) -> StallReport:
    """:func:`lemma3_stall_analysis`, with ``signal_counts`` the
    :func:`signal_balance` of ``program`` when the caller has it."""
    certified = set(certified_codependent)
    conditional = _conditional_signal_occurrences(program)
    blocking = {
        sig: counts
        for sig, counts in conditional.items()
        if sig not in certified
    }
    notes: List[str] = []
    if certified:
        notes.append(
            "programmer-certified co-dependent signals: "
            + ", ".join(sorted(str(s) for s in certified))
        )
    if blocking:
        return StallReport(
            verdict=StallVerdict.UNKNOWN,
            method="lemma3-counts",
            notes=notes
            + [
                "program has conditionally executed rendezvous; Lemma 3 "
                "does not apply (see Lemma 4)"
            ],
        )
    if signal_counts is None:
        signal_counts = signal_balance(program)
    imbalanced = {}
    for sig, (sends, accepts) in signal_counts.items():
        if sig in certified:
            # a certified pair contributes one send and one accept that
            # either both execute or both do not: discount them
            cond_sends, cond_accepts = conditional.get(sig, (0, 0))
            sends -= cond_sends
            accepts -= cond_accepts
        if sends != accepts:
            imbalanced[sig] = (sends, accepts)
    verdict = (
        StallVerdict.CERTIFIED_FREE
        if not imbalanced
        else StallVerdict.POSSIBLE_STALL
    )
    return StallReport(
        verdict=verdict,
        method="lemma3-counts",
        imbalanced=imbalanced,
        notes=notes,
    )


def stall_analysis(
    program: Program,
    apply_transforms: bool = True,
    certified_codependent: Iterable[Signal] = (),
    signal_counts: Optional[Dict[Signal, Tuple[int, int]]] = None,
) -> StallReport:
    """Stall certification pipeline (Section 5.1).

    When the raw program has conditional rendezvous, the both-branches
    merge (Figure 5 b/c) and co-dependent factoring (Figure 5 d)
    transforms are applied to a fixpoint; if they eliminate every
    conditional rendezvous, Lemma 3 decides the transformed program.
    Otherwise UNKNOWN.  ``certified_codependent`` passes programmer
    certifications through to the count check (see
    :func:`lemma3_stall_analysis`), and ``signal_counts``, the
    :func:`signal_balance` of ``program`` (validation has it), spares
    that check a recount when no transform fired.
    """
    transforms: List[str] = []
    current = program
    if has_conditional_rendezvous(current) and apply_transforms:
        # Imported lazily: transforms depend on the lang package only,
        # but stalls<->transforms would otherwise form an import cycle.
        from ..transforms.branch_merge import merge_branch_rendezvous
        from ..transforms.codependent import factor_codependent

        merged, merges = merge_branch_rendezvous(current)
        if merges:
            current = merged
            transforms.append(f"branch-merge x{merges}")
        factored, pairs = factor_codependent(current)
        if pairs:
            current = factored
            transforms.append(f"codependent-factoring x{len(pairs)}")
    report = _lemma3(
        current,
        certified_codependent,
        signal_counts if current is program else None,
    )
    if report.verdict == StallVerdict.UNKNOWN:
        # Lemma 4's O(|N|) balance decision certifies programs whose
        # conditional arms carry identical signal counts, with no
        # rewriting at all.  Try both the transformed and the original
        # program: the branch-merge split can separate arms that were
        # net-balanced in the source.
        for candidate in (current, program):
            lemma4 = lemma4_stall_analysis(candidate)
            if lemma4.verdict != StallVerdict.UNKNOWN:
                lemma4.transforms_applied = tuple(transforms)
                return lemma4
    report.transforms_applied = tuple(transforms)
    if report.verdict == StallVerdict.UNKNOWN and transforms:
        report.notes.append(
            "source transforms applied but conditional rendezvous remain"
        )
    return report


def exact_stall_analysis(
    program: Program, state_limit: int = 200_000
) -> StallReport:
    """Ground-truth stall check by exhaustive wave exploration."""
    result = explore(build_sync_graph(program), state_limit)
    if result.has_stall:
        stalled = sorted(
            {str(n) for c in result.stall_waves for n in c.stalls}
        )
        return StallReport(
            verdict=StallVerdict.POSSIBLE_STALL,
            method="exact-waves",
            notes=[f"stall nodes observed: {', '.join(stalled)}"],
        )
    return StallReport(
        verdict=StallVerdict.CERTIFIED_FREE, method="exact-waves"
    )


def _net_vector(
    task_name: str, body: Tuple[Statement, ...]
) -> "Dict[Signal, int] | None":
    """Constant net signal contribution of ``body``, or None if it varies.

    The *net* of a signal is (sends − accepts) contributed by this
    task.  A body has a constant net when every control path yields the
    same vector: leaves are constant; a conditional is constant iff
    both arms agree; a ``for`` loop multiplies its (constant) body net
    by the static trip count; a ``while`` loop is constant only when
    its body nets to zero — impossible for rendezvous-carrying bodies,
    since a task cannot accept its own sends.
    """
    net: Dict[Signal, int] = {}

    def add(vec: Dict[Signal, int], sign: int = 1) -> None:
        for sig, count in vec.items():
            net[sig] = net.get(sig, 0) + sign * count
            if net[sig] == 0:
                del net[sig]

    for stmt in body:
        if isinstance(stmt, Send):
            add({Signal(stmt.task, stmt.message): 1})
        elif isinstance(stmt, Accept):
            add({Signal(task_name, stmt.message): -1})
        elif isinstance(stmt, If):
            then_net = _net_vector(task_name, stmt.then_body)
            else_net = _net_vector(task_name, stmt.else_body)
            if then_net is None or else_net is None or then_net != else_net:
                return None
            add(then_net)
        elif isinstance(stmt, While):
            body_net = _net_vector(task_name, stmt.body)
            if body_net is None or body_net:
                return None  # nonzero per iteration: varies with count
        elif isinstance(stmt, For):
            body_net = _net_vector(task_name, stmt.body)
            if body_net is None:
                return None
            add({s: c * stmt.trip_count for s, c in body_net.items()})
    return net


def lemma4_stall_analysis(program: Program) -> StallReport:
    """Decide Lemma 4's balance condition over the all-paths model, O(|N|).

    Lemma 4: a program is stall-free iff every feasible linearized
    execution has balanced per-signal counts.  Linearizations choose
    independently per task, so *all* linearizations are balanced iff
    every task's net signal vector is path-independent and the constant
    vectors sum to zero — decidable in one recursive pass, no
    enumeration, no transforms:

    * all constant and summing to zero ⇒ **certified stall-free**
      (strictly more programs than Lemma 3: balanced conditionals and
      static ``for`` loops need no rewriting);
    * all constant but imbalanced ⇒ **possible stall** (every
      execution, feasible or not, is imbalanced);
    * some task varies ⇒ **unknown** — the imbalanced combinations may
      all be infeasible, which is where the intractability lives.

    ``for`` loops contribute their *exact* static trip counts, like the
    exact unroll transform — finer than the raw wave model, which
    over-approximates ``for`` as a conditional loop.  Certification
    therefore agrees with exhaustive exploration of the (exactly)
    unrolled program, not of the raw cyclic sync graph.
    """
    total: Dict[Signal, int] = {}
    for task in program.tasks:
        vec = _net_vector(task.name, task.body)
        if vec is None:
            return StallReport(
                verdict=StallVerdict.UNKNOWN,
                method="lemma4-net-vectors",
                notes=[
                    f"task {task.name!r} has path-dependent signal "
                    "counts; feasibility reasoning would be required"
                ],
            )
        for sig, count in vec.items():
            total[sig] = total.get(sig, 0) + count
            if total[sig] == 0:
                del total[sig]
    if not total:
        return StallReport(
            verdict=StallVerdict.CERTIFIED_FREE,
            method="lemma4-net-vectors",
        )
    # reconstruct send/accept shape for reporting: positive net means
    # surplus sends, negative surplus accepts
    imbalanced = {
        sig: ((count, 0) if count > 0 else (0, -count))
        for sig, count in total.items()
    }
    return StallReport(
        verdict=StallVerdict.POSSIBLE_STALL,
        method="lemma4-net-vectors",
        imbalanced=imbalanced,
    )
