"""Property-based differential tests (hypothesis).

These encode the paper's safety contracts:

* every static detector is conservative — an exact (wave-model)
  deadlock is never certified away;
* the refined algorithm only ever removes alarms relative to naive;
* the Lemma-1 unroll never lets the static detectors certify away an
  exact deadlock of the original (pre-unroll) graph;
* derived orderings/co-executability facts are sound against the
  reachable wave space;
* Lemma 3's count balance implies stall freedom on unconditional
  programs;
* runtime (interpreter) deadlocks are always predicted statically;
* the parser/pretty-printer round-trip is the identity.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.coexec import compute_coexec
from repro.analysis.extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_analysis,
)
from repro.analysis.naive import naive_deadlock_analysis
from repro.analysis.constraint4 import constraint4_deadlock_analysis
from repro.analysis.orderings import compute_orderings
from repro.analysis.refined import refined_deadlock_analysis
from repro.analysis.stalls import lemma3_stall_analysis
from repro.interp.scheduler import run_program
from repro.lang.ast_nodes import (
    Accept,
    Assign,
    Condition,
    For,
    If,
    Null,
    Program,
    Send,
    TaskDecl,
    While,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.reductions.cnf import random_cnf
from repro.reductions.dpll import is_satisfiable
from repro.reductions.theorem2 import (
    build_theorem2_program,
    find_unsequenceable_cycle,
)
from repro.reductions.theorem3 import (
    build_theorem3_graph,
    find_constraint2_cycle,
)
from repro.syncgraph.build import build_sync_graph
from repro.transforms.branch_merge import merge_branch_rendezvous
from repro.transforms.unroll import remove_loops
from repro.waves.explore import explore
from repro.waves.wave import initial_waves, next_waves

# --------------------------------------------------------------------------
# program strategies
# --------------------------------------------------------------------------

N_TASKS = 3
MESSAGES = ["m0", "m1"]
TASKS = [f"t{i}" for i in range(N_TASKS)]


def _leaf(task_index: int) -> st.SearchStrategy:
    sends = [
        Send(task=TASKS[j], message=m)
        for j in range(N_TASKS)
        if j != task_index
        for m in MESSAGES
    ]
    accepts = [Accept(message=m) for m in MESSAGES]
    return st.sampled_from(sends + accepts + [Null()])


def _stmt(task_index: int, depth: int) -> st.SearchStrategy:
    leaf = _leaf(task_index)
    if depth <= 0:
        return leaf
    inner = st.lists(_stmt(task_index, depth - 1), min_size=1, max_size=2)
    compound = st.one_of(
        st.builds(
            If,
            condition=st.just(Condition.unknown()),
            then_body=inner.map(tuple),
            else_body=st.lists(
                _stmt(task_index, depth - 1), min_size=0, max_size=1
            ).map(tuple),
        ),
        st.builds(
            While,
            condition=st.just(Condition.unknown()),
            body=inner.map(tuple),
        ),
    )
    return st.one_of(leaf, leaf, compound)  # bias toward leaves


@st.composite
def small_programs(draw, with_loops: bool = True) -> Program:
    tasks = []
    for i in range(N_TASKS):
        depth = 1 if with_loops else 0
        body = draw(
            st.lists(_stmt(i, depth), min_size=0, max_size=3).map(tuple)
        )
        tasks.append(TaskDecl(name=TASKS[i], body=body))
    return Program(name="prop", tasks=tuple(tasks))


FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DETECTORS = [
    naive_deadlock_analysis,
    refined_deadlock_analysis,
    constraint4_deadlock_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    combined_pairs_analysis,
    lambda graph: k_pairs_analysis(graph, k=3),
]


# --------------------------------------------------------------------------
# round trip
# --------------------------------------------------------------------------


@FAST
@given(small_programs())
def test_parse_pretty_roundtrip(program):
    assert parse_program(pretty(program)) == program


# The basic strategy only exercises send/accept/null under ?-guarded
# if/while.  The full surface grammar also has for loops with static
# bounds, assignments, accepts that bind a variable, and named (and
# negated) branch conditions — the constructs the co-dependent
# transform and the repair generator rewrite, so their round-trip is
# what keeps RepairCandidate.source faithful.

_VARS = ["v0", "v1"]


def _rich_leaf(task_index: int) -> st.SearchStrategy:
    sends = [
        Send(task=TASKS[j], message=m)
        for j in range(N_TASKS)
        if j != task_index
        for m in MESSAGES
    ]
    accepts = [Accept(message=m) for m in MESSAGES]
    accepts += [Accept(message=m, binds=_VARS[0]) for m in MESSAGES]
    assigns = [Assign(var=v) for v in _VARS]
    return st.sampled_from(sends + accepts + assigns + [Null()])


def _conditions() -> st.SearchStrategy:
    return st.sampled_from(
        [Condition.unknown()]
        + [
            Condition.of_var(v, negated)
            for v in _VARS
            for negated in (False, True)
        ]
    )


def _rich_stmt(task_index: int, depth: int) -> st.SearchStrategy:
    leaf = _rich_leaf(task_index)
    if depth <= 0:
        return leaf
    inner = st.lists(
        _rich_stmt(task_index, depth - 1), min_size=1, max_size=2
    ).map(tuple)
    maybe_empty = st.lists(
        _rich_stmt(task_index, depth - 1), min_size=0, max_size=1
    ).map(tuple)
    compound = st.one_of(
        st.builds(
            If,
            condition=_conditions(),
            then_body=inner,
            else_body=maybe_empty,
        ),
        st.builds(While, condition=_conditions(), body=inner),
        st.builds(
            For,
            var=st.just("i"),
            lower=st.integers(min_value=0, max_value=2),
            upper=st.integers(min_value=0, max_value=3),
            body=inner,
        ),
    )
    return st.one_of(leaf, leaf, compound)


@st.composite
def rich_programs(draw) -> Program:
    tasks = []
    for i in range(N_TASKS):
        body = draw(
            st.lists(_rich_stmt(i, 1), min_size=0, max_size=3).map(tuple)
        )
        tasks.append(TaskDecl(name=TASKS[i], body=body))
    return Program(name="rich", tasks=tuple(tasks))


@FAST
@given(rich_programs())
def test_parse_pretty_roundtrip_full_grammar(program):
    text = pretty(program)
    reparsed = parse_program(text)
    assert reparsed == program
    assert pretty(reparsed) == text  # pretty is idempotent


def _all_corpus_sources():
    from repro.workloads import corpus as paper_module
    from repro.workloads.adl_corpus import (
        adl_corpus,
        lint_corpus,
        repair_corpus,
    )

    pairs = [
        (f"paper:{name}", source)
        for name, _figure, source, *_ in paper_module._SOURCES
    ]
    for tag, entries in (
        ("adl", adl_corpus()),
        ("lint", lint_corpus()),
        ("repair", repair_corpus()),
    ):
        for name, entry in sorted(entries.items()):
            pairs.append((f"{tag}:{name}", entry.source))
    return pairs


@pytest.mark.parametrize(
    "name,source", _all_corpus_sources(), ids=lambda v: v if ":" in str(v) else ""
)
def test_every_corpus_program_round_trips(name, source):
    """parse∘pretty is the identity and pretty is idempotent on every
    shipped corpus — paper figures, showcase ADL, lint showcase (which
    includes deliberately *invalid* programs that must still round-trip
    at the syntax level), and the convicted repair corpus."""
    program = parse_program(source)
    text = pretty(program)
    assert parse_program(text) == program
    assert pretty(parse_program(text)) == text


# --------------------------------------------------------------------------
# conservativeness (safety) of every detector
# --------------------------------------------------------------------------


@FAST
@given(small_programs())
def test_detectors_never_miss_exact_deadlocks(program):
    transformed, _ = remove_loops(program)
    graph = build_sync_graph(transformed)
    exact = explore(graph, state_limit=60_000)
    if not exact.has_deadlock:
        return
    for detector in DETECTORS:
        report = detector(graph)
        assert not report.deadlock_free, (
            f"{report.algorithm} certified a program with an exact "
            f"deadlock:\n{pretty(program)}"
        )


@FAST
@given(small_programs())
def test_refined_family_alarms_subset_of_naive(program):
    transformed, _ = remove_loops(program)
    graph = build_sync_graph(transformed)
    if naive_deadlock_analysis(graph).deadlock_free:
        for detector in DETECTORS[1:]:
            assert detector(graph).deadlock_free


# --------------------------------------------------------------------------
# Lemma 1: the unroll transform is sound for the *static* analysis
# --------------------------------------------------------------------------
#
# Lemma 1 guarantees that the guarded-copy unroll preserves every
# deadlock cycle the CLG method looks for.  It does NOT make the
# unrolled graph wave-equivalent to the original: bounding a while loop
# at two iterations can drop an exact deadlock that needs a third (see
# the regression below).  The sound, testable directions are:
#
# * an exact deadlock of the ORIGINAL graph is never certified away by
#   the static detectors running on the unrolled graph;
# * unrolling never *loses* static convictions relative to the exact
#   semantics (covered by test_detectors_never_miss_exact_deadlocks on
#   the transformed graph);
# * for programs the unroll does not approximate (loop-free, or only
#   small static for loops), exact verdicts agree.


@FAST
@given(small_programs(with_loops=True))
def test_unroll_never_certifies_away_exact_deadlocks(program):
    before = explore(build_sync_graph(program), state_limit=60_000)
    if not before.has_deadlock:
        return
    transformed, _ = remove_loops(program)
    graph = build_sync_graph(transformed)
    for detector in (naive_deadlock_analysis, refined_deadlock_analysis):
        report = detector(graph)
        assert not report.deadlock_free, (
            f"{report.algorithm} certified the unrolled form of a "
            f"program with an exact deadlock:\n{pretty(program)}"
        )


@FAST
@given(small_programs(with_loops=False))
def test_unroll_is_identity_on_loop_free_programs(program):
    transformed, changed = remove_loops(program)
    assert not changed
    assert transformed == program


def test_unroll_can_drop_exact_deadlocks_regression():
    """The 2-copy unroll is not wave-equivalent (discovered by hypothesis).

    t0's while loop must accept (t0, m0) three times for every sender
    to proceed, but the unrolled form provides only two accepts — so
    the deadlock reachable in the original graph has no counterpart in
    the unrolled one.  The pipeline stays sound because the static
    detectors still convict the unrolled graph, and analyze(exact=True)
    explores the pre-unroll graph for approximated programs.
    """
    import repro

    source = """
        program unrollgap;
        task t0 is begin
            if ? then send t1.m1; end if;
            while ? loop accept m0; end loop;
            send t1.m0;
        end;
        task t1 is begin send t0.m0; accept m0; send t0.m0; end;
        task t2 is begin send t0.m0; end;
    """
    program = parse_program(source)
    transformed, changed = remove_loops(program)
    assert changed
    before = explore(build_sync_graph(program), state_limit=60_000)
    after = explore(build_sync_graph(transformed), state_limit=60_000)
    assert before.has_deadlock and not before.limited
    assert not after.has_deadlock  # the unroll dropped the deadlock...
    # ...but the static detectors stay conservative on the unrolled graph
    assert not refined_deadlock_analysis(
        build_sync_graph(transformed)
    ).deadlock_free
    # ...and the exact pipeline explores the pre-unroll graph
    result = repro.analyze(source, exact=True)
    assert not result.deadlock.deadlock_free
    assert result.deadlock.stats["explored_pre_unroll_graph"]


# --------------------------------------------------------------------------
# soundness of the derived facts
# --------------------------------------------------------------------------


def _co_waiting_pairs(graph, state_limit=60_000):
    """All unordered node pairs that wait together on some feasible wave."""
    from collections import deque

    seen = set()
    pairs = set()
    queue = deque()
    for wave in initial_waves(graph):
        if wave not in seen:
            seen.add(wave)
            queue.append(wave)
    while queue:
        wave = queue.popleft()
        real = wave.real_nodes()
        for i, a in enumerate(real):
            for b in real[i + 1 :]:
                pairs.add(frozenset((a, b)))
        for nxt in next_waves(graph, wave):
            if nxt not in seen and len(seen) < state_limit:
                seen.add(nxt)
                queue.append(nxt)
    return pairs


@FAST
@given(small_programs(with_loops=False))
def test_sequenceable_nodes_never_co_wait(program):
    graph = build_sync_graph(program)
    orderings = compute_orderings(graph)
    co_waiting = _co_waiting_pairs(graph)
    for a in graph.rendezvous_nodes:
        for b in orderings.sequenceable_with(a):
            assert frozenset((a, b)) not in co_waiting, (
                f"sequenceable pair co-waits: {a} / {b}\n{pretty(program)}"
            )


@FAST
@given(small_programs(with_loops=False))
def test_not_coexec_nodes_never_co_wait(program):
    graph = build_sync_graph(program)
    coexec = compute_coexec(graph)
    co_waiting = _co_waiting_pairs(graph)
    for a in graph.rendezvous_nodes:
        for b in coexec.not_coexec_with(a):
            assert frozenset((a, b)) not in co_waiting


# --------------------------------------------------------------------------
# Lemma 3 as a property
# --------------------------------------------------------------------------


@FAST
@given(small_programs(with_loops=False))
def test_lemma3_balance_implies_no_stall(program):
    report = lemma3_stall_analysis(program)
    if not report.stall_free:
        return
    exact = explore(build_sync_graph(program), state_limit=60_000)
    assert not exact.has_stall, pretty(program)


# --------------------------------------------------------------------------
# runtime vs static
# --------------------------------------------------------------------------


@FAST
@given(small_programs(), st.integers(min_value=0, max_value=7))
def test_runtime_deadlocks_predicted_statically(program, seed):
    result = run_program(program, seed=seed, max_loop_iters=3)
    if result.status != "stuck" or not result.is_deadlock:
        return
    transformed, _ = remove_loops(program)
    graph = build_sync_graph(transformed)
    exact = explore(graph, state_limit=60_000)
    assert exact.has_anomaly, pretty(program)
    report = refined_deadlock_analysis(graph)
    if exact.has_deadlock:
        assert not report.deadlock_free


# --------------------------------------------------------------------------
# branch merge is anomaly preserving
# --------------------------------------------------------------------------


@FAST
@given(small_programs(with_loops=False))
def test_branch_merge_preserves_anomalies(program):
    merged, count = merge_branch_rendezvous(program)
    if count == 0:
        return
    before = explore(build_sync_graph(program), state_limit=60_000)
    after = explore(build_sync_graph(merged), state_limit=60_000)
    assert before.has_anomaly <= after.has_anomaly, pretty(program)


# --------------------------------------------------------------------------
# transform differential properties (repair-transform safety)
# --------------------------------------------------------------------------
#
# branch_merge and factor_codependent are offered by repro.repair as
# candidate fixes, so the property that matters is the safe direction:
# a program the refined analysis certifies free must never come back
# convicted after the transform.  (The other direction is fine — the
# transforms exist to *remove* false alarms.)


@FAST
@given(small_programs(with_loops=False))
def test_branch_merge_never_flips_free_to_convicted(program):
    merged, count = merge_branch_rendezvous(program)
    if count == 0:
        return
    if refined_deadlock_analysis(build_sync_graph(program)).deadlock_free:
        report = refined_deadlock_analysis(build_sync_graph(merged))
        assert report.deadlock_free, pretty(program)


@st.composite
def branchy_programs(draw) -> Program:
    """Loop-free programs whose only compounds are if statements, so
    the linearization space is exactly the set of branch choices."""
    tasks = []
    for i in range(N_TASKS):
        leaf = _leaf(i)
        stmt = st.one_of(
            leaf,
            leaf,
            st.builds(
                If,
                condition=st.just(Condition.unknown()),
                then_body=st.lists(leaf, min_size=1, max_size=2).map(tuple),
                else_body=st.lists(leaf, min_size=0, max_size=1).map(tuple),
            ),
        )
        body = draw(st.lists(stmt, min_size=0, max_size=3).map(tuple))
        tasks.append(TaskDecl(name=TASKS[i], body=body))
    return Program(name="branchy", tasks=tuple(tasks))


@FAST
@given(branchy_programs())
def test_linearizations_cover_exact_deadlocks(program):
    """Section 3.1.3: every deadlock of P lives in some linearized P_E,
    and every P_E deadlock is a P deadlock (branch draws are feasible).
    On branch-only programs the two exact verdicts therefore agree."""
    from repro.transforms.linearize import (
        count_linearizations,
        linearizations,
    )

    assume(count_linearizations(program) <= 32)
    exact = explore(build_sync_graph(program), state_limit=60_000)
    assert not exact.limited
    linear_deadlock = any(
        explore(build_sync_graph(lin), state_limit=60_000).has_deadlock
        for lin in linearizations(program)
    )
    assert exact.has_deadlock == linear_deadlock, pretty(program)


def _transformable_corpus_programs():
    import repro.workloads.corpus as paper_module
    from repro.workloads.adl_corpus import adl_corpus, repair_corpus

    pairs = [
        (f"paper:{name}", entry.program)
        for name, entry in sorted(paper_module.paper_corpus().items())
    ]
    for tag, entries in (("adl", adl_corpus()), ("repair", repair_corpus())):
        pairs.extend(
            (f"{tag}:{name}", entry.program)
            for name, entry in sorted(entries.items())
        )
    return pairs


@pytest.mark.parametrize(
    "name,program",
    _transformable_corpus_programs(),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_precision_transforms_never_convict_certified_corpora(name, program):
    """Differential sweep: applying branch_merge / factor_codependent to
    every (valid) corpus program never flips certified-free to
    convicted under the full pipeline."""
    import repro
    from repro.transforms.codependent import factor_codependent

    variants = []
    merged, merge_count = merge_branch_rendezvous(program)
    if merge_count:
        variants.append(("branch_merge", merged))
    factored, pairs = factor_codependent(program)
    if pairs:
        variants.append(("codependent", factored))
    if not variants:
        return
    base_free = repro.analyze(program).deadlock.deadlock_free
    for kind, variant in variants:
        got = repro.analyze(variant).deadlock.deadlock_free
        if base_free:
            assert got, f"{kind} convicted certified-free {name}"


def test_transform_sweep_is_nonvacuous(corpus):
    """fig5d guarantees the corpus sweep actually exercises
    factor_codependent (it is the paper's co-dependent example)."""
    from repro.transforms.codependent import factor_codependent

    _, pairs = factor_codependent(corpus["fig5d"].program)
    assert pairs


# --------------------------------------------------------------------------
# reductions agree with DPLL
# --------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_theorem2_matches_dpll(seed):
    formula = random_cnf(4, 5, seed=seed)
    inst = build_theorem2_program(formula)
    assert (find_unsequenceable_cycle(inst) is not None) == is_satisfiable(
        formula
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_theorem3_matches_dpll(seed):
    formula = random_cnf(4, 5, seed=seed)
    inst = build_theorem3_graph(formula)
    assert (find_constraint2_cycle(inst) is not None) == is_satisfiable(
        formula
    )


# --------------------------------------------------------------------------
# witnesses agree with exploration; traces respect the §2 invariants
# --------------------------------------------------------------------------


@FAST
@given(small_programs(with_loops=False))
def test_witness_iff_exact_deadlock(program):
    from repro.waves.states import trace_states
    from repro.waves.witness import find_anomaly_witness

    graph = build_sync_graph(program)
    exact = explore(graph, state_limit=60_000)
    witness = find_anomaly_witness(graph, "deadlock", state_limit=60_000)
    assert (witness is not None) == exact.has_deadlock, pretty(program)
    if witness is not None:
        for snapshot in trace_states(graph, witness):
            snapshot.check_invariants(graph)
        final = trace_states(graph, witness)[-1]
        assert final.ready_nodes() == ()


# --------------------------------------------------------------------------
# procedure inlining preserves exact semantics (vs interpreter parity)
# --------------------------------------------------------------------------


@st.composite
def programs_with_procedures(draw):
    from repro.lang.ast_nodes import Call, ProcDecl

    base = draw(small_programs(with_loops=False))
    # wrap a shared two-statement procedure and call it from task 0
    proc_body = (
        Send(task=TASKS[1], message="m0"),
        Accept(message="m1"),
    )
    tasks = list(base.tasks)
    tasks[0] = TaskDecl(
        name=tasks[0].name, body=(Call("shared"),) + tasks[0].body
    )
    return Program(
        name="withproc",
        tasks=tuple(tasks),
        procedures=(ProcDecl(name="shared", body=proc_body),),
    )


@FAST
@given(programs_with_procedures())
def test_inlining_preserves_exact_verdicts(program):
    from repro.transforms.inline import inline_procedures

    inlined, changed = inline_procedures(program)
    assert changed
    manual = Program(
        name=program.name,
        tasks=tuple(
            TaskDecl(
                name=t.name,
                body=(
                    program.procedures[0].body + t.body[1:]
                    if i == 0
                    else t.body
                ),
            )
            for i, t in enumerate(program.tasks)
        ),
    )
    got = explore(build_sync_graph(inlined), state_limit=60_000)
    want = explore(build_sync_graph(manual), state_limit=60_000)
    assert got.has_deadlock == want.has_deadlock
    assert got.has_stall == want.has_stall


# --------------------------------------------------------------------------
# Lemma 4 net-vector certification is sound
# --------------------------------------------------------------------------


@FAST
@given(small_programs(with_loops=False))
def test_lemma4_certification_implies_no_stall(program):
    from repro.analysis.stalls import lemma4_stall_analysis

    report = lemma4_stall_analysis(program)
    if not report.stall_free:
        return
    exact = explore(build_sync_graph(program), state_limit=60_000)
    assert not exact.has_stall, pretty(program)
