"""Ordering framework tests (paper §4.1 / SEQUENCEABLE)."""

import networkx as nx
import pytest
from hypothesis import given

from repro.analysis.orderings import compute_orderings, strict_dominators
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.transforms.inline import inline_procedures
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.corpus import paper_corpus
from repro.workloads.random_programs import (
    inject_deadlock,
    random_serializable_program,
)
from tests.conftest import graph_of
from tests.oracles import orderings as oracle
from tests.test_properties import FAST, rich_programs, small_programs


def setup(src):
    sg = build_sync_graph(parse_program(src))
    return sg, compute_orderings(sg)


def node(sg, task, message, sign):
    for n in sg.nodes_of_task(task):
        if n.signal.message == message and n.sign == sign:
            return n
    raise KeyError((task, message, sign))


class TestStrictDominators:
    def test_straight_line_chain(self, handshake):
        sg = build_sync_graph(handshake)
        doms = strict_dominators(sg)
        send = node(sg, "t1", "sig1", "+")
        accept = node(sg, "t1", "sig2", "-")
        assert doms[accept] == frozenset({send})
        assert doms[send] == frozenset()

    def test_branch_arms_not_dominators(self):
        sg = build_sync_graph(parse_program(
            "program p;"
            "task a is begin if ? then send b.x; else send b.y; end if; "
            "send b.z; end;"
            "task b is begin accept x; accept y; accept z; end;"
        ))
        doms = strict_dominators(sg)
        z = node(sg, "a", "z", "+")
        assert doms[z] == frozenset()  # neither arm dominates


class TestIntraTaskPrecedes:
    def test_dominator_gives_precedes(self, handshake):
        sg, info = setup(
            "program p;"
            "task t1 is begin send t2.sig1; accept sig2; end;"
            "task t2 is begin accept sig1; send t1.sig2; end;"
        )
        r = node(sg, "t1", "sig1", "+")
        s = node(sg, "t1", "sig2", "-")
        assert info.must_precede(r, s)
        assert not info.must_precede(s, r)
        assert info.sequenceable(r, s)


class TestCrossTaskPrecedes:
    def test_partner_rule_derives_cross_task_order(self, handshake):
        sg = build_sync_graph(handshake)
        info = compute_orderings(sg)
        r = node(sg, "t1", "sig1", "+")  # first rendezvous
        v = node(sg, "t2", "sig2", "+")  # t2's second node
        # v is only reached after u completes; u completes only with r.
        assert info.must_precede(r, v)

    def test_figure1_narrative_v_after_r(self):
        # r; s in t1 — s rendezvouses only with v, which sits after u in
        # t2; u's only partner is r => r precedes v.
        sg, info = setup(
            "program p;"
            "task t1 is begin send t2.sig1; accept sig2; end;"
            "task t2 is begin accept sig1; send t1.sig2; end;"
        )
        r = node(sg, "t1", "sig1", "+")
        v = node(sg, "t2", "sig2", "+")
        assert info.must_precede(r, v)
        assert info.sequenceable(r, v)

    def test_crossed_program_derives_no_orderings(self, crossed):
        # the crossed program always deadlocks; a prefix-sound framework
        # must not order its head nodes (the old completion-conditioned
        # rules did, which was unsound)
        sg = build_sync_graph(crossed)
        info = compute_orderings(sg)
        h1 = node(sg, "t1", "a", "+")
        h2 = node(sg, "t2", "x", "+")
        assert not info.sequenceable(h1, h2)

    def test_multi_partner_blocks_derivation(self):
        # two senders for one accept: completing the accept pins down
        # neither sender, so no cross-task fact may be derived from it
        sg, info = setup(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; accept m; send d.n; end;"
            "task d is begin accept n; end;"
        )
        s_a = node(sg, "a", "m", "+")
        send_n = node(sg, "c", "n", "+")
        # The counting rule applies: both accepts are chain ordered in c
        # and counts match, so the last accept forces both senders;
        # c's send of n is therefore not reached until either send of m
        # completed.
        assert info.must_precede(s_a, send_n)
        s_b = node(sg, "b", "m", "+")
        assert info.must_precede(s_b, send_n)

    def test_counting_rule_requires_balance(self):
        sg, info = setup(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; send d.n; end;"
            "task d is begin accept n; end;"
        )
        s_a = node(sg, "a", "m", "+")
        send_n = node(sg, "c", "n", "+")
        # 2 sends vs 1 accept: completing the accept identifies neither
        # sender, so no ordering may be claimed for either send.
        assert not info.must_precede(s_a, send_n)


class TestSequenceableWith:
    def test_symmetric_closure(self, handshake):
        sg = build_sync_graph(handshake)
        info = compute_orderings(sg)
        r = node(sg, "t1", "sig1", "+")
        s = node(sg, "t1", "sig2", "-")
        assert s in info.sequenceable_with(r)
        assert r in info.sequenceable_with(s)

    def test_pair_count_nonnegative(self, crossed):
        sg = build_sync_graph(crossed)
        info = compute_orderings(sg)
        assert info.pair_count >= 0


# -- differential tests against tests/oracles/orderings.py ---------------


def _nx_has_control_cycle(sg):
    g = nx.DiGraph()
    g.add_nodes_from(sg.nodes)
    g.add_edges_from(sg.control_edges())
    return not nx.is_directed_acyclic_graph(g)


def assert_matches_oracle(sg):
    """Same facts as the networkx/worklist oracle, pair by pair."""
    info = compute_orderings(sg)
    expected = oracle.compute_orderings(sg)
    nodes = sg.rendezvous_nodes
    for a in nodes:
        for b in nodes:
            assert info.must_precede(a, b) == (b in expected[a]), (a, b)
            assert info.sequenceable(a, b) == (
                b in expected[a] or a in expected[b]
            )
    assert info.precedes == expected
    assert info.pair_count == sum(len(t) for t in expected.values())
    assert strict_dominators(sg) == oracle.strict_dominators(sg)
    assert sg.has_control_cycle() == _nx_has_control_cycle(sg)


class TestOracleDifferential:
    @FAST
    @given(small_programs(with_loops=True))
    def test_loop_programs_raw_and_unrolled(self, program):
        assert_matches_oracle(build_sync_graph(program))  # cyclic
        assert_matches_oracle(graph_of(program))

    @FAST
    @given(small_programs(with_loops=False))
    def test_straight_programs(self, program):
        assert_matches_oracle(build_sync_graph(program))

    @FAST
    @given(rich_programs())
    def test_full_grammar_programs(self, program):
        assert_matches_oracle(build_sync_graph(program))
        assert_matches_oracle(graph_of(program))


def _corpus_programs():
    programs = [entry.program for entry in paper_corpus().values()]
    for corpus in (adl_corpus(), repair_corpus()):
        programs += [parse_program(e.source) for e in corpus.values()]
    return programs


def test_sweep_matches_oracle():
    """Every shipped corpus program (raw and unrolled) and serializable
    programs, with and without a planted deadlock, up to ~120 nodes."""
    graphs = []
    for program in _corpus_programs():
        program, _ = inline_procedures(program)
        graphs += [build_sync_graph(program), graph_of(program)]
    for seed, tasks, steps in ((1, 2, 4), (2, 3, 12), (3, 4, 25),
                               (4, 6, 40), (5, 8, 60)):
        for unique in (False, True):
            program = random_serializable_program(
                tasks=tasks, rendezvous=steps, seed=seed,
                unique_messages=unique,
            )
            graphs += [graph_of(program), graph_of(inject_deadlock(program))]
    assert any(sg.has_control_cycle() for sg in graphs)
    assert max(len(sg.rendezvous_nodes) for sg in graphs) >= 100
    for sg in graphs:
        assert_matches_oracle(sg)
