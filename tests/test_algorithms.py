"""Deadlock detection algorithms: naive, refined, extensions, constraint 4.

These tests pin down the paper's qualitative claims:

* both algorithms are conservative (never certify a deadlocking
  program);
* the refined algorithm eliminates spurious cycles the naive one
  reports (Figure 1 narrative, Lemma 2, constraint 3a);
* the extensions form a precision spectrum;
* constraint 4 eliminates the Figure-3 cycle.
"""

import pytest

from repro.analysis.constraint4 import (
    breakable_nodes,
    constraint4_deadlock_analysis,
    find_breaker,
)
from repro.analysis.extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
)
from repro.analysis.naive import naive_deadlock_analysis
from repro.analysis.orderings import compute_orderings
from repro.analysis.refined import possible_heads, refined_deadlock_analysis
from repro.analysis.results import Verdict
from repro.errors import AnalysisError
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.waves.explore import exact_deadlock

ALL_DETECTORS = [
    naive_deadlock_analysis,
    refined_deadlock_analysis,
    constraint4_deadlock_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    combined_pairs_analysis,
]

REFINED_FAMILY = ALL_DETECTORS[1:]


def graph_for(src):
    return build_sync_graph(parse_program(src))


class TestNaive:
    def test_certifies_handshake(self, handshake):
        report = naive_deadlock_analysis(build_sync_graph(handshake))
        assert report.deadlock_free
        assert report.verdict == Verdict.CERTIFIED_FREE

    def test_flags_crossed(self, crossed):
        report = naive_deadlock_analysis(build_sync_graph(crossed))
        assert not report.deadlock_free
        assert report.evidence
        assert report.evidence[0].tasks == {"t1", "t2"}

    def test_rejects_cyclic_control_flow(self):
        sg = graph_for(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        with pytest.raises(AnalysisError):
            naive_deadlock_analysis(sg)

    def test_stats_populated(self, handshake):
        report = naive_deadlock_analysis(build_sync_graph(handshake))
        assert report.stats["clg_nodes"] == 10


class TestPossibleHeads:
    def test_heads_need_sync_edge_and_successor(self, crossed):
        sg = build_sync_graph(crossed)
        heads = possible_heads(sg)
        assert {h.triple for h in heads} == {
            ("t2", "a", "+"),
            ("t1", "x", "+"),
        }

    def test_unmatched_node_not_a_head(self, stall_program):
        sg = build_sync_graph(stall_program)
        assert possible_heads(sg) == ()


class TestRefined:
    @pytest.mark.parametrize("detector", REFINED_FAMILY)
    def test_conservative_on_deadlocks(self, detector, crossed, fig2b):
        for program in (crossed, fig2b):
            sg = build_sync_graph(program)
            assert exact_deadlock(sg)
            assert not detector(sg).deadlock_free

    @pytest.mark.parametrize("detector", REFINED_FAMILY)
    def test_certifies_handshake(self, detector, handshake):
        assert detector(build_sync_graph(handshake)).deadlock_free

    def test_eliminates_cross_round_cycles(self, corpus):
        # Figure 1: naive reports spurious cycles, refined certifies.
        sg = build_sync_graph(corpus["fig1"].program)
        assert not naive_deadlock_analysis(sg).deadlock_free
        assert refined_deadlock_analysis(sg).deadlock_free

    def test_lemma2_rendezvousing_heads_eliminated(self, corpus):
        sg = build_sync_graph(corpus["fig5a"].program)
        assert not naive_deadlock_analysis(sg).deadlock_free
        assert refined_deadlock_analysis(sg).deadlock_free

    def test_evidence_names_head(self, crossed):
        report = refined_deadlock_analysis(build_sync_graph(crossed))
        assert all(e.head is not None for e in report.evidence)

    def test_precomputed_inputs_accepted(self, crossed):
        from repro.analysis.coexec import compute_coexec
        from repro.analysis.index import AnalysisIndex

        sg = build_sync_graph(crossed)
        index = AnalysisIndex(
            sg, orderings=compute_orderings(sg), coexec=compute_coexec(sg)
        )
        report = refined_deadlock_analysis(sg, index=index)
        assert not report.deadlock_free

    def test_alarm_subset_of_naive(self, corpus):
        # refined alarms imply naive alarms (it only removes cycles)
        for entry in corpus.values():
            from repro.transforms.unroll import remove_loops

            program, _ = remove_loops(entry.program)
            sg = build_sync_graph(program)
            naive = naive_deadlock_analysis(sg)
            refined = refined_deadlock_analysis(sg)
            if naive.deadlock_free:
                assert refined.deadlock_free


class TestExtensions:
    def test_precision_spectrum_is_monotone_on_corpus(self, corpus):
        from repro.transforms.unroll import remove_loops

        for entry in corpus.values():
            program, _ = remove_loops(entry.program)
            sg = build_sync_graph(program)
            base = refined_deadlock_analysis(sg).deadlock_free
            pairs = head_pairs_analysis(sg).deadlock_free
            ht = head_tail_analysis(sg).deadlock_free
            combined = combined_pairs_analysis(sg).deadlock_free
            # anything the base certifies, the extensions must too
            if base:
                assert pairs and ht and combined

    def test_head_pairs_skips_invalid_pairs(self, handshake):
        report = head_pairs_analysis(build_sync_graph(handshake))
        assert report.deadlock_free
        # the handshake pair is sync-connected: no pair hypothesis runs
        assert report.stats["pairs_examined"] == 0

    def test_combined_hypothesis_budget(self, crossed):
        with pytest.raises(AnalysisError):
            combined_pairs_analysis(
                build_sync_graph(crossed), max_hypotheses=0
            )


class TestConstraint4:
    def test_figure3_breaker_found(self, corpus):
        sg = build_sync_graph(corpus["fig3"].program)
        orderings = compute_orderings(sg)
        t = next(
            n
            for n in sg.nodes_of_task("b")
            if n.kind == "accept"
            and not sg.node(sg.predecessor_uids(n.uid)[0]).is_rendezvous
        )
        w = find_breaker(sg, t, orderings)
        assert w is not None
        assert w.task == "c"

    def test_figure3_certified_only_with_constraint4(self, corpus):
        sg = build_sync_graph(corpus["fig3"].program)
        assert not refined_deadlock_analysis(sg).deadlock_free
        assert constraint4_deadlock_analysis(sg).deadlock_free

    def test_crossed_deadlock_heads_not_breakable(self, crossed):
        # The two accepts ARE breakable (they can never be reached
        # waiting: reaching one forces the other task past its send),
        # but the send heads that actually deadlock must not be.
        sg = build_sync_graph(crossed)
        breakable = breakable_nodes(sg)
        assert all(n.kind == "accept" for n in breakable)
        assert not constraint4_deadlock_analysis(sg).deadlock_free

    def test_stats_report_breakable_count(self, corpus):
        sg = build_sync_graph(corpus["fig3"].program)
        report = constraint4_deadlock_analysis(sg)
        assert report.stats["breakable_nodes"] >= 1


class TestKPairs:
    def test_k2_delegates_to_combined(self, crossed):
        from repro.analysis.extensions import k_pairs_analysis

        report = k_pairs_analysis(build_sync_graph(crossed), k=2)
        assert report.algorithm == "refined+k-pairs(2)"
        assert not report.deadlock_free

    def test_k3_flags_three_task_ring(self):
        from repro.analysis.extensions import k_pairs_analysis

        sg = graph_for(
            "program p;"
            "task a is begin send b.m1; accept m3; end;"
            "task b is begin send c.m2; accept m1; end;"
            "task c is begin send a.m3; accept m2; end;"
        )
        assert exact_deadlock(sg)
        assert not k_pairs_analysis(sg, k=3).deadlock_free

    def test_k3_flags_two_task_cycle_via_exhaustive_search(self, crossed):
        from repro.analysis.extensions import k_pairs_analysis

        report = k_pairs_analysis(build_sync_graph(crossed), k=3)
        assert not report.deadlock_free
        # the triple hypotheses cannot fire with 2 tasks; the
        # restricted search must have produced the evidence
        assert report.stats["k_tuples_examined"] == 0

    def test_k3_certifies_clean_programs(self, handshake, corpus):
        from repro.analysis.extensions import k_pairs_analysis
        from repro.transforms.unroll import remove_loops

        assert k_pairs_analysis(build_sync_graph(handshake), k=3).deadlock_free
        program, _ = remove_loops(corpus["fig1"].program)
        assert k_pairs_analysis(
            build_sync_graph(program), k=3
        ).deadlock_free

    def test_k_validation(self, handshake):
        from repro.analysis.extensions import k_pairs_analysis

        with pytest.raises(ValueError):
            k_pairs_analysis(build_sync_graph(handshake), k=1)

    def test_hypothesis_budget(self):
        from repro.analysis.extensions import k_pairs_analysis
        from repro.errors import AnalysisError
        from repro.workloads.patterns import handshake_chain

        sg = build_sync_graph(handshake_chain(4, 2))
        with pytest.raises(AnalysisError):
            k_pairs_analysis(sg, k=3, max_hypotheses=1)

    def test_k4_runs_on_four_task_ring(self):
        from repro.analysis.extensions import k_pairs_analysis

        sg = graph_for(
            "program p;"
            "task a is begin send b.m1; accept m4; end;"
            "task b is begin send c.m2; accept m1; end;"
            "task c is begin send d.m3; accept m2; end;"
            "task d is begin send a.m4; accept m3; end;"
        )
        assert exact_deadlock(sg)
        assert not k_pairs_analysis(sg, k=4).deadlock_free
