"""Differential tests: indexed bitset kernels vs the set-based oracles.

The refined algorithm family runs on :class:`AnalysisIndex` bitsets;
its reports must be observationally indistinguishable from the
set-based oracles in ``tests/oracles/`` — same verdicts, same evidence
components, same stats (down to the per-rule pruning counters).
Hypothesis drives both over random programs; the bundled paper corpus
pins the real workloads.  Also covers the early-exit property of the
rooted Tarjan kernel and the satellite behaviors added alongside it
(``sequenceable_with`` memoization, the ``compute_orderings``
convergence warning).
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given

from repro import obs
from repro.analysis.constraint4 import constraint4_deadlock_analysis
from repro.analysis.extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_analysis,
)
from repro.analysis.index import AnalysisIndex
from repro.analysis.orderings import compute_orderings
from repro.analysis.refined import possible_heads, refined_deadlock_analysis
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import in_id_of, rendezvous_uids
from repro.transforms.unroll import remove_loops
from tests import oracles
from tests.oracles.clg import build_clg
from tests.conftest import graph_of
from tests.test_properties import FAST, small_programs

# Each product detector with its oracle.
DETECTOR_PAIRS = [
    (refined_deadlock_analysis, oracles.refined_deadlock_analysis),
    (constraint4_deadlock_analysis, oracles.constraint4_deadlock_analysis),
    (head_pairs_analysis, oracles.head_pairs_analysis),
    (head_tail_analysis, oracles.head_tail_analysis),
    (combined_pairs_analysis, oracles.combined_pairs_analysis),
]


def _report_fingerprint(report):
    return (
        report.verdict,
        report.algorithm,
        report.heads_examined,
        [(e.component, e.head, e.tail) for e in report.evidence],
        report.stats,
    )


def _pruning_counters(session):
    return {
        key: counter.value
        for key, counter in session.registry.counters.items()
        if key[0] in ("refined.pruned_nodes", "refined.pruned_edges")
    }


class TestDifferentialEquivalence:
    @FAST
    @given(small_programs())
    def test_refined_backends_agree(self, program):
        """Verdict, evidence AND stats — and the per-rule pruning
        counters, which only observability records — must match
        exactly."""
        graph = graph_of(program)
        with obs.observed() as product:
            indexed = refined_deadlock_analysis(graph)
        with obs.observed() as oracle:
            reference = oracles.refined_deadlock_analysis(graph)
        assert _report_fingerprint(indexed) == _report_fingerprint(reference)
        assert _pruning_counters(product) == _pruning_counters(oracle)

    @FAST
    @given(small_programs())
    def test_extensions_and_constraint4_backends_agree(self, program):
        graph = graph_of(program)
        index = AnalysisIndex(graph)
        for detector, oracle in DETECTOR_PAIRS[1:]:
            indexed = detector(graph, index=index)
            reference = oracle(graph, index=index)
            assert _report_fingerprint(indexed) == _report_fingerprint(
                reference
            ), detector.__name__

    @FAST
    @given(small_programs())
    def test_k_pairs_backends_agree(self, program):
        graph = graph_of(program)
        indexed = k_pairs_analysis(graph, k=3)
        reference = oracles.k_pairs_analysis(graph, k=3)
        assert _report_fingerprint(indexed) == _report_fingerprint(reference)

    def test_corpus_backend_parity(self, corpus):
        """Whole bundled paper corpus: identical reports per detector."""
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            index = AnalysisIndex(graph)
            for detector, oracle in DETECTOR_PAIRS:
                with obs.observed() as product:
                    indexed = detector(graph, index=index)
                with obs.observed() as reference_session:
                    reference = oracle(graph, index=index)
                where = f"{name}/{detector.__name__}"
                assert _report_fingerprint(indexed) == _report_fingerprint(
                    reference
                ), where
                assert _pruning_counters(product) == _pruning_counters(
                    reference_session
                ), where

    @FAST
    @given(small_programs())
    def test_shared_index_matches_fresh_builds(self, program):
        """One AnalysisIndex shared across analyses changes nothing."""
        graph = graph_of(program)
        index = AnalysisIndex(graph)
        shared = refined_deadlock_analysis(graph, index=index)
        fresh = refined_deadlock_analysis(graph)
        assert _report_fingerprint(shared) == _report_fingerprint(fresh)


# Two disjoint deadlock cycles: {t1, t2} wait on each other and,
# independently, {t3, t4} wait on each other.  t1's component never
# requires visiting the t3/t4 half of the CLG.
TWO_CYCLES_SRC = """
program two_cycles;
task t1 is begin accept a; send t2.b; end;
task t2 is begin accept b; send t1.a; end;
task t3 is begin accept c; send t4.d; end;
task t4 is begin accept d; send t3.c; end;
"""


class TestEarlyExitTarjan:
    def _graph(self):
        transformed, _ = remove_loops(parse_program(TWO_CYCLES_SRC))
        return build_sync_graph(transformed)

    def test_stops_before_visiting_other_components(self):
        graph = self._graph()
        index = AnalysisIndex(graph)
        head = next(
            h for h in possible_heads(graph) if h.task in ("t1", "t2")
        )
        no_sync, do_not_enter = index.head_marks(head)
        h_id = in_id_of(head)
        assert not ((no_sync | do_not_enter) >> h_id) & 1
        ids, visited = index.cyclic_component_ids(h_id, no_sync, do_not_enter)
        assert ids is not None
        # The rooted walk never reaches the t3/t4 half of the CLG, let
        # alone b/e — strictly fewer nodes than a full enumeration.
        assert visited < index.node_count
        tasks = {graph.node(u).task for u in rendezvous_uids(ids)}
        assert tasks == {"t1", "t2"}

    def test_component_matches_reference_search(self):
        graph = self._graph()
        index = AnalysisIndex(graph)
        clg = build_clg(graph)
        orderings, coexec = index.orderings, index.coexec
        for head in possible_heads(graph):
            reference = oracles.component_for_head(
                graph, clg, head, orderings, coexec
            )
            no_sync, do_not_enter = index.head_marks(head)
            if ((no_sync | do_not_enter) >> in_id_of(head)) & 1:
                assert reference is None
                continue
            ids, _ = index.cyclic_component_ids(
                in_id_of(head), no_sync, do_not_enter
            )
            if reference is None:
                assert ids is None
            else:
                node_index = clg.node_index
                assert ids is not None
                assert sorted(node_index[n] for n in reference) == sorted(ids)


class TestSatelliteBehaviors:
    def test_sequenceable_with_is_memoized(self, handshake):
        graph = graph_of(handshake)
        orderings = compute_orderings(graph)
        assert orderings._seq_sets is None
        node = graph.rendezvous_nodes[0]
        first = orderings.sequenceable_with(node)
        cache = orderings._seq_sets
        assert cache is not None
        assert orderings.sequenceable_with(node) == first
        assert orderings._seq_sets is cache  # no rebuild on the second query
        # The symmetric closure is still correct.
        for a in graph.rendezvous_nodes:
            for b in graph.rendezvous_nodes:
                assert (b in orderings.sequenceable_with(a)) == (
                    orderings.sequenceable(a, b)
                )

    def test_orderings_budget_exhaustion_warns(self, handshake):
        graph = graph_of(handshake)
        with obs.observed() as session:
            with pytest.warns(RuntimeWarning, match="work budget"):
                partial = compute_orderings(graph, max_iterations=0)
        registry = session.registry
        assert registry.counter_value("orderings.max_iterations_exhausted") == 1
        assert registry.counter_value("orderings.worklist_steps") == 0
        # The partial fixpoint is a sound subset of the converged one.
        full = compute_orderings(graph)
        for node, targets in partial.precedes.items():
            assert targets <= full.precedes[node]

    def test_converged_run_does_not_warn(self, handshake):
        graph = graph_of(handshake)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_orderings(graph)

    def test_mark_cache_counters(self, handshake):
        graph = graph_of(handshake)
        with obs.observed() as session:
            index = AnalysisIndex(graph)
            head = graph.rendezvous_nodes[0]
            index.head_marks(head)
            index.head_marks(head)
            index.head_marks(head, use_coaccept=False)
        registry = session.registry
        assert registry.counter_value("index.mark_cache_misses") == 2
        assert registry.counter_value("index.mark_cache_hits") == 1
