"""Differential and regression tests for the indexed wave engine.

The packed-integer wave kernels (:class:`repro.waves.engine.WaveIndex`)
must be observationally indistinguishable from the tuple-of-nodes
oracles in ``tests/oracles/``: same ``visited_count``,
``can_terminate``, anomaly classifications *in the same order*, witness
schedules, and budget behavior.  Hypothesis drives both over random
programs; the bundled paper corpus pins the real workloads.

Also covers the bugfix satellites that ride along:

* the state budget is enforced during seeding (the initial cross
  product used to bypass ``state_limit`` entirely);
* budget exhaustion no longer discards partial findings —
  ``confirm_deadlock_report`` upgrades to CONFIRMED when a deadlock
  wave was in hand, and ``ExplorationLimitError`` carries the partial
  :class:`ExplorationResult`;
* ``Wave.position_of`` raises a typed :class:`UnknownTaskError`;
* ``next_waves_with_events`` yields each ``(event, wave)`` at most once
  even when a hand-built graph registers duplicate successors.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.analysis.confirm import (
    ConfirmationOutcome,
    confirm_deadlock_report,
)
from repro.analysis.refined import refined_deadlock_analysis
from repro.errors import ExplorationLimitError, UnknownTaskError
from repro.lang.ast_nodes import Signal
from repro.lang.parser import parse_program
from repro.syncgraph.model import SyncGraph
from repro.waves.engine import WaveIndex
from repro.waves.explore import ExplorationResult, explore
from repro.waves.wave import (
    Wave,
    initial_waves,
    iter_initial_waves,
    next_waves_with_events,
)
from repro.waves.witness import find_anomaly_witness
from repro.workloads.patterns import dining_philosophers
from tests import oracles
from tests.conftest import graph_of
from tests.test_properties import FAST, small_programs

# The budget tests run against the product search and its oracle.
EXPLORERS = [
    pytest.param(explore, id="index"),
    pytest.param(oracles.explore, id="reference"),
]
WITNESS_FINDERS = [
    pytest.param(find_anomaly_witness, id="index"),
    pytest.param(oracles.find_anomaly_witness, id="reference"),
]


def _classification_fingerprint(classification):
    # The oracle classifies with tests/oracles/anomaly.py, which lists
    # a wave's deadlock sets in set-iteration order: compare them as a
    # set (they are disjoint components, so the count is kept too).
    return (
        classification.wave,
        classification.stalls,
        frozenset(classification.deadlocks),
        len(classification.deadlocks),
    )


def _explore_fingerprint(result):
    return (
        result.visited_count,
        result.can_terminate,
        result.limited,
        [_classification_fingerprint(c) for c in result.anomalous],
    )


def _product_and_oracle(graph, **kwargs):
    return explore(graph, **kwargs), oracles.explore(graph, **kwargs)


# --------------------------------------------------------------------------
# differential equivalence: index engine vs reference oracle
# --------------------------------------------------------------------------


class TestDifferentialEquivalence:
    @FAST
    @given(small_programs())
    def test_explore_parity(self, program):
        graph = graph_of(program)
        indexed, reference = _product_and_oracle(graph, state_limit=60_000)
        assert _explore_fingerprint(indexed) == _explore_fingerprint(
            reference
        )

    @FAST
    @given(small_programs())
    def test_explore_parity_under_tight_budget(self, program):
        # The budget-faithful paths must also agree: same limited flag,
        # same visited_count, same partial anomaly list.
        graph = graph_of(program)
        indexed, reference = _product_and_oracle(
            graph, state_limit=7, on_limit="partial"
        )
        assert _explore_fingerprint(indexed) == _explore_fingerprint(
            reference
        )

    @FAST
    @given(small_programs())
    def test_witness_parity(self, program):
        graph = graph_of(program)
        witnesses = []
        for find in (find_anomaly_witness, oracles.find_anomaly_witness):
            try:
                witnesses.append(find(graph, kind="any", state_limit=60_000))
            except ExplorationLimitError:
                witnesses.append("limited")
        index_w, ref_w = witnesses
        if index_w is None or index_w == "limited":
            assert ref_w == index_w
            return
        assert ref_w is not None and ref_w != "limited"
        assert index_w.initial == ref_w.initial
        assert index_w.schedule == ref_w.schedule
        assert index_w.waves == ref_w.waves
        assert _classification_fingerprint(
            index_w.classification
        ) == _classification_fingerprint(ref_w.classification)

    def test_corpus_parity(self, corpus):
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            indexed, reference = _product_and_oracle(graph, state_limit=60_000)
            assert _explore_fingerprint(indexed) == _explore_fingerprint(
                reference
            ), f"explore parity broke on corpus program {name!r}"

    def test_corpus_witness_parity(self, corpus):
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            index_w = find_anomaly_witness(
                graph, kind="any", state_limit=60_000
            )
            ref_w = oracles.find_anomaly_witness(
                graph, kind="any", state_limit=60_000
            )
            if index_w is None:
                assert ref_w is None, name
                continue
            assert ref_w is not None, name
            assert index_w.schedule == ref_w.schedule, name
            assert index_w.waves == ref_w.waves, name

    def test_prebuilt_engine_is_reusable(self):
        graph = graph_of(dining_philosophers(4, True))
        engine = WaveIndex(graph)
        first = explore(graph, engine=engine)
        second = explore(graph, engine=engine)
        assert _explore_fingerprint(first) == _explore_fingerprint(second)
        assert find_anomaly_witness(
            graph, kind="deadlock", engine=engine
        ) is not None

    def test_unpack_roundtrip(self):
        graph = graph_of(dining_philosophers(3, True))
        engine = WaveIndex(graph)
        for key, _occ in engine._seed():
            assert engine.unpack(key) in initial_waves(graph)

    def test_unknown_on_limit_mode_rejected(self, handshake):
        graph = graph_of(handshake)
        with pytest.raises(ValueError, match="unknown on_limit"):
            explore(graph, on_limit="ignore")


# --------------------------------------------------------------------------
# satellite: budget enforced during seeding
# --------------------------------------------------------------------------

# Three entry branches => 2**3 = 8 initial waves before any expansion.
WIDE_SEED_SRC = """
program wide;
task a is begin if ? then send b.m0; else send b.m1; end if; end;
task b is begin if ? then accept m0; else accept m1; end if; end;
task c is begin if ? then send b.m0; else send b.m1; end if; end;
"""


class TestSeedingBudget:
    @pytest.fixture
    def wide_graph(self):
        return graph_of(parse_program(WIDE_SEED_SRC))

    def test_initial_cross_product_is_wide(self, wide_graph):
        assert len(initial_waves(wide_graph)) == 8

    @pytest.mark.parametrize("explore_fn", EXPLORERS)
    def test_seeding_respects_state_limit(self, wide_graph, explore_fn):
        # Regression: seeding used to materialize the whole initial
        # cross product regardless of state_limit.
        result = explore_fn(wide_graph, state_limit=4, on_limit="partial")
        assert result.limited
        assert result.visited_count == 4

    @pytest.mark.parametrize("find", WITNESS_FINDERS)
    def test_witness_seeding_respects_state_limit(self, wide_graph, find):
        with pytest.raises(ExplorationLimitError):
            find(wide_graph, kind="deadlock", state_limit=4)


# --------------------------------------------------------------------------
# satellite: partial results survive budget exhaustion
# --------------------------------------------------------------------------


class TestBudgetFaithfulness:
    @pytest.fixture
    def dining_graph(self):
        return graph_of(dining_philosophers(4, True))

    def test_limit_error_carries_partial_result(self, dining_graph):
        with pytest.raises(ExplorationLimitError) as excinfo:
            explore(dining_graph, state_limit=50)
        partial = excinfo.value.result
        assert isinstance(partial, ExplorationResult)
        assert partial.limited
        assert not partial.exhaustive
        assert partial.visited_count == 50
        assert partial.state_limit == 50

    @pytest.mark.parametrize("explore_fn", EXPLORERS)
    def test_on_limit_partial_returns_result(self, dining_graph, explore_fn):
        result = explore_fn(dining_graph, state_limit=50, on_limit="partial")
        assert result.limited
        assert result.visited_count == 50

    def test_exhaustive_run_is_marked_exhaustive(self, dining_graph):
        result = explore(dining_graph, state_limit=60_000)
        assert result.exhaustive
        assert not result.limited
        assert result.has_deadlock

    @pytest.mark.parametrize("find", WITNESS_FINDERS)
    def test_witness_found_within_budget_is_returned(
        self, dining_graph, find
    ):
        # The full space has 321 waves; a budget of 50 is exhausted, but
        # a deadlock wave is discovered first — the witness must be
        # returned, not thrown away with an ExplorationLimitError.
        witness = find(dining_graph, kind="deadlock", state_limit=50)
        assert witness is not None
        assert witness.is_deadlock

    def test_confirm_upgrades_to_confirmed_despite_budget(
        self, dining_graph
    ):
        # Regression: confirm_deadlock_report used to answer
        # INCONCLUSIVE whenever the budget ran out, even with a deadlock
        # wave already in hand.
        report = refined_deadlock_analysis(dining_graph)
        assert not report.deadlock_free
        confirmed = confirm_deadlock_report(
            dining_graph, report, state_limit=50
        )
        assert confirmed.outcome == ConfirmationOutcome.CONFIRMED
        assert confirmed.witness is not None
        assert confirmed.witness.is_deadlock

    def test_confirm_still_inconclusive_without_findings(self, dining_graph):
        # A budget exhausted before any deadlock wave turns up has
        # nothing to upgrade: INCONCLUSIVE remains the honest answer.
        report = refined_deadlock_analysis(dining_graph)
        assert not report.deadlock_free
        confirmed = confirm_deadlock_report(
            dining_graph, report, state_limit=5
        )
        assert confirmed.outcome == ConfirmationOutcome.INCONCLUSIVE
        assert confirmed.witness is None


# --------------------------------------------------------------------------
# satellite: typed position_of error + duplicate-successor dedup
# --------------------------------------------------------------------------


class TestWaveFixes:
    def test_position_of_unknown_task_raises_typed_error(self, handshake):
        graph = graph_of(handshake)
        wave = initial_waves(graph)[0]
        with pytest.raises(UnknownTaskError) as excinfo:
            wave.position_of(graph, "nope")
        assert excinfo.value.task == "nope"
        assert excinfo.value.known == graph.tasks
        assert "t1" in str(excinfo.value)

    def test_position_of_known_task(self, handshake):
        graph = graph_of(handshake)
        wave = initial_waves(graph)[0]
        for i, task in enumerate(graph.tasks):
            assert wave.position_of(graph, task) is wave.positions[i]

    @staticmethod
    def _graph_with_duplicate_successors():
        # Normal construction dedups control edges; build by hand and
        # inject the duplicate directly, as a corrupted/hand-built
        # graph could.
        graph = SyncGraph(["a", "b"])
        sig = Signal("b", "m")
        send = graph.add_rendezvous("send", "a", sig)
        acc = graph.add_rendezvous("accept", "b", sig)
        graph.add_control_edge(graph.b, send)
        graph.add_control_edge(graph.b, acc)
        graph.add_control_edge(send, graph.e)
        graph.add_control_edge(acc, graph.e)
        graph.connect_sync_edges()
        graph._succ[send.uid].append(graph.e.uid)  # the duplicate
        return graph, send, acc

    def test_next_waves_dedups_duplicate_successors(self):
        graph, send, acc = self._graph_with_duplicate_successors()
        wave = Wave((send, acc))
        successors = list(next_waves_with_events(graph, wave))
        assert len(successors) == len(set(successors)) == 1

    def test_engine_dedups_duplicate_successors(self):
        graph, send, acc = self._graph_with_duplicate_successors()
        engine = WaveIndex(graph)
        slot = engine.slot_base[0] + list(
            engine.node_of_slot
        ).index(send)
        assert len(engine.succ_deltas[slot]) == 1
        assert engine.search(60_000).states == 2  # <send, accept>, <e, e>

    def test_iter_initial_waves_matches_initial_waves(self, crossed):
        graph = graph_of(crossed)
        assert list(iter_initial_waves(graph)) == initial_waves(graph)
