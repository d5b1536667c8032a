"""Anomaly witnesses, state traces, and the confirmation pass."""

import pytest

from repro.analysis.confirm import (
    ConfirmationOutcome,
    confirm_analysis,
    confirm_deadlock_report,
)
from repro.analysis.refined import refined_deadlock_analysis
from repro.analysis.results import Verdict
from repro.errors import ExplorationLimitError
from repro.syncgraph.build import build_sync_graph
from repro.waves.explore import explore
from repro.waves.states import NodeState, label_wave, trace_states
from repro.waves.wave import initial_waves
from repro.waves.witness import find_anomaly_witness
from repro.workloads.patterns import dining_philosophers


class TestWitness:
    def test_crossed_witness_is_immediate(self, crossed):
        graph = build_sync_graph(crossed)
        witness = find_anomaly_witness(graph, "deadlock")
        assert witness is not None
        assert witness.schedule == ()
        assert witness.is_deadlock
        assert len(witness.waves) == 1

    def test_philosophers_witness_schedule(self):
        graph = build_sync_graph(dining_philosophers(3, True))
        witness = find_anomaly_witness(graph, "deadlock")
        assert witness is not None
        # the shortest circular wait: each philosopher grabs one fork
        assert len(witness.schedule) == 3
        signals = {r.signal.message for r, _ in zip(
            [a for a, _ in witness.schedule], witness.schedule
        )}
        assert signals == {"pickup"}

    def test_no_witness_on_clean_program(self, handshake):
        graph = build_sync_graph(handshake)
        assert find_anomaly_witness(graph, "deadlock") is None
        assert find_anomaly_witness(graph, "any") is None

    def test_stall_witness(self, stall_program):
        graph = build_sync_graph(stall_program)
        witness = find_anomaly_witness(graph, "stall")
        assert witness is not None
        assert witness.is_stall and not witness.is_deadlock

    def test_kind_validation(self, handshake):
        with pytest.raises(ValueError):
            find_anomaly_witness(build_sync_graph(handshake), "meltdown")

    def test_state_limit(self):
        graph = build_sync_graph(dining_philosophers(4, True))
        with pytest.raises(ExplorationLimitError):
            find_anomaly_witness(graph, "deadlock", state_limit=2)

    def test_witness_agrees_with_explore(self, fig2b):
        graph = build_sync_graph(fig2b)
        assert explore(graph).has_deadlock
        assert find_anomaly_witness(graph, "deadlock") is not None

    def test_describe_mentions_steps(self):
        graph = build_sync_graph(dining_philosophers(3, True))
        witness = find_anomaly_witness(graph, "deadlock")
        text = witness.describe()
        assert "step 1" in text and "deadlock" in text


class TestStateTraces:
    def test_initial_labels(self, handshake):
        graph = build_sync_graph(handshake)
        (wave,) = initial_waves(graph)
        snap = label_wave(graph, wave, executed=set())
        ready = snap.ready_nodes()
        assert len(ready) == 2  # the sig1 pair can fire
        assert all(
            snap.of(n) == NodeState.NOT_SEEN
            for n in graph.rendezvous_nodes
            if n not in ready
        )
        snap.check_invariants(graph)

    def test_trace_invariants_along_witness(self):
        graph = build_sync_graph(dining_philosophers(3, True))
        witness = find_anomaly_witness(graph, "deadlock")
        snaps = trace_states(graph, witness)
        assert len(snaps) == len(witness.schedule) + 1
        for snap in snaps:
            snap.check_invariants(graph)
        final = snaps[-1]
        assert final.ready_nodes() == ()  # anomalous: no pair ready
        assert len(final.waiting_nodes()) == 6

    def test_executed_labels_accumulate(self):
        graph = build_sync_graph(dining_philosophers(3, True))
        witness = find_anomaly_witness(graph, "deadlock")
        snaps = trace_states(graph, witness)
        executed_counts = [
            sum(
                1
                for s in snap.states.values()
                if s == NodeState.EXECUTED
            )
            for snap in snaps
        ]
        assert executed_counts == sorted(executed_counts)
        assert executed_counts[-1] == 2 * len(witness.schedule)


class TestConfirmation:
    def test_real_deadlock_confirmed(self, crossed):
        graph = build_sync_graph(crossed)
        report = refined_deadlock_analysis(graph)
        confirmed = confirm_deadlock_report(graph, report)
        assert confirmed.outcome == ConfirmationOutcome.CONFIRMED
        assert confirmed.witness is not None
        assert confirmed.final_verdict == ConfirmationOutcome.CONFIRMED

    def test_false_alarm_refuted(self):
        graph = build_sync_graph(dining_philosophers(3, False))
        report = refined_deadlock_analysis(graph)
        assert not report.deadlock_free  # conservative false alarm
        confirmed = confirm_deadlock_report(graph, report)
        assert confirmed.outcome == ConfirmationOutcome.REFUTED
        assert confirmed.final_verdict == Verdict.CERTIFIED_FREE

    def test_certified_report_untouched(self, handshake):
        graph = build_sync_graph(handshake)
        report = refined_deadlock_analysis(graph)
        confirmed = confirm_deadlock_report(graph, report)
        assert confirmed.outcome == ConfirmationOutcome.NOT_NEEDED
        assert confirmed.final_verdict == Verdict.CERTIFIED_FREE

    def test_budget_exhaustion_is_inconclusive(self):
        graph = build_sync_graph(dining_philosophers(4, True))
        report = refined_deadlock_analysis(graph)
        confirmed = confirm_deadlock_report(graph, report, state_limit=2)
        assert confirmed.outcome == ConfirmationOutcome.INCONCLUSIVE
        assert confirmed.final_verdict == report.verdict

    @pytest.mark.parametrize("strategy", ["astar", "beam"])
    def test_guided_confirm_reuses_the_analysis_report(
        self, strategy, monkeypatch
    ):
        # The guide reads only the report's evidence, and the analysis
        # already ran the refined kernel on the graph the search walks.
        from repro import api
        from repro.waves import guide
        from repro.workloads.patterns import corridor

        result = api.analyze(corridor(4, 2))
        assert result.deadlock.algorithm == "refined"
        expected = confirm_deadlock_report(
            result.sync_graph, result.deadlock, strategy=strategy
        )

        def no_rerun(graph):
            raise AssertionError("the guide reran the refined analysis")

        monkeypatch.setattr(guide, "_refined_report", no_rerun)
        confirmed = confirm_analysis(result, strategy=strategy)
        assert confirmed.outcome == expected.outcome
        assert confirmed.witness == expected.witness

    def test_describe(self, crossed):
        graph = build_sync_graph(crossed)
        report = refined_deadlock_analysis(graph)
        text = confirm_deadlock_report(graph, report).describe()
        assert "confirmation: confirmed-deadlock" in text
