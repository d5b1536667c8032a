"""Guided exact search: future-cost table, A*/beam parity, CLI flags.

The contract under test (see ``repro.waves.guide``):

* the future-cost table is **admissible and consistent** — along any
  real witness schedule the estimate never exceeds the true remaining
  distance and never drops by more than one per step;
* guidance only reorders expansion — exhaustive bfs/astar/wide-beam
  runs agree on every verdict-bearing fact, and budget-limited guided
  runs stay *sound* (everything they claim is confirmed by the BFS
  oracle) with PR 5's ``on_limit="partial"`` semantics intact;
* the strategy knob validates loudly everywhere it enters (library and
  CLI, exit code 2).
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given

from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.waves.anomaly import is_anomalous
from repro.waves.engine import GOALS, WaveIndex
from repro.waves.explore import explore
from repro.waves.guide import (
    DEFAULT_BEAM_WIDTH,
    SATURATED,
    FutureCostTable,
    build_guide,
    guide_for,
    validate_strategy,
)
from repro.waves.wave import iter_initial_waves, next_waves_with_events
from repro.waves.witness import search_anomaly_witness
from repro.workloads.patterns import corridor, dining_philosophers
from tests.conftest import CROSSED_SRC, HANDSHAKE_SRC, graph_of
from tests.oracles.witness import find_anomaly_witness as oracle_witness
from tests.oracles.witness import find_witness_reference
from tests.test_properties import FAST, small_programs

# Wide enough that beam never truncates on any program in this file:
# "beam with an un-hit width" must behave exactly like an exhaustive
# best-first search.
FULL_WIDTH = 1 << 20

GENEROUS = 200_000


def _pack(engine, wave):
    """Pack a reference Wave into the engine's mixed-radix key."""
    key = 0
    for i in range(engine.task_count):
        lo = engine.slot_base[i]
        hi = (
            engine.slot_base[i + 1]
            if i + 1 < engine.task_count
            else engine.slot_count
        )
        local = engine.node_of_slot[lo:hi].index(wave.positions[i])
        key |= local << engine.shift[i]
    return key


def _fingerprint(classification):
    return (
        classification.wave,
        classification.stalls,
        classification.deadlocks,
    )


def _fingerprints(result):
    return frozenset(_fingerprint(c) for c in result.anomalous)


def _assert_valid_witness(graph, witness):
    """The witness replays: a genuine initial wave, every step a legal
    rendezvous, ending at a genuinely anomalous wave."""
    assert witness.waves[0] == witness.initial
    assert witness.initial in set(iter_initial_waves(graph))
    assert len(witness.waves) == len(witness.schedule) + 1
    for prev, event, nxt in zip(
        witness.waves, witness.schedule, witness.waves[1:]
    ):
        assert (event, nxt) in list(next_waves_with_events(graph, prev))
    assert is_anomalous(graph, witness.waves[-1])


# --------------------------------------------------------------------------
# future-cost table: admissibility and consistency
# --------------------------------------------------------------------------


class TestAdmissibility:
    @pytest.mark.parametrize(
        "program",
        [corridor(3, 2), corridor(4, 2), dining_philosophers(3)],
        ids=lambda p: p.name,
    )
    def test_estimate_never_exceeds_true_distance(self, program):
        # Walk a real shortest deadlock schedule (BFS witness): at step
        # j the true remaining distance is len(schedule) - j, and the
        # estimate must lower-bound it at every wave along the way.
        graph = graph_of(program)
        engine = WaveIndex(graph)
        guide = guide_for(engine)
        outcome = search_anomaly_witness(
            graph, kind="deadlock", state_limit=GENEROUS, engine=engine
        )
        witness = outcome.witness
        assert witness is not None and not outcome.limited
        total = len(witness.schedule)
        for j, wave in enumerate(witness.waves):
            h = guide.estimate(_pack(engine, wave))
            assert h <= total - j, (program.name, j, h, total)
        # At the deadlock wave itself the bound is exactly zero.
        assert guide.estimate(_pack(engine, witness.waves[-1])) == 0

    @pytest.mark.parametrize(
        "program",
        [corridor(3, 2), dining_philosophers(3)],
        ids=lambda p: p.name,
    )
    def test_estimate_is_consistent_along_schedules(self, program):
        # One rendezvous of path cost may drop the estimate by at most
        # one — the property that makes A* witnesses shortest.
        graph = graph_of(program)
        engine = WaveIndex(graph)
        guide = guide_for(engine)
        witness = search_anomaly_witness(
            graph, kind="deadlock", state_limit=GENEROUS, engine=engine
        ).witness
        for prev, nxt in zip(witness.waves, witness.waves[1:]):
            h_prev = guide.estimate(_pack(engine, prev))
            h_next = guide.estimate(_pack(engine, nxt))
            assert h_prev <= h_next + 1

    def test_anomaly_estimate_lower_bounds_deadlock_estimate(self):
        # The stall/any goal set is a superset of the deadlock goal
        # set, so its admissible bound can only be smaller.
        graph = graph_of(corridor(3, 2))
        engine = WaveIndex(graph)
        guide = guide_for(engine)
        for key, _ in engine._seed():
            assert guide.estimate_anomaly(key) <= guide.estimate(key)

    def test_corridor_initial_estimate_is_positive(self):
        # The flagship family: the table must actually see through the
        # chatter — a zero estimate at the start would guide nothing.
        graph = graph_of(corridor(4, 2))
        engine = WaveIndex(graph)
        guide = guide_for(engine)
        key, _ = next(iter(engine._seed()))
        assert 0 < guide.estimate(key) < SATURATED

    def test_deadlock_free_program_saturates_or_bounds(self):
        # No deadlock is reachable in the handshake, so *any* value is
        # admissible for the deadlock goal; the table must still build
        # and keep the exhaustive verdict identical (checked below by
        # the parity tests) — here just pin that it answers.
        graph = graph_of(parse_program(HANDSHAKE_SRC))
        engine = WaveIndex(graph)
        guide = build_guide(engine)
        key, _ = next(iter(engine._seed()))
        assert guide.estimate(key) >= 0

    def test_guide_for_caches_on_engine(self):
        engine = WaveIndex(graph_of(corridor(3, 2)))
        assert guide_for(engine) is guide_for(engine)

    def test_build_guide_accepts_explicit_report(self):
        from repro.analysis.refined import refined_deadlock_analysis

        graph = graph_of(corridor(3, 2))
        engine = WaveIndex(graph)
        report = refined_deadlock_analysis(graph)
        table = FutureCostTable(engine, report)
        assert table.group_count >= 1


class TestValidateStrategy:
    def test_known_strategies_pass(self):
        assert validate_strategy("bfs", None) == DEFAULT_BEAM_WIDTH
        assert validate_strategy("astar", None) == DEFAULT_BEAM_WIDTH
        assert validate_strategy("beam", 7) == 7

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            validate_strategy("dfs", None)

    def test_beam_width_requires_beam(self):
        with pytest.raises(ValueError, match="beam_width"):
            validate_strategy("astar", 8)

    def test_beam_width_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            validate_strategy("beam", 0)


# --------------------------------------------------------------------------
# differential parity: bfs vs astar vs wide beam
# --------------------------------------------------------------------------


class TestExhaustiveParity:
    """An exhaustive run must not depend on expansion order at all."""

    @FAST
    @given(small_programs())
    def test_exhaustive_runs_agree(self, program):
        graph = graph_of(program)
        bfs = explore(graph, state_limit=GENEROUS, strategy="bfs")
        astar = explore(graph, state_limit=GENEROUS, strategy="astar")
        beam = explore(
            graph,
            state_limit=GENEROUS,
            strategy="beam",
            beam_width=FULL_WIDTH,
        )
        assert not bfs.limited
        for guided in (astar, beam):
            assert not guided.limited
            assert not guided.truncated
            assert guided.visited_count == bfs.visited_count
            assert guided.can_terminate == bfs.can_terminate
            # Guided expansion order may surface anomalies in a
            # different order; the *set* must match exactly.
            assert _fingerprints(guided) == _fingerprints(bfs)
        assert astar.strategy == "astar" and beam.strategy == "beam"

    def test_corpus_flagships_agree(self, corpus):
        for name in ("fig1", "fig2b", "fig5bc"):
            graph = graph_of(corpus[name].program)
            bfs = explore(graph, state_limit=GENEROUS)
            astar = explore(graph, state_limit=GENEROUS, strategy="astar")
            assert _fingerprints(astar) == _fingerprints(bfs)
            assert astar.visited_count == bfs.visited_count


class TestBudgetedSoundness:
    """PR 5's budget semantics are strategy-independent: a limited
    guided run claims only facts the BFS oracle confirms."""

    @FAST
    @given(small_programs())
    def test_tight_budget_partial_results_are_sound(self, program):
        graph = graph_of(program)
        oracle = explore(graph, state_limit=GENEROUS, strategy="bfs")
        assert not oracle.limited
        truth = _fingerprints(oracle)
        for strategy, width in (
            ("bfs", None),
            ("astar", None),
            ("beam", 3),
        ):
            partial = explore(
                graph,
                state_limit=7,
                strategy=strategy,
                beam_width=width,
                on_limit="partial",
            )
            assert partial.visited_count <= 7
            # Everything a limited run *claims* is definite truth.
            assert _fingerprints(partial) <= truth
            if partial.can_terminate:
                assert oracle.can_terminate
            # An unlimited run under any strategy is the whole truth.
            if not partial.limited:
                assert _fingerprints(partial) == truth
                assert partial.can_terminate == oracle.can_terminate

    def test_raise_mode_still_raises_for_guided(self):
        from repro.errors import ExplorationLimitError

        graph = graph_of(corridor(4, 3))
        with pytest.raises(ExplorationLimitError):
            explore(graph, state_limit=5, strategy="astar")

    def test_truncated_beam_is_limited(self):
        graph = graph_of(corridor(4, 3))
        result = explore(
            graph,
            state_limit=GENEROUS,
            strategy="beam",
            beam_width=2,
            on_limit="partial",
        )
        assert result.truncated and result.limited


class TestWitnessParity:
    @FAST
    @given(small_programs())
    def test_witness_searches_agree(self, program):
        graph = graph_of(program)
        bfs = search_anomaly_witness(
            graph, kind="any", state_limit=GENEROUS
        )
        astar = search_anomaly_witness(
            graph, kind="any", state_limit=GENEROUS, strategy="astar"
        )
        beam = search_anomaly_witness(
            graph,
            kind="any",
            state_limit=GENEROUS,
            strategy="beam",
            beam_width=FULL_WIDTH,
        )
        assert not (bfs.limited or astar.limited or beam.limited)
        assert astar.refuted == bfs.refuted == beam.refuted
        if bfs.witness is not None:
            # A* runs on a consistent heuristic: its witness is
            # shortest, i.e. exactly as long as the BFS one.
            assert astar.witness is not None
            assert len(astar.witness.schedule) == len(bfs.witness.schedule)
            assert beam.witness is not None
            for outcome in (bfs, astar, beam):
                _assert_valid_witness(graph, outcome.witness)

    def test_deadlock_witnesses_match_on_corridor(self):
        # Both searches expand one persistent set per wave, so the
        # chatter interleavings that drown the unreduced oracle never
        # enter either; the witnesses stay shortest.
        graph = graph_of(corridor(4, 2))
        bfs = search_anomaly_witness(
            graph, kind="deadlock", state_limit=GENEROUS
        )
        astar = search_anomaly_witness(
            graph, kind="deadlock", state_limit=GENEROUS, strategy="astar"
        )
        data, oracle_states, _ = find_witness_reference(
            graph, GOALS["deadlock"], GENEROUS
        )
        assert bfs.witness is not None and astar.witness is not None
        assert len(astar.witness.schedule) == len(bfs.witness.schedule)
        assert len(bfs.witness.schedule) == len(data[1])
        assert astar.witness.is_deadlock
        _assert_valid_witness(graph, astar.witness)
        assert astar.states <= bfs.states < oracle_states

    def test_tight_budget_witness_still_definite(self):
        # A witness found before exhaustion is returned even when the
        # search is limited — for every strategy.
        graph = graph_of(corridor(4, 2))
        baseline = search_anomaly_witness(
            graph, kind="deadlock", state_limit=GENEROUS, strategy="astar"
        )
        budget = baseline.states  # enough to find it, not to finish
        outcome = search_anomaly_witness(
            graph, kind="deadlock", state_limit=budget, strategy="astar"
        )
        assert outcome.witness is not None
        assert outcome.witness.is_deadlock
        _assert_valid_witness(graph, outcome.witness)

    def test_guided_confirms_under_budget_where_bfs_drowns(self):
        # The acceptance scenario: one budget, and every strategy of the
        # reduced search confirms with a shortest schedule while blind
        # BFS over the unreduced space (the oracle) is
        # exploration-limited with nothing.
        graph = graph_of(corridor(6, 4))
        data, _, limited = find_witness_reference(
            graph, GOALS["deadlock"], 2_000
        )
        assert data is None and limited
        reference = oracle_witness(
            graph, kind="deadlock", state_limit=GENEROUS
        )
        for strategy in ("bfs", "astar", "beam"):
            outcome = search_anomaly_witness(
                graph, kind="deadlock", state_limit=2_000, strategy=strategy
            )
            assert outcome.witness is not None, strategy
            _assert_valid_witness(graph, outcome.witness)
            assert len(outcome.witness.schedule) == len(
                reference.schedule
            ), strategy


# Refined flags it; the deadlock (both tasks leave their loops and cross
# sends) sits one rendezvous after the start, and confirmation searches
# the pre-unroll graph, whose loops are control cycles.
POLLING_SRC = """
program polled;
task a is begin
  send b.start;
  while ? loop send b.x; end loop;
  send b.z; accept y;
end;
task b is begin
  accept start;
  while ? loop accept x; end loop;
  send a.y; accept z;
end;
"""


class TestCyclicGraphs:
    """Guided searches on a graph with control cycles, which the refined
    analysis (the guide's default head source) rejects: the table keeps
    its quiescence term alone."""

    def test_guide_on_cyclic_graph_is_quiescence_alone(self):
        from repro.api import prepare

        graph = prepare(POLLING_SRC).exact_graph
        assert graph.has_control_cycle()
        engine = WaveIndex(graph)
        guide = guide_for(engine)
        assert guide.report is None and guide.group_count == 0
        for key, _ in engine._seed():
            assert guide.estimate(key) == guide.estimate_anomaly(key)

    def test_confirm_agrees_across_strategies(self):
        from repro.analysis.confirm import confirm_analysis
        from repro.api import analyze

        result = analyze(POLLING_SRC)
        assert result.deadlock.stats.get("unroll_approximated")
        outcomes = {
            strategy: confirm_analysis(result, strategy=strategy)
            for strategy in ("bfs", "astar", "beam")
        }
        lengths = {
            strategy: len(confirmed.witness.schedule)
            for strategy, confirmed in outcomes.items()
        }
        assert {c.outcome for c in outcomes.values()} == {
            "confirmed-deadlock"
        }
        assert set(lengths.values()) == {1}, lengths

    def test_exact_verdict_agrees_across_strategies(self):
        from repro.api import analyze

        stats = {}
        for strategy in ("bfs", "astar", "beam"):
            deadlock = analyze(
                POLLING_SRC, algorithm="exact", strategy=strategy
            ).deadlock
            stats[strategy] = (
                deadlock.verdict,
                deadlock.stats["feasible_waves"],
                deadlock.stats["deadlock_waves"],
                deadlock.stats["exploration_limited"],
            )
        assert len(set(stats.values())) == 1, stats
        assert stats["bfs"][0] == "possible-deadlock"

    def test_cli_confirm_with_astar_on_looping_program(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "polled.adl"
        path.write_text(POLLING_SRC)
        assert main([str(path), "--confirm", "--strategy", "astar"]) == 1


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


@pytest.fixture
def corridor_file(tmp_path):
    path = tmp_path / "corridor.adl"
    path.write_text(pretty(corridor(3, 2)))
    return path


@pytest.fixture
def crossed_file(tmp_path):
    path = tmp_path / "crossed.adl"
    path.write_text(CROSSED_SRC)
    return path


class TestCLI:
    def test_strategy_lands_in_json_stats(self, corridor_file, capsys):
        from repro.cli import main

        code = main(
            [
                str(corridor_file),
                "--algorithm",
                "exact",
                "--strategy",
                "astar",
                "--json",
            ]
        )
        assert code == 1  # corridor deadlocks
        payload = json.loads(capsys.readouterr().out)
        stats = payload["deadlock"]["stats"]
        assert stats["strategy"] == "astar"
        assert stats["deadlock_waves"] >= 1

    def test_beam_stats_include_width_and_truncation(
        self, corridor_file, capsys
    ):
        from repro.cli import main

        main(
            [
                str(corridor_file),
                "--algorithm",
                "exact",
                "--strategy",
                "beam",
                "--beam-width",
                "4",
                "--json",
            ]
        )
        stats = json.loads(capsys.readouterr().out)["deadlock"]["stats"]
        assert stats["strategy"] == "beam"
        assert stats["beam_width"] == 4
        assert "beam_truncated" in stats

    def test_beam_width_without_beam_exits_two(self, crossed_file, capsys):
        from repro.cli import main

        assert main([str(crossed_file), "--beam-width", "8"]) == 2
        assert "beam_width" in capsys.readouterr().err

    def test_confirm_with_guided_strategy(self, crossed_file, capsys):
        from repro.cli import main

        code = main([str(crossed_file), "--confirm", "--strategy", "astar"])
        assert code == 1
        out = capsys.readouterr().out
        assert "confirmation: " in out
        assert "confirmed-deadlock" in out

    def test_strategy_smoke_subprocess(self, corridor_file):
        """End-to-end: the real entry point with guided flags."""
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(corridor_file),
                "--algorithm",
                "exact",
                "--strategy",
                "beam",
                "--beam-width",
                "64",
                "--json",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["deadlock"]["stats"]["strategy"] == "beam"

    def test_bad_combo_smoke_subprocess(self, crossed_file):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(crossed_file),
                "--strategy",
                "dfs",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
