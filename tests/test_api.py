"""High-level API tests."""

import pytest

import repro
from repro.analysis.results import StallVerdict, Verdict
from repro.api import ALGORITHMS, analyze, certify_deadlock_free, certify_stall_free
from repro.errors import AnalysisError


class TestAnalyze:
    def test_accepts_source_text(self):
        result = analyze(
            "program p; task a is begin send b.m; end;"
            "task b is begin accept m; end;"
        )
        assert result.deadlock.deadlock_free
        assert result.stall.stall_free

    def test_accepts_parsed_program(self, handshake):
        assert analyze(handshake).deadlock.deadlock_free

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_runs(self, algorithm, crossed):
        result = analyze(crossed, algorithm=algorithm)
        assert not result.deadlock.deadlock_free

    def test_exact_algorithm(self, crossed, handshake):
        assert not analyze(crossed, algorithm="exact").deadlock.deadlock_free
        assert analyze(handshake, algorithm="exact").deadlock.deadlock_free

    def test_unknown_algorithm_rejected(self, handshake):
        with pytest.raises(AnalysisError, match="unknown algorithm"):
            analyze(handshake, algorithm="quantum")

    def test_loops_auto_transformed(self):
        result = analyze(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        assert result.deadlock.loops_transformed
        assert result.loops_transformed

    def test_inlining_alone_does_not_report_loops_transformed(self):
        # procedure inlining swaps the program object without touching
        # any loop; loops_transformed must stay False
        result = analyze(
            "program p; procedure q is begin null; end;"
            "task a is begin call q; send b.m; end;"
            "task b is begin accept m; end;"
        )
        assert result.analyzed_program is not result.program
        assert not result.loops_transformed
        assert not result.deadlock.loops_transformed

    def test_validation_included(self):
        result = analyze(
            "program p; task a is begin send b.m; end;"
            "task b is begin null; end;"
        )
        assert result.validation.diagnostics
        assert result.validation.diagnostics[0].rule_id == "ADL001"
        assert result.stall.verdict == StallVerdict.POSSIBLE_STALL

    def test_describe_mentions_verdicts(self, handshake):
        text = analyze(handshake).describe()
        assert Verdict.CERTIFIED_FREE in text
        assert "stall" in text


class TestConvenience:
    def test_certify_deadlock_free(self, handshake, crossed):
        assert certify_deadlock_free(handshake)
        assert not certify_deadlock_free(crossed)

    def test_certify_stall_free(self, handshake, stall_program):
        assert certify_stall_free(handshake)
        assert not certify_stall_free(stall_program)

    def test_package_level_exports(self):
        assert repro.analyze is analyze
        assert repro.__version__


class TestPreparedPipeline:
    """The split front half powering repro.server's resident state."""

    def test_prepare_plus_finish_matches_analyze(self, corpus):
        from repro.api import ALGORITHMS, analyze_prepared, prepare
        from repro.reporting import analysis_result_to_dict

        for name, entry in corpus.items():
            source = entry.program
            prep = prepare(source)
            for algorithm in sorted(set(ALGORITHMS) - {"naive"}):
                direct = analysis_result_to_dict(
                    analyze(source, algorithm=algorithm)
                )
                via_prep = analysis_result_to_dict(
                    analyze_prepared(prep, algorithm=algorithm)
                )
                assert via_prep == direct, (name, algorithm)

    def test_prebuilt_index_and_engine_are_used(self, monkeypatch):
        from repro.analysis.index import AnalysisIndex
        from repro.api import analyze_prepared, prepare
        from repro.waves.engine import WaveIndex
        from tests.conftest import CROSSED_SRC

        prep = prepare(CROSSED_SRC)
        index, engine = prep.index, prep.engine

        def forbidden(*args, **kwargs):
            raise AssertionError("rebuilt a layer the prepared program holds")

        monkeypatch.setattr(AnalysisIndex, "__init__", forbidden)
        monkeypatch.setattr(WaveIndex, "__init__", forbidden)
        static = analyze_prepared(prep)
        exact = analyze_prepared(prep, algorithm="exact")
        assert static.deadlock.verdict == "possible-deadlock"
        assert exact.deadlock.verdict == "possible-deadlock"
        assert prep.index is index and prep.engine is engine

    def test_index_aware_excludes_k_pairs(self, monkeypatch):
        # Every refined-family algorithm, k-pairs-3 included, reads the
        # prepared program's one index; naive reads none.
        from repro.analysis.index import AnalysisIndex
        from repro.api import ALGORITHMS, analyze_prepared, prepare
        from tests.conftest import CROSSED_SRC

        builds = []
        original = AnalysisIndex.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisIndex, "__init__", counting)
        prep = prepare(CROSSED_SRC)
        analyze_prepared(prep, algorithm="naive")
        assert builds == []
        for algorithm in sorted(ALGORITHMS):
            analyze_prepared(prep, algorithm=algorithm)
        assert builds == [prep.index]

    @pytest.mark.parametrize("observing", [False, True], ids=["off", "on"])
    def test_lint_first_leaves_the_payload_unchanged(self, observing):
        import contextlib

        from repro import obs
        from repro.api import analyze_prepared, prepare
        from repro.lint import run_lint
        from repro.reporting import analysis_result_to_dict
        from tests.test_obs import PRUNING_SRC

        def payload(lint_first):
            prep = prepare(PRUNING_SRC)
            scope = obs.observed() if observing else contextlib.nullcontext()
            with scope:
                if lint_first:
                    run_lint(
                        prep.source_program, source=PRUNING_SRC, prepared=prep
                    )
                return analysis_result_to_dict(analyze_prepared(prep))

        alone = payload(lint_first=False)
        assert payload(lint_first=True) == alone
        assert "pruning" not in alone["deadlock"]["stats"]

    def test_refined_memo_follows_the_obs_state(self):
        from repro import obs
        from repro.api import analyze_prepared, prepare
        from repro.lint import run_lint
        from repro.reporting import analysis_result_to_dict
        from tests.test_obs import PRUNING_SRC

        # One report per prepared program, whatever the obs state of
        # the run that built it: the payload does not depend on it.
        payloads = []
        for lint_observed in (True, False):
            prep = prepare(PRUNING_SRC)
            if lint_observed:
                with obs.observed():
                    run_lint(prep.source_program, prepared=prep)
            else:
                run_lint(prep.source_program, prepared=prep)
            report = prep.refined
            with obs.observed():
                result = analyze_prepared(prep)
            assert result.deadlock is report
            payloads.append(analysis_result_to_dict(result))
        assert payloads[0] == payloads[1]
        assert "pruning" not in payloads[0]["deadlock"]["stats"]

    def test_daemon_naive_builds_no_index(self):
        from repro.server import Session
        from tests.conftest import CROSSED_SRC

        session = Session(store=None)
        payload, _ = session.analyze_document(
            "mem:n", CROSSED_SRC, algorithm="naive"
        )
        assert payload["deadlock"]["verdict"] == "possible-deadlock"
        assert session.documents["mem:n"].artifacts()["index"] is False

    def test_exact_graph_lazy_on_approximated_unroll(self):
        from repro.api import prepare

        looped = """
        program looper;
        task t1 is begin while true loop send t2.m; end loop; end;
        task t2 is begin while true loop accept m; end loop; end;
        """
        prep = prepare(looped)
        assert prep.approximated
        assert prep.exact_graph is not prep.sync_graph
