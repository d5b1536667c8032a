"""Command-line interface tests."""

import json
import re
import subprocess
import sys

import pytest

from repro.cli import main
from tests.conftest import (
    CROSSED_SRC,
    HANDSHAKE_SRC,
    SUPERSCRIPT_BOUND_ERROR,
    SUPERSCRIPT_BOUND_SRC,
)


# tests/test_properties.py::test_unroll_can_drop_exact_deadlocks_regression
UNROLLGAP_SRC = """\
program unrollgap;
task t0 is begin
    if ? then send t1.m1; end if;
    while ? loop accept m0; end loop;
    send t1.m0;
end;
task t1 is begin send t0.m0; accept m0; send t0.m0; end;
task t2 is begin send t0.m0; end;
"""


@pytest.fixture
def handshake_file(tmp_path):
    path = tmp_path / "handshake.adl"
    path.write_text(HANDSHAKE_SRC)
    return path


@pytest.fixture
def crossed_file(tmp_path):
    path = tmp_path / "crossed.adl"
    path.write_text(CROSSED_SRC)
    return path


class TestExitCodes:
    def test_certified_returns_zero(self, handshake_file):
        assert main([str(handshake_file)]) == 0

    def test_possible_deadlock_returns_one(self, crossed_file):
        assert main([str(crossed_file)]) == 1

    def test_missing_file_returns_two(self, capsys):
        assert main(["/nonexistent.adl"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_parse_error_returns_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.adl"
        bad.write_text("program ;")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestUnparsableForBound:
    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "superscript.adl"
        path.write_text(SUPERSCRIPT_BOUND_SRC, encoding="utf-8")
        return path

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--lint"]])
    def test_exits_two_with_located_error(self, bad_file, flags, capsys):
        assert main([str(bad_file), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {SUPERSCRIPT_BOUND_ERROR}\n"

    def test_batch_item_fails_and_the_others_run(
        self, bad_file, tmp_path, capsys
    ):
        (tmp_path / "handshake.adl").write_text(HANDSHAKE_SRC)
        (tmp_path / "crossed.adl").write_text(CROSSED_SRC)
        rc = main(["--batch", str(tmp_path), "--no-cache", "--json"])
        assert rc == 1  # crossed is a possible deadlock
        payload = json.loads(capsys.readouterr().out)
        status = {
            item["label"].rsplit("/", 1)[-1]: item["status"]
            for item in payload["item_reports"]
        }
        assert status == {
            "crossed.adl": "ok",
            "handshake.adl": "ok",
            "superscript.adl": "failed",
        }
        (failed,) = [
            item for item in payload["item_reports"]
            if item["status"] == "failed"
        ]
        assert failed["error"].endswith(
            f"ParseError: {SUPERSCRIPT_BOUND_ERROR}\n"
        )


class TestOutput:
    def test_human_readable(self, handshake_file, capsys):
        main([str(handshake_file)])
        out = capsys.readouterr().out
        assert "certified-deadlock-free" in out
        assert "certified-stall-free" in out

    def test_json_output(self, crossed_file, capsys):
        main([str(crossed_file), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "crossed"
        assert payload["deadlock"]["verdict"] == "possible-deadlock"
        assert payload["deadlock"]["evidence"]

    def test_algorithm_selection(self, handshake_file, capsys):
        main([str(handshake_file), "--algorithm", "naive", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadlock"]["algorithm"] == "naive-clg"

    def test_simulate_flag(self, crossed_file, capsys):
        main([str(crossed_file), "--simulate", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulation"]["runs"] == 5
        assert payload["simulation"]["deadlock_runs"] == 5


class TestArtifacts:
    def test_dot_outputs(self, handshake_file, tmp_path):
        sync_dot = tmp_path / "sync.dot"
        clg_dot = tmp_path / "clg.dot"
        main(
            [
                str(handshake_file),
                "--dot",
                str(sync_dot),
                "--clg-dot",
                str(clg_dot),
            ]
        )
        assert sync_dot.read_text().startswith("digraph")
        assert clg_dot.read_text().startswith("digraph")

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(HANDSHAKE_SRC))
        assert main(["-"]) == 0


class TestConfirm:
    def test_confirm_confirms_real_deadlock(self, crossed_file, capsys):
        code = main([str(crossed_file), "--confirm", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["confirmation"]["outcome"] == "confirmed-deadlock"
        assert payload["confirmation"]["witness"]["steps"] == 0

    def test_confirm_refutes_false_alarm(self, tmp_path, capsys):
        # naive reports a spurious cycle on the two-round handshake;
        # confirmation refutes it and the exit code flips to success
        src = (
            "program p;\n"
            "task t1 is begin send t2.s1; accept s2; "
            "send t2.s1; accept s2; end;\n"
            "task t2 is begin accept s1; send t1.s2; "
            "accept s1; send t1.s2; end;\n"
        )
        path = tmp_path / "tworound.adl"
        path.write_text(src)
        code = main([str(path), "--algorithm", "naive", "--confirm", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadlock"]["verdict"] == "possible-deadlock"
        assert payload["confirmation"]["outcome"] == "false-alarm-refuted"
        assert code == 0

    def test_exact_confirm_convicts_pre_unroll_deadlock(
        self, tmp_path, capsys
    ):
        # The deadlock needs a third loop iteration: it exists in the
        # pre-unroll graph the exact stage explores, not in the
        # Lemma-1 unrolled graph, so confirmation must search the former.
        path = tmp_path / "unrollgap.adl"
        path.write_text(UNROLLGAP_SRC)
        code = main(
            [str(path), "--algorithm", "exact", "--confirm", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadlock"]["stats"]["explored_pre_unroll_graph"]
        assert payload["confirmation"]["outcome"] == "confirmed-deadlock"
        assert code == 1

    @pytest.mark.parametrize("limit", ["0", "-3", "many"])
    def test_state_limit_below_one_exits_two(
        self, crossed_file, capsys, limit
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([str(crossed_file), "--confirm", "--state-limit", limit])
        assert excinfo.value.code == 2
        assert "--state-limit" in capsys.readouterr().err

    def test_confirm_noop_when_certified(self, handshake_file, capsys):
        code = main([str(handshake_file), "--confirm", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (
            payload["confirmation"]["outcome"]
            == "not-needed-already-certified"
        )

    def test_confirm_respects_state_limit(self, tmp_path, capsys):
        # the naive false alarm from above, but with a state budget too
        # small to refute it: confirmation must stop at the budget
        # instead of exploring the full wave space
        src = (
            "program p;\n"
            "task t1 is begin send t2.s1; accept s2; "
            "send t2.s1; accept s2; end;\n"
            "task t2 is begin accept s1; send t1.s2; "
            "accept s1; send t1.s2; end;\n"
        )
        path = tmp_path / "tworound.adl"
        path.write_text(src)
        code = main(
            [
                str(path),
                "--algorithm",
                "naive",
                "--confirm",
                "--state-limit",
                "1",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert (
            payload["confirmation"]["outcome"]
            == "inconclusive-budget-exhausted"
        )
        assert payload["confirmation"]["states_budget"] == 1
        assert code == 1  # verdict stays possible-deadlock


class TestStats:
    def test_stats_human(self, handshake_file, capsys):
        main([str(handshake_file), "--stats"])
        out = capsys.readouterr().out
        assert "CLG:" in out and "wave-space" in out

    def test_stats_json(self, handshake_file, capsys):
        main([str(handshake_file), "--stats", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["tasks"] == 2


class TestObservability:
    def test_trace_prints_span_tree(self, handshake_file, capsys):
        main([str(handshake_file), "--trace"])
        out = capsys.readouterr().out
        assert "analyze.parse" in out
        assert "analyze.deadlock" in out
        assert "ms" in out

    def test_trace_with_json_keeps_stdout_parseable(
        self, handshake_file, capsys
    ):
        main([str(handshake_file), "--trace", "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "analyze.parse" in captured.err
        assert payload["metrics"]["span_seconds"]["analyze"] > 0

    def test_metrics_out_json(self, handshake_file, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        main([str(handshake_file), "--json", "--metrics-out", str(out_file)])
        payload = json.loads(capsys.readouterr().out)
        snapshot = json.loads(out_file.read_text())
        # per-phase wall times present in both the file and the report
        for phase in ("analyze.parse", "analyze.sync_graph"):
            assert snapshot["span_seconds"][phase] >= 0
        assert payload["metrics"]["counters"] == snapshot["counters"]
        assert (
            snapshot["counters"][
                "refined.pruned_nodes{rule=sequenceable}"
            ]
            > 0
        )

    def test_metrics_out_prometheus(self, handshake_file, tmp_path):
        out_file = tmp_path / "m.prom"
        main([str(handshake_file), "--metrics-out", str(out_file)])
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+$"
        )
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            assert line_re.match(line), f"bad exposition line: {line!r}"

    def test_obs_disabled_without_flags(self, handshake_file, capsys):
        main([str(handshake_file), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload

    def test_stats_and_obs_metrics_share_key(
        self, handshake_file, tmp_path, capsys
    ):
        main(
            [
                str(handshake_file),
                "--json",
                "--stats",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["tasks"] == 2  # graph metrics
        assert "counters" in payload["metrics"]  # obs snapshot

    def test_cli_smoke_subprocess(self, handshake_file, tmp_path):
        """End-to-end: the installed entry point with --trace/--metrics-out."""
        out_file = tmp_path / "smoke.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(handshake_file),
                "--trace",
                "--metrics-out",
                str(out_file),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "certified-deadlock-free" in proc.stdout
        assert "analyze.parse" in proc.stdout  # span tree
        snapshot = json.loads(out_file.read_text())
        assert snapshot["counters"]["analyze.runs"] == 1


STALLY_SRC = """\
program stally;
task t1 is
begin
    send t2.orphan;
    null;
end;
task t2 is
begin
    null;
end;
"""


@pytest.fixture
def stally_file(tmp_path):
    path = tmp_path / "stally.adl"
    path.write_text(STALLY_SRC)
    return path


class TestOneFrontHalfPerInput:
    """Analysis, lint, repair and SARIF of one input share one parse
    and one prepared program."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--json", "--sarif"],
            ["--suggest-fixes", "--sarif", "--json"],
            ["--lint", "--suggest-fixes", "--sarif", "--json"],
        ],
        ids=["json-sarif", "fixes-sarif", "lint-fixes-sarif"],
    )
    def test_input_parsed_and_prepared_once(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        from repro.lint import validate_sarif_shape
        from repro.workloads.adl_corpus import load_repair_adl
        from tests.conftest import front_half_counts

        source = load_repair_adl("crossed_greeting")
        path = tmp_path / "crossed_greeting.adl"
        path.write_text(source)
        sarif = tmp_path / "out.sarif"
        argv = [str(path)]
        for flag in flags:
            argv += [flag, str(sarif)] if flag == "--sarif" else [flag]
        counts = front_half_counts(monkeypatch, source)
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert code == (0 if "--lint" in flags else 1)
        assert ("repair" in payload) == ("--suggest-fixes" in flags)
        assert validate_sarif_shape(json.loads(sarif.read_text())) == []
        assert counts() == (1, 1)

    def test_failed_front_half_is_attempted_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.workloads.adl_corpus import load_lint_adl
        from tests.conftest import front_half_counts

        # A recursive call chain: the front half raises ValidationError.
        source = load_lint_adl("structure_smells")
        path = tmp_path / "structure_smells.adl"
        path.write_text(source)
        counts = front_half_counts(monkeypatch, source)
        main([str(path), "--lint", "--suggest-fixes", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "ADL006" in {d["rule"] for d in payload["diagnostics"]}
        assert "repair" not in payload
        assert counts() == (1, 1)


class TestOneObservedWindow:
    """One CLI run is one obs window: lint and SARIF are inside it, and
    the SARIF lint reads the analysis's refined report."""

    @pytest.fixture
    def greeting_file(self, tmp_path):
        from repro.workloads.adl_corpus import load_repair_adl

        path = tmp_path / "crossed_greeting.adl"
        path.write_text(load_repair_adl("crossed_greeting"))
        return path

    @pytest.fixture
    def refined_calls(self, monkeypatch):
        from tests.conftest import spy_calls

        return spy_calls(
            monkeypatch, "repro.analysis.refined:refined_deadlock_analysis"
        )

    def test_metrics_out_with_sarif(
        self, greeting_file, refined_calls, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        argv = [str(greeting_file), "--json", "--metrics-out", str(metrics)]
        code = main(argv + ["--sarif", str(tmp_path / "s.sarif")])
        payload = json.loads(capsys.readouterr().out)
        snapshot = json.loads(metrics.read_text())
        assert code == 1
        assert len(refined_calls) == 1
        assert snapshot["counters"]["lint.runs"] == 1
        assert snapshot["counters"]["lint.diagnostics{rule=ADL012}"] == 1
        assert "lint.run" in snapshot["span_seconds"]
        assert payload["metrics"]["counters"] == snapshot["counters"]

    def test_trace_with_sarif_shows_lint(
        self, greeting_file, refined_calls, tmp_path, capsys
    ):
        main([str(greeting_file), "--trace", "--sarif", str(tmp_path / "s")])
        assert "lint.run" in capsys.readouterr().out
        assert len(refined_calls) == 1

    def test_stats_metrics_follow_the_snapshot(
        self, handshake_file, tmp_path, capsys
    ):
        main([str(handshake_file), "--json", "--stats"])
        graph_keys = list(json.loads(capsys.readouterr().out)["metrics"])
        metrics = tmp_path / "m.json"
        argv = [str(handshake_file), "--json", "--stats", "--suggest-fixes"]
        main(argv + ["--metrics-out", str(metrics)])
        payload = json.loads(capsys.readouterr().out)
        snapshot = json.loads(metrics.read_text())
        assert list(payload)[-2:] == ["repair", "metrics"]
        assert list(payload["metrics"]) == list(snapshot) + graph_keys


class TestLintMode:
    def test_text_output_and_default_threshold(self, stally_file, capsys):
        # warnings only, default --fail-on error -> exit 0
        assert main([str(stally_file), "--lint"]) == 0
        out = capsys.readouterr().out
        assert f"{stally_file}:4:5: warning:" in out
        assert "[ADL001]" in out
        assert "0 error(s)" in out

    def test_fail_on_warning(self, stally_file):
        assert main([str(stally_file), "--lint", "--fail-on", "warning"]) == 1

    def test_clean_program_passes_any_threshold(self, handshake_file):
        assert (
            main([str(handshake_file), "--lint", "--fail-on", "note"]) == 0
        )

    def test_json_output(self, stally_file, capsys):
        main([str(stally_file), "--lint", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["lint_schema_version"] == 1
        rules = {d["rule"] for d in payload["diagnostics"]}
        assert {"ADL001", "ADL011"} <= rules
        for diag in payload["diagnostics"]:
            assert diag["span"]["line"] >= 1
            assert diag["span"]["column"] >= 1

    def test_sarif_file_emission(self, stally_file, tmp_path):
        from repro.lint import validate_sarif_shape

        out = tmp_path / "lint.sarif"
        main([str(stally_file), "--lint", "--sarif", str(out)])
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert validate_sarif_shape(doc) == []
        assert doc["runs"][0]["results"]

    def test_disable_and_select(self, stally_file, capsys):
        main([str(stally_file), "--lint", "--disable", "ADL001,ADL011"])
        assert "[ADL" not in capsys.readouterr().out
        main([str(stally_file), "--lint", "--select", "unmatched-send"])
        out = capsys.readouterr().out
        assert "[ADL001]" in out and "[ADL011]" not in out

    def test_unknown_rule_exits_two(self, stally_file, capsys):
        assert main([str(stally_file), "--lint", "--disable", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.adl"
        bad.write_text("program ;")
        assert main([str(bad), "--lint"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lint_metrics_out(self, stally_file, tmp_path):
        out = tmp_path / "lint-metrics.json"
        main([str(stally_file), "--lint", "--metrics-out", str(out)])
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["lint.runs"] == 1
        assert "lint.diagnostics{rule=ADL001}" in snapshot["counters"]

    def test_analysis_output_unchanged_without_lint(
        self, handshake_file, capsys
    ):
        # the lint flags must not perturb the analysis path: it refuses
        # them before any output, and prints as before without them
        main([str(handshake_file)])
        baseline = capsys.readouterr().out
        assert main([str(handshake_file), "--fail-on", "note"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --fail-on is not supported without --lint\n"
        )
        main([str(handshake_file)])
        assert capsys.readouterr().out == baseline

    def test_lint_smoke_subprocess(self, stally_file, tmp_path):
        """End-to-end: --lint --fail-on warning --sarif via the real entry."""
        sarif_out = tmp_path / "smoke.sarif"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(stally_file),
                "--lint",
                "--fail-on",
                "warning",
                "--sarif",
                str(sarif_out),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "[ADL001]" in proc.stdout
        doc = json.loads(sarif_out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-analyze"


class TestBatchMode:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "handshake.adl").write_text(HANDSHAKE_SRC)
        (d / "crossed.adl").write_text(CROSSED_SRC)
        return d

    def test_all_certified_returns_zero(self, handshake_file, tmp_path):
        rc = main(
            [
                "--batch",
                str(handshake_file),
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert rc == 0

    def test_possible_deadlock_returns_one(self, corpus_dir, tmp_path, capsys):
        rc = main(
            [
                "--batch",
                str(corpus_dir),
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "possible-deadlock" in out
        assert "batch: 2 item(s)" in out

    def test_no_sources_matched_returns_two(self, tmp_path, capsys):
        rc = main(["--batch", str(tmp_path / "nothing"), "--no-cache"])
        assert rc == 2
        assert "no ADL sources match" in capsys.readouterr().err

    def test_multiple_sources_without_batch_rejected(
        self, handshake_file, crossed_file, capsys
    ):
        rc = main([str(handshake_file), str(crossed_file)])
        assert rc == 2
        assert "--batch" in capsys.readouterr().err

    def test_warm_rerun_reports_cache_hits(self, corpus_dir, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["--batch", str(corpus_dir), "--jobs", "1", "--cache-dir", cache_dir]
        main(args)
        capsys.readouterr()
        main(args + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hits"] == 2
        assert all(
            item["cache"] == "hit" for item in payload["item_reports"]
        )

    def test_no_cache_flag(self, corpus_dir, tmp_path, capsys):
        main(["--batch", str(corpus_dir), "--no-cache", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"enabled": False, "hits": 0, "misses": 0}

    def test_jsonl_out(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        main(
            [
                "--batch",
                str(corpus_dir),
                "--no-cache",
                "--jsonl-out",
                str(out),
            ]
        )
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [l["kind"] for l in lines] == ["item", "item", "summary"]
        assert lines[-1]["items"] == 2
        programs = {l["program"] for l in lines[:-1]}
        assert programs == {"handshake", "crossed"}

    def test_batch_metrics_out(self, corpus_dir, tmp_path):
        metrics = tmp_path / "farm-metrics.json"
        main(
            [
                "--batch",
                str(corpus_dir),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(metrics),
            ]
        )
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["farm.cache.misses"] == 2
        assert snapshot["counters"]["farm.items.analyzed"] == 2

    def test_injected_crash_contained_via_cli(
        self, corpus_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FARM_INJECT_CRASH", "crossed")
        rc = main(
            ["--batch", str(corpus_dir), "--jobs", "2", "--no-cache", "--json"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        by_label = {
            item["label"]: item for item in payload["item_reports"]
        }
        crashed = [i for i in payload["item_reports"] if i["status"] == "crashed"]
        assert len(crashed) == 1
        assert "crossed" in crashed[0]["label"]
        ok = [i for i in payload["item_reports"] if i["status"] == "ok"]
        assert len(ok) == 1

    def test_batch_smoke_subprocess(self, corpus_dir, tmp_path):
        """End-to-end via the real entry point, cold then warm."""
        cache_dir = str(tmp_path / "cache")
        jsonl = tmp_path / "batch.jsonl"
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "--batch",
            str(corpus_dir),
            "--jobs",
            "2",
            "--cache-dir",
            cache_dir,
            "--jsonl-out",
            str(jsonl),
        ]
        cold = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert cold.returncode == 1, cold.stderr  # crossed deadlocks
        warm = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert warm.returncode == 1, warm.stderr
        summary = [
            json.loads(l) for l in jsonl.read_text().splitlines()
        ][-1]
        assert summary["cache"]["hits"] == 2


class TestModeFlags:
    """A mode refuses, with exit code 2 and before any work runs, the
    flags it would otherwise drop."""

    ARGS = {"--dot": ["out.file"], "--clg-dot": ["out.file"],
            "--sarif": ["out.file"], "--simulate": ["0"],
            "--jobs": ["1"], "--cache-dir": ["cache"], "--timeout": ["3"],
            "--jsonl-out": ["out.file"], "--max-fixes": ["3"],
            "--disable": ["ADL009"], "--select": ["ADL009"],
            "--fail-on": ["note"]}
    # The mode's own flags (a batch without the cache, so that nothing
    # is written), and the flags the mode never reads.
    MODES = {"--batch": ["--batch", "--no-cache"], "--lint": ["--lint"],
             "analysis": [], "--lint --suggest-fixes": [
                 "--lint", "--suggest-fixes"]}
    BATCH_ONLY = ("--jobs", "--cache-dir", "--no-cache", "--timeout",
                  "--jsonl-out")
    LINT_ONLY = ("--disable", "--select", "--fail-on")

    @pytest.mark.parametrize(
        "mode, flag, why",
        [
            pytest.param(mode, flag, why, id=f"{mode}-{flag}")
            for mode, why, flags in (
                (
                    "--batch", "with --batch",
                    ("--dot", "--clg-dot", "--simulate", "--stats",
                     "--confirm", "--sarif", "--suggest-fixes",
                     *LINT_ONLY),
                ),
                (
                    "--lint", "with --lint",
                    ("--dot", "--clg-dot", "--simulate", "--stats",
                     "--confirm", *BATCH_ONLY),
                ),
                ("analysis", "without --batch", BATCH_ONLY),
                ("analysis", "without --lint", LINT_ONLY),
                ("analysis", "without --suggest-fixes", ("--max-fixes",)),
                ("--lint", "without --suggest-fixes", ("--max-fixes",)),
                ("--batch", "without --suggest-fixes", ("--max-fixes",)),
                ("--lint --suggest-fixes", "with --lint", BATCH_ONLY),
            )
            for flag in flags
        ],
    )
    def test_flag_the_mode_would_drop_is_refused(
        self, crossed_file, tmp_path, capsys, monkeypatch, mode, flag, why
    ):
        from tests.conftest import spy_calls

        monkeypatch.chdir(tmp_path)
        prepares = spy_calls(monkeypatch, "repro.api:prepare")
        rc = main(
            [str(crossed_file), *self.MODES[mode], flag,
             *self.ARGS.get(flag, [])]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {flag} is not supported {why}\n"
        assert captured.out == ""
        assert not prepares
        assert not (tmp_path / "out.file").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--suggest-fixes", "--max-fixes", "1"],
            ["--lint", "--suggest-fixes", "--max-fixes", "1"],
            ["--lint", "--disable", "ADL009", "--select", "ADL012",
             "--fail-on", "note"],
        ],
    )
    def test_flag_the_mode_reads_is_accepted(
        self, crossed_file, tmp_path, capsys, monkeypatch, args
    ):
        monkeypatch.chdir(tmp_path)
        assert main([str(crossed_file), *args]) in (0, 1)
        assert "not supported" not in capsys.readouterr().err


class TestClosedPipe:
    def test_reader_closing_early_leaves_stderr_empty(self, tmp_path):
        from repro.lang.pretty import pretty
        from repro.workloads.patterns import dining_philosophers

        # More than a pipe buffer of --json output, so the writer is
        # still writing when the reader goes.
        source = pretty(dining_philosophers(8, True))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-", "--json"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdin.write(source.encode())
        proc.stdin.close()
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1  # the deadlock verdict
        assert stderr == b""


class TestJsonStdoutPurity:
    """Under ``--json``, stdout is exactly one parseable JSON document.

    The contract jq-style consumers rely on: whatever mix of flags
    rides along (trace, stats, fixes, batch), human chatter must land
    on stderr, never interleaved with the payload.  Every invocation
    here parses the *complete* stdout — any stray line breaks the
    test.
    """

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--trace"],
            ["--stats"],
            ["--algorithm", "combined-pairs"],
            ["--simulate", "5"],
            ["--confirm"],
            ["--suggest-fixes"],
            ["--lint"],
            ["--lint", "--suggest-fixes"],
            ["--lint", "--trace"],
        ],
    )
    def test_single_json_document(self, crossed_file, capsys, extra):
        main([str(crossed_file), "--json", *extra])
        out = capsys.readouterr().out
        payload = json.loads(out)  # raises on any non-JSON chatter
        assert out.endswith("\n") and not out.rstrip("\n").endswith("\n")
        assert "schema_version" in payload or "lint_schema_version" in payload

    def test_batch_json_is_pure(self, tmp_path, capsys):
        (tmp_path / "a.adl").write_text(CROSSED_SRC)
        (tmp_path / "b.adl").write_text(HANDSHAKE_SRC)
        main(
            ["--batch", str(tmp_path), "--json", "--no-cache", "--trace"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["items"] == 2

    def test_trace_chatter_lands_on_stderr(self, crossed_file, capsys):
        main([str(crossed_file), "--json", "--trace"])
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "analyze" in captured.err  # the span tree moved aside

    def test_subprocess_stdout_parses_line_safe(self, crossed_file):
        """Belt and braces: outside capsys, with a real pipe, every
        stdout line belongs to the one JSON document."""
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                str(crossed_file),
                "--json",
                "--suggest-fixes",
                "--trace",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        payload = json.loads(proc.stdout)
        assert payload["repair"]["fixed"] is True
        first = proc.stdout.splitlines()[0]
        assert first == "{"  # indent=2 document, nothing before it
