"""Lint engine tests: spans, rules, suppressions, backends, properties."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.diagnostics import Diagnostic, Related, Severity
from repro.lang.ast_nodes import Accept, For, If, Program, Send, While
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lint import (
    all_rules,
    get_rule,
    lint_source,
    lint_to_dict,
    render_text,
    run_lint,
    sarif_report,
    scan_suppressions,
    validate_sarif_shape,
)
from repro.transforms.unroll import remove_loops
from repro.workloads.adl_corpus import lint_corpus
from repro.workloads.random_programs import (
    RandomProgramConfig,
    random_program,
    random_serializable_program,
)
from tests.conftest import CROSSED_SRC, HANDSHAKE_SRC, STALL_SRC


def rules_of(result):
    return {d.rule_id for d in result.diagnostics}


class TestSpans:
    def test_statement_spans_are_threaded(self):
        program = parse_program(HANDSHAKE_SRC)
        send = program.tasks[0].body[0]
        assert isinstance(send, Send)
        assert send.loc is not None
        assert send.loc.line == 3  # HANDSHAKE_SRC opens with a newline
        assert send.loc.column > 1

    def test_task_and_program_spans(self):
        program = parse_program(HANDSHAKE_SRC)
        assert program.loc is not None
        assert all(task.loc is not None for task in program.tasks)

    def test_nested_statement_spans(self):
        src = (
            "program p;\n"
            "task t is\n"
            "begin\n"
            "    if ? then\n"
            "        send u.m;\n"
            "    elsif ? then\n"
            "        null;\n"
            "    end if;\n"
            "end;\n"
            "task u is begin accept m; end;\n"
        )
        program = parse_program(src)
        outer = program.tasks[0].body[0]
        assert isinstance(outer, If)
        assert outer.loc.line == 4
        send = outer.then_body[0]
        assert send.loc.line == 5
        assert send.loc.column == 9
        # the desugared elsif chain gets its own span
        inner = outer.else_body[0]
        assert isinstance(inner, If)
        assert inner.loc is not None

    def test_loc_ignored_by_equality(self):
        a = parse_program("program p;\ntask t is begin null; end;")
        b = parse_program("program p;\n\n\ntask t is begin null; end;")
        assert a == b
        assert a.tasks[0].body[0].loc != b.tasks[0].body[0].loc


class TestDiagnostic:
    def test_format(self):
        program = parse_program(STALL_SRC)
        result = run_lint(program, path="stall.adl")
        line = result.diagnostics[0].format("stall.adl")
        assert line.startswith("stall.adl:3:")
        assert "[ADL001]" in line

    def test_severity_validation(self):
        with pytest.raises(ValueError):
            Diagnostic(rule_id="X", severity="fatal", message="m")

    def test_severity_ordering(self):
        assert Severity.at_least("error", "warning")
        assert Severity.at_least("warning", "warning")
        assert not Severity.at_least("note", "warning")

    def test_to_dict_roundtrip_fields(self):
        program = parse_program(STALL_SRC)
        diag = run_lint(program).diagnostics[0]
        payload = diag.to_dict()
        assert payload["rule"] == diag.rule_id
        assert payload["span"]["line"] == diag.line


class TestRegistry:
    def test_twelve_rules_registered(self):
        rules = all_rules()
        assert [r.rule_id for r in rules] == [
            f"ADL{i:03d}" for i in range(1, 13)
        ]

    def test_rules_have_paper_refs_and_summaries(self):
        for rule in all_rules():
            assert rule.summary
            assert rule.paper_ref
            assert rule.name == rule.name.lower()
            Severity.rank(rule.severity)

    def test_get_rule(self):
        assert get_rule("ADL003").name == "self-rendezvous"


class TestRules:
    def test_adl001_unmatched_send(self):
        result = lint_source(STALL_SRC)
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL001"]
        assert "never accepted" in diag.message
        assert diag.task == "t1"
        assert diag.span is not None

    def test_adl002_unmatched_accept(self):
        result = lint_source(
            "program p;\ntask t is begin accept ghost; end;\n"
            "task u is begin null; end;"
        )
        assert "ADL002" in rules_of(result)

    def test_adl003_self_rendezvous(self):
        result = lint_source(
            "program p;\ntask t is begin send t.m; accept m; end;"
        )
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL003"]
        assert diag.severity == Severity.ERROR

    def test_adl004_unknown_send_target_and_call(self):
        result = lint_source(
            "program p;\ntask t is begin send ghost.m; call phantom; end;"
        )
        found = [d for d in result.diagnostics if d.rule_id == "ADL004"]
        assert len(found) == 2
        assert {"ghost" in d.message or "phantom" in d.message for d in found}

    def test_adl004_not_duplicated_by_adl001(self):
        # a send to an unknown task is ADL004's finding, not ADL001's
        result = lint_source("program p;\ntask t is begin send ghost.m; end;")
        assert "ADL001" not in rules_of(result)

    def test_adl005_duplicate_task_with_related(self):
        result = lint_source(
            "program p;\ntask t is begin null; end;\n"
            "task t is begin null; end;"
        )
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL005"]
        assert diag.span.line == 3
        assert diag.related[0].span.line == 2

    def test_adl006_recursive_procedure(self):
        result = lint_source(
            "program p;\n"
            "procedure a is begin call b; end;\n"
            "procedure b is begin call a; end;\n"
            "task t is begin call a; end;"
        )
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL006"]
        assert "a -> b -> a" in diag.message

    def test_adl007_dead_procedure(self):
        result = lint_source(
            "program p;\nprocedure unused is begin null; end;\n"
            "task t is begin null; end;"
        )
        assert "ADL007" in rules_of(result)

    def test_adl007_transitive_reachability(self):
        result = lint_source(
            "program p;\n"
            "procedure inner is begin null; end;\n"
            "procedure outer is begin call inner; end;\n"
            "task t is begin call outer; end;"
        )
        assert "ADL007" not in rules_of(result)

    def test_adl008_zero_trip_for(self):
        result = lint_source(
            "program p;\ntask t is begin\n"
            "for i in 5 .. 1 loop null; end loop;\nend;"
        )
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL008"]
        assert "5 .. 1" in diag.message

    def test_adl008_normal_for_clean(self):
        result = lint_source(
            "program p;\ntask t is begin\n"
            "for i in 1 .. 3 loop null; end loop;\nend;"
        )
        assert "ADL008" not in rules_of(result)

    def test_adl009_while_rendezvous(self):
        result = lint_source(
            "program p;\n"
            "task t is begin while ? loop send u.m; end loop; end;\n"
            "task u is begin while ? loop accept m; end loop; end;"
        )
        found = [d for d in result.diagnostics if d.rule_id == "ADL009"]
        assert len(found) == 2
        assert all(d.severity == Severity.NOTE for d in found)

    def test_adl009_rendezvous_free_while_clean(self):
        result = lint_source(
            "program p;\ntask t is begin while ? loop null; end loop; end;"
        )
        assert "ADL009" not in rules_of(result)

    def test_adl010_coupling_cycle(self):
        result = lint_source(CROSSED_SRC)
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL010"]
        assert diag.span is not None
        assert diag.related  # other cycle members attached

    def test_adl010_clean_handshake(self):
        result = lint_source(HANDSHAKE_SRC)
        assert rules_of(result) == set()

    def test_adl011_unreachable_after_stall(self):
        result = lint_source(
            "program p;\n"
            "task t is begin send u.ghost; null; null; end;\n"
            "task u is begin null; end;"
        )
        (diag,) = [d for d in result.diagnostics if d.rule_id == "ADL011"]
        assert "2 following statement" in diag.message
        assert diag.related[0].message.startswith("guaranteed-stall")

    def test_graph_rules_degrade_on_broken_programs(self):
        # duplicate tasks make the graph pipeline unbuildable; the
        # structural rules must still fire without raising
        result = lint_source(
            "program p;\ntask t is begin send t.x; end;\n"
            "task t is begin null; end;"
        )
        assert {"ADL003", "ADL005"} <= rules_of(result)


class TestSuppressions:
    def test_scan_trailing_and_own_line(self):
        lines = scan_suppressions(
            "send a.b;  -- lint: disable=ADL001\n"
            "-- lint: disable=ADL002, adl003\n"
            "accept c;\n"
        )
        assert lines[1] == {"adl001"}
        assert {"adl002", "adl003"} <= lines[2]
        assert {"adl002", "adl003"} <= lines[3]

    def test_trailing_comment_suppresses(self):
        # ADL001 anchors at the stalling send (line 2); ADL011 anchors
        # at the first dead statement (line 3)
        src = (
            "program p;\n"
            "task t is begin send u.ghost; -- lint: disable=ADL001\n"
            "null; -- lint: disable=ADL011\n"
            "end;\n"
            "task u is begin null; end;\n"
        )
        result = lint_source(src)
        assert rules_of(result) == set()
        assert result.suppressed == 2

    def test_own_line_comment_covers_next_line(self):
        src = (
            "program p;\ntask t is begin\n"
            "-- lint: disable=while-rendezvous\n"
            "while ? loop send u.m; end loop;\n"
            "end;\n"
            "task u is begin accept m; end;\n"
        )
        result = lint_source(src)
        assert "ADL009" not in rules_of(result)

    def test_disable_all(self):
        src = (
            "program p;\n"
            "task t is begin send u.ghost; -- lint: disable=all\n"
            "end;\ntask u is begin null; end;\n"
        )
        result = lint_source(src)
        assert result.diagnostics == ()
        assert result.suppressed >= 1

    def test_suppression_needs_source(self):
        # run_lint without source text cannot see comments
        src = (
            "program p;\n"
            "task t is begin send u.ghost; -- lint: disable=all\n"
            "end;\ntask u is begin null; end;\n"
        )
        result = run_lint(parse_program(src))
        assert "ADL001" in rules_of(result)


class TestSelectDisable:
    def test_disable_by_id_and_name(self):
        result = lint_source(STALL_SRC, disable=["unmatched-send"])
        assert "ADL001" not in rules_of(result)
        assert "ADL001" not in result.rules_run

    def test_select_runs_only_named_rules(self):
        result = lint_source(STALL_SRC, select=["ADL001"])
        assert result.rules_run == ("ADL001",)

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError):
            lint_source(STALL_SRC, select=["ADL999"])


class TestLintResult:
    def test_fails_thresholds(self):
        result = lint_source(STALL_SRC)  # warnings only
        assert not result.fails("error")
        assert result.fails("warning")
        assert result.fails("note")

    def test_counts(self):
        result = lint_source(STALL_SRC)
        counts = result.counts()
        assert counts[Severity.WARNING] >= 1
        assert counts[Severity.ERROR] == 0

    def test_diagnostics_sorted_by_position(self):
        result = lint_source(lint_corpus()["stall_candidates"].source)
        keys = [d.sort_key() for d in result.diagnostics]
        assert keys == sorted(keys)


class TestOutputBackends:
    def test_render_text_summary(self):
        result = lint_source(STALL_SRC, path="stall.adl")
        text = render_text(result)
        assert text.splitlines()[-1].startswith("stall.adl: 0 error(s)")

    def test_lint_to_dict_schema(self):
        result = lint_source(STALL_SRC, path="stall.adl")
        payload = lint_to_dict(result)
        assert payload["lint_schema_version"] == 1
        assert payload["summary"]["warnings"] >= 1
        json.dumps(payload)  # JSON-serializable

    def test_sarif_shape_valid(self):
        results = [
            lint_source(entry.source, path=f"{entry.name}.adl")
            for entry in lint_corpus().values()
        ]
        doc = sarif_report(results)
        assert validate_sarif_shape(doc) == []

    def test_sarif_rule_catalog_and_indices(self):
        result = lint_source(STALL_SRC, path="stall.adl")
        doc = sarif_report([result])
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert len(rules) == len(all_rules())
        for sarif_result in run["results"]:
            idx = sarif_result["ruleIndex"]
            assert rules[idx]["id"] == sarif_result["ruleId"]
            region = sarif_result["locations"][0]["physicalLocation"][
                "region"
            ]
            assert region["startLine"] >= 1

    def test_sarif_related_locations(self):
        src = (
            "program p;\ntask t is begin null; end;\n"
            "task t is begin null; end;"
        )
        doc = sarif_report([lint_source(src, path="dup.adl")])
        dup = [
            r
            for r in doc["runs"][0]["results"]
            if r["ruleId"] == "ADL005"
        ][0]
        assert dup["relatedLocations"]

    def test_validate_sarif_shape_catches_damage(self):
        doc = sarif_report([lint_source(STALL_SRC)])
        doc["runs"][0]["results"][0]["level"] = "catastrophic"
        assert validate_sarif_shape(doc)


class TestObsIntegration:
    def test_counters_and_span(self):
        with obs.observed() as session:
            lint_source(STALL_SRC)
        registry = session.registry
        assert registry.counter("lint.runs").value == 1
        assert registry.counter("lint.diagnostics", rule="ADL001").value >= 1
        names = {span.name for span in session.tracer.all_spans()}
        assert "lint.run" in names

    def test_suppressed_counter(self):
        src = (
            "program p;\n"
            "task t is begin send u.ghost; -- lint: disable=all\n"
            "end;\ntask u is begin null; end;\n"
        )
        with obs.observed() as session:
            lint_source(src)
        suppressed = [
            counter
            for (name, _), counter in session.registry.counters.items()
            if name == "lint.suppressed"
        ]
        assert suppressed and sum(c.value for c in suppressed) >= 1

    def test_disabled_obs_is_free(self):
        assert not obs.is_enabled()
        lint_source(STALL_SRC)  # must not raise


class TestZeroTripUnrollRegression:
    def test_zero_trip_for_unrolls_to_nothing(self):
        src = (
            "program p;\ntask t is begin\n"
            "for i in 5 .. 1 loop send u.m; end loop;\nend;\n"
            "task u is begin null; end;\n"
        )
        program = parse_program(src)
        unrolled, changed = remove_loops(program)
        assert changed
        assert unrolled.tasks[0].body == ()  # loop body dropped entirely

        result = lint_source(src)
        assert "ADL008" in rules_of(result)
        # the sends inside the dead loop never reach the sync graph, so
        # ADL001 must still warn at source level
        assert "ADL001" in rules_of(result)


class TestLintCorpus:
    def test_manifest_expectations(self):
        for entry in lint_corpus().values():
            result = lint_source(entry.source, path=f"{entry.name}.adl")
            assert set(result.rule_ids) == set(entry.expect_rules), entry.name

    def test_selfcheck_passes(self, capsys):
        from repro.lint.selfcheck import main

        assert main() == 0
        assert "selfcheck OK" in capsys.readouterr().out


REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_GOLDEN_DIR = Path(__file__).parent / "golden_lint"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
CORPUS_FILES = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for corpus in ("adl", "adl_lint")
    for path in (REPO_ROOT / "src" / "repro" / "workloads" / corpus).glob(
        "*.adl"
    )
)


class TestLintOnAnalysisLayers:
    """ADL010 and ADL012 read one prepared pipeline and one
    ``AnalysisIndex``; no CLG object is built on any lint path."""

    @pytest.mark.parametrize("rel_path", CORPUS_FILES)
    def test_cli_json_and_sarif_match_golden(
        self, rel_path, monkeypatch, tmp_path, capsys
    ):
        # The goldens pin the CLI bytes, so sharing layers with the
        # analysis cannot change a report; regenerate them with
        # REPRO_REGEN_GOLDEN=1 only for an intended payload change.
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        stem = "_".join(Path(rel_path).parts[-2:])[: -len(".adl")]
        main([rel_path, "--lint", "--json"])
        outputs = {".json": capsys.readouterr().out}
        sarif = tmp_path / "out.sarif"
        main([rel_path, "--lint", "--sarif", str(sarif)])
        capsys.readouterr()
        outputs[".sarif"] = sarif.read_text()
        for suffix, text in outputs.items():
            golden = LINT_GOLDEN_DIR / (stem + suffix)
            if REGEN:
                golden.write_text(text)
            else:
                assert text == golden.read_text(), golden.name
        if REGEN:
            pytest.skip(f"regenerated goldens for {rel_path}")

    def test_no_clg_object_is_built(self, monkeypatch):
        from repro.syncgraph import clg

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a CLG object was built")

        monkeypatch.setattr(clg.CLG, "__init__", forbidden)
        for entry in lint_corpus().values():
            lint_source(entry.source)
        result = lint_source(CROSSED_SRC)
        assert {"ADL010", "ADL012"} <= rules_of(result)
        import repro

        naive = repro.analyze(CROSSED_SRC, algorithm="naive")
        assert not naive.deadlock.deadlock_free

    def test_prepared_and_index_are_reused(self, monkeypatch):
        from repro import api
        from repro.analysis.index import AnalysisIndex

        expected = lint_source(CROSSED_SRC).diagnostics
        prepared = api.prepare(parse_program(CROSSED_SRC))
        assert prepared.index is not None

        def forbidden(*args, **kwargs):
            raise AssertionError("lint rebuilt a layer it was handed")

        monkeypatch.setattr(api, "prepare", forbidden)
        monkeypatch.setattr(AnalysisIndex, "__init__", forbidden)
        first = run_lint(
            prepared.source_program, source=CROSSED_SRC, prepared=prepared
        )
        # The refined report is the prepared program's, built once.
        monkeypatch.setattr(api, "refined_deadlock_analysis", forbidden)
        again = run_lint(
            prepared.source_program, source=CROSSED_SRC, prepared=prepared
        )
        assert first.diagnostics == again.diagnostics == expected


def _bounded_config(seed: int) -> Program:
    return random_program(
        RandomProgramConfig(
            tasks=3, statements_per_task=4, branch_prob=0.3, loop_prob=0.3
        ),
        seed=seed,
    )


PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLintProperties:
    @PROPERTY
    @given(seed=st.integers(0, 10_000), serializable=st.booleans())
    def test_lint_never_crashes_and_spans_in_bounds(
        self, seed, serializable
    ):
        if serializable:
            program = random_serializable_program(seed=seed)
        else:
            program = _bounded_config(seed)
        source = pretty(program)
        reparsed = parse_program(source)
        result = lint_source(source, path="random.adl")
        lines = source.splitlines()
        for diag in result.diagnostics:
            assert diag.span is not None  # every finding is located
            assert 1 <= diag.span.line <= len(lines)
            line = lines[diag.span.line - 1]
            assert 1 <= diag.span.column <= len(line) + 1
        # linting must not mutate the AST
        assert reparsed == parse_program(source)
        assert lint_source(source).diagnostics == result.diagnostics

    @PROPERTY
    @given(seed=st.integers(0, 10_000))
    def test_sarif_always_valid(self, seed):
        program = _bounded_config(seed)
        result = run_lint(program, source=pretty(program))
        assert validate_sarif_shape(sarif_report([result])) == []
