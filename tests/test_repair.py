"""Tests for repro.repair: generation, certification, ranking, emission.

The acceptance contract for the repair pipeline:

* over the convicted showcase corpus (plus the convicted analysis- and
  lint-corpus programs), at least 70% of programs get >= 1 certified
  fix;
* every certified fix re-parses and re-analyzes deadlock-free;
* fixes round-trip the SARIF shape validator when attached to the
  deadlock diagnostics;
* the ``repair.candidates_rejected`` counter is non-zero on real
  convictions — the verifier demonstrably filters.
"""

import json

import pytest

import repro
from repro import obs
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lint import (
    RepairAttachment,
    lint_source,
    sarif_report,
    validate_sarif_shape,
)
from repro.repair import (
    generate_candidates,
    rank_fixes,
    suggest_repairs,
    unified_fix_diff,
    verify_candidates,
)
from repro.repair.model import CertifiedFix, RepairCandidate, changed_tasks
from repro.reporting import (
    SCHEMA_VERSION,
    analysis_result_to_dict,
    repair_report_to_dict,
)
from repro.workloads.adl_corpus import (
    load_adl,
    load_lint_adl,
    repair_corpus,
)

CROSSED = """
program crossed;
task a is begin send b.x; accept y; end;
task b is begin send a.y; accept x; end;
"""


def _convicted(source):
    result = repro.analyze(source)
    assert not result.deadlock.deadlock_free
    return result


class TestGenerator:
    def test_candidates_are_deterministic_and_unique(self):
        result = _convicted(CROSSED)
        first = generate_candidates(result)
        second = generate_candidates(result)
        assert [c.description for c in first] == [
            c.description for c in second
        ]
        sources = [c.source for c in first]
        assert len(sources) == len(set(sources))
        assert pretty(result.program) not in sources

    def test_candidate_cap(self):
        result = _convicted(repair_corpus()["dining_philosophers"].source)
        assert len(generate_candidates(result, max_candidates=7)) == 7

    def test_candidates_carry_spans_from_parsed_source(self):
        result = _convicted(CROSSED)
        swaps = [
            c for c in generate_candidates(result)
            if c.kind == "swap_adjacent"
        ]
        assert swaps
        for cand in swaps:
            assert cand.spans, cand.description
            assert all(span.line >= 1 for span in cand.spans)

    def test_every_candidate_reparses(self):
        result = _convicted(repair_corpus()["late_ack"].source)
        for cand in generate_candidates(result):
            reparsed = parse_program(cand.source)
            assert pretty(reparsed) == cand.source

    def test_guard_candidates_exist_to_be_rejected(self):
        # Guarding a rendezvous never removes it from any wave under
        # the all-paths-executable model, so guards are generated but
        # must never certify on a real deadlock cycle.
        result = _convicted(CROSSED)
        cands = generate_candidates(result)
        guards = [c for c in cands if c.kind == "guard"]
        assert guards
        fixes, _ = verify_candidates(result, guards)
        assert fixes == []


class TestVerifier:
    def test_rejection_counter_increments(self):
        result = _convicted(CROSSED)
        session = obs.enable()
        try:
            report = suggest_repairs(result=result)
        finally:
            obs.disable()
        assert report.candidates_rejected > 0
        assert (
            session.registry.counter_value("repair.candidates_rejected")
            == report.candidates_rejected
        )
        # The counter sees every certification, before max_fixes trims.
        assert session.registry.counter_value("repair.fixes_certified") == (
            report.stats["certified_static"]
            + report.stats["certified_exact"]
        )

    def test_stats_partition_candidates(self):
        result = _convicted(CROSSED)
        report = suggest_repairs(result=result, max_fixes=64)
        stats = report.stats
        assert (
            stats["certified_static"]
            + stats["certified_exact"]
            + stats["rejected_failed"]
            + stats["rejected_still_convicted"]
            + stats["rejected_confirmed_deadlock"]
            == report.candidates_generated
        )
        assert len(report.fixes) == (
            stats["certified_static"] + stats["certified_exact"]
        )
        # The crossed pair is tiny: every convicted candidate's exact
        # escalation finishes, so each rejection carries a concrete
        # deadlock wave rather than an unsettled conviction.
        assert stats["rejected_still_convicted"] == 0
        assert stats["rejected_confirmed_deadlock"] > 0

    def test_exact_escalation_rescues_refined_false_alarms(self):
        # Reordered dining philosophers stay convicted by the static
        # CLG analysis (the cycle shape survives) but are exactly free:
        # only the WaveIndex escalation can certify those fixes.
        report = suggest_repairs(
            repair_corpus()["dining_philosophers"].source
        )
        assert report.fixed
        assert all(f.certified_by == "exact-waves" for f in report.fixes)

    def test_zero_exact_budget_disables_escalation(self):
        report = suggest_repairs(
            repair_corpus()["dining_philosophers"].source, exact_budget=0
        )
        assert not report.fixed
        assert report.stats["certified_exact"] == 0

    def test_repair_corpus_escalations_all_settle(self):
        # The adl_repair programs are small enough that every exact
        # escalation finishes within the default budget: no rejection
        # is left unsettled, and a guided strategy — which can only
        # change what a *limited* budget buys — lands on identical
        # stats.
        for name in ("crossed_greeting", "late_ack"):
            source = repair_corpus()[name].source
            bfs = suggest_repairs(source).stats
            astar = suggest_repairs(source, strategy="astar").stats
            assert bfs["rejected_still_convicted"] == 0, name
            assert astar == bfs, name

    def test_guided_escalation_settles_where_bfs_cannot(self):
        # On a corridor-sized candidate space a 200-state budget
        # drowns blind BFS (every still-convicted candidate stays
        # unsettled), while A* walks to a concrete deadlock wave and
        # rejects with proof — same budget, same candidates.
        from repro.lang.pretty import pretty
        from repro.workloads.patterns import corridor

        source = pretty(corridor(6, 4))
        bfs = suggest_repairs(source, exact_budget=200).stats
        astar = suggest_repairs(
            source, exact_budget=200, strategy="astar"
        ).stats
        assert bfs["rejected_confirmed_deadlock"] == 0
        assert bfs["rejected_still_convicted"] > 0
        assert astar["rejected_confirmed_deadlock"] > 0
        assert (
            astar["rejected_still_convicted"]
            < bfs["rejected_still_convicted"]
        )
        # Certifications are budget-independent facts; the strategies
        # must agree on them.
        assert astar["certified_static"] == bfs["certified_static"]
        assert astar["certified_exact"] == bfs["certified_exact"]


class TestRanking:
    def test_reorderings_rank_before_deletions(self):
        report = suggest_repairs(CROSSED, max_fixes=10)
        kinds = [f.kind for f in report.fixes]
        assert kinds[0] == "swap_adjacent"
        if "delete" in kinds:
            assert kinds.index("delete") > kinds.index("swap_adjacent")

    def test_stall_introducing_fixes_rank_last(self):
        report = suggest_repairs(CROSSED, max_fixes=10)
        flags = [f.introduced_stall for f in report.fixes]
        assert flags == sorted(flags)

    def test_rank_is_deterministic(self):
        def fix(kind, size, stall=False):
            cand = RepairCandidate(
                kind=kind,
                description=f"{kind}-{size}",
                program=parse_program(CROSSED),
                edit_size=size,
            )
            return CertifiedFix(
                candidate=cand,
                certified_by="refined",
                stall_verdict="certified-stall-free",
                introduced_stall=stall,
            )

        fixes = [
            fix("delete", 1),
            fix("swap_adjacent", 2, stall=True),
            fix("move", 3),
            fix("swap_adjacent", 2),
            fix("insert_accept", 1),
        ]
        ranked = rank_fixes(fixes)
        assert [f.kind for f in ranked] == [
            "swap_adjacent",
            "move",
            "insert_accept",
            "delete",
            "swap_adjacent",
        ]
        assert ranked[-1].introduced_stall


class TestAcceptance:
    """The headline contract: the convicted corpus gets fixed."""

    @pytest.fixture(scope="class")
    def convicted_reports(self):
        sources = {
            entry.name: entry.source
            for entry in repair_corpus().values()
        }
        sources["atm_deadlock"] = load_adl("atm_deadlock")
        sources["coupled_protocol"] = load_lint_adl("coupled_protocol")
        reports = {}
        for name, source in sources.items():
            result = repro.analyze(source)
            assert not result.deadlock.deadlock_free, name
            reports[name] = (
                source,
                result,
                suggest_repairs(result=result),
            )
        return reports

    def test_corpus_is_really_deadlocked(self):
        for entry in repair_corpus().values():
            exact = repro.analyze(entry.source, exact=True)
            assert not exact.deadlock.deadlock_free, entry.name
            assert not exact.deadlock.stats["exploration_limited"]

    def test_fix_rate_at_least_70_percent(self, convicted_reports):
        assert len(convicted_reports) >= 10
        fixed = [
            name
            for name, (_, _, report) in convicted_reports.items()
            if report.fixed
        ]
        rate = len(fixed) / len(convicted_reports)
        assert rate >= 0.7, f"fix rate {rate:.0%}: only {sorted(fixed)}"

    def test_expected_fix_kinds_certify(self, convicted_reports):
        for entry in repair_corpus().values():
            _, _, report = convicted_reports[entry.name]
            kinds = {f.kind for f in report.fixes}
            assert kinds & set(entry.fix_kinds), (
                f"{entry.name}: wanted one of {entry.fix_kinds}, "
                f"got {sorted(kinds)}"
            )

    def test_every_fix_reparses_and_reanalyzes_free(self, convicted_reports):
        for name, (_, _, report) in convicted_reports.items():
            for fix in report.fixes:
                repaired = parse_program(fix.source)
                check = repro.analyze(repaired)
                if fix.certified_by == "exact-waves":
                    check = repro.analyze(repaired, exact=True)
                assert check.deadlock.deadlock_free, (name, fix.kind)

    def test_every_rejection_is_counted(self, convicted_reports):
        for name, (_, _, report) in convicted_reports.items():
            assert report.candidates_rejected > 0, name
            assert (
                report.candidates_generated
                >= report.candidates_rejected + len(report.fixes)
            )

    def test_sarif_fixes_round_trip_validation(self, convicted_reports):
        results = []
        repairs = {}
        for name, (source, result, report) in convicted_reports.items():
            path = f"{name}.adl"
            results.append(lint_source(source, path=path))
            if report.fixed:
                repairs[path] = RepairAttachment(
                    program=result.program, report=report, source=source
                )
        doc = sarif_report(results, repairs=repairs)
        assert validate_sarif_shape(doc) == []
        attached = [
            res
            for res in doc["runs"][0]["results"]
            if res.get("fixes")
        ]
        assert attached, "no SARIF result carries fixes"
        for res in attached:
            assert res["ruleId"] in ("ADL010", "ADL012")
            for fix in res["fixes"]:
                for change in fix["artifactChanges"]:
                    assert change["replacements"]


class TestEmission:
    def test_json_repair_payload(self):
        result = _convicted(CROSSED)
        report = suggest_repairs(result=result)
        payload = analysis_result_to_dict(result, repair=report)
        assert payload["schema_version"] == SCHEMA_VERSION == 4
        repair = payload["repair"]
        assert repair["fixed"] is True
        assert repair["candidates_rejected"] > 0
        fix = repair["fixes"][0]
        assert fix["diff"].startswith("---")
        assert fix["changed_tasks"]
        json.dumps(payload)  # stays JSON-serializable

    def test_repair_report_to_dict_without_original(self):
        report = suggest_repairs(CROSSED)
        payload = repair_report_to_dict(report)
        assert "diff" not in payload["fixes"][0]
        json.dumps(payload)

    def test_unified_diff_shows_the_edit(self):
        result = _convicted(CROSSED)
        report = suggest_repairs(result=result)
        fix = report.fixes[0]
        diff = unified_fix_diff(result.program, fix, path="crossed.adl")
        assert "--- crossed.adl" in diff
        assert f"(fix: {fix.kind})" in diff
        assert any(line.startswith("+") for line in diff.splitlines())

    def test_changed_tasks_identifies_the_edit(self):
        result = _convicted(CROSSED)
        report = suggest_repairs(result=result)
        fix = report.fixes[0]
        changed = changed_tasks(result.program, fix.candidate.program)
        assert changed
        assert set(changed) <= set(result.program.task_names)

    def test_sarif_whole_file_fallback_for_spanless_programs(self):
        # Programs built programmatically (or pretty-printed) may lack
        # decl_loc spans on the *attachment* side; the fix then rewrites
        # the whole artifact.
        source = CROSSED
        result = _convicted(source)
        report = suggest_repairs(result=result)
        parsed = parse_program(source)
        spanless = parsed.with_tasks(
            [type(t)(name=t.name, body=t.body) for t in parsed.tasks]
        )
        attachment = RepairAttachment(
            program=spanless, report=report, source=source
        )
        lint_result = lint_source(source, path="spanless.adl")
        doc = sarif_report(
            [lint_result], repairs={"spanless.adl": attachment}
        )
        assert validate_sarif_shape(doc) == []
        fixes = [
            fix
            for res in doc["runs"][0]["results"]
            for fix in res.get("fixes", [])
        ]
        assert fixes
        replacement = fixes[0]["artifactChanges"][0]["replacements"][0]
        assert replacement["deletedRegion"]["startLine"] == 1
        assert replacement["insertedContent"]["text"].startswith(
            "program crossed;"
        )

    def test_suggest_repairs_on_free_program_is_empty(self):
        report = suggest_repairs(
            """
            program fine;
            task a is begin send b.x; end;
            task b is begin accept x; end;
            """
        )
        assert not report.fixed
        assert report.candidates_generated == 0
        assert report.original_verdict == "certified-deadlock-free"
