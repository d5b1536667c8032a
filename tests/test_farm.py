"""Tests for the batch-analysis farm: cache, pool, runner, analyze_many."""

from __future__ import annotations

import ast
import json
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

import repro
from repro import budget, obs
from repro.api import ALGORITHMS, analyze, analyze_many
from repro.errors import ReproError
from repro.farm import (
    PIPELINE_VERSION,
    ResultCache,
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    WorkItem,
    WorkOutcome,
    cache_key,
    canonical_source,
    collect_sources,
    run_batch,
    run_pool,
)
from repro.farm import cache as cache_module
from repro.reporting import analysis_result_to_dict
from repro.server import Session
from repro.workloads import adl_corpus
from tests.conftest import CROSSED_SRC, HANDSHAKE_SRC

COMMENTED_HANDSHAKE = """
program handshake;
-- a comment the canonical form must not see
task t1 is
begin
    send   t2.sig1;
    accept sig2;
end;
task t2 is begin accept sig1; send t1.sig2; end;
"""


# ---------------------------------------------------------------------------
# cache keys


class TestCacheKey:
    def test_same_source_same_key(self):
        assert cache_key(HANDSHAKE_SRC) == cache_key(HANDSHAKE_SRC)

    def test_whitespace_and_comments_do_not_change_key(self):
        assert cache_key(HANDSHAKE_SRC) == cache_key(COMMENTED_HANDSHAKE)
        assert canonical_source(HANDSHAKE_SRC) == canonical_source(
            COMMENTED_HANDSHAKE
        )

    def test_different_program_different_key(self):
        assert cache_key(HANDSHAKE_SRC) != cache_key(CROSSED_SRC)

    def test_algorithm_changes_key(self):
        assert cache_key(HANDSHAKE_SRC, algorithm="naive") != cache_key(
            HANDSHAKE_SRC, algorithm="refined"
        )

    def test_state_limit_and_exact_change_key(self):
        base = cache_key(HANDSHAKE_SRC)
        assert cache_key(HANDSHAKE_SRC, state_limit=7) != base
        assert cache_key(HANDSHAKE_SRC, algorithm="exact") != base

    def test_lint_changes_key(self):
        # Lint entries carry extra payload, so they must not shadow
        # (or be shadowed by) plain analysis entries.
        assert cache_key(HANDSHAKE_SRC, lint=True) != cache_key(
            HANDSHAKE_SRC
        )

    def test_pipeline_version_changes_key(self, monkeypatch):
        base = cache_key(HANDSHAKE_SRC)
        monkeypatch.setattr(cache_module, "PIPELINE_VERSION", PIPELINE_VERSION + 1)
        assert cache_key(HANDSHAKE_SRC) != base

    def test_accepts_parsed_program(self, handshake):
        assert cache_key(handshake) == cache_key(HANDSHAKE_SRC)


# ---------------------------------------------------------------------------
# result cache


def _payload(source):
    return analysis_result_to_dict(analyze(source))


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(HANDSHAKE_SRC)
        assert cache.get(key) is None
        payload = _payload(HANDSHAKE_SRC)
        cache.put(key, payload)
        assert cache.get(key) == {"key": key, "payload": payload}
        assert cache._entry_path(key).name == f"{key}.json"

    def test_disk_persists_across_instances(self, tmp_path):
        key = cache_key(HANDSHAKE_SRC)
        ResultCache(tmp_path).put(key, _payload(HANDSHAKE_SRC))
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is not None
        assert fresh.stats.hits == 1

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(HANDSHAKE_SRC)
        cache.put(key, _payload(HANDSHAKE_SRC))
        entry = cache._entry_path(key)
        entry.write_bytes(b"not JSON at all")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.errors == 1
        assert not entry.exists()  # healed: deleted for the next store

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a = cache_key(HANDSHAKE_SRC)
        key_b = cache_key(CROSSED_SRC)
        cache.put(key_a, _payload(HANDSHAKE_SRC))
        # Simulate a renamed/copied entry file.
        path_b = cache._entry_path(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(cache._entry_path(key_a).read_bytes())
        fresh = ResultCache(tmp_path)
        assert fresh.get(key_b) is None

    def test_on_disk_follows_the_entry_file(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("k" * 64, _payload(CROSSED_SRC))
        assert cache.on_disk("k" * 64)
        cache._entry_path("k" * 64).unlink()
        assert not cache.on_disk("k" * 64)

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(HANDSHAKE_SRC), _payload(HANDSHAKE_SRC))
        cache.put(cache_key(CROSSED_SRC), _payload(CROSSED_SRC))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get(cache_key(HANDSHAKE_SRC)) is None


# ---------------------------------------------------------------------------
# the store's trust boundary: loading a cache directory executes nothing


class _Bait:
    """Unpickling this calls ``open(marker, "w")``: a loader that ran it
    would leave the marker file behind."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


def _malformed_envelopes():
    key = cache_key(HANDSHAKE_SRC)
    payload = _payload(HANDSHAKE_SRC)
    good = json.dumps({"key": key, "payload": payload})
    without_deadlock = {k: v for k, v in payload.items() if k != "deadlock"}
    return {
        "not-json": b"\x80\x04 not JSON",
        "truncated": good[: len(good) // 2].encode(),
        "not-a-dict": json.dumps([key, payload]).encode(),
        "another-key": json.dumps(
            {"key": cache_key(CROSSED_SRC), "payload": payload}
        ).encode(),
        "another-schema": json.dumps(
            {"key": key, "payload": dict(payload, schema_version=3)}
        ).encode(),
        "no-deadlock-key": json.dumps(
            {"key": key, "payload": without_deadlock}
        ).encode(),
    }


class TestStoreTrustBoundary:
    def test_no_deserializer_that_runs_code_is_imported(self):
        root = Path(repro.__file__).parent
        banned = {"pickle", "_pickle", "marshal", "shelve"}
        found = []
        for package in ("farm", "server"):
            for path in sorted((root / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    else:
                        continue
                    found += [
                        f"{package}/{path.name}: {name}"
                        for name in names
                        if name.split(".")[0] in banned
                    ]
        assert found == []

    def test_the_bait_is_live(self, tmp_path):
        marker = tmp_path / "control"
        pickle.loads(pickle.dumps(_Bait(marker))).close()
        assert marker.exists()

    @pytest.mark.parametrize("suffix", [".pkl", ".json"])
    @pytest.mark.parametrize("reader", ["get", "run_batch", "session"])
    def test_planted_pickle_is_never_loaded(self, tmp_path, suffix, reader):
        store, marker = tmp_path / "store", tmp_path / "marker"
        key = cache_key(HANDSHAKE_SRC)
        planted = store / key[:2] / f"{key}{suffix}"
        planted.parent.mkdir(parents=True)
        planted.write_bytes(pickle.dumps(_Bait(marker)))

        if reader == "get":
            assert ResultCache(store).get(key) is None
        elif reader == "run_batch":
            item = run_batch([("h", HANDSHAKE_SRC)], cache=store).items[0]
            assert (item.status, item.cache) == (STATUS_OK, "miss")
        else:
            restarted = Session(store=ResultCache(store))
            _, tier = restarted.analyze_document(uri="mem:h", text=HANDSHAKE_SRC)
            assert tier == "computed"
        assert not marker.exists()
        if reader != "get":  # recomputed and rewritten as JSON
            entry = json.loads((store / key[:2] / f"{key}.json").read_text())
            assert entry == {"key": key, "payload": _payload(HANDSHAKE_SRC)}

    @pytest.mark.parametrize("name", sorted(_malformed_envelopes()))
    def test_malformed_envelope_is_a_deleted_miss(self, tmp_path, name):
        key = cache_key(HANDSHAKE_SRC)
        cache = ResultCache(tmp_path)
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(_malformed_envelopes()[name])
        assert cache.get(key) is None
        assert cache.stats.to_dict() == {
            "hits": 0, "misses": 1, "stores": 0, "errors": 1,
        }
        assert not path.exists()


# ---------------------------------------------------------------------------
# picklability (results stay shippable between processes)


class TestPicklability:
    def test_algorithm_registry_is_picklable(self):
        for name, fn in ALGORITHMS.items():
            assert pickle.loads(pickle.dumps(fn)) is fn, name

    @pytest.mark.parametrize(
        "name", ["elevator", "atm_deadlock", "sensor_poll", "handoff_protocol"]
    )
    def test_analysis_result_round_trips(self, name):
        entry = adl_corpus()[name]
        result = analyze(entry.source)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.program == result.program
        assert clone.deadlock.verdict == result.deadlock.verdict
        assert clone.stall.verdict == result.stall.verdict
        assert clone.validation.diagnostics == result.validation.diagnostics
        assert clone.sync_graph.stats() == result.sync_graph.stats()
        assert clone.describe() == result.describe()

    def test_k_pairs_result_round_trips(self):
        result = analyze(CROSSED_SRC, algorithm="k-pairs-3")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.deadlock.verdict == result.deadlock.verdict


# ---------------------------------------------------------------------------
# worker pool


def _slow_worker(item: WorkItem) -> WorkOutcome:
    if "slow" in item.label:
        time.sleep(30)
    return WorkOutcome(label=item.label, status=STATUS_OK, result=item.label)


def _crashing_worker(item: WorkItem) -> WorkOutcome:
    if "boom" in item.label:
        os._exit(23)
    return WorkOutcome(label=item.label, status=STATUS_OK, result=item.label)


def _inherited_state(item: WorkItem) -> WorkOutcome:
    """What a pool worker runs under: (no budget, SIGTERM, SIGINT
    at their defaults)."""
    return WorkOutcome(
        label=item.label,
        status=STATUS_OK,
        result=(
            budget.checkpoint() is None,
            signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
        ),
    )


def _items(labels):
    return [WorkItem(label=label, source=HANDSHAKE_SRC) for label in labels]


class TestPool:
    def test_serial_matches_input_order(self):
        outcomes = run_pool(_items(["a", "b", "c"]), jobs=1)
        assert [o.label for o in outcomes] == ["a", "b", "c"]
        assert all(o.ok for o in outcomes)

    def test_serial_contains_failures(self):
        items = [
            WorkItem(label="good", source=HANDSHAKE_SRC),
            WorkItem(label="bad", source="program ;"),
        ]
        outcomes = run_pool(items, jobs=1)
        assert outcomes[0].ok
        assert outcomes[1].status == STATUS_FAILED
        assert "Traceback" in outcomes[1].error

    def test_parallel_matches_serial_verdicts(self):
        corpus = adl_corpus()
        items = [
            WorkItem(label=name, source=entry.source)
            for name, entry in sorted(corpus.items())
        ]
        parallel = run_pool(items, jobs=4)
        serial = run_pool(items, jobs=1)
        assert [o.label for o in parallel] == [o.label for o in serial]
        for p, s in zip(parallel, serial):
            assert p.ok and s.ok
            assert p.result == s.result

    def test_parallel_unknown_algorithm_fails_only_that_item(self):
        items = [
            WorkItem(label="good", source=HANDSHAKE_SRC),
            WorkItem(label="bad", source=HANDSHAKE_SRC, algorithm="nope"),
        ]
        outcomes = run_pool(items, jobs=2)
        assert outcomes[0].ok
        assert outcomes[1].status == STATUS_FAILED
        assert "unknown algorithm" in outcomes[1].error

    def test_timeout_marks_item_and_spares_the_rest(self):
        items = _items(["ok-1", "slow-item", "ok-2", "ok-3"])
        outcomes = run_pool(
            items, jobs=2, timeout=1.5, worker=_slow_worker
        )
        by_label = {o.label: o for o in outcomes}
        assert by_label["slow-item"].status == STATUS_TIMEOUT
        for label in ("ok-1", "ok-2", "ok-3"):
            assert by_label[label].ok, label

    def test_crash_convicts_only_the_crasher(self):
        items = _items(["ok-1", "boom-item", "ok-2", "ok-3", "ok-4"])
        outcomes = run_pool(items, jobs=3, worker=_crashing_worker)
        by_label = {o.label: o for o in outcomes}
        assert by_label["boom-item"].status == STATUS_CRASHED
        assert "died" in by_label["boom-item"].error
        for label in ("ok-1", "ok-2", "ok-3", "ok-4"):
            assert by_label[label].ok, label

    def test_workers_drop_what_the_fork_inherited(self):
        # Forked from a thread running a request (its budget already
        # expired) and holding handlers of its own, a worker must start
        # with neither: the budget would fail every later item, the
        # handlers turn the pool's terminate() into tracebacks.
        analyzed_items = [
            WorkItem(label="crossed", source=CROSSED_SRC),
            WorkItem(label="handshake", source=HANDSHAKE_SRC),
        ]
        previous = signal.signal(signal.SIGTERM, lambda *args: None)
        try:
            with budget.limit(1e-9):
                states = run_pool(
                    _items(["s1", "s2"]), jobs=2, worker=_inherited_state
                )
                analyzed = run_pool(analyzed_items, jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert [o.result for o in states] == [(True, True, True)] * 2
        assert all(o.ok for o in analyzed), analyzed

    def test_forks_no_more_workers_than_items(self, monkeypatch):
        from repro.farm import pool

        sizes = []
        new_executor = pool._new_executor

        def spy(jobs):
            sizes.append(jobs)
            return new_executor(jobs)

        monkeypatch.setattr(pool, "_new_executor", spy)
        outcomes = run_pool(_items(["only"]), jobs=4)
        assert sizes == [1]
        assert outcomes[0].ok

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_pool([], jobs=0)


# ---------------------------------------------------------------------------
# batch runner


class TestRunBatch:
    def test_verdicts_identical_to_serial_analyze(self, tmp_path):
        """Acceptance: --jobs 4 over the ADL corpus == serial analyze()."""
        corpus = adl_corpus()
        pairs = [(name, entry.source) for name, entry in sorted(corpus.items())]
        report = run_batch(pairs, jobs=4, cache=tmp_path / "cache")
        assert report.ok
        for (name, source), item in zip(pairs, report.items):
            assert item.result == _payload(source), name

    def test_warm_cache_rerun_hits_and_is_faster(self, tmp_path):
        corpus = adl_corpus()
        pairs = [(name, entry.source) for name, entry in sorted(corpus.items())]
        cache_dir = tmp_path / "cache"
        with obs.observed() as session:
            cold = run_batch(pairs, jobs=2, cache=cache_dir)
            warm = run_batch(pairs, jobs=2, cache=cache_dir)
        assert cold.cache_hits == 0 and cold.cache_misses == len(pairs)
        assert warm.cache_hits == len(pairs) and warm.cache_misses == 0
        # Warm skips all analysis and all worker scheduling.
        assert warm.wall_time_s < cold.wall_time_s
        assert session.registry.counter_value("farm.cache.hits") == len(pairs)
        assert session.registry.counter_value("farm.cache.misses") == len(pairs)
        for hit_item, cold_item in zip(warm.items, cold.items):
            assert hit_item.cache == "hit"
            assert hit_item.result == cold_item.result

    def test_cache_disabled_by_default(self):
        report = run_batch([("h", HANDSHAKE_SRC)])
        assert not report.cache_enabled
        assert report.items[0].cache == "off"

    def test_parse_error_item_fails_without_aborting(self, tmp_path):
        report = run_batch(
            [("good", HANDSHAKE_SRC), ("bad", "program ;")],
            jobs=1,
            cache=tmp_path,
        )
        assert report.items[0].ok
        assert report.items[1].status == STATUS_FAILED
        assert not report.ok
        # The broken item must not poison the cache.
        rerun = run_batch(
            [("good", HANDSHAKE_SRC), ("bad", "program ;")],
            jobs=1,
            cache=tmp_path,
        )
        assert rerun.items[0].cache == "hit"
        assert rerun.items[1].status == STATUS_FAILED

    def test_accepts_programs_and_bare_sources(self, handshake):
        report = run_batch([handshake, CROSSED_SRC])
        assert report.items[0].label == "handshake"
        assert report.items[0].result["deadlock"]["deadlock_free"]
        assert not report.items[1].result["deadlock"]["deadlock_free"]

    def test_injected_crash_is_contained(self, tmp_path, monkeypatch):
        """Acceptance: a crashing worker item is FAILED/CRASHED without
        aborting the remaining items."""
        monkeypatch.setenv("REPRO_FARM_INJECT_CRASH", "atm_deadlock")
        corpus = adl_corpus()
        pairs = [(name, entry.source) for name, entry in sorted(corpus.items())]
        with obs.observed() as session:
            report = run_batch(pairs, jobs=3, cache=tmp_path / "cache")
        by_label = {item.label: item for item in report.items}
        assert by_label["atm_deadlock"].status == STATUS_CRASHED
        assert session.registry.counter_value("farm.worker.crashes") >= 1
        for name in corpus:
            if name != "atm_deadlock":
                assert by_label[name].ok, name

    def test_jsonl_and_dict_schema(self, tmp_path):
        import json

        report = run_batch(
            [("h", HANDSHAKE_SRC), ("bad", "program ;")], cache=tmp_path
        )
        payload = report.to_dict()
        assert payload["schema_version"] == 2
        assert payload["pipeline_version"] == PIPELINE_VERSION
        assert payload["cache"]["misses"] == 1  # "bad" never got a key
        lines = [
            json.loads(line) for line in report.to_jsonl().splitlines()
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds == ["item", "item", "summary"]
        assert lines[0]["program"] == "handshake"
        assert lines[0]["deadlock"]["deadlock_free"] is True
        assert lines[1]["status"] == STATUS_FAILED
        assert lines[1]["error"]
        assert lines[2]["counts"] == {"ok": 1, "failed": 1}


# ---------------------------------------------------------------------------
# lint-enabled batches


class TestLintBatch:
    def test_items_carry_per_rule_counts(self, tmp_path):
        report = run_batch(
            [("h", HANDSHAKE_SRC), ("crossed", CROSSED_SRC)],
            cache=tmp_path,
            lint=True,
        )
        assert report.ok and report.lint_enabled
        by_label = {item.label: item for item in report.items}
        assert by_label["h"].lint_counts == {}  # clean program
        crossed = by_label["crossed"].lint_counts
        assert crossed and crossed.get("ADL010", 0) >= 1

    def test_counts_survive_the_cache(self, tmp_path):
        args = dict(cache=tmp_path, lint=True)
        first = run_batch([("crossed", CROSSED_SRC)], **args)
        second = run_batch([("crossed", CROSSED_SRC)], **args)
        assert second.items[0].cache == "hit"
        assert second.items[0].lint_counts == first.items[0].lint_counts
        assert second.items[0].result == first.items[0].result

    def test_lint_entries_do_not_shadow_plain_runs(self, tmp_path):
        run_batch([("crossed", CROSSED_SRC)], cache=tmp_path, lint=True)
        plain = run_batch([("crossed", CROSSED_SRC)], cache=tmp_path)
        assert plain.items[0].cache == "miss"  # distinct key
        assert plain.items[0].lint_counts is None
        assert not plain.items[0].result["deadlock"]["deadlock_free"]

    def test_jsonl_exposes_counts_and_summary(self, tmp_path):
        import json

        report = run_batch(
            [("h", HANDSHAKE_SRC), ("crossed", CROSSED_SRC)],
            cache=tmp_path,
            lint=True,
        )
        lines = [
            json.loads(line) for line in report.to_jsonl().splitlines()
        ]
        items = {rec["label"]: rec for rec in lines if rec["kind"] == "item"}
        assert items["h"]["lint_counts"] == {}
        assert items["crossed"]["lint_counts"]["ADL010"] >= 1
        summary = lines[-1]
        assert summary["lint"]["enabled"] is True
        assert summary["lint"]["diagnostics"] == sum(
            items["crossed"]["lint_counts"].values()
        )

    def test_plain_batches_omit_counts(self, tmp_path):
        report = run_batch([("h", HANDSHAKE_SRC)], cache=tmp_path)
        assert report.items[0].lint_counts is None
        payload = report.to_dict()
        assert "lint_counts" not in payload["item_reports"][0]
        assert payload["lint"] == {"enabled": False, "diagnostics": 0}

    def test_comment_variant_gets_its_own_lint_counts(self, tmp_path):
        # Lint reads `-- lint: disable=` comments, which the canonical
        # program drops: lint-enabled entries key on the exact text.
        silenced = CROSSED_SRC.replace("task ", "-- lint: disable=all\ntask ")
        uncached = run_batch([("silenced", silenced)], lint=True)
        assert uncached.items[0].lint_counts == {}
        run_batch([("plain", CROSSED_SRC)], cache=tmp_path, lint=True)
        cached = run_batch([("silenced", silenced)], cache=tmp_path, lint=True)
        assert cached.items[0].cache == "miss"
        assert cached.items[0].lint_counts == {}
        # Plain entries keep the canonical key: comment edits still hit.
        run_batch([("plain", CROSSED_SRC)], cache=tmp_path)
        plain = run_batch([("silenced", silenced)], cache=tmp_path)
        assert plain.items[0].cache == "hit"

    def test_item_is_parsed_and_prepared_once(self, monkeypatch):
        from tests.conftest import front_half_counts

        counts = front_half_counts(monkeypatch, CROSSED_SRC)
        report = run_batch([("crossed", CROSSED_SRC)], lint=True)
        assert report.items[0].lint_counts.get("ADL012") == 1
        assert counts() == (1, 1)

    def test_parallel_lint_batch(self, tmp_path):
        corpus = adl_corpus()
        pairs = [
            (name, entry.source) for name, entry in sorted(corpus.items())
        ][:4]
        report = run_batch(
            pairs, jobs=2, cache=tmp_path / "cache", lint=True
        )
        assert report.ok
        assert all(
            item.lint_counts is not None for item in report.items
        )


# ---------------------------------------------------------------------------
# collect_sources


class TestCollectSources:
    def test_directory_file_and_glob(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.adl").write_text(HANDSHAKE_SRC)
        (tmp_path / "sub" / "b.adl").write_text(CROSSED_SRC)
        (tmp_path / "c.txt").write_text("not adl")

        from_dir = collect_sources([tmp_path])
        assert [Path_name(p) for p, _ in from_dir] == ["a.adl", "b.adl"]

        from_file = collect_sources([tmp_path / "a.adl"])
        assert len(from_file) == 1

        from_glob = collect_sources([str(tmp_path / "*.adl")])
        assert [Path_name(p) for p, _ in from_glob] == ["a.adl"]

    def test_deduplicates_across_specs(self, tmp_path):
        (tmp_path / "a.adl").write_text(HANDSHAKE_SRC)
        pairs = collect_sources(
            [tmp_path, tmp_path / "a.adl", str(tmp_path / "*.adl")]
        )
        assert len(pairs) == 1

    def test_no_match_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no ADL sources match"):
            collect_sources([tmp_path / "missing.adl"])


def Path_name(path_str):
    return os.path.basename(path_str)


# ---------------------------------------------------------------------------
# analyze_many


class TestAnalyzeMany:
    def test_results_in_input_order(self):
        report = analyze_many([HANDSHAKE_SRC, CROSSED_SRC])
        results = report.results
        assert results[0]["deadlock"]["deadlock_free"]
        assert not results[1]["deadlock"]["deadlock_free"]

    def test_exported_from_package_root(self):
        assert repro.analyze_many is analyze_many

    def test_caching_and_jobs(self, tmp_path):
        sources = [HANDSHAKE_SRC, CROSSED_SRC]
        first = analyze_many(sources, jobs=2, cache=tmp_path)
        second = analyze_many(sources, jobs=2, cache=tmp_path)
        assert first.cache_misses == 2
        assert second.cache_hits == 2
        assert first.results == second.results

    def test_matches_analyze_verdicts(self):
        entries = sorted(adl_corpus().values(), key=lambda e: e.name)
        report = analyze_many([e.source for e in entries], jobs=2)
        for entry, result in zip(entries, report.results):
            assert result == _payload(entry.source)

    def test_serial_equals_pooled_under_obs(self, tmp_path):
        # Pool workers run with obs off; the payloads may not show it,
        # and a store written under obs serves runs without it.
        from tests.test_obs import PRUNING_SRC

        sources = [CROSSED_SRC, PRUNING_SRC]
        with obs.observed():
            serial = analyze_many(sources, jobs=1)
            pooled = analyze_many(sources, jobs=2)
            stored = analyze_many(sources, jobs=1, cache=tmp_path)
        plain = analyze_many(sources, jobs=1, cache=tmp_path)
        assert plain.cache_hits == 2
        assert serial.results == pooled.results == stored.results
        assert plain.results == serial.results
        assert serial.results == [_payload(text) for text in sources]

    def test_hits_equal_one_shot_runs_of_every_layout(self, tmp_path):
        # Keys hash the canonical program, so a warm hit may come from
        # another layout of the same text: its validation spans must
        # still be the item's own.
        from tests.test_server import TWO_COMMENT_LINES, _span_corpus

        texts, expected = [], []
        for _, text in _span_corpus():
            for variant in (text, TWO_COMMENT_LINES + text):
                try:
                    payload = _payload(variant)
                except ReproError:
                    continue
                texts.append(variant)
                expected.append(payload)
        cold = analyze_many(texts, cache=tmp_path)
        warm = analyze_many(texts, cache=tmp_path)
        assert (cold.cache_misses, warm.cache_hits) == (len(texts),) * 2
        assert cold.results == expected
        assert warm.results == expected


class TestLruFront:
    def test_eviction_order_is_lru(self):
        from repro.farm.cache import LruFront

        front = LruFront(max_entries=2)
        front.put("a", 1)
        front.put("b", 2)
        assert front.get("a") == 1  # refresh a; b is now oldest
        front.put("c", 3)
        assert "b" not in front
        assert front.get("a") == 1
        assert front.get("c") == 3
        assert front.evictions == 1

    def test_hit_miss_counters(self):
        from repro.farm.cache import LruFront

        front = LruFront()
        assert front.get("ghost") is None
        assert front.get("ghost", default="d") == "d"
        front.put("k", "v")
        assert front.get("k") == "v"
        assert (front.hits, front.misses) == (1, 2)

    def test_contains_is_a_pure_probe(self):
        from repro.farm.cache import LruFront

        front = LruFront(max_entries=2)
        front.put("a", 1)
        front.put("b", 2)
        # Probing "a" must not refresh its recency or count a hit.
        assert "a" in front
        front.put("c", 3)
        assert "a" not in front  # still evicted first
        assert (front.hits, front.misses) == (0, 0)

    def test_snapshot_and_len(self):
        from repro.farm.cache import LruFront

        front = LruFront(max_entries=3)
        front.put("a", 1)
        front.get("a")
        front.get("nope")
        assert len(front) == 1
        assert front.snapshot() == {
            "entries": 1,
            "max_entries": 3,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }
        front.clear()
        assert len(front) == 0

    def test_items_lru_first(self):
        from repro.farm.cache import LruFront

        front = LruFront()
        front.put("a", 1)
        front.put("b", 2)
        front.get("a")
        assert [k for k, _ in front.items()] == ["b", "a"]

    def test_capacity_validation(self):
        from repro.farm.cache import LruFront

        with pytest.raises(ValueError):
            LruFront(max_entries=0)


# ---------------------------------------------------------------------------
# thread safety (the daemon's worker pool shares these objects)


class TestLruFrontThreadSafety:
    def test_concurrent_gets_count_exactly(self):
        import threading

        from repro.farm.cache import LruFront

        front = LruFront(max_entries=8)
        front.put("k", "v")
        workers, per = 8, 2000
        errors = []

        def reader():
            try:
                for _ in range(per):
                    assert front.get("k") == "v"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Unguarded ``self.hits += 1`` loses updates under contention;
        # the lock makes the count exact, not approximate.
        assert front.hits == workers * per
        assert front.misses == 0

    def test_concurrent_churn_never_corrupts(self):
        import threading

        from repro.farm.cache import LruFront

        # Tiny capacity + many distinct keys: every put races the
        # eviction loop, every get races ``move_to_end`` — the exact
        # shape that raised KeyError from the unguarded OrderedDict.
        front = LruFront(max_entries=4)
        workers, per = 8, 1000
        errors = []

        def churn(i):
            try:
                for n in range(per):
                    front.put(f"w{i}-{n % 16}", n)
                    front.get(f"w{(i + 1) % workers}-{n % 16}")
                    len(front)
                    front.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,))
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(front) <= 4
        snap = front.snapshot()
        assert snap["hits"] + snap["misses"] == workers * per
