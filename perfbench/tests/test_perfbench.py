"""Tests of the benchmark itself: tiny runs of every workload, the
correctness gates, known-defect classing, trace accounting and seed
invariance.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from perfbench import common, daemon, inprocess
from perfbench.common import WrongAnswer
from perfbench.inputs import Case, cold_cases, exact_cases
from perfbench.spans import LAYERS

ROOT = Path(__file__).resolve().parents[2]


def tiny(workload, n):
    """The workload cut to its first ``n`` inputs (items are listed
    input by input, one per strategy on ``exact_confirm``)."""
    per_input = len(inprocess.STRATEGIES) if (
        workload.name == "exact_confirm") else 1
    workload.items = workload.items[: n * per_input]
    return workload


@pytest.fixture
def probe():
    return common.HostProbe()


# -- tiny runs with every gate passing ------------------------------------


@pytest.mark.parametrize("make", [inprocess.cold_workload,
                                  inprocess.exact_workload])
def test_inprocess_workload_tiny(make, probe):
    workload = tiny(make(), 4)
    orders = inprocess.pass_orders(len(workload.items), 1, 2)
    runner = inprocess.run_untraced(workload, orders, probe)
    assert len(runner.ops) == 2 * len(workload.items)
    metrics = common.end_to_end(runner.ops, runner.wall_s, [0.3], 40.0)
    assert len(metrics) == 7
    assert all(value > 0 for value, _ in metrics.values())


def test_daemon_session_tiny(monkeypatch, probe, tmp_path):
    cases = [c for c in daemon.daemon_workspace()
             if c.name.endswith("_flush")] + daemon.daemon_workspace()[:4]
    monkeypatch.setattr(daemon, "daemon_workspace", lambda: cases)
    monkeypatch.setattr(daemon, "HOT", 2)
    small = {"recheck": 3, "exact_cached": 1, "open": 1, "save_comment": 2,
             "save_semantic": 1, "exact_fresh": 1, "status": 1,
             "sweep": 1, "timed": 0}
    monkeypatch.setattr(daemon, "SCRIPT", {"alice": small, "bob": small})
    monkeypatch.setattr(common, "RUN_DIR", tmp_path / "run")
    result = daemon.run_session(1, 2, probe, traced=False)
    stale = daemon.verify(result)
    ops = daemon.all_ops(result, stale)
    counts = {k: sum(op.kind == k for op in ops) for k in daemon.KINDS}
    assert counts["save_comment"] == 2 * 2 * 2
    assert counts["recheck"] == 2 * 2 * 3
    assert result.peak_rss_mb > 0
    assert sum(not op.ok for op in ops) == len(stale)


# -- gates ------------------------------------------------------------------


def test_planted_wrong_label_fires_cold_gate():
    free = next(c for c in cold_cases() if c.name == "pipeline_3x2")
    out = inprocess.run_op(free, None)
    assert inprocess.check_op(free, None, out) is True
    planted = Case(free.name, free.text, True, "manifest")
    with pytest.raises(WrongAnswer, match="certified a known deadlock"):
        inprocess.check_op(planted, None, out)


def test_planted_wrong_label_fires_exact_gate():
    corridor = next(c for c in exact_cases() if c.name == "corridor_4x2")
    out = inprocess.run_op(corridor, "astar")
    planted = Case(corridor.name, corridor.text, False, "construction")
    with pytest.raises(WrongAnswer, match="known-free CONFIRMED"):
        inprocess.check_op(planted, "astar", out)


def test_strategy_disagreement_and_witness_gates():
    corridor = next(c for c in exact_cases() if c.name == "corridor_4x2")
    first = {(corridor.name, s): inprocess.run_op(corridor, s)
             for s in inprocess.STRATEGIES}
    inprocess.cross_check(first)
    out = first[(corridor.name, "bfs")]
    assert inprocess.replays(inprocess.search_graph(out.result),
                             out.confirmed.witness)
    # A witness cut short no longer reaches the deadlock.
    witness = out.confirmed.witness
    short = type(witness)(witness.initial, witness.schedule[:-1],
                          witness.waves[:-1], witness.classification)
    assert not inprocess.replays(inprocess.search_graph(out.result), short)


def record_for(doc, reply, kind="analyze"):
    return daemon.Record(kind, doc, doc.text(), doc.semantic, reply, 0)


def test_planted_payload_mismatch_fires_daemon_gate():
    case = next(c for c in daemon.daemon_workspace()
                if c.name == "pipeline_4x2")
    doc = daemon.Doc("mem:alice/p.adl", case)
    run = daemon.NamespaceRun("alice", [doc])
    run.variants[(doc.uri, 0)] = {0}
    refs = daemon.References()
    good = refs.analyze(doc.text(), False)
    run.records = [record_for(doc, good)]
    assert daemon.check_records(run, refs) == set()
    bad = json.loads(json.dumps(good))
    bad["deadlock"]["verdict"] = "possible-deadlock"
    run.records = [record_for(doc, bad)]
    with pytest.raises(WrongAnswer, match="payload differs"):
        daemon.check_records(run, refs)
    lint = refs.lint(doc.text(), doc.uri)
    run.records = [record_for(doc, dict(lint, path="elsewhere"), "lint")]
    with pytest.raises(WrongAnswer, match="lint payload differs"):
        daemon.check_records(run, refs)


def test_stale_spans_are_failed_not_wrong():
    case = next(c for c in daemon.daemon_workspace()
                if c.name.endswith("_flush"))
    doc = daemon.Doc("mem:alice/f.adl", case)
    run = daemon.NamespaceRun("alice", [doc])
    refs = daemon.References()
    old = refs.analyze(doc.text(), False)  # spans of the 0-comment text
    doc.comment = 2
    assert refs.analyze(doc.text(), False) != old
    run.variants[(doc.uri, 0)] = {0, 2}
    run.records = [record_for(doc, old)]
    assert daemon.check_records(run, refs) == {0}
    # The same stale reply is wrong if that variant was never sent.
    run.variants[(doc.uri, 0)] = {2}
    with pytest.raises(WrongAnswer):
        daemon.check_records(run, refs)


class FakeDaemon:
    def __init__(self, replies, seconds):
        self.replies, self.seconds = replies, seconds

    def call(self, requests, client):
        assert len(requests) == len(self.replies)
        return self.replies, list(range(len(requests))), 0.0, self.seconds


def timed_session(reply, seconds):
    case = daemon.daemon_workspace()[0]
    doc = daemon.Doc("mem:alice/t.adl", case)
    run = daemon.NamespaceRun("alice", [doc])
    fake = FakeDaemon([{"id": 0, "result": {}}, reply], seconds)
    session = daemon.Session(fake, {"alice": run}, common.HostProbe())
    session.run_action(run, "timed", doc)
    return run


def test_timed_check_timeout_is_failed_not_wrong():
    timeout = {"id": 1, "error": {"code": daemon.REQUEST_TIMEOUT,
                                  "message": "request exceeded"}}
    run = timed_session(timeout, daemon.TIMEOUT_S + 0.01)
    assert [op.ok for op in run.ops] == [False]
    # A 1001 before the budget ran out is not the known defect.
    with pytest.raises(WrongAnswer):
        timed_session(timeout, daemon.TIMEOUT_S / 2)
    other = {"id": 1, "error": {"code": 1000, "message": "boom"}}
    with pytest.raises(WrongAnswer):
        timed_session(other, daemon.TIMEOUT_S + 0.01)


# -- tracing ----------------------------------------------------------------


def test_self_times_and_other_sum_to_traced_wall(probe):
    workload = tiny(inprocess.exact_workload(), 3)
    orders = inprocess.pass_orders(len(workload.items), 1, 1)
    traced, metrics = inprocess.run_traced(workload, orders, probe)
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert total + metrics["other.self_s"][0] == pytest.approx(
        traced.wall_s, rel=1e-9)
    assert metrics["other.self_s"][0] >= 0
    assert metrics["waves.search.calls"][0] > 0
    assert metrics["reporting.calls"][0] == 2 * len(workload.items)


def test_wrappers_are_removed_after_tracing():
    from perfbench.spans import Tracer
    import repro.analysis.orderings as orderings

    before = orderings.compute_orderings
    tracer = Tracer()
    tracer.install()
    assert orderings.compute_orderings is not before
    tracer.uninstall()
    assert orderings.compute_orderings is before
    assert repro.api.ALGORITHMS["refined"].__module__ == (
        "repro.analysis.refined")


# -- seed invariance --------------------------------------------------------


def traced_calls(make, seed, probe):
    workload = tiny(make(), 3)
    orders = inprocess.pass_orders(len(workload.items), seed, 1)
    _, metrics = inprocess.run_traced(workload, orders, probe)
    return {name: value for name, (value, unit) in metrics.items()
            if name.endswith(".calls") or unit in ("count", "bytes")}


@pytest.mark.parametrize("make", [inprocess.cold_workload,
                                  inprocess.exact_workload])
def test_two_seeds_same_layer_work(make, probe):
    assert traced_calls(make, 1, probe) == traced_calls(make, 2, probe)


def test_two_seeds_same_action_kind_counts():
    docs = daemon.split_workspace()

    def counts(seed):
        out = {}
        for ns in daemon.NAMESPACES:
            rng = random.Random(f"{seed}:{ns}")
            for pass_no in range(3):
                for kind, _ in daemon.pass_script(ns, docs[ns], pass_no, rng):
                    out[kind] = out.get(kind, 0) + 1
        return out

    assert counts(1) == counts(2)
    orders = [[kind for kind, _ in daemon.pass_script(
        "alice", docs["alice"], 0, random.Random(s))] for s in (1, 2)]
    assert orders[0] != orders[1]


# -- contract ---------------------------------------------------------------


def test_benchmark_json_matches_the_metric_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [common.Op("k", 0.01, True, True)]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit)
        in common.end_to_end(ops, 1.0, [0.3], 40.0).items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        common.per_layer_catalog())
    assert len(spec["per_layer"]) == 82
    assert {w["name"] for w in spec["workloads"]} == {
        "cold_corpus", "exact_confirm", "daemon_session"}


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
