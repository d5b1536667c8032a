"""Observability layer: tracer, metrics registry, exporters, wiring."""

import json
import re
import sys
import threading

import pytest

import repro
from repro import obs
from repro.obs.export import (
    METRICS_SCHEMA_VERSION,
    session_to_dict,
    session_to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

# Exercises all three headline pruning rules at once: fig1's two-round
# handshake (sequenceable + coaccept marks) plus a fig4c-style branch
# whose arms are not co-executable.
PRUNING_SRC = """
program pruner;
task t1 is
begin
    send t2.sig1;
    accept sig2;
    send t2.sig1;
    accept sig2;
    if ? then
        accept m1;
        send t3.n1;
    else
        accept m2;
        send t4.n2;
    end if;
end;
task t2 is
begin
    accept sig1;
    send t1.sig2;
    accept sig1;
    send t1.sig2;
end;
task t3 is
begin
    accept n1;
    send t1.m2;
end;
task t4 is
begin
    accept n2;
    send t1.m1;
end;
"""


class TestTracer:
    def test_span_nesting_follows_dynamic_scope(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b", label="x"):
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.children[1].attributes == {"label": "x"}

    def test_span_timing_recorded_and_contains_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration_s is not None and outer.duration_s >= 0
        assert inner.duration_s is not None
        assert outer.duration_s >= inner.duration_s

    def test_render_tree_shows_names_and_attrs(self):
        tracer = Tracer()
        with tracer.span("phase", nodes=3):
            with tracer.span("child"):
                pass
        text = tracer.render()
        lines = text.splitlines()
        assert "phase" in lines[0] and "nodes=3" in lines[0]
        assert "child" in lines[1]
        assert lines[1].index("child") > lines[0].index("phase")


def _interleave(tracer, steps):
    """Run ``steps`` — ``(thread, action, span_name)`` with action
    ``"open"`` or ``"close"`` — in exactly this global order, each on its
    own named thread.  Returns each thread's stack after its last step."""
    threads = sorted({thread for thread, _, _ in steps})
    turns = [threading.Event() for _ in steps]
    stacks = {}

    def worker(me):
        handles = {}
        for i, (thread, action, name) in enumerate(steps):
            if thread != me:
                continue
            turns[i].wait(timeout=10)
            if action == "open":
                handles[name] = tracer.span(name)
                handles[name].__enter__()
            else:
                handles.pop(name).__exit__(None, None, None)
            if i + 1 < len(steps):
                turns[i + 1].set()
        stacks[me] = list(tracer._open.stack)

    workers = [threading.Thread(target=worker, args=(t,)) for t in threads]
    for w in workers:
        w.start()
    turns[0].set()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    return stacks


class TestTracerThreads:
    def test_concurrent_spans_are_separate_roots(self):
        tracer = Tracer()
        _interleave(tracer, [
            ("A", "open", "req.A"),
            ("B", "open", "req.B"),
            ("A", "open", "child.A"),
            ("B", "open", "child.B"),
            ("A", "close", "child.A"),
            ("B", "close", "child.B"),
            ("B", "close", "req.B"),
            ("A", "close", "req.A"),
        ])
        roots = {root.name: root for root in tracer.roots}
        assert sorted(roots) == ["req.A", "req.B"]
        assert [c.name for c in roots["req.A"].children] == ["child.A"]
        assert [c.name for c in roots["req.B"].children] == ["child.B"]

    def test_out_of_order_close_leaves_no_open_span(self):
        tracer = Tracer()
        stacks = _interleave(tracer, [
            ("A", "open", "req.A"),
            ("B", "open", "req.B"),
            ("A", "close", "req.A"),  # while B's span is still open
            ("B", "close", "req.B"),
        ])
        assert stacks == {"A": [], "B": []}
        assert tracer._open.stack == []
        with tracer.span("later"):
            pass
        assert [r.name for r in tracer.roots] == ["req.A", "req.B", "later"]
        assert all(not r.children for r in tracer.roots)

    def test_many_threads_keep_their_own_nesting(self):
        tracer = Tracer()
        start = threading.Barrier(8)

        def work(t):
            start.wait(timeout=10)
            for _ in range(300):
                with tracer.span(f"req.{t}"):
                    with tracer.span(f"child.{t}"):
                        pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(t,)) for t in range(8)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(w.is_alive() for w in workers)
        assert len(tracer.roots) == 8 * 300
        for root in tracer.roots:
            t = root.name.split(".")[1]
            assert [c.name for c in root.children] == [f"child.{t}"]


class TestRegistry:
    def test_counter_identity_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("x", rule="seq")
        b = reg.counter("x", rule="seq")
        c = reg.counter("x", rule="other")
        a.inc()
        b.inc(2)
        assert a is b and a is not c
        assert reg.counter_value("x", rule="seq") == 3
        assert reg.counter_value("x", rule="other") == 0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes")
        for v in (1, 5, 3):
            h.observe(v)
        assert (h.count, h.sum, h.min, h.max) == (3, 9, 1, 5)
        assert h.mean == pytest.approx(3.0)


class TestDisabledPath:
    def test_noop_when_disabled(self):
        assert not obs.is_enabled()
        # Writes to null instruments must not leak anywhere, and a
        # subsequent observed() scope must start from zero.
        obs.counter("ghost").inc(41)
        obs.gauge("ghost").set(41)
        obs.histogram("ghost").observe(41)
        with obs.span("ghost") as span:
            span.set_attribute("k", "v")
        with obs.observed() as session:
            pass
        snapshot = session_to_dict(session)
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == []

    def test_analyze_records_nothing_when_disabled(self, handshake):
        before = obs.current()
        repro.analyze(handshake)
        assert obs.current() is before is None

    def test_observed_restores_previous_session(self):
        with obs.observed() as outer:
            with obs.observed() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None


class TestPipelineInstrumentation:
    def test_analyze_produces_phase_spans(self, handshake):
        with obs.observed() as session:
            repro.analyze(handshake)
        names = {s.name for s in session.tracer.all_spans()}
        for expected in (
            "analyze",
            "analyze.parse",
            "analyze.validate",
            "analyze.inline",
            "analyze.unroll",
            "analyze.sync_graph",
            "analyze.deadlock",
            "analyze.stall",
            "refined.precompute",
            "refined.heads",
        ):
            assert expected in names
        # The index builds its CLG rows from the sync graph directly.
        assert "clg.build" not in names
        durations = session_to_dict(session)["span_seconds"]
        assert durations["analyze"] > 0

    def test_refined_pruning_counters_nonzero(self):
        with obs.observed() as session:
            repro.analyze(PRUNING_SRC)
        reg = session.registry
        for rule in ("sequenceable", "not_coexec", "coaccept"):
            assert reg.counter_value("refined.pruned_nodes", rule=rule) > 0
            assert reg.counter_value("refined.pruned_edges", rule=rule) > 0
        assert reg.counter_value("refined.heads_examined") > 0
        assert reg.counter_value("refined.scc_passes") > 0
        assert reg.counter_value("refined.nodes_reached") > 0

    def test_pruning_totals_mirrored_into_report_stats(self):
        # The per-rule totals live in the counters only: the report is
        # the same with obs on or off.
        with obs.observed() as session:
            result = repro.analyze(PRUNING_SRC)
        reg = session.registry
        for rule in ("sequenceable", "not_coexec", "coaccept"):
            assert reg.counter_value("refined.pruned_nodes", rule=rule) > 0
        assert "pruning" not in result.deadlock.stats
        plain = repro.analyze(PRUNING_SRC)
        assert result.deadlock.stats == plain.deadlock.stats

    def test_explore_counters(self, crossed):
        with obs.observed() as session:
            repro.analyze(crossed, algorithm="exact")
        reg = session.registry
        assert reg.counter_value("explore.states_visited") > 0
        assert reg.gauges[("explore.frontier_peak", ())].value >= 1
        assert reg.counter_value("explore.state_limit_hits") == 0

    def test_explore_state_limit_hit_counted(self, handshake):
        from repro.errors import ExplorationLimitError
        from repro.syncgraph.build import build_sync_graph
        from repro.waves.explore import explore

        graph = build_sync_graph(handshake)
        with obs.observed() as session:
            with pytest.raises(ExplorationLimitError):
                explore(graph, state_limit=1)
        assert session.registry.counter_value("explore.state_limit_hits") == 1

    def test_witness_search_counters(self, crossed):
        from repro.syncgraph.build import build_sync_graph
        from repro.waves.witness import find_anomaly_witness

        graph = build_sync_graph(crossed)
        with obs.observed() as session:
            witness = find_anomaly_witness(graph)
        assert witness is not None
        reg = session.registry
        assert reg.counter_value("witness.states_visited") > 0
        assert reg.counter_value("witness.state_limit_hits") == 0
        names = {s.name for s in session.tracer.all_spans()}
        assert "witness.search" in names

    def test_interp_scheduler_steps(self, handshake):
        from repro.interp.runtime import sample_runs

        with obs.observed() as session:
            sample_runs(handshake, runs=3)
        reg = session.registry
        assert reg.counter_value("interp.runs") == 3
        assert reg.counter_value("interp.scheduler_steps") >= 3

    def test_extensions_pair_counters(self, crossed):
        with obs.observed() as session:
            repro.analyze(crossed, algorithm="head-pairs")
        reg = session.registry
        assert (
            reg.counter_value(
                "extensions.pairs_enumerated", analysis="head-pairs"
            )
            > 0
        )


class TestExporters:
    def test_json_schema_stability(self):
        with obs.observed() as session:
            repro.analyze(PRUNING_SRC)
        snapshot = session_to_dict(session)
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert set(snapshot) == {
            "schema_version",
            "counters",
            "gauges",
            "histograms",
            "span_seconds",
            "spans",
        }
        # round-trips through JSON unchanged
        assert json.loads(json.dumps(snapshot)) == snapshot
        hist = next(iter(snapshot["histograms"].values()))
        assert set(hist) == {"count", "sum", "min", "max", "mean"}
        span = snapshot["spans"][0]
        assert set(span) == {"name", "duration_s", "attributes", "children"}

    def test_prometheus_lines_parse(self):
        with obs.observed() as session:
            repro.analyze(PRUNING_SRC)
        text = session_to_prometheus(session)
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r" [0-9eE.+-]+(\n|$)"
        )
        lines = text.splitlines()
        assert lines
        for line in lines:
            assert line_re.match(line), f"bad exposition line: {line!r}"
        assert any(
            line.startswith(
                'repro_refined_pruned_nodes_total{rule="sequenceable"}'
            )
            for line in lines
        )
        assert any(
            line.startswith('repro_span_seconds{span="analyze"}')
            for line in lines
        )

    def test_counters_accumulate_across_runs(self, handshake):
        with obs.observed() as session:
            repro.analyze(handshake)
            one = session.registry.counter_value("analyze.runs")
            repro.analyze(handshake)
            two = session.registry.counter_value("analyze.runs")
        assert (one, two) == (1, 2)


# ---------------------------------------------------------------------------
# thread safety (instruments are shared across daemon worker threads)


class TestRegistryThreadSafety:
    def test_concurrent_increments_are_exact(self):
        import threading

        reg = MetricsRegistry()
        counter = reg.counter("hits")
        gauge = reg.gauge("depth")
        hist = reg.histogram("sizes")
        workers, per = 8, 2000
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()
            for _ in range(per):
                counter.inc()
                gauge.set(1.0)
                hist.observe(2.0)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Unguarded ``self.value += amount`` drops updates under the
        # worker pool; totals must be exact, not approximate.
        assert reg.counter_value("hits") == workers * per
        assert hist.count == workers * per
        assert hist.sum == pytest.approx(2.0 * workers * per)
        assert hist.min == hist.max == 2.0

    def test_get_or_create_race_yields_one_instrument(self):
        import threading

        reg = MetricsRegistry()
        workers = 8
        barrier = threading.Barrier(workers)
        found = []
        lock = threading.Lock()

        def create():
            barrier.wait()
            c = reg.counter("shared", kind="x")
            c.inc()
            with lock:
                found.append(c)

        threads = [threading.Thread(target=create) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is found[0] for c in found)
        assert reg.counter_value("shared", kind="x") == workers
