"""Daemon residency: repeat requests against one long-lived session.

The daemon's entire reason to exist is that the one-shot CLI re-pays
parse → inline → sync-graph → index construction on every invocation.
This benchmark quantifies that: a corpus of programs is analyzed

* **cold** — a fresh :class:`repro.server.Session` per request, the
  one-shot cost the CLI pays every time;
* **warm** — the same requests repeated against one resident session,
  where the content-addressed LRU answers from memory;
* **edited** — a comment-only ``didChange`` between repeats, proving
  partial invalidation keeps the warm path warm.

The headline number is the warm speedup, asserted ≥ 5x (in practice it
is orders of magnitude — a dict probe vs the whole pipeline); the
session's ``server.cache_hits`` counter must equal the number of warm
requests, proving the speedup is residency and not noise.  Headline
numbers land in ``BENCH_server.json``.

A second scenario drives the **concurrent daemon**: four HTTP clients
analyzing independent cold documents against four worker threads
versus the same workload through a single worker.  Every request runs
in the daemon's own process, so the GIL runs one analysis at a time:
worker threads bound how long a short request waits behind a long one,
they are not a CPU-throughput feature.  The scenario asserts that every
request was served and computed exactly once; the 4-vs-1 throughput
ratio is recorded in ``BENCH_server.json`` with the host's
``cpu_count`` and not asserted.  The same scenario drills
cancellation: a stale queued ``analyze`` is cancelled (answer code
1004, no work run) without blocking its replacement.

Setting ``REPRO_PERF_SMOKE=1`` (the CI server-smoke job) shrinks the
corpus so the benchmark doubles as a fast regression gate.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request
from pathlib import Path

from _util import bench_once, print_table, write_bench_json
from repro import obs
from repro.lang.pretty import pretty
from repro.server import AnalysisServer, Session
from repro.server.httpd import make_http_server
from repro.server.protocol import REQUEST_CANCELLED
from repro.workloads import random_serializable_program

SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"
CORPUS_SIZE = 20 if SMOKE else 80
WARM_ROUNDS = 3
MIN_WARM_SPEEDUP = 5.0

CLIENTS = 4
REQS_PER_CLIENT = 2 if SMOKE else 6
BULK_ITEMS = 64


def _corpus():
    programs = []
    for seed in range(CORPUS_SIZE):
        program = random_serializable_program(
            tasks=4, rendezvous=10, messages=3, seed=seed
        )
        programs.append((f"mem:{program.name}-{seed}", pretty(program)))
    return programs


def _cold_pass(pairs):
    """One-shot cost: a brand-new session for every request."""
    verdicts = []
    t0 = time.perf_counter()
    for uri, text in pairs:
        session = Session(store=None)
        payload, _ = session.analyze_document(uri=uri, text=text)
        verdicts.append(payload["deadlock"]["verdict"])
    return verdicts, time.perf_counter() - t0


def _warm_passes(session, pairs, rounds):
    verdicts = []
    t0 = time.perf_counter()
    for _ in range(rounds):
        for uri, _text in pairs:
            payload, cache = session.analyze_document(uri=uri)
            verdicts.append((payload["deadlock"]["verdict"], cache))
    return verdicts, time.perf_counter() - t0


def test_server_residency(benchmark):
    pairs = _corpus()

    cold_verdicts, cold_s = _cold_pass(pairs)

    with obs.observed() as obs_session:
        resident = Session(store=None)
        # Populate the resident session (documents + LRU), untimed.
        for uri, text in pairs:
            resident.analyze_document(uri=uri, text=text)

        def warm_scenario():
            return _warm_passes(resident, pairs, WARM_ROUNDS)

        (warm_verdicts, warm_s) = bench_once(benchmark, warm_scenario)

        # Comment-only edits between rounds must keep the cache warm:
        # partial invalidation + content-addressed keys.
        for uri, text in pairs:
            resident.change_document(uri, "-- touched\n" + text)
        edited_verdicts, edited_s = _warm_passes(resident, pairs, 1)

    warm_requests = CORPUS_SIZE * WARM_ROUNDS
    cold_per_req = cold_s / CORPUS_SIZE
    warm_per_req = warm_s / warm_requests
    speedup = cold_per_req / warm_per_req

    rows = [
        ("cold (fresh session each)", f"{cold_s:.3f}",
         f"{1e3 * cold_per_req:.2f}"),
        (f"warm (resident, {WARM_ROUNDS} rounds)", f"{warm_s:.3f}",
         f"{1e3 * warm_per_req:.2f}"),
        ("after comment-only edits", f"{edited_s:.3f}",
         f"{1e3 * edited_s / CORPUS_SIZE:.2f}"),
    ]
    print_table(
        f"Server residency, {CORPUS_SIZE} programs",
        ["configuration", "wall s", "ms/request"],
        rows,
    )

    # Verdict parity: residency must never change an answer.
    assert [v for v, _ in warm_verdicts] == cold_verdicts * WARM_ROUNDS
    assert [v for v, _ in edited_verdicts] == cold_verdicts
    # Every warm request answered from resident state...
    assert all(cache == "memory" for _, cache in warm_verdicts)
    # ...including after the formatting-only edits...
    assert all(cache == "memory" for _, cache in edited_verdicts)
    # ...and the counters agree (requests + the mirrored obs counter).
    hits = resident.counters["cache_hits"]
    assert hits == warm_requests + CORPUS_SIZE
    assert (
        obs_session.registry.counter_value("server.cache_hits") == hits
    )
    assert (
        resident.counters["invalidations_partial"] == CORPUS_SIZE
    )
    # The acceptance bar: ≥ 5x. In practice this is vastly exceeded —
    # a warm request is an LRU probe, not a pipeline run.
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm speedup {speedup:.1f}x below {MIN_WARM_SPEEDUP}x"
    )

    write_bench_json(
        "BENCH_server.json",
        {
            "corpus_size": CORPUS_SIZE,
            "warm_rounds": WARM_ROUNDS,
            "smoke": SMOKE,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "edited_s": round(edited_s, 4),
            "cold_ms_per_request": round(1e3 * cold_per_req, 4),
            "warm_ms_per_request": round(1e3 * warm_per_req, 4),
            "warm_speedup": round(speedup, 1),
            "cache_hits": hits,
            "partial_invalidations": resident.counters[
                "invalidations_partial"
            ],
        },
    )


# ---------------------------------------------------------------------------
# concurrency: N HTTP clients against the worker pool


def _post(port, body, headers=None, timeout=600):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/rpc",
        data=json.dumps(body).encode("utf-8"),
        headers=dict(headers or {}),
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _get(port, path, timeout=60):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _serving(workers):
    server = AnalysisServer(workers=workers)
    server.start()
    httpd = make_http_server(server, port=0)
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    return server, httpd


def _stop(server, httpd):
    httpd.shutdown()
    server.drain()
    httpd.server_close()


def _concurrency_corpus():
    """Per-client lists of distinct cold programs (nothing shareable:
    every request pays the full pipeline)."""
    per_client = []
    for c in range(CLIENTS):
        pairs = []
        for i in range(REQS_PER_CLIENT):
            seed = 1000 + c * 100 + i
            program = random_serializable_program(
                tasks=5, rendezvous=14, messages=3, seed=seed
            )
            pairs.append((f"mem:conc-{c}-{i}", pretty(program)))
        per_client.append(pairs)
    return per_client


def _aggregate_wall(workers, per_client):
    """Wall-clock for all clients' requests, driven concurrently."""
    server, httpd = _serving(workers)
    port = httpd.server_address[1]
    errors = []

    def drive(c, pairs):
        try:
            for i, (uri, text) in enumerate(pairs):
                reply = _post(
                    port,
                    {
                        "id": f"{c}-{i}",
                        "method": "analyze",
                        "params": {"uri": uri, "text": text},
                    },
                    headers={"X-Repro-Client": f"client-{c}"},
                )
                assert reply["result"]["report"]["deadlock"]["verdict"]
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(c, pairs), daemon=True)
        for c, pairs in enumerate(per_client)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    try:
        assert not errors, errors
        return wall, dict(server.session.counters)
    finally:
        _stop(server, httpd)


def _cancellation_drill():
    """Stale queued analyze → 1004, replacement unblocked (workers=1 so
    the queue is observable)."""
    server, httpd = _serving(1)
    port = httpd.server_address[1]
    boxes = {}

    def post_bg(name, body, headers=None):
        def run():
            boxes[name] = _post(port, body, headers=headers)

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return t

    try:
        # Occupy the lone worker with a bulk sweep that outlasts the
        # cancel round trips behind it (30-60 ms on a 2-vCPU host)
        # several times over, so its size does not shrink in smoke mode.
        programs = [text for _, text in _concurrency_corpus()[0]]
        bulk_items = [
            {"label": f"bulk-{i}", "text": programs[i % len(programs)]}
            for i in range(BULK_ITEMS)
        ]
        bulk = post_bg(
            "bulk",
            {"id": "bulk", "method": "batch", "params": {"items": bulk_items}},
        )
        deadline = time.time() + 60
        while time.time() < deadline:
            if _get(port, "/status")["server"]["busy"] >= 1:
                break
            time.sleep(0.005)
        # A stale interactive request parks in the queue...
        program = random_serializable_program(
            tasks=5, rendezvous=14, messages=3, seed=4242
        )
        stale = post_bg(
            "stale",
            {
                "id": "stale",
                "method": "analyze",
                "params": {"uri": "mem:stale", "text": pretty(program)},
            },
            headers={"X-Repro-Client": "editor"},
        )
        while time.time() < deadline:
            if _get(port, "/status")["server"]["queue"]["pending"] >= 1:
                break
            time.sleep(0.005)
        # ...is cancelled from the transport thread (never queued)...
        t0 = time.perf_counter()
        cancel_reply = _post(
            port,
            {"id": "c1", "method": "cancel", "params": {"id": "stale"}},
            headers={"X-Repro-Client": "editor"},
        )
        cancel_s = time.perf_counter() - t0
        # ...and its replacement (think: cancel-then-didChange) still
        # completes normally behind the bulk job.
        fresh_program = random_serializable_program(
            tasks=5, rendezvous=14, messages=3, seed=4243
        )
        fresh = _post(
            port,
            {
                "id": "fresh",
                "method": "analyze",
                "params": {"uri": "mem:stale", "text": pretty(fresh_program)},
            },
            headers={"X-Repro-Client": "editor"},
        )
        stale.join(timeout=60)
        bulk.join(timeout=600)
        assert cancel_reply["result"]["cancelled"] is True
        assert cancel_reply["result"]["state"] == "queued"
        assert boxes["stale"]["error"]["code"] == REQUEST_CANCELLED
        assert fresh["result"]["cache"] == "computed"
        assert boxes["bulk"]["result"]["report"]["items"] == len(bulk_items)
        return {
            "cancel_round_trip_ms": round(1e3 * cancel_s, 3),
            "stale_code": boxes["stale"]["error"]["code"],
            "replacement_cache": fresh["result"]["cache"],
        }
    finally:
        _stop(server, httpd)


def test_server_concurrency(benchmark):
    per_client = _concurrency_corpus()
    total = CLIENTS * REQS_PER_CLIENT

    single_s, single_counters = _aggregate_wall(1, per_client)

    def threaded_scenario():
        return _aggregate_wall(CLIENTS, per_client)

    threaded_s, threaded_counters = bench_once(benchmark, threaded_scenario)

    speedup = single_s / threaded_s
    cpu_count = os.cpu_count() or 1
    cancel = _cancellation_drill()

    rows = [
        ("single worker", f"{single_s:.3f}", f"{total / single_s:.1f}"),
        (f"{CLIENTS} worker threads", f"{threaded_s:.3f}",
         f"{total / threaded_s:.1f}"),
        ("aggregate speedup", f"{speedup:.2f}x", "-"),
        ("cancel round trip", f"{cancel['cancel_round_trip_ms']:.1f}ms", "-"),
    ]
    print_table(
        f"Concurrent daemon, {CLIENTS} HTTP clients x "
        f"{REQS_PER_CLIENT} cold analyzes (cpu_count={cpu_count})",
        ["configuration", "wall s", "req/s"],
        rows,
    )

    # Correctness under concurrency: every request was served and
    # counted exactly, no approximate counters.
    assert single_counters["requests"] == total
    assert threaded_counters["requests"] == total
    assert threaded_counters["computed"] == total

    bench_path = Path(__file__).resolve().parent.parent / "BENCH_server.json"
    payload = (
        json.loads(bench_path.read_text()) if bench_path.exists() else {}
    )
    payload["concurrency"] = {
        "clients": CLIENTS,
        "requests_per_client": REQS_PER_CLIENT,
        "smoke": SMOKE,
        "cpu_count": cpu_count,
        "single_worker_s": round(single_s, 4),
        "threaded_s": round(threaded_s, 4),
        "aggregate_speedup": round(speedup, 2),
        "cancellation": cancel,
    }
    write_bench_json("BENCH_server.json", payload)
