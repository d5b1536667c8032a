"""Batch farm throughput: parallelism and cache effectiveness.

Runs a ~200-program random corpus through ``repro.farm`` four ways —
serial vs parallel, cold vs warm cache — and reports programs/sec for
each.  The shape to reproduce: the warm-cache rerun does no analysis at
all (every item a hit, identical verdicts), and the parallel cold run
scales with worker count on multi-core hardware.  Headline numbers land
in ``BENCH_batch.json`` for diffing across PRs.
"""

from __future__ import annotations

import os
import time

from _util import bench_once, print_table, write_bench_json
from repro.farm import ResultCache, run_batch
from repro.lang.pretty import pretty
from repro.workloads import random_serializable_program

CORPUS_SIZE = 200
# One worker per core: capping below cpu_count() once recorded a
# "parallel" run with jobs=1 (and a bogus 0.73x "speedup") on a large
# machine whose cpu_count() probe failed.  The JSON records the actual
# job count and the probed core count so the numbers are interpretable.
CPU_COUNT = os.cpu_count() or 1
JOBS = CPU_COUNT


def _corpus():
    programs = []
    for seed in range(CORPUS_SIZE):
        program = random_serializable_program(
            tasks=4, rendezvous=10, messages=3, seed=seed
        )
        programs.append((program.name, pretty(program)))
    return programs


def _timed_run(pairs, jobs, cache):
    t0 = time.perf_counter()
    report = run_batch(pairs, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_batch_throughput(benchmark, tmp_path):
    pairs = _corpus()
    cache_dir = tmp_path / "cache"

    serial_cold, serial_cold_s = _timed_run(pairs, 1, None)

    def parallel_cold_scenario():
        return _timed_run(pairs, JOBS, ResultCache(cache_dir))

    parallel_cold, parallel_cold_s = bench_once(
        benchmark, parallel_cold_scenario
    )
    warm, warm_s = _timed_run(pairs, JOBS, ResultCache(cache_dir))
    serial_warm, serial_warm_s = _timed_run(pairs, 1, ResultCache(cache_dir))

    rows = [
        ("serial cold (jobs=1)", f"{serial_cold_s:.2f}",
         f"{CORPUS_SIZE / serial_cold_s:.0f}", serial_cold.cache_hits),
        (f"parallel cold (jobs={JOBS})", f"{parallel_cold_s:.2f}",
         f"{CORPUS_SIZE / parallel_cold_s:.0f}", parallel_cold.cache_hits),
        (f"parallel warm (jobs={JOBS})", f"{warm_s:.2f}",
         f"{CORPUS_SIZE / warm_s:.0f}", warm.cache_hits),
        ("serial warm (jobs=1)", f"{serial_warm_s:.2f}",
         f"{CORPUS_SIZE / serial_warm_s:.0f}", serial_warm.cache_hits),
    ]
    print_table(
        f"Batch throughput, {CORPUS_SIZE} random programs",
        ["configuration", "wall s", "programs/s", "cache hits"],
        rows,
    )

    # Shape assertions: every configuration agrees on every verdict...
    verdicts = [
        [item.result["deadlock"]["verdict"] for item in report.items]
        for report in (serial_cold, parallel_cold, warm, serial_warm)
    ]
    assert all(v == verdicts[0] for v in verdicts[1:])
    # ...and the warm rerun is pure cache.
    assert parallel_cold.cache_hits == 0
    assert warm.cache_hits == CORPUS_SIZE
    assert warm_s < parallel_cold_s + serial_cold_s

    # A 1-core machine cannot demonstrate parallel scaling: jobs=1 is
    # the serial fallback and the "speedup" would be pure run-to-run
    # noise that later PRs might diff as a regression (or, worse, quote
    # as a headline).  Refuse the number outright rather than record a
    # meaningless one; the cache-effect speedups stay, they are real on
    # any core count.
    if CPU_COUNT == 1:
        parallel_speedup = None
        speedup_note = (
            "refused: cpu_count == 1, the parallel run is the serial "
            "fallback and cannot demonstrate scaling"
        )
    else:
        parallel_speedup = round(serial_cold_s / parallel_cold_s, 3)
        speedup_note = None

    write_bench_json(
        "BENCH_batch.json",
        {
            "corpus_size": CORPUS_SIZE,
            "jobs": JOBS,
            "cpu_count": CPU_COUNT,
            "serial_cold_s": round(serial_cold_s, 4),
            "parallel_cold_s": round(parallel_cold_s, 4),
            "parallel_warm_s": round(warm_s, 4),
            "serial_warm_s": round(serial_warm_s, 4),
            "serial_programs_per_s": round(CORPUS_SIZE / serial_cold_s, 2),
            "parallel_programs_per_s": round(
                CORPUS_SIZE / parallel_cold_s, 2
            ),
            "warm_programs_per_s": round(CORPUS_SIZE / warm_s, 2),
            "parallel_speedup": parallel_speedup,
            "parallel_speedup_note": speedup_note,
            "warm_speedup": round(serial_cold_s / warm_s, 3),
            "warm_cache_hits": warm.cache_hits,
        },
    )
