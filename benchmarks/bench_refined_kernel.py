"""Indexed bitset kernel vs the reference set-based refined algorithm.

Runs ``refined_deadlock_analysis`` and its set-based oracle
(``tests/oracles/refined.py``) over the two deadlock-free scaling
families of ``bench_scaling.py`` — pipelines and handshake chains —
plus the bundled paper corpus, asserting identical verdicts and
evidence everywhere.  The shape to reproduce: the indexed kernel wins
at every size, by at least 3x at the largest size of each family (the
per-head forward–backward bitset kernel removes the per-edge Python
closures and the full SCC enumeration the reference pays for per
hypothesis).
Headline numbers land in ``BENCH_refined.json``.

Setting ``REPRO_PERF_SMOKE=1`` (the CI perf-smoke job) shrinks the
families so the whole run stays under a minute on shared runners; the
3x floor is only asserted at full size, but "indexed never slower"
holds in both modes.
"""

from __future__ import annotations

import os
import time

from _util import print_table, write_bench_json
from repro.analysis.coexec import compute_coexec
from repro.analysis.index import AnalysisIndex
from repro.analysis.orderings import compute_orderings
from repro.analysis.refined import refined_deadlock_analysis
from repro.syncgraph.build import build_sync_graph
from repro.transforms.unroll import remove_loops
from repro.workloads.corpus import paper_corpus
from repro.workloads.patterns import handshake_chain, pipeline
from tests import oracles
from tests.oracles.clg import build_clg

SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"
PIPELINE_STAGES = (4, 8) if SMOKE else (4, 8, 16, 32)
HANDSHAKE_TASKS = (2, 3, 4) if SMOKE else (2, 3, 4, 5, 6)
ROUNDS = 3  # timing repetitions; best-of to shed scheduler noise
SPEEDUP_FLOOR = 3.0  # acceptance: indexed >= 3x at the largest size


def _families():
    for stages in PIPELINE_STAGES:
        yield ("pipeline", stages, build_sync_graph(pipeline(stages, 2)))
    for tasks in HANDSHAKE_TASKS:
        yield (
            "handshake",
            tasks,
            build_sync_graph(handshake_chain(tasks, rounds=2)),
        )


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_refined_kernel_speedup(benchmark):
    rows = []
    results = []
    for family, size, graph in _families():
        # Shared precompute: both sides receive the same orderings and
        # coexec, and the oracle the CLG, so the timings isolate the
        # marking + SCC kernels (the index builds its CLG rows from the
        # sync graph inside the timed call, so that time is charged to
        # the index side).
        clg = build_clg(graph)
        orderings = compute_orderings(graph)
        coexec = compute_coexec(graph)

        def run_index():
            index = AnalysisIndex(graph, orderings=orderings, coexec=coexec)
            return refined_deadlock_analysis(graph, index=index)

        def run_reference():
            return oracles.refined_deadlock_analysis(
                graph, clg=clg, orderings=orderings, coexec=coexec
            )

        index_s, index_report = _best_of(run_index)
        ref_s, ref_report = _best_of(run_reference)

        assert index_report.verdict == ref_report.verdict
        assert index_report.evidence == ref_report.evidence
        assert index_report.stats == ref_report.stats
        assert index_report.deadlock_free  # both families are free

        speedup = ref_s / index_s
        rows.append(
            (
                f"{family}({size})",
                clg.node_count,
                f"{index_s * 1e3:.2f}",
                f"{ref_s * 1e3:.2f}",
                f"{speedup:.2f}x",
            )
        )
        results.append(
            {
                "family": family,
                "size": size,
                "clg_nodes": clg.node_count,
                "clg_edges": clg.edge_count,
                "index_s": round(index_s, 6),
                "reference_s": round(ref_s, 6),
                "speedup": round(speedup, 3),
            }
        )

    print_table(
        "Refined kernel: indexed bitset kernel vs reference sets",
        ["case", "CLG nodes", "index ms", "reference ms", "speedup"],
        rows,
    )

    # The indexed kernel must never lose; at the largest size of each
    # family it must clear the acceptance floor.
    for entry in results:
        assert entry["speedup"] >= 1.0, entry
    if not SMOKE:
        for family, sizes in (
            ("pipeline", PIPELINE_STAGES),
            ("handshake", HANDSHAKE_TASKS),
        ):
            largest = next(
                e
                for e in results
                if e["family"] == family and e["size"] == max(sizes)
            )
            assert largest["speedup"] >= SPEEDUP_FLOOR, largest

    # Corpus sweep: identical reports on every bundled paper program.
    corpus_cases = 0
    for entry in paper_corpus().values():
        transformed, _ = remove_loops(entry.program)
        graph = build_sync_graph(transformed)
        index_report = refined_deadlock_analysis(graph)
        ref_report = oracles.refined_deadlock_analysis(graph)
        assert index_report.verdict == ref_report.verdict, entry.name
        assert index_report.evidence == ref_report.evidence, entry.name
        corpus_cases += 1

    def timed_scenario():
        # One representative case under pytest-benchmark so the run
        # shows up in --benchmark-only output.
        graph = build_sync_graph(pipeline(PIPELINE_STAGES[-1], 2))
        return refined_deadlock_analysis(graph)

    benchmark.pedantic(timed_scenario, rounds=1, iterations=1)

    write_bench_json(
        "BENCH_refined.json",
        {
            "smoke": SMOKE,
            "rounds_best_of": ROUNDS,
            "speedup_floor": SPEEDUP_FLOOR,
            "corpus_cases_checked": corpus_cases,
            "cases": results,
        },
    )
