"""Indexed wave engine vs the reference exact-exploration oracle.

Runs ``explore`` and its tuple-of-nodes oracle (``tests/oracles/``)
over two scaling families with genuinely exponential wave spaces —
dining philosophers (deadlocking) and barrier synchronization
(deadlock-free) — plus the bundled paper corpus, asserting bit-exact
parity everywhere: same ``visited_count``, ``can_terminate``, anomaly
classifications in the same order, and identical witness schedules.
The shape to reproduce: the packed-integer engine wins at every size,
by at least 3x at the largest size of each family (dedup over ints,
O(1) terminal checks, and precomputed successor deltas replace Wave
allocation + tuple hashing in the innermost loop of the search).

A second comparison pits guided witness search (``strategy="astar"`` /
``"beam"``, driven by the admissible future-cost table of
``repro.waves.guide``) against blind BFS on the corridor family:
guided search must return the same shortest witness while expanding
strictly fewer states at every size, and at some size the gap must
flip a verdict — under the budget A* needs, BFS comes back
exploration-limited.  Headline numbers land in ``BENCH_explore.json``.

Setting ``REPRO_PERF_SMOKE=1`` (the CI perf-smoke job) shrinks the
families so the whole run stays under a minute on shared runners; the
3x floor is only asserted at full size, but "indexed never slower"
holds in both modes.
"""

from __future__ import annotations

import os
import time

from _util import print_table, write_bench_json
from repro.syncgraph.build import build_sync_graph
from repro.transforms.unroll import remove_loops
from repro.waves.engine import WaveIndex
from repro.waves.explore import explore
from repro.waves.guide import guide_for
from repro.waves.witness import find_anomaly_witness, search_anomaly_witness
from repro.workloads.corpus import paper_corpus
from repro.workloads.patterns import barrier, corridor, dining_philosophers
from tests import oracles

SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"
DINING_SIZES = (3, 4) if SMOKE else (3, 4, 5, 6)
BARRIER_SIZES = (4, 6) if SMOKE else (4, 6, 8, 10)
# Guided-vs-BFS witness-search family: a deep deadlock corridor buried
# in (depth, chatter) lockstep interleavings — the state space grows
# like depth^chatter while the A* corridor walk stays linear.
CORRIDOR_SIZES = ((4, 2), (5, 3)) if SMOKE else ((4, 2), (6, 4), (8, 5))
BEAM_WIDTH = 64
STATE_LIMIT = 1_000_000
ROUNDS = 3  # timing repetitions; best-of to shed scheduler noise
SPEEDUP_FLOOR = 3.0  # acceptance: indexed >= 3x at the largest size


def _graph(program):
    transformed, _ = remove_loops(program)
    return build_sync_graph(transformed)


def _families():
    for n in DINING_SIZES:
        yield ("dining", n, _graph(dining_philosophers(n, True)))
    for n in BARRIER_SIZES:
        yield ("barrier", n, _graph(barrier(n)))


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _fingerprint(result):
    return (
        result.visited_count,
        result.can_terminate,
        result.limited,
        [(c.wave, c.stalls, c.deadlocks) for c in result.anomalous],
    )


def test_explore_engine_speedup(benchmark):
    rows = []
    results = []
    for family, size, graph in _families():

        def run_index():
            # Engine construction is charged to the index side: the
            # comparison is end-to-end per exploration.
            return explore(graph, STATE_LIMIT)

        def run_reference():
            return oracles.explore(graph, STATE_LIMIT)

        index_s, index_result = _best_of(run_index)
        ref_s, ref_result = _best_of(run_reference)

        assert _fingerprint(index_result) == _fingerprint(ref_result)
        assert index_result.exhaustive
        assert index_result.has_deadlock == (family == "dining")

        speedup = ref_s / index_s
        rows.append(
            (
                f"{family}({size})",
                index_result.visited_count,
                f"{index_s * 1e3:.2f}",
                f"{ref_s * 1e3:.2f}",
                f"{speedup:.2f}x",
            )
        )
        results.append(
            {
                "family": family,
                "size": size,
                "feasible_waves": index_result.visited_count,
                "index_s": round(index_s, 6),
                "reference_s": round(ref_s, 6),
                "speedup": round(speedup, 3),
            }
        )

    print_table(
        "Exact exploration: indexed wave engine vs reference oracle",
        ["case", "waves", "index ms", "reference ms", "speedup"],
        rows,
    )

    # The indexed engine must never lose; at the largest size of each
    # family it must clear the acceptance floor.
    for entry in results:
        assert entry["speedup"] >= 1.0, entry
    if not SMOKE:
        for family, sizes in (
            ("dining", DINING_SIZES),
            ("barrier", BARRIER_SIZES),
        ):
            largest = next(
                e
                for e in results
                if e["family"] == family and e["size"] == max(sizes)
            )
            assert largest["speedup"] >= SPEEDUP_FLOOR, largest

    # Witness parity on the deadlocking family: identical shortest
    # schedules from both kernels.
    for n in DINING_SIZES:
        graph = _graph(dining_philosophers(n, True))
        index_w = find_anomaly_witness(
            graph, kind="deadlock", state_limit=STATE_LIMIT
        )
        ref_w = oracles.find_anomaly_witness(
            graph, kind="deadlock", state_limit=STATE_LIMIT
        )
        assert index_w is not None and ref_w is not None
        assert index_w.schedule == ref_w.schedule
        assert index_w.waves == ref_w.waves

    # Corpus sweep: bit-exact exploration on every bundled paper
    # program.
    corpus_cases = 0
    for entry in paper_corpus().values():
        graph = _graph(entry.program)
        index_result = explore(graph, STATE_LIMIT)
        ref_result = oracles.explore(graph, STATE_LIMIT)
        assert _fingerprint(index_result) == _fingerprint(ref_result), (
            entry.name
        )
        corpus_cases += 1

    # Guided witness search vs blind BFS on the corridor family: the
    # future-cost table walks straight down the deadlock corridor, so
    # A* must find the same-length shortest witness while expanding
    # strictly fewer states at every size — and at some size the gap
    # must flip a verdict: under the budget A* needs, BFS comes back
    # exploration-limited with nothing.
    guided_rows = []
    guided_results = []
    for depth, chatter in CORRIDOR_SIZES:
        graph = _graph(corridor(depth, chatter))
        engine = WaveIndex(graph)
        guide_for(engine)  # charge the table build once, like a
        # long-lived caller (server session / repair verifier) would

        def run(strategy, width=None, limit=STATE_LIMIT):
            return search_anomaly_witness(
                graph, kind="deadlock", state_limit=limit, engine=engine,
                strategy=strategy, beam_width=width,
            )

        bfs_s, bfs_o = _best_of(lambda: run("bfs"))
        astar_s, astar_o = _best_of(lambda: run("astar"))
        beam_s, beam_o = _best_of(lambda: run("beam", BEAM_WIDTH))

        for outcome in (bfs_o, astar_o, beam_o):
            assert outcome.witness is not None, (depth, chatter)
            assert outcome.witness.is_deadlock
        # Consistent heuristic: the A* witness is shortest, like BFS.
        assert len(astar_o.witness.schedule) == len(bfs_o.witness.schedule)
        # The perf claim proper: A* expands strictly fewer states at
        # every size; beam never more (at small sizes an un-truncated
        # beam degenerates to the full space, tying BFS).
        assert astar_o.states < bfs_o.states, (depth, chatter)
        assert beam_o.states <= bfs_o.states, (depth, chatter)

        # Verdict flip under a fixed budget: give BFS exactly the
        # budget A* needed.  A* still confirms (witness in hand before
        # exhaustion); BFS is exploration-limited with no witness.
        budget = astar_o.states
        astar_budgeted = run("astar", limit=budget)
        bfs_budgeted = run("bfs", limit=budget)
        budget_flip = (
            astar_budgeted.witness is not None
            and bfs_budgeted.witness is None
            and bfs_budgeted.limited
        )

        guided_rows.append(
            (
                f"corridor({depth}x{chatter})",
                len(bfs_o.witness.schedule),
                bfs_o.states,
                astar_o.states,
                beam_o.states,
                f"{bfs_o.states / astar_o.states:.1f}x",
                "yes" if budget_flip else "no",
            )
        )
        guided_results.append(
            {
                "family": "corridor",
                "depth": depth,
                "chatter": chatter,
                "witness_len": len(bfs_o.witness.schedule),
                "bfs_states": bfs_o.states,
                "astar_states": astar_o.states,
                "beam_states": beam_o.states,
                "beam_width": BEAM_WIDTH,
                "bfs_s": round(bfs_s, 6),
                "astar_s": round(astar_s, 6),
                "beam_s": round(beam_s, 6),
                "state_reduction": round(bfs_o.states / astar_o.states, 2),
                "budget": budget,
                "budget_flip": budget_flip,
            }
        )

    print_table(
        "Witness search: guided (A*/beam) vs blind BFS on corridor",
        ["case", "witness", "bfs", "astar", "beam", "reduction", "flip"],
        guided_rows,
    )
    # Acceptance: some size flips CONFIRMED-vs-limited under one budget.
    assert any(e["budget_flip"] for e in guided_results), guided_results

    def timed_scenario():
        # One representative case under pytest-benchmark so the run
        # shows up in --benchmark-only output (engine prebuilt once,
        # as a long-lived caller would hold it).
        graph = _graph(dining_philosophers(DINING_SIZES[-1], True))
        engine = WaveIndex(graph)
        return explore(graph, STATE_LIMIT, engine=engine)

    benchmark.pedantic(timed_scenario, rounds=1, iterations=1)

    write_bench_json(
        "BENCH_explore.json",
        {
            "smoke": SMOKE,
            "rounds_best_of": ROUNDS,
            "speedup_floor": SPEEDUP_FLOOR,
            "state_limit": STATE_LIMIT,
            "corpus_cases_checked": corpus_cases,
            "cases": results,
            "beam_width": BEAM_WIDTH,
            "guided_cases": guided_results,
        },
    )
