"""Indexed wave engine vs the reference exact-exploration oracle.

Runs ``explore`` and its tuple-of-nodes oracle (``tests/oracles/``)
over two scaling families with genuinely exponential wave spaces —
dining philosophers (deadlocking) and barrier synchronization
(deadlock-free) — plus the bundled paper corpus, asserting bit-exact
parity everywhere: same ``visited_count``, ``can_terminate`` and
anomaly classifications in the same order.  On the dining family the
witness search's schedules also equal the oracle's.
The shape to reproduce: the packed-integer engine wins at every size,
by at least 3x at the largest size of each family (dedup over ints,
O(1) terminal checks, and precomputed successor deltas replace Wave
allocation + tuple hashing in the innermost loop of the search).

A second comparison runs the witness search — which expands one
persistent set of ready pairs per wave (see ``repro.waves.engine``) —
under bfs, astar and beam on the corridor family, against blind BFS
over the unreduced space (the witness oracle in ``tests/oracles/``).
At every size all three strategies must confirm the deadlock, the A*
witness must be exactly as long as the BFS one and the oracle's, the
reduced BFS must hold strictly fewer states than the oracle (and A* no
more than BFS), and the gap must flip a verdict: under the budget the
reduced BFS needs, the oracle comes back exploration-limited.
Headline numbers land in ``BENCH_explore.json``.

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
from repro.waves.engine import GOALS, WaveIndex
from repro.waves.explore import explore
from repro.waves.guide import guide_for
from repro.waves.witness import find_anomaly_witness, search_anomaly_witness
from repro.workloads.corpus import paper_corpus
from repro.workloads.patterns import barrier, corridor, dining_philosophers
from tests import oracles
from tests.oracles.witness import find_witness_reference

SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"
DINING_SIZES = (3, 4) if SMOKE else (3, 4, 5, 6)
BARRIER_SIZES = (4, 6) if SMOKE else (4, 6, 8, 10)
# Witness-search family: a deep deadlock corridor buried in (depth,
# chatter) lockstep interleavings — the unreduced state space grows like
# depth^chatter while the reduced search walks the corridor in linear
# states.
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
    # schedules from the reduced search and the oracle.
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

    # Witness search on the corridor family, against the unreduced
    # oracle: every strategy confirms, A* and BFS witnesses are as long
    # as the oracle's, the reduced BFS holds strictly fewer states than
    # the oracle (A* no more than BFS), and at every size the gap flips
    # a verdict — under the budget the reduced BFS needs, the oracle
    # comes back exploration-limited with nothing.
    deadlock = GOALS["deadlock"]
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
        oracle_data, oracle_states, oracle_limited = find_witness_reference(
            graph, deadlock, STATE_LIMIT
        )

        for outcome in (bfs_o, astar_o, beam_o):
            assert outcome.witness is not None, (depth, chatter)
            assert outcome.witness.is_deadlock
        assert oracle_data is not None and not oracle_limited
        witness_len = len(bfs_o.witness.schedule)
        # Shortest witnesses survive the reduction, and A*'s consistent
        # heuristic keeps its witness shortest too.
        assert len(astar_o.witness.schedule) == witness_len, (depth, chatter)
        assert witness_len == len(oracle_data[1]), (depth, chatter)
        assert bfs_o.states < oracle_states, (depth, chatter)
        assert astar_o.states <= bfs_o.states, (depth, chatter)

        # Verdict flip under a fixed budget: give the oracle exactly the
        # budget the reduced BFS needed.  The reduced BFS still confirms;
        # the oracle is exploration-limited with no witness.
        budget = bfs_o.states
        bfs_budgeted = run("bfs", limit=budget)
        budgeted_data, _, budgeted_limited = find_witness_reference(
            graph, deadlock, budget
        )
        budget_flip = (
            bfs_budgeted.witness is not None
            and budgeted_data is None
            and budgeted_limited
        )
        assert budget_flip, (depth, chatter)

        guided_rows.append(
            (
                f"corridor({depth}x{chatter})",
                witness_len,
                oracle_states,
                bfs_o.states,
                astar_o.states,
                beam_o.states,
                f"{oracle_states / bfs_o.states:.1f}x",
            )
        )
        guided_results.append(
            {
                "family": "corridor",
                "depth": depth,
                "chatter": chatter,
                "witness_len": witness_len,
                "astar_witness_len": len(astar_o.witness.schedule),
                "oracle_witness_len": len(oracle_data[1]),
                "oracle_states": oracle_states,
                "bfs_states": bfs_o.states,
                "astar_states": astar_o.states,
                "beam_states": beam_o.states,
                "beam_width": BEAM_WIDTH,
                "bfs_s": round(bfs_s, 6),
                "astar_s": round(astar_s, 6),
                "beam_s": round(beam_s, 6),
                "state_reduction": round(oracle_states / bfs_o.states, 2),
                "budget": budget,
                "budget_flip": budget_flip,
            }
        )

    print_table(
        "Witness search (persistent sets) vs the unreduced oracle BFS "
        "on corridor",
        ["case", "witness", "oracle", "bfs", "astar", "beam", "reduction"],
        guided_rows,
    )

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
