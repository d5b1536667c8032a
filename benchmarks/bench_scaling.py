"""E8 — §4.2 complexity: polynomial algorithms vs exponential baselines.

Grows a deadlock-free workload family and measures: naive CLG analysis,
the refined algorithm, exhaustive wave exploration, and the Taylor
concurrency-state-graph baseline.  The shape to reproduce: both static
algorithms scale polynomially in CLG size, while the two exact methods'
state counts grow exponentially with the number of tasks (waves) and
faster still for the CSG — the paper's entire motivation.
"""

from __future__ import annotations

import time

import pytest

from _util import bench_once, print_table
from repro.analysis.naive import naive_deadlock_analysis
from repro.analysis.refined import refined_deadlock_analysis
from repro.baselines.taylor_csg import taylor_csg_analysis
from repro.errors import ExplorationLimitError
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import build_clg
from repro.waves.explore import explore
from repro.workloads.patterns import handshake_chain, pipeline


@pytest.mark.parametrize("stages", [4, 8, 16])
def test_naive_scaling(stages, benchmark):
    graph = build_sync_graph(pipeline(stages, 2))
    report = benchmark(naive_deadlock_analysis, graph)
    assert report.verdict  # runs to completion


@pytest.mark.parametrize("stages", [4, 8, 16])
def test_refined_scaling(stages, benchmark):
    graph = build_sync_graph(pipeline(stages, 2))
    report = benchmark(refined_deadlock_analysis, graph)
    assert report.deadlock_free


@pytest.mark.parametrize("stages", [4, 6, 8])
def test_exact_scaling(stages, benchmark):
    graph = build_sync_graph(pipeline(stages, 2))
    result = benchmark(explore, graph)
    assert not result.has_deadlock


def test_state_explosion_table(benchmark):
    def scenario():
        rows = []
        for n in (2, 3, 4, 5, 6):
            program = handshake_chain(n, rounds=2)
            graph = build_sync_graph(program)
            clg = build_clg(graph)
            t0 = time.perf_counter()
            refined_deadlock_analysis(graph)
            refined_ms = (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            waves = explore(graph).visited_count
            waves_ms = (time.perf_counter() - t0) * 1e3

            try:
                t0 = time.perf_counter()
                csg = taylor_csg_analysis(program, state_limit=400_000)
                csg_states: object = csg.state_count
                csg_ms: object = round((time.perf_counter() - t0) * 1e3, 1)
            except ExplorationLimitError:
                csg_states, csg_ms = ">400k", "-"
            rows.append(
                (
                    n,
                    clg.node_count,
                    round(refined_ms, 1),
                    waves,
                    round(waves_ms, 1),
                    csg_states,
                    csg_ms,
                )
            )
        print_table(
            "E8: handshake chain, 2 rounds — polynomial vs exponential",
            [
                "tasks",
                "CLG nodes",
                "refined ms",
                "waves",
                "waves ms",
                "CSG states",
                "CSG ms",
            ],
            rows,
        )
        # Shape assertions: wave count and CSG grow strictly; CLG is linear.
        wave_counts = [r[3] for r in rows]
        assert all(b > a for a, b in zip(wave_counts, wave_counts[1:]))
        clg_sizes = [r[1] for r in rows]
        growth = [b - a for a, b in zip(clg_sizes, clg_sizes[1:])]
        assert max(growth) == min(growth)  # exactly linear in tasks

    bench_once(benchmark, scenario)
def test_refined_polynomial_fit(benchmark):
    def scenario():
        """Empirical check of the O(|N_CLG| * (|N_CLG| + |E_CLG|)) bound."""
        points = []
        for stages in (4, 8, 16, 32):
            graph = build_sync_graph(pipeline(stages, 2))
            clg = build_clg(graph)
            bound = clg.node_count * (clg.node_count + clg.edge_count)
            t0 = time.perf_counter()
            refined_deadlock_analysis(graph)
            elapsed = time.perf_counter() - t0
            points.append((bound, elapsed))
        print_table(
            "E8: refined runtime vs theoretical bound",
            ["N*(N+E)", "seconds"],
            [(b, f"{t:.4f}") for b, t in points],
        )
        # time per unit of bound must not grow: polynomial behaviour means
        # the normalized cost stays within a constant factor
        unit_costs = [t / b for b, t in points]
        assert max(unit_costs) < 50 * min(unit_costs)

    bench_once(benchmark, scenario)

def composed_grid(cells: int) -> "Program":
    """``cells`` independent protocol instances bridged into a chain."""
    from repro.lang.compose import add_handshake, parallel_compose, prefix_program
    from repro.workloads.patterns import handshake_chain

    parts = [
        prefix_program(handshake_chain(3, 1), f"cell{i}")
        for i in range(cells)
    ]
    program = parallel_compose(f"grid_{cells}", *parts)
    for i in range(cells - 1):
        program = add_handshake(
            program, f"cell{i}_t2", f"cell{i + 1}_t0", f"baton{i}"
        )
    return program


@pytest.mark.parametrize("cells", [2, 4, 8])
def test_composed_grid_scaling(cells, benchmark):
    graph = build_sync_graph(composed_grid(cells))
    report = benchmark(refined_deadlock_analysis, graph)
    assert report.deadlock_free


def test_composed_grid_table(benchmark):
    import time

    from _util import bench_once

    def scenario():
        rows = []
        for cells in (2, 4, 8, 12):
            graph = build_sync_graph(composed_grid(cells))
            clg = build_clg(graph)
            t0 = time.perf_counter()
            report = refined_deadlock_analysis(graph)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            assert report.deadlock_free
            rows.append(
                (cells, len(graph.rendezvous_nodes), clg.node_count,
                 f"{elapsed_ms:.1f}")
            )
        print_table(
            "E8b: composed protocol grid, certified end-to-end",
            ["cells", "rendezvous nodes", "CLG nodes", "refined ms"],
            rows,
        )
        # linear structure growth
        nodes = [r[1] for r in rows]
        diffs = [b - a for a, b in zip(nodes, nodes[1:])]
        per_cell = [d / (c2 - c1) for d, (c1, c2) in zip(
            diffs, [(2, 4), (4, 8), (8, 12)]
        )]
        assert max(per_cell) - min(per_cell) <= 2

    bench_once(benchmark, scenario)
