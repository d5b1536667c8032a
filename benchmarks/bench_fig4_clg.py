"""E3 — Figure 4(a,b): the CLG suppresses sync-edge-only cycles.

The raw sync graph of the Figure-4(a) program has a cycle running
entirely through sync edges (two senders × two accepts of one signal);
the node-splitting CLG transform removes it, so the naive algorithm
certifies the program.  Also measures CLG construction cost as the
pattern scales.
"""

from __future__ import annotations

import networkx as nx
import pytest

from _util import bench_once, print_table
from repro.analysis.naive import naive_deadlock_analysis
from repro.lang.ast_nodes import Accept, Program, Send, TaskDecl
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import build_clg, clg_out_edges, cyclic_components
from repro.workloads.corpus import paper_corpus


def fanin_program(senders: int) -> Program:
    """``senders`` sender tasks, one accepter with ``senders`` accepts."""
    tasks = [
        TaskDecl(name=f"s{i}", body=(Send(task="acc", message="m"),))
        for i in range(senders)
    ]
    tasks.append(
        TaskDecl(
            name="acc",
            body=tuple(Accept(message="m") for _ in range(senders)),
        )
    )
    return Program(name=f"fanin{senders}", tasks=tuple(tasks))


def sync_graph_has_undirected_sync_cycle(graph) -> bool:
    """Cycle detection on the raw sync graph, sync edges traversable."""
    g = nx.Graph()
    g.add_nodes_from(graph.rendezvous_nodes)
    g.add_edges_from(graph.sync_edges())
    try:
        nx.find_cycle(g)
        return True
    except nx.NetworkXNoCycle:
        return False


def clg_has_cycle(graph) -> bool:
    return bool(cyclic_components(clg_out_edges(graph)))


def test_fig4a_sync_cycle_exists_but_clg_acyclic(benchmark):
    graph = build_sync_graph(paper_corpus()["fig4a"].program)
    assert sync_graph_has_undirected_sync_cycle(graph)
    clg = benchmark(build_clg, graph)
    assert clg.node_count == 2 + 2 * len(graph.rendezvous_nodes)
    assert not clg_has_cycle(graph)
    report = naive_deadlock_analysis(graph)
    assert report.deadlock_free


@pytest.mark.parametrize("senders", [2, 4, 8])
def test_fanin_scaling(senders, benchmark):
    graph = build_sync_graph(fanin_program(senders))
    clg = benchmark(build_clg, graph)
    assert clg.node_count == 2 + 2 * len(graph.rendezvous_nodes)
    assert not clg_has_cycle(graph)


def test_fanin_shape_table(benchmark):
    def scenario():
        rows = []
        for senders in (2, 4, 8, 16):
            graph = build_sync_graph(fanin_program(senders))
            rows.append(
                (
                    senders,
                    len(list(graph.sync_edges())),
                    sync_graph_has_undirected_sync_cycle(graph),
                    clg_has_cycle(graph),
                )
            )
        print_table(
            "E3: sync-edge cycles vs CLG cycles (fan-in family)",
            ["senders", "sync edges", "raw sync cycle", "CLG cycle"],
            rows,
        )
        assert all(raw and not clg for (_, _, raw, clg) in rows)

    bench_once(benchmark, scenario)