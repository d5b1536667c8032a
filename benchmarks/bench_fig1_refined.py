"""E1 — Figure 1 / Section 4: spurious cycles and their elimination.

The paper: building the CLG for the Figure-1 program finds (at least)
two deadlock cycles, both spurious — one has rendezvousing members, the
other orderable ones.  The refined algorithm eliminates all of them and
certifies the program deadlock-free; exhaustive wave exploration
confirms the certificate.
"""

from __future__ import annotations

import pytest

from _util import attach_metrics, print_pruning_summary, print_table
from repro.analysis.naive import naive_deadlock_analysis
from repro.analysis.refined import refined_deadlock_analysis
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import (
    clg_out_edges,
    cyclic_components,
    rendezvous_uids,
)
from repro.waves.explore import explore
from repro.workloads.corpus import paper_corpus


@pytest.fixture(scope="module")
def fig1_graph():
    return build_sync_graph(paper_corpus()["fig1"].program)


def test_fig1_naive_reports_spurious_cycles(fig1_graph, benchmark):
    report = benchmark(naive_deadlock_analysis, fig1_graph)
    assert not report.deadlock_free
    comps = cyclic_components(clg_out_edges(fig1_graph))
    labels = fig1_graph.labels()
    print_table(
        "E1: naive CLG cycles on fig1 (all spurious)",
        ["component", "sync nodes involved"],
        [
            (i, ", ".join(sorted(labels[u] for u in rendezvous_uids(comp))))
            for i, comp in enumerate(comps)
        ],
    )
    # at least one cyclic component mixing both rounds
    assert comps


def test_fig1_refined_certifies(fig1_graph, benchmark):
    report = benchmark(refined_deadlock_analysis, fig1_graph)
    assert report.deadlock_free
    # Untimed observed rerun: pruning-effectiveness counters ride along
    # in the saved benchmark JSON so trajectories diff across PRs.
    snapshot = attach_metrics(
        benchmark, lambda: refined_deadlock_analysis(fig1_graph)
    )
    print_pruning_summary("E1: fig1 pruning effectiveness", snapshot)
    print_table(
        "E1: verdicts on fig1",
        ["algorithm", "verdict", "heads examined"],
        [
            ("naive-clg", naive_deadlock_analysis(fig1_graph).verdict, "-"),
            ("refined", report.verdict, report.heads_examined),
        ],
    )


def test_fig1_exact_confirms_certificate(fig1_graph, benchmark):
    result = benchmark(explore, fig1_graph)
    assert not result.has_deadlock
    assert result.can_terminate
