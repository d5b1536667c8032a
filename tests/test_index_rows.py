"""The product's CLG against the object oracle of ``tests/oracles/clg.py``.

``repro.syncgraph.clg`` numbers CLG nodes from sync-graph uids
(``b`` = 0, ``e`` = 1, ``r_i`` = 2·uid − 2, ``r_o`` = 2·uid − 1) and
lists each id's out-edges by the paper's rules; the oracle builds node
and edge objects by the six rules literally.  Three readers of the
product's list must describe the oracle's graph:

* the :class:`AnalysisIndex` bit rows: node and edge counts, each
  node's plain and sync successors (mapped through the oracle's
  ``node_index``), the predecessor rows as their transpose, and
  ``in_id_of`` / ``out_id_of``;
* ``cyclic_components`` — the naive algorithm's and lint ADL010's
  cycle search — lists the oracle's cyclic SCCs in the same order;
* the export ``build_clg`` has the oracle's nodes, and its edges in
  the oracle's order with the same kinds.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.analysis.index import AnalysisIndex
from repro.lang.compose import parallel_compose, prefix_program
from repro.lang.parser import parse_program
from repro.reductions.cnf import random_cnf
from repro.reductions.theorem3 import build_theorem3_graph
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import (
    EdgeKind,
    build_clg,
    clg_out_edges,
    cyclic_components,
    in_id_of,
    out_id_of,
    rendezvous_uids,
)
from repro.transforms.inline import inline_procedures
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.corpus import paper_corpus
from tests.conftest import graph_of
from tests.oracles import clg as oracle
from tests.test_properties import FAST, rich_programs, small_programs


def _members(bits):
    out = set()
    while bits:
        low = bits & -bits
        bits ^= low
        out.add(low.bit_length() - 1)
    return out


def assert_rows_match_clg(graph):
    index = AnalysisIndex(graph)
    clg = oracle.build_clg(graph)
    node_index = clg.node_index
    n = clg.node_count
    assert index.node_count == n
    assert index.edge_count == clg.edge_count

    plain = [set() for _ in range(n)]
    sync = [set() for _ in range(n)]
    for edge in clg.edges():
        rows = sync if edge.kind == EdgeKind.SYNC else plain
        rows[node_index[edge.src]].add(node_index[edge.dst])
    assert [_members(row) for row in index.plain_succ] == plain
    assert [_members(row) for row in index.sync_succ] == sync
    for succ, pred in (
        (index.plain_succ, index.plain_pred),
        (index.sync_succ, index.sync_pred),
    ):
        for v in range(n):
            assert _members(pred[v]) == {
                u for u in range(n) if (succ[u] >> v) & 1
            }

    rendezvous = graph.rendezvous_nodes
    for s in rendezvous:
        assert in_id_of(s) == node_index[clg.in_node(s)]
        assert out_id_of(s) == node_index[clg.out_node(s)]
    assert node_index[clg.b] == 0 and node_index[clg.e] == 1
    assert rendezvous_uids(range(n)) == tuple(s.uid for s in rendezvous)
    assert_cycles_match_clg(graph, clg)
    assert_export_matches_clg(graph, clg)


def assert_cycles_match_clg(graph, clg):
    """Same cyclic components as the oracle's Tarjan pass, same order."""
    node_index = clg.node_index
    assert cyclic_components(clg_out_edges(graph)) == [
        sorted(node_index[node] for node in component)
        for component in clg.cyclic_components()
    ]


def assert_export_matches_clg(graph, clg):
    """The export's nodes, edges and kinds, in the oracle's order."""
    export = build_clg(graph)
    assert export.nodes == clg.nodes
    assert export.edges == tuple(clg.edges())
    assert export.node_count == clg.node_count
    assert export.edge_count == clg.edge_count


@FAST
@given(small_programs(with_loops=True))
def test_small_programs_after_unroll(program):
    assert_rows_match_clg(graph_of(program))


@FAST
@given(rich_programs())
def test_full_grammar_programs(program):
    assert_rows_match_clg(graph_of(program))


@settings(FAST, max_examples=150)
@given(rich_programs(), rich_programs())
def test_cyclic_components_match_clg(left, right):
    # Side by side, the two parts' cycles cannot reach each other, so
    # only the DFS order decides which the kernel lists first.
    program = parallel_compose(
        "pair", prefix_program(left, "l"), prefix_program(right, "r")
    )
    graph = graph_of(program)
    assert_cycles_match_clg(graph, oracle.build_clg(graph))


# Two cycles (t2-t5 and t3-t4) that neither reaches the other, both
# first reached from t3's ``send t2.q`` node: its r_o lists its own r_i
# (leading to t3-t4) before the sync edge into t2 (leading to t2-t5),
# but t2's node has the lower uid.  Visiting successors in id order
# would list the t2-t5 cycle first; rule order lists t3-t4 first.
SUCCESSOR_ORDER_SRC = """
program successor_order;
task t1 is begin send t3.p; end;
task t2 is begin accept q; send t5.u; accept v; end;
task t3 is begin accept p; send t2.q; send t4.w; accept z; end;
task t4 is begin send t3.z; accept w; end;
task t5 is begin send t2.v; accept u; end;
"""


def test_cyclic_components_follow_clg_successor_order():
    graph = graph_of(parse_program(SUCCESSOR_ORDER_SRC))
    assert_cycles_match_clg(graph, oracle.build_clg(graph))
    tasks = [
        sorted({graph.node(u).task for u in rendezvous_uids(ids)})
        for ids in cyclic_components(clg_out_edges(graph))
    ]
    assert tasks == [["t3", "t4"], ["t2", "t5"]]


def test_corpora():
    programs = [entry.program for entry in paper_corpus().values()]
    for corpus in (adl_corpus(), repair_corpus()):
        programs += [parse_program(e.source) for e in corpus.values()]
    for program in programs:
        program, _ = inline_procedures(program)
        assert_rows_match_clg(graph_of(program))


def test_hand_built_theorem3_graph():
    """The Theorem-3 reduction adds raw sync edges via ``add_sync_edge``."""
    for seed in range(3):
        graph = build_theorem3_graph(random_cnf(3, 3, seed=seed)).graph
        assert_rows_match_clg(graph)


def test_empty_graph():
    assert_rows_match_clg(
        build_sync_graph(parse_program("program p; task t is begin null; end;"))
    )
