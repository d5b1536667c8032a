"""Cycle location graph tests (paper, Section 3.1)."""

from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import (
    EdgeKind,
    build_clg,
    clg_out_edges,
    cyclic_components,
    rendezvous_uids,
)
from repro.syncgraph.dot import clg_to_dot
from tests.oracles import clg as oracle


def cycles_of(sg):
    return cyclic_components(clg_out_edges(sg))


def sg_for(src):
    return build_sync_graph(parse_program(src))


class TestConstructionRules:
    def test_split_nodes_per_rendezvous(self, handshake):
        sg = build_sync_graph(handshake)
        clg = build_clg(sg)
        # b, e + 2 nodes per rendezvous
        assert clg.node_count == 2 + 2 * len(sg.rendezvous_nodes)

    def test_internal_edges(self, handshake):
        sg = build_sync_graph(handshake)
        clg = build_clg(sg)
        internals = [e for e in clg.edges if e.kind == EdgeKind.INTERNAL]
        assert len(internals) == len(sg.rendezvous_nodes)
        for e in internals:
            assert e.src.side == "o" and e.dst.side == "i"
            assert e.src.sync is e.dst.sync

    def test_control_edges_rewire_to_split_sides(self, handshake):
        sg = build_sync_graph(handshake)
        clg = build_clg(sg)
        for e in clg.edges:
            if e.kind != EdgeKind.CONTROL:
                continue
            if e.src.side == "b":
                assert e.dst.side == "o"
            elif e.dst.side == "e":
                assert e.src.side == "i"
            else:
                assert (e.src.side, e.dst.side) == ("i", "o")

    def test_sync_edges_directed_both_ways(self, handshake):
        sg = build_sync_graph(handshake)
        clg = build_clg(sg)
        syncs = [e for e in clg.edges if e.kind == EdgeKind.SYNC]
        assert len(syncs) == 2 * len(list(sg.sync_edges()))
        for e in syncs:
            assert (e.src.side, e.dst.side) == ("o", "i")

    def test_edge_count_formula(self, handshake):
        sg = build_sync_graph(handshake)
        clg = build_clg(sg)
        n_rdv = len(sg.rendezvous_nodes)
        n_ctrl = sum(1 for _ in sg.control_edges())
        n_sync = len(list(sg.sync_edges()))
        assert clg.edge_count == n_rdv + n_ctrl + 2 * n_sync


class TestCycleDetection:
    def test_handshake_is_acyclic(self, handshake):
        assert not cycles_of(build_sync_graph(handshake))

    def test_crossed_has_cycle(self, crossed):
        assert cycles_of(build_sync_graph(crossed))

    def test_fig4a_sync_only_cycle_removed(self):
        # two senders x two accepts: the raw sync graph has a cycle
        # through sync edges alone; the CLG must not.
        sg = sg_for(
            "program p;"
            "task t1 is begin send t3.m; end;"
            "task t2 is begin send t3.m; end;"
            "task t3 is begin accept m; accept m; end;"
        )
        assert len(list(sg.sync_edges())) == 4
        assert not cycles_of(sg)

    def test_cyclic_components_report_members(self, crossed):
        sg = build_sync_graph(crossed)
        comps = cycles_of(sg)
        assert len(comps) == 1
        # the cycle r1_i -> s1_o -> r2_i -> s2_o touches all four
        # rendezvous nodes, one split node each
        assert len(comps[0]) == 4
        members = [sg.node(u) for u in rendezvous_uids(comps[0])]
        assert {n.label for n in members} == {
            "(t2,a,+)",
            "(t1,x,-)",
            "(t1,x,+)",
            "(t2,a,-)",
        }

    def test_edge_filter_breaks_cycles(self, crossed):
        clg = oracle.build_clg(build_sync_graph(crossed))
        assert not clg.cyclic_components(
            edge_filter=lambda e: e.kind != EdgeKind.SYNC
        )

    def test_node_filter_excludes_nodes(self, crossed):
        sg = build_sync_graph(crossed)
        clg = oracle.build_clg(sg)
        victim = sg.rendezvous_nodes[0]
        banned = {clg.in_node(victim), clg.out_node(victim)}
        comps = clg.cyclic_components(
            node_filter=lambda n: n not in banned
        )
        assert not comps


class TestSCC:
    def test_scc_partitions_nodes(self, crossed):
        clg = oracle.build_clg(build_sync_graph(crossed))
        comps = clg.strongly_connected_components()
        seen = [n for comp in comps for n in comp]
        assert len(seen) == clg.node_count
        assert len(set(seen)) == clg.node_count

    def test_deep_graph_does_not_recurse(self):
        # long straight-line chain: iterative Tarjan must not overflow
        n = 3000
        body1 = " ".join(f"send t2.m{i};" for i in range(n))
        body2 = " ".join(f"accept m{i};" for i in range(n))
        src = (
            f"program p; task t1 is begin {body1} end; "
            f"task t2 is begin {body2} end;"
        )
        assert not cycles_of(sg_for(src))


def test_dot_export(handshake):
    clg = build_clg(build_sync_graph(handshake))
    dot = clg_to_dot(clg)
    assert dot.startswith("digraph")
    assert ":i" in dot and ":o" in dot
