"""Sync graph construction tests (paper, Section 2)."""

import json

import pytest

from repro.lang.ast_nodes import Signal
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.dot import sync_graph_to_dot
from repro.syncgraph.model import bit_ids
from tests.oracles import anomaly as oracle


def graph_for(src):
    return build_sync_graph(parse_program(src))


class TestNodes:
    def test_one_node_per_rendezvous_statement(self, handshake):
        sg = build_sync_graph(handshake)
        assert len(sg.rendezvous_nodes) == 4
        assert len(sg) == 6  # + b and e

    def test_triple_notation(self, handshake):
        sg = build_sync_graph(handshake)
        send = next(n for n in sg.nodes_of_task("t1") if n.kind == "send")
        assert send.triple == ("t2", "sig1", "+")
        accept = next(n for n in sg.nodes_of_task("t2") if n.kind == "accept")
        assert accept.triple == ("t2", "sig1", "-")

    def test_accept_signal_is_own_task(self):
        sg = graph_for(
            "program p; task a is begin accept m; end;"
            "task b is begin send a.m; end;"
        )
        accept = next(n for n in sg.nodes_of_task("a"))
        assert accept.signal == Signal("a", "m")


class TestControlEdges:
    def test_b_to_first_rendezvous(self, handshake):
        sg = build_sync_graph(handshake)
        firsts = {dst.label for src, dst in sg.control_edges() if src is sg.b}
        assert firsts == {"(t2,sig1,+)", "(t2,sig1,-)"}

    def test_last_rendezvous_to_e(self, handshake):
        sg = build_sync_graph(handshake)
        lasts = {
            src.label for src, dst in sg.control_edges() if dst is sg.e
        }
        assert lasts == {"(t1,sig2,-)", "(t1,sig2,+)"}

    def test_intervening_statements_are_skipped(self):
        sg = graph_for(
            "program p;"
            "task a is begin send b.m; x := ?; null; send b.n; end;"
            "task b is begin accept m; accept n; end;"
        )
        first = next(
            n for n in sg.nodes_of_task("a") if n.signal.message == "m"
        )
        succs = sg.control_successors(first)
        assert [n.signal.message for n in succs] == ["n"]

    def test_conditional_creates_multiple_successors(self):
        sg = graph_for(
            "program p;"
            "task a is begin send b.m; if ? then send b.x; else send b.y; "
            "end if; end;"
            "task b is begin accept m; if ? then accept x; else accept y; "
            "end if; end;"
        )
        first = next(
            n for n in sg.nodes_of_task("a") if n.signal.message == "m"
        )
        succ_msgs = {n.signal.message for n in sg.control_successors(first)}
        assert succ_msgs == {"x", "y"}

    def test_skippable_rendezvous_adds_bypass_edge(self):
        sg = graph_for(
            "program p;"
            "task a is begin if ? then send b.m; end if; end;"
            "task b is begin if ? then accept m; end if; end;"
        )
        # the conditional can be skipped entirely: b -> e in both tasks
        assert sg.e in [n for n in sg.initial_options("a")]
        assert sg.e in [n for n in sg.initial_options("b")]

    def test_task_without_rendezvous_is_skippable(self):
        sg = graph_for(
            "program p; task a is begin null; end;"
            "task b is begin null; end;"
        )
        assert sg.initial_options("a") == (sg.e,)

    def test_loop_produces_control_cycle(self):
        sg = graph_for(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        assert sg.has_control_cycle()

    def test_loop_free_is_acyclic(self, handshake):
        assert not build_sync_graph(handshake).has_control_cycle()


class TestSyncEdges:
    def test_complementary_pairs_connected(self, handshake):
        sg = build_sync_graph(handshake)
        assert len(list(sg.sync_edges())) == 2

    def test_all_pairs_of_shared_signal(self):
        sg = graph_for(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; accept m; end;"
        )
        # 2 senders x 2 accepters
        assert len(list(sg.sync_edges())) == 4

    def test_no_edge_between_same_sign(self):
        sg = graph_for(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; accept m; end;"
        )
        for x, y in sg.sync_edges():
            assert {x.sign, y.sign} == {"+", "-"}

    def test_unmatched_send_has_no_partners(self, stall_program):
        sg = build_sync_graph(stall_program)
        (send,) = sg.nodes_of_task("t1")
        assert sg.sync_neighbors(send) == ()

    def test_senders_and_accepters_lookup(self, handshake):
        sg = build_sync_graph(handshake)
        sig = Signal("t2", "sig1")
        assert len(sg.senders_of(sig)) == 1
        assert len(sg.accepters_of(sig)) == 1


class TestReachability:
    def test_control_descendants(self, handshake):
        sg = build_sync_graph(handshake)
        first = next(
            n for n in sg.nodes_of_task("t1") if n.signal.message == "sig1"
        )
        desc = bit_ids(sg.descendant_row(first.uid))
        assert sg.e.uid in desc
        assert len([u for u in desc if sg.node(u).is_rendezvous]) == 1
        assert oracle.control_descendants(sg, first) == frozenset(
            sg.node(u) for u in desc
        )

    def test_descendant_row_is_strict(self, handshake):
        sg = build_sync_graph(handshake)
        node = sg.rendezvous_nodes[0]
        assert not (sg.descendant_row(node.uid) >> node.uid) & 1

    def test_descendant_row_on_a_control_cycle(self):
        sg = build_sync_graph(
            parse_program(
                "program cyc; "
                "task a is begin while c loop send b.x; end loop; end; "
                "task b is begin while c loop accept x; end loop; end;"
            )
        )
        assert sg.has_control_cycle()
        for node in sg.nodes:
            row = sg.descendant_row(node.uid)
            assert oracle.control_descendants(sg, node) == frozenset(
                sg.node(u) for u in bit_ids(row)
            )
        send = sg.nodes_of_task("a")[0]
        assert (sg.descendant_row(send.uid) >> send.uid) & 1

    def test_descendant_rows_reset_by_a_new_edge(self, handshake):
        sg = build_sync_graph(handshake)
        first, second = sg.nodes_of_task("t1")
        before = sg.descendant_row(second.uid)
        assert not (before >> first.uid) & 1
        sg.add_control_edge(second, first)
        assert (sg.descendant_row(second.uid) >> first.uid) & 1


class TestExport:
    def test_stats(self, handshake):
        sg = build_sync_graph(handshake)
        stats = sg.stats()
        assert stats == {
            "tasks": 2,
            "nodes": 6,
            "control_edges": 6,
            "sync_edges": 2,
        }

    def test_networkx_export_tags_edges(self, handshake):
        nx = pytest.importorskip("networkx")
        sg = build_sync_graph(handshake)
        g = nx.DiGraph()
        for node in sg.nodes:
            g.add_node(node, kind=node.kind, task=node.task)
        g.add_edges_from(sg.control_edges(), kind="control")
        for a, b in sg.sync_edges():
            g.add_edge(a, b, kind="sync")
            g.add_edge(b, a, kind="sync")
        kinds = {d["kind"] for _, _, d in g.edges(data=True)}
        assert kinds == {"control", "sync"}
        stats = sg.stats()
        assert g.number_of_nodes() == stats["nodes"]
        assert g.number_of_edges() == (
            stats["control_edges"] + 2 * stats["sync_edges"]
        )

    def test_dot_output_shape(self, handshake):
        dot = sync_graph_to_dot(build_sync_graph(handshake))
        assert dot.startswith("digraph")
        assert "style=dashed" in dot
        assert "cluster_t1" in dot


class TestMetrics:
    def test_handshake_metrics(self, handshake):
        from repro.syncgraph.metrics import compute_metrics

        m = compute_metrics(build_sync_graph(handshake))
        assert m.tasks == 2
        assert m.rendezvous_nodes == 4
        assert m.sync_edges == 2
        assert m.clg_nodes == 10
        assert m.refined_work_bound == 10 * (10 + m.clg_edges)
        assert m.wave_space_bound == 9  # (2+1)*(2+1)
        assert not m.has_control_cycle

    def test_cyclic_flag(self):
        from repro.syncgraph.metrics import compute_metrics

        sg = graph_for(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        m = compute_metrics(sg)
        assert m.has_control_cycle
        assert "Lemma-1" in m.describe()

    def test_to_dict_roundtrips_json(self, handshake):
        import json

        from repro.syncgraph.metrics import compute_metrics

        m = compute_metrics(build_sync_graph(handshake))
        assert json.loads(json.dumps(m.to_dict()))["tasks"] == 2


class TestFrontHalfCost:
    """The sync graph hashes no node, the pipeline builds no CFG, and
    one analysis checks for control cycles and counts signals once."""

    @staticmethod
    def _pipeline_source():
        from repro.lang.pretty import pretty
        from repro.workloads.patterns import pipeline

        return pretty(pipeline(16))

    def test_analyze_hashes_no_sync_or_cfg_node(self, monkeypatch):
        """analyze hashes no SyncNode, and analyze, lint and the daemon
        construct no CFGNode at all: a sync node carries its statement."""
        import repro
        from repro.cfg.graph import CFGNode
        from repro.lint import lint_source
        from repro.server import AnalysisServer, Session
        from repro.syncgraph.model import SyncNode

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"used a {type(self).__name__}")

        source = self._pipeline_source()
        monkeypatch.setattr(CFGNode, "__init__", forbidden)
        with monkeypatch.context() as hashing:
            hashing.setattr(SyncNode, "__hash__", forbidden)
            result = repro.analyze(source)
        assert result.deadlock.deadlock_free
        nodes = result.sync_graph.rendezvous_nodes
        assert all(node.stmt is not None for node in nodes)
        lint_source(source)
        server = AnalysisServer(session=Session(store=None))
        for method in ("analyze", "lint"):
            reply = server.handle_line(
                json.dumps(
                    {
                        "id": 1,
                        "method": method,
                        "params": {"uri": "mem:pipeline", "text": source},
                    }
                )
            )
            assert "error" not in reply, reply

    def test_no_pipeline_path_builds_a_cfg(self, monkeypatch):
        import repro
        from repro.cfg import build as cfg_build
        from repro.lint import lint_source
        from repro.server import AnalysisServer, Session
        from repro.workloads.adl_corpus import adl_corpus, lint_corpus

        def forbidden(*args, **kwargs):
            raise AssertionError("a TaskCFG was built")

        monkeypatch.setattr(cfg_build, "build_task_cfg", forbidden)
        server = AnalysisServer(session=Session(store=None))
        for entries in (adl_corpus(), lint_corpus()):
            for name, entry in sorted(entries.items()):
                lint_source(entry.source)
                for method in ("analyze", "lint"):
                    reply = server.handle_line(
                        json.dumps(
                            {
                                "id": 1,
                                "method": method,
                                "params": {
                                    "uri": f"mem:{name}",
                                    "text": entry.source,
                                },
                            }
                        )
                    )
                    assert "TaskCFG" not in json.dumps(reply)
                try:
                    repro.analyze(entry.source, algorithm="naive")
                except repro.errors.ReproError:
                    pass  # the lint showcase has invalid programs

    def test_one_cycle_check_and_one_signal_count(self, monkeypatch):
        import repro
        from repro.analysis import stalls
        from repro.lang import validate
        from repro.syncgraph import model

        calls = {"collect_signals": 0, "cycle": 0}

        def counting(key, fn):
            def spy(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return spy

        spy = counting("collect_signals", validate.collect_signals)
        monkeypatch.setattr(validate, "collect_signals", spy)
        monkeypatch.setattr(stalls, "collect_signals", spy)
        monkeypatch.setattr(
            model, "_has_cycle", counting("cycle", model._has_cycle)
        )
        repro.analyze(self._pipeline_source())
        assert calls == {"collect_signals": 1, "cycle": 1}

    def test_cycle_answer_follows_added_edges(self):
        from repro.syncgraph.model import SyncGraph

        graph = SyncGraph(["a", "b"])
        sig = Signal("b", "m")
        first = graph.add_rendezvous("send", "a", sig)
        second = graph.add_rendezvous("send", "a", sig)
        graph.add_control_edge(graph.b, first)
        graph.add_control_edge(first, second)
        graph.add_control_edge(second, graph.e)
        assert not graph.has_control_cycle()
        graph.add_control_edge(second, first)
        assert graph.has_control_cycle()
