"""Control-flow graph construction."""

from repro.cfg.build import build_cfgs, build_task_cfg
from repro.cfg.graph import NodeKind
from repro.lang.parser import parse_program


def cfg_for(body_src: str):
    p = parse_program(f"program p; task t is begin {body_src} end; "
                      "task other is begin end;")
    return build_task_cfg(p.task("t"))


class TestConstruction:
    def test_straight_line_shape(self):
        cfg = cfg_for("send other.a; accept b;")
        kinds = [n.kind for n in cfg.nodes]
        assert kinds.count(NodeKind.SEND) == 1
        assert kinds.count(NodeKind.ACCEPT) == 1
        send = next(n for n in cfg.nodes if n.kind == NodeKind.SEND)
        accept = next(n for n in cfg.nodes if n.kind == NodeKind.ACCEPT)
        assert cfg.successors(cfg.entry) == (send,)
        assert cfg.successors(send) == (accept,)
        assert cfg.successors(accept) == (cfg.exit,)

    def test_if_creates_branch_and_join(self):
        cfg = cfg_for("if ? then send other.a; else null; end if;")
        branch = next(n for n in cfg.nodes if n.kind == NodeKind.BRANCH)
        join = next(n for n in cfg.nodes if n.kind == NodeKind.JOIN)
        assert len(cfg.successors(branch)) == 2
        assert len(cfg.predecessors(join)) == 2

    def test_empty_else_connects_branch_to_join(self):
        cfg = cfg_for("if ? then send other.a; end if;")
        branch = next(n for n in cfg.nodes if n.kind == NodeKind.BRANCH)
        join = next(n for n in cfg.nodes if n.kind == NodeKind.JOIN)
        assert join in cfg.successors(branch)

    def test_while_creates_back_edge(self):
        cfg = cfg_for("while ? loop send other.a; end loop;")
        header = next(n for n in cfg.nodes if n.kind == NodeKind.BRANCH)
        send = next(n for n in cfg.nodes if n.kind == NodeKind.SEND)
        # header -> body -> header, and the header also exits the loop
        assert send in cfg.successors(header)
        assert cfg.successors(send) == (header,)
        assert len(cfg.successors(header)) == 2

    def test_every_node_on_entry_exit_path(self):
        cfg = cfg_for(
            "if ? then while ? loop accept x; end loop; else null; end if;"
        )
        cfg.check_connected()  # raises on violation

    def test_build_cfgs_covers_all_tasks(self, handshake):
        cfgs = build_cfgs(handshake)
        assert set(cfgs) == {"t1", "t2"}

    def test_rendezvous_nodes_carry_statements(self):
        cfg = cfg_for("send other.a;")
        (node,) = cfg.rendezvous_nodes
        assert node.stmt is not None
        assert node.is_rendezvous
