"""CFG-walking oracle for the sync-graph builder.

The builder :mod:`repro.syncgraph.build` replaced: a :class:`TaskCFG`
per task and one depth-first search per rendezvous node.
``tests/test_frontend_oracles.py`` compares the two graphs node for
node and list for list.

Sync graph construction from a program's per-task CFGs.

For each task CFG, non-rendezvous nodes are erased: a control edge
``(r, s)`` is added to ``E_C`` whenever the CFG has a path from ``r`` to
``s`` through non-rendezvous nodes only.  ``b`` gets an edge to each
rendezvous point reachable from the task entry without crossing another
rendezvous, each rendezvous with a rendezvous-free path to the task exit
gets an edge to ``e``, and a task whose entry reaches its exit without
any rendezvous contributes a ``(b, e)`` edge (the task may terminate
without synchronizing).

Loops in the source produce control cycles in ``E_C``; analyses that
require acyclic control flow (the CLG algorithms) apply the Lemma-1
unroll transform *before* building the sync graph.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cfg.build import build_cfgs
from repro.cfg.graph import CFGNode, NodeKind, TaskCFG
from repro.lang.ast_nodes import Accept, Program, Send, Signal
from repro.syncgraph.model import SyncGraph, SyncNode

__all__ = ["build_sync_graph"]


def build_sync_graph(program: Program) -> SyncGraph:
    """Build ``SG_P`` for ``program`` (CFG construction included)."""
    cfgs = build_cfgs(program)
    sg = SyncGraph([t.name for t in program.tasks])

    node_map: Dict[CFGNode, SyncNode] = {}
    for task in program.tasks:
        cfg = cfgs[task.name]
        for cfg_node in cfg.rendezvous_nodes:
            stmt = cfg_node.stmt
            if isinstance(stmt, Send):
                signal = Signal(stmt.task, stmt.message)
                node_map[cfg_node] = sg.add_rendezvous(
                    "send", task.name, signal, stmt
                )
            elif isinstance(stmt, Accept):
                signal = Signal(task.name, stmt.message)
                node_map[cfg_node] = sg.add_rendezvous(
                    "accept", task.name, signal, stmt
                )
            else:  # pragma: no cover - builder guarantees rendezvous stmt
                raise TypeError(f"rendezvous CFG node without statement: {cfg_node}")

    for task in program.tasks:
        _add_task_control_edges(sg, cfgs[task.name], node_map)

    sg.connect_sync_edges()
    return sg


def _rendezvous_frontier(
    cfg: TaskCFG, start: CFGNode
) -> tuple[List[CFGNode], bool]:
    """Rendezvous nodes reachable from ``start`` through non-rendezvous
    nodes, in uid order, and whether the task exit is reachable the
    same way.

    ``start`` itself is *not* treated as a barrier (so the frontier of a
    rendezvous node is the set of next rendezvous after it).  The uid
    order makes ``control_successors`` and ``initial_options`` — and
    with them budget-limited searches and witness choice — independent
    of the string hash seed.
    """
    frontier: List[CFGNode] = []
    reaches_exit = False
    seen: Set[CFGNode] = set()
    stack: List[CFGNode] = list(cfg.successors(start))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.is_rendezvous:
            frontier.append(node)
            continue
        if node is cfg.exit:
            reaches_exit = True
            continue
        stack.extend(cfg.successors(node))
    frontier.sort(key=lambda node: node.uid)
    return frontier, reaches_exit


def _add_task_control_edges(
    sg: SyncGraph, cfg: TaskCFG, node_map: Dict[CFGNode, SyncNode]
) -> None:
    frontier, skips = _rendezvous_frontier(cfg, cfg.entry)
    for cfg_node in frontier:
        sg.add_control_edge(sg.b, node_map[cfg_node])
    if skips:
        sg.mark_task_skippable(cfg.task)
    for cfg_node in cfg.rendezvous_nodes:
        src = node_map[cfg_node]
        nxt, reaches_exit = _rendezvous_frontier(cfg, cfg_node)
        for dst_cfg in nxt:
            sg.add_control_edge(src, node_map[dst_cfg])
        if reaches_exit:
            sg.add_control_edge(src, sg.e)
