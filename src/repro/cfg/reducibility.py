"""Reducibility checking for task CFGs.

The paper (Section 1, citing Hecht 1977) assumes every analyzed
procedure has a reducible control flow graph: each loop has a single
entry point.  ADL's structured syntax guarantees this, but workload
generators and transforms re-verify it, and the check documents the
assumption in executable form.

Test used: a flow graph is reducible iff every *retreating* edge of a
depth-first search is a *back* edge, i.e. its target dominates its
source.  Equivalently, deleting all back edges leaves an acyclic graph.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..errors import IrreducibleFlowError
from .dominators import dominator_sets
from .graph import CFGNode, TaskCFG

__all__ = ["back_edges", "is_reducible", "ensure_reducible"]


def back_edges(cfg: TaskCFG) -> List[Tuple[CFGNode, CFGNode]]:
    """Edges ``(u, v)`` where ``v`` dominates ``u`` (natural-loop back edges)."""
    dom = dominator_sets(cfg)
    return [(u, v) for (u, v) in cfg.edges() if v in dom.get(u, frozenset())]


def is_reducible(cfg: TaskCFG) -> bool:
    """True iff the CFG is reducible."""
    import networkx as nx

    backs: Set[Tuple[CFGNode, CFGNode]] = set(back_edges(cfg))
    g = nx.DiGraph()
    g.add_nodes_from(cfg.nodes)
    g.add_edges_from(e for e in cfg.edges() if e not in backs)
    return nx.is_directed_acyclic_graph(g)


def ensure_reducible(cfg: TaskCFG) -> None:
    """Raise :class:`IrreducibleFlowError` if the CFG is irreducible."""
    if not is_reducible(cfg):
        raise IrreducibleFlowError(
            f"control flow graph of task {cfg.task!r} is irreducible; "
            "the paper's analyses require single-entry loops"
        )
