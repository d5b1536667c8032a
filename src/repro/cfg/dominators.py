"""Dominator and postdominator computation on task CFGs.

Rule 1 of the paper's ordering framework (Section 4.1) says: *if r
dominates s in the control flow graph of their task, then r must
precede s*.  We also expose the dual — if s postdominates r, then any
execution that runs r must later run s — which together with the
paper's assumption that every rendezvous completes gives additional
safe must-precede facts.

The implementation delegates to networkx's Lengauer–Tarjan style
``immediate_dominators`` and derives full dominator sets from the
immediate-dominator tree.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from .graph import CFGNode, TaskCFG

__all__ = [
    "immediate_dominators",
    "dominator_sets",
    "postdominator_sets",
    "dominates",
]


def immediate_dominators(cfg: TaskCFG) -> Dict[CFGNode, CFGNode]:
    """Map each reachable node to its immediate dominator.

    The entry node maps to itself (networkx convention).
    """
    import networkx as nx

    return nx.immediate_dominators(cfg.to_networkx(), cfg.entry)


def _sets_from_idom(idom: Dict[CFGNode, CFGNode], root: CFGNode) -> Dict[
    CFGNode, FrozenSet[CFGNode]
]:
    memo: Dict[CFGNode, FrozenSet[CFGNode]] = {root: frozenset({root})}

    def chase(node: CFGNode) -> FrozenSet[CFGNode]:
        cached = memo.get(node)
        if cached is not None:
            return cached
        # Iterative walk up the idom tree to avoid deep recursion on
        # long straight-line CFGs.
        chain = []
        cur = node
        while cur not in memo:
            chain.append(cur)
            cur = idom[cur]
        acc: Set[CFGNode] = set(memo[cur])
        for n in reversed(chain):
            acc = set(acc)
            acc.add(n)
            memo[n] = frozenset(acc)
        return memo[node]

    for node in idom:
        chase(node)
    return memo


def dominator_sets(cfg: TaskCFG) -> Dict[CFGNode, FrozenSet[CFGNode]]:
    """Map each node to the set of nodes that dominate it (inclusive)."""
    return _sets_from_idom(immediate_dominators(cfg), cfg.entry)


def postdominator_sets(cfg: TaskCFG) -> Dict[CFGNode, FrozenSet[CFGNode]]:
    """Map each node to the set of nodes that postdominate it (inclusive).

    Computed as dominators of the reversed CFG rooted at the exit node.
    """
    import networkx as nx

    reverse = cfg.to_networkx().reverse(copy=True)
    idom = nx.immediate_dominators(reverse, cfg.exit)
    return _sets_from_idom(idom, cfg.exit)


def dominates(cfg: TaskCFG, a: CFGNode, b: CFGNode) -> bool:
    """True iff ``a`` dominates ``b`` in ``cfg``."""
    return a in dominator_sets(cfg).get(b, frozenset())
