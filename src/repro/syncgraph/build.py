"""Sync graph construction straight from a program's AST.

The paper builds ``SG_P`` from each task's control flow graph by
erasing every non-rendezvous node: a control edge ``(r, s)`` is added
to ``E_C`` whenever the CFG has a path from ``r`` to ``s`` through
non-rendezvous nodes only.  ``b`` gets an edge to each rendezvous point
reachable from the task entry without crossing another rendezvous, each
rendezvous with a rendezvous-free path to the task exit gets an edge to
``e``, and a task whose entry reaches its exit without any rendezvous
contributes a ``(b, e)`` edge (the task may terminate without
synchronizing).

ADL is structured, so that erasure is a first/follow computation over
the AST, with no CFG built.  One forward pass creates the nodes in
source order and records each loop body's first set; one backward pass
then carries the *follow* set, what can come next, from the task exit
to its entry:

* a rendezvous's successors are the follow set at its position, and the
  follow set in front of it is just itself;
* in front of ``if``, the follow set is the union of both arms' (an
  empty arm passes it through);
* in front of a loop, and after its body's last statement, it is the
  loop header's: the body's first set plus whatever follows the loop.

Loops in the source produce control cycles in ``E_C``; analyses that
require acyclic control flow (the CLG algorithms) apply the Lemma-1
unroll transform *before* building the sync graph.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ..lang.ast_nodes import (
    Accept,
    Assign,
    For,
    If,
    Null,
    Program,
    Send,
    Signal,
    Statement,
    While,
)
from .model import SyncGraph, SyncNode, bit_ids

__all__ = ["build_sync_graph"]

# A task body with everything but rendezvous and control flow erased:
# an int is a rendezvous (its index within the task), a pair
# ``(then, else)`` an ``if``, and a pair ``(body, first)`` a loop with
# its body's first set.
_Item = Union[int, Tuple[list, list], Tuple[list, int]]


def build_sync_graph(program: Program) -> SyncGraph:
    """Build ``SG_P`` for ``program``."""
    sg = SyncGraph([t.name for t in program.tasks])
    for task in program.tasks:
        walk = _TaskWalk(sg, task.name)
        items, _, _ = walk.forward(task.body)
        nodes = walk.nodes
        exit_bit = 1 << len(nodes)
        succ = [0] * len(nodes)
        entry = _follow(items, exit_bit, succ)
        for j in bit_ids(entry & ~exit_bit):
            sg.add_control_edge(sg.b, nodes[j])
        if entry & exit_bit:
            sg.mark_task_skippable(task.name)
        for node, row in zip(nodes, succ):
            for j in bit_ids(row & ~exit_bit):
                sg.add_control_edge(node, nodes[j])
            if row & exit_bit:
                sg.add_control_edge(node, sg.e)
    sg.connect_sync_edges()
    return sg


class _TaskWalk:
    """The forward pass over one task: its rendezvous nodes in source
    order."""

    def __init__(self, sg: SyncGraph, task: str) -> None:
        self.sg = sg
        self.task = task
        self.nodes: List[SyncNode] = []

    def forward(
        self, body: Sequence[Statement]
    ) -> Tuple[List[_Item], int, bool]:
        """``body`` as items, its first set, and whether it can finish
        without a rendezvous."""
        items: List[_Item] = []
        first = 0
        passable = True
        for stmt in body:
            if isinstance(stmt, (Send, Accept)):
                i = len(self.nodes)
                self.nodes.append(self._rendezvous(stmt))
                items.append(i)
                if passable:
                    first |= 1 << i
                    passable = False
            elif isinstance(stmt, If):
                then_items, then_first, then_passable = self.forward(
                    stmt.then_body
                )
                else_items, else_first, else_passable = self.forward(
                    stmt.else_body
                )
                items.append((then_items, else_items))
                if passable:
                    first |= then_first | else_first
                    passable = then_passable or else_passable
            elif isinstance(stmt, (While, For)):
                body_items, body_first, _ = self.forward(stmt.body)
                items.append((body_items, body_first))
                if passable:
                    first |= body_first
            elif not isinstance(stmt, (Assign, Null)):
                raise TypeError(f"unknown statement {stmt!r}")
        return items, first, passable

    def _rendezvous(self, stmt: Union[Send, Accept]) -> SyncNode:
        if isinstance(stmt, Send):
            kind, signal = "send", Signal(stmt.task, stmt.message)
        else:
            kind, signal = "accept", Signal(self.task, stmt.message)
        return self.sg.add_rendezvous(kind, self.task, signal, stmt)


def _follow(items: List[_Item], follow: int, succ: List[int]) -> int:
    """The backward pass: set ``succ[i]`` for every rendezvous ``i`` in
    ``items`` when ``follow`` comes after them; return the first set of
    ``items`` followed by ``follow``."""
    for item in reversed(items):
        if isinstance(item, int):
            succ[item] = follow
            follow = 1 << item
        elif isinstance(item[1], list):  # if
            follow = _follow(item[0], follow, succ) | _follow(
                item[1], follow, succ
            )
        else:  # loop: the header's follow set
            follow |= item[1]
            _follow(item[0], follow, succ)
    return follow
