"""Per-task control flow graphs.

Each task of an ADL program gets a :class:`TaskCFG`: a directed graph
over :class:`CFGNode` objects with a unique entry and exit.  Rendezvous
statements become ``send``/``accept`` nodes; conditionals contribute
``branch``/``join`` nodes; everything else is a ``stmt`` node.  The
Taylor baseline steps through these graphs statement by statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lang.ast_nodes import Statement

__all__ = ["CFGNode", "TaskCFG", "NodeKind"]


class NodeKind:
    """Kinds of CFG nodes (string constants for cheap comparison)."""

    ENTRY = "entry"
    EXIT = "exit"
    SEND = "send"
    ACCEPT = "accept"
    STMT = "stmt"
    BRANCH = "branch"
    JOIN = "join"

    RENDEZVOUS = frozenset({SEND, ACCEPT})


@dataclass(frozen=True)
class CFGNode:
    """One node of a task CFG.

    ``uid`` is unique within the task.  ``stmt`` points at the AST
    statement for rendezvous/assign nodes (None for structural nodes).
    ``label`` is a human-readable description used in DOT output and
    error messages.
    """

    task: str
    uid: int
    kind: str
    label: str
    stmt: Optional[Statement] = field(default=None, compare=False, repr=False)

    @property
    def is_rendezvous(self) -> bool:
        return self.kind in NodeKind.RENDEZVOUS

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.task}#{self.uid}:{self.label}"


class TaskCFG:
    """Control flow graph of a single task.

    The graph always has exactly one ``entry`` and one ``exit`` node and
    every node lies on some entry→exit path (the builder guarantees
    this; :meth:`check_connected` re-verifies it).
    """

    def __init__(self, task: str) -> None:
        self.task = task
        self._nodes: List[CFGNode] = []
        self._succ: Dict[CFGNode, List[CFGNode]] = {}
        self._pred: Dict[CFGNode, List[CFGNode]] = {}
        self.entry: CFGNode = self.add_node(NodeKind.ENTRY, "entry")
        self.exit: CFGNode = self.add_node(NodeKind.EXIT, "exit")

    # -- construction ----------------------------------------------------

    def add_node(
        self,
        kind: str,
        label: str,
        stmt: Optional[Statement] = None,
    ) -> CFGNode:
        node = CFGNode(
            task=self.task, uid=len(self._nodes), kind=kind, label=label, stmt=stmt
        )
        self._nodes.append(node)
        self._succ[node] = []
        self._pred[node] = []
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode) -> None:
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[CFGNode, ...]:
        return tuple(self._nodes)

    def successors(self, node: CFGNode) -> Tuple[CFGNode, ...]:
        return tuple(self._succ[node])

    def predecessors(self, node: CFGNode) -> Tuple[CFGNode, ...]:
        return tuple(self._pred[node])

    def edges(self) -> Iterator[Tuple[CFGNode, CFGNode]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    @property
    def rendezvous_nodes(self) -> Tuple[CFGNode, ...]:
        return tuple(n for n in self._nodes if n.is_rendezvous)

    def reachable_from(self, start: CFGNode) -> Set[CFGNode]:
        """All nodes reachable from ``start`` (inclusive)."""
        return self._closure(start, self._succ)

    @staticmethod
    def _closure(
        start: CFGNode, adjacency: Dict[CFGNode, List[CFGNode]]
    ) -> Set[CFGNode]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def check_connected(self) -> None:
        """Assert every node is on an entry→exit path; raises otherwise."""
        from_entry = self.reachable_from(self.entry)
        to_exit = self._closure(self.exit, self._pred)
        for node in self._nodes:
            if node not in from_entry or node not in to_exit:
                raise AssertionError(
                    f"CFG node {node} is not on an entry-to-exit path"
                )

    def __len__(self) -> int:
        return len(self._nodes)
