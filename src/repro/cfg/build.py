"""Construction of a :class:`~repro.cfg.graph.TaskCFG` from a task AST.

Structured control flow maps onto the CFG in the usual way:

* leaf statements become one node in a straight line;
* ``if`` becomes a ``branch`` node with edges into both arms and a
  ``join`` node where they reconverge (an empty arm is a direct
  branch→join edge);
* ``while`` becomes a ``branch`` loop-header with an edge into the body,
  a back edge body→header, and an exit edge header→continuation;
* ``for`` is structurally identical to ``while`` (its static bounds only
  matter to the exact unrolling transform).

Because the source language is fully structured, the resulting CFGs are
always reducible: every loop is entered only through its header.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..lang.ast_nodes import (
    Accept,
    Assign,
    For,
    If,
    Null,
    Program,
    Send,
    Statement,
    TaskDecl,
    While,
)
from .graph import CFGNode, NodeKind, TaskCFG

__all__ = ["build_task_cfg", "build_cfgs"]


def build_task_cfg(task: TaskDecl) -> TaskCFG:
    """Build the control flow graph of a single task."""
    cfg = TaskCFG(task.name)
    tail = _emit_body(cfg, task.body, cfg.entry)
    cfg.add_edge(tail, cfg.exit)
    cfg.check_connected()
    return cfg


def build_cfgs(program: Program) -> Dict[str, TaskCFG]:
    """Build CFGs for every task of ``program``, keyed by task name."""
    return {task.name: build_task_cfg(task) for task in program.tasks}


def _emit_body(cfg: TaskCFG, body: Sequence[Statement], pred: CFGNode) -> CFGNode:
    """Emit ``body`` after ``pred``; return the last node of the sequence.

    The returned node is the unique fall-through point (a join node for
    compound tails), so callers can keep chaining.
    """
    current = pred
    for stmt in body:
        current = _emit_stmt(cfg, stmt, current)
    return current


def _emit_stmt(cfg: TaskCFG, stmt: Statement, pred: CFGNode) -> CFGNode:
    if isinstance(stmt, Send):
        node = cfg.add_node(
            NodeKind.SEND, f"send {stmt.task}.{stmt.message}", stmt
        )
        cfg.add_edge(pred, node)
        return node
    if isinstance(stmt, Accept):
        node = cfg.add_node(NodeKind.ACCEPT, f"accept {stmt.message}", stmt)
        cfg.add_edge(pred, node)
        return node
    if isinstance(stmt, (Assign, Null)):
        label = (
            f"{stmt.var} := {stmt.expr}" if isinstance(stmt, Assign) else "null"
        )
        node = cfg.add_node(NodeKind.STMT, label, stmt)
        cfg.add_edge(pred, node)
        return node
    if isinstance(stmt, If):
        branch = cfg.add_node(NodeKind.BRANCH, f"if {stmt.condition}", stmt)
        join = cfg.add_node(NodeKind.JOIN, "join", stmt)
        cfg.add_edge(pred, branch)
        then_tail = _emit_body(cfg, stmt.then_body, branch)
        cfg.add_edge(then_tail, join)
        else_tail = _emit_body(cfg, stmt.else_body, branch)
        cfg.add_edge(else_tail, join)
        return join
    if isinstance(stmt, (While, For)):
        label = (
            f"while {stmt.condition}"
            if isinstance(stmt, While)
            else f"for {stmt.var} in {stmt.lower}..{stmt.upper}"
        )
        header = cfg.add_node(NodeKind.BRANCH, label, stmt)
        after = cfg.add_node(NodeKind.JOIN, "loop-exit", stmt)
        cfg.add_edge(pred, header)
        body_tail = _emit_body(cfg, stmt.body, header)
        cfg.add_edge(body_tail, header)  # back edge
        cfg.add_edge(header, after)
        return after
    raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover
