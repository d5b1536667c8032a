"""Graphviz DOT export for sync graphs and CLGs.

The paper presents every example as a drawing (nodes of the same task
arranged vertically); these exporters regenerate comparable figures.
The output is plain DOT text — no graphviz dependency is required to
produce it.
"""

from __future__ import annotations

from typing import List

from .clg import CLG, EdgeKind
from .model import SyncGraph

__all__ = ["sync_graph_to_dot", "clg_to_dot"]


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def sync_graph_to_dot(sg: SyncGraph, name: str = "sync_graph") -> str:
    """Render ``sg`` as DOT: solid control edges, dashed sync edges.

    Tasks become vertical clusters, matching the paper's figure layout.
    """
    lines: List[str] = [f"digraph {name} {{", "  rankdir=TB;"]
    lines.append(f"  b [shape=circle, label={_quote('b')}];")
    lines.append(f"  e [shape=circle, label={_quote('e')}];")
    for task in sg.tasks:
        lines.append(f"  subgraph cluster_{task} {{")
        lines.append(f"    label={_quote(task)};")
        for node in sg.nodes_of_task(task):
            shape = "box" if node.kind == "send" else "ellipse"
            lines.append(
                f"    n{node.uid} [shape={shape}, label={_quote(node.label)}];"
            )
        lines.append("  }")
    for src, dst in sg.control_edges():
        s = "b" if src is sg.b else ("e" if src is sg.e else f"n{src.uid}")
        d = "b" if dst is sg.b else ("e" if dst is sg.e else f"n{dst.uid}")
        lines.append(f"  {s} -> {d};")
    for a, c in sg.sync_edges():
        lines.append(f"  n{a.uid} -> n{c.uid} [dir=none, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def clg_to_dot(clg: CLG, name: str = "clg") -> str:
    """Render a CLG as DOT; sync-derived edges are dashed."""

    def node_id(node) -> str:
        if node.sync is None:
            return node.side
        return f"n{node.sync.uid}_{node.side}"

    lines: List[str] = [f"digraph {name} {{", "  rankdir=TB;"]
    for node in clg.nodes:
        label = str(node)
        lines.append(f"  {node_id(node)} [label={_quote(label)}];")
    for edge in clg.edges:
        style = "dashed" if edge.kind == EdgeKind.SYNC else "solid"
        lines.append(
            f"  {node_id(edge.src)} -> {node_id(edge.dst)} [style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
