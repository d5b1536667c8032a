"""Size and cost metrics for sync graphs and CLGs.

Gives users (and the CLI's ``--stats`` flag) the numbers the paper's
complexity statements are phrased in: ``|N|``, ``|E_C|``, ``|E_S|``,
``|N_CLG|``, ``|E_CLG|``, the refined algorithm's
``O(|N_CLG|·(|N_CLG|+|E_CLG|))`` work bound, and an upper bound on the
wave-space size (the product of per-task position counts) that
quantifies what exhaustive analysis would face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .clg import clg_out_edges
from .model import SyncGraph

__all__ = ["GraphMetrics", "compute_metrics"]


@dataclass(frozen=True)
class GraphMetrics:
    """Aggregate size/cost figures for one program's representations."""

    tasks: int
    rendezvous_nodes: int
    control_edges: int
    sync_edges: int
    signals: int
    max_task_nodes: int
    clg_nodes: int
    clg_edges: int
    refined_work_bound: int
    wave_space_bound: int
    has_control_cycle: bool

    def to_dict(self) -> Dict[str, int | bool]:
        return {
            "tasks": self.tasks,
            "rendezvous_nodes": self.rendezvous_nodes,
            "control_edges": self.control_edges,
            "sync_edges": self.sync_edges,
            "signals": self.signals,
            "max_task_nodes": self.max_task_nodes,
            "clg_nodes": self.clg_nodes,
            "clg_edges": self.clg_edges,
            "refined_work_bound": self.refined_work_bound,
            "wave_space_bound": self.wave_space_bound,
            "has_control_cycle": self.has_control_cycle,
        }

    def describe(self) -> str:
        lines = [
            f"tasks: {self.tasks}, rendezvous nodes: "
            f"{self.rendezvous_nodes} (max per task {self.max_task_nodes})",
            f"control edges: {self.control_edges}, sync edges: "
            f"{self.sync_edges}, signals: {self.signals}",
            f"CLG: {self.clg_nodes} nodes / {self.clg_edges} edges; "
            f"refined work bound N*(N+E) = {self.refined_work_bound}",
            f"wave-space upper bound: {self.wave_space_bound} states",
        ]
        if self.has_control_cycle:
            lines.append(
                "control flow is cyclic: CLG analyses require the "
                "Lemma-1 unroll transform first"
            )
        return "\n".join(lines)


def compute_metrics(graph: SyncGraph) -> GraphMetrics:
    """Compute all metrics for ``graph``."""
    out_edges = clg_out_edges(graph)
    clg_nodes = len(out_edges)
    clg_edges = sum(len(out) for out in out_edges)
    per_task = [len(graph.nodes_of_task(t)) for t in graph.tasks]
    wave_bound = 1
    for count in per_task:
        # +1 for the task's `e` position
        wave_bound *= count + 1
    return GraphMetrics(
        tasks=len(graph.tasks),
        rendezvous_nodes=len(graph.rendezvous_nodes),
        control_edges=sum(1 for _ in graph.control_edges()),
        sync_edges=sum(1 for _ in graph.sync_edges()),
        signals=len(graph.signals),
        max_task_nodes=max(per_task, default=0),
        clg_nodes=clg_nodes,
        clg_edges=clg_edges,
        refined_work_bound=clg_nodes * (clg_nodes + clg_edges),
        wave_space_bound=wave_bound,
        has_control_cycle=graph.has_control_cycle(),
    )
