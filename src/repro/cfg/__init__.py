"""Per-task control flow graphs, for the Taylor concurrency-state-graph
baseline (:mod:`repro.baselines.taylor_csg`) and the CFG-erasing
sync-graph oracle in ``tests/oracles/``."""

from .build import build_cfgs, build_task_cfg
from .graph import CFGNode, NodeKind, TaskCFG

__all__ = [
    "CFGNode",
    "NodeKind",
    "TaskCFG",
    "build_cfgs",
    "build_task_cfg",
]
