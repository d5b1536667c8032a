"""Node-keyed oracle for the future-cost table of :mod:`repro.waves.guide`.

The literal build: per distance query a ``SyncNode``-keyed map of the
task's positions and its predecessor lists, and the always-ready
lockstep chains as sets of nodes.  :class:`~repro.waves.guide.
FutureCostTable` builds the same ``_groups`` and ``_quiet`` tables from
uid lists, each task's predecessor lists once; ``tests/test_wave_rows.py``
compares the two.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.results import DeadlockReport
from repro.syncgraph.model import SyncGraph, SyncNode
from repro.waves.engine import WaveIndex
from repro.waves.guide import SATURATED


def task_distances(
    graph: SyncGraph,
    positions: Sequence[SyncNode],
    targets: Sequence[SyncNode],
) -> Tuple[int, ...]:
    """Shortest control distance from each of a task's wave positions
    to the nearest node of ``targets`` (``SATURATED`` when
    unreachable), by reverse BFS from the target set."""
    local = {node: idx for idx, node in enumerate(positions)}
    preds: List[List[int]] = [[] for _ in positions]
    for node, idx in local.items():
        if not node.is_rendezvous:
            continue
        for succ in graph.control_successors(node):
            j = local.get(succ)
            if j is not None:
                preds[j].append(idx)
    dist = [SATURATED] * len(positions)
    queue: deque = deque()
    for target in targets:
        idx = local.get(target)
        if idx is not None and dist[idx] != 0:
            dist[idx] = 0
            queue.append(idx)
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for prev in preds[cur]:
            if d < dist[prev]:
                dist[prev] = d
                queue.append(prev)
    return tuple(dist)


def straight_chain(graph: SyncGraph, task: str) -> List[SyncNode]:
    """The task's leading straight-line rendezvous chain."""
    options = graph.initial_options(task)
    if len(options) != 1:
        return []
    chain: List[SyncNode] = []
    seen: set = set()
    node = options[0]
    prev: Optional[SyncNode] = None
    while node.is_rendezvous and node not in seen:
        preds = [
            p for p in map(graph.node, graph.predecessor_uids(node.uid))
            if p.is_rendezvous
        ]
        if prev is None:
            if preds:
                break  # joinable entry: index no longer forced
        elif set(preds) != {prev}:
            break
        seen.add(node)
        chain.append(node)
        succs = list(dict.fromkeys(graph.control_successors(node)))
        if len(succs) != 1:
            break
        prev = node
        node = succs[0]
    return chain


def always_ready_nodes(graph: SyncGraph) -> set:
    """Rendezvous certified never to block, by lockstep prefixes."""
    chains = {task: straight_chain(graph, task) for task in graph.tasks}
    safe: set = set()
    done: set = set()
    for task, chain in chains.items():
        if not chain:
            continue
        partners = graph.sync_neighbors(chain[0])
        if len(set(partners)) != 1:
            continue
        other = partners[0].task
        pair = tuple(sorted((task, other)))
        if other == task or pair in done:
            continue
        done.add(pair)
        for r, s in zip(chain, chains.get(other, [])):
            if (
                set(graph.sync_neighbors(r)) == {s}
                and set(graph.sync_neighbors(s)) == {r}
            ):
                safe.add(r)
                safe.add(s)
            else:
                break
    return safe


def tables(
    engine: WaveIndex, report: Optional[DeadlockReport]
) -> Tuple[tuple, tuple]:
    """``(groups, quiet)`` as :class:`~repro.waves.guide.FutureCostTable`
    lays them out, for ``engine`` and the evidence of ``report``."""
    graph = engine.graph
    positions = [
        engine.node_of_slot[
            engine.slot_base[i]:
            engine.slot_base[i + 1]
            if i + 1 < engine.task_count
            else engine.slot_count
        ]
        for i in range(engine.task_count)
    ]
    task_idx = {t: i for i, t in enumerate(graph.tasks)}

    def compile_group(head_task, head_nodes, by_task):
        hi = task_idx[head_task]
        others = []
        for task, nodes in sorted(by_task.items()):
            if task == head_task:
                continue
            ti = task_idx[task]
            others.append(
                (
                    engine.shift[ti],
                    engine.mask[ti],
                    task_distances(graph, positions[ti], nodes),
                )
            )
        return (
            engine.shift[hi],
            engine.mask[hi],
            task_distances(graph, positions[hi], head_nodes),
            tuple(others),
        )

    groups = []
    seen: set = set()
    for ev in report.evidence if report is not None else ():
        members = tuple(
            sorted(
                (n for n in ev.component if n.is_rendezvous),
                key=lambda n: n.uid,
            )
        )
        head = ev.head
        sig = (head.uid if head is not None else None, members)
        if sig in seen or not members:
            continue
        seen.add(sig)
        by_task: Dict[str, List[SyncNode]] = {}
        for node in members:
            by_task.setdefault(node.task, []).append(node)
        if len(by_task) < 2:
            continue
        if head is None:
            for head_task, head_nodes in by_task.items():
                groups.append(compile_group(head_task, head_nodes, by_task))
        else:
            groups.append(compile_group(head.task, [head], by_task))

    safe = always_ready_nodes(graph)
    quiet = []
    for i in range(engine.task_count):
        targets = [
            n for n in positions[i]
            if not (n.is_rendezvous and n in safe)
        ]
        quiet.append(
            (
                engine.shift[i],
                engine.mask[i],
                task_distances(graph, positions[i], targets),
            )
        )
    return tuple(groups), tuple(quiet)
