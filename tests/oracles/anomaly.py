"""Node-keyed oracle for wave classification (paper §2).

The literal reading: strict control descendants as a ``frozenset`` of
:class:`SyncNode` per query, coupling as node-set intersections and a
Tarjan over a node-keyed dict.  :mod:`repro.waves.anomaly` and
:mod:`repro.waves.coupling` answer the same questions from uid bit rows
(:meth:`SyncGraph.descendant_row` ANDed with partner rows); the
differential tests in ``tests/test_wave_rows.py`` compare the two on
every anomalous wave of exhaustive explorations.  The oracle's
``deadlocks`` and ``coupled_to_anomaly`` orders follow set iteration,
so comparisons are made as sets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.syncgraph.model import SyncGraph, SyncNode
from repro.waves.anomaly import WaveClassification
from repro.waves.wave import Wave, ready_pairs


def control_descendants(
    graph: SyncGraph, node: SyncNode, strict: bool = True
) -> FrozenSet[SyncNode]:
    """Nodes reachable from ``node`` along control edges.

    With ``strict=True`` the node itself is excluded unless it lies on
    a control cycle through itself.
    """
    seen: Set[SyncNode] = set()
    stack = list(graph.control_successors(node))
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(graph.control_successors(u))
    if not strict:
        seen.add(node)
    return frozenset(seen)


def is_anomalous(graph: SyncGraph, wave: Wave) -> bool:
    """``Anomalous(W)`` exactly as defined in the paper."""
    if not wave.real_nodes():
        return False
    return not ready_pairs(graph, wave)


def stall_nodes(graph: SyncGraph, wave: Wave) -> Tuple[SyncNode, ...]:
    """Wave entries no sync partner of which is control-reachable
    (reflexively) from any wave entry."""
    stalled: List[SyncNode] = []
    reachable: Set[SyncNode] = set()
    for pos in wave.positions:
        if pos.is_rendezvous:
            reachable.add(pos)
            reachable.update(control_descendants(graph, pos, strict=True))
    for r in wave.positions:
        if not r.is_rendezvous:
            continue
        partners = set(graph.sync_neighbors(r))
        if not (partners & reachable):
            stalled.append(r)
    return tuple(stalled)


def coupled_to(
    graph: SyncGraph, wave: Wave, r: SyncNode
) -> FrozenSet[SyncNode]:
    """Wave nodes ``s`` some strict control descendant of which is a
    sync neighbor of ``r``."""
    result: Set[SyncNode] = set()
    partners = set(graph.sync_neighbors(r))
    if not partners:
        return frozenset()
    for s in wave.positions:
        if s is r or not s.is_rendezvous:
            continue
        if partners & set(control_descendants(graph, s, strict=True)):
            result.add(s)
    return frozenset(result)


def coupling_graph(
    graph: SyncGraph, wave: Wave
) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """The depends-on relation of the wave: ``r -> coupled_to(r)``."""
    return {
        r: coupled_to(graph, wave, r)
        for r in wave.positions
        if r.is_rendezvous
    }


def transitively_coupled_sets(
    graph: SyncGraph, wave: Wave
) -> List[FrozenSet[SyncNode]]:
    """The strongly connected components of the coupling graph that
    contain a cycle: the deadlock sets of an anomalous wave."""
    adj = coupling_graph(graph, wave)
    index: Dict[SyncNode, int] = {}
    lowlink: Dict[SyncNode, int] = {}
    on_stack: Set[SyncNode] = set()
    stack: List[SyncNode] = []
    counter = [0]
    out: List[FrozenSet[SyncNode]] = []

    def strongconnect(node: SyncNode) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for nxt in adj.get(node, ()):  # type: ignore[call-overload]
            if nxt not in index:
                strongconnect(nxt)
                lowlink[node] = min(lowlink[node], lowlink[nxt])
            elif nxt in on_stack:
                lowlink[node] = min(lowlink[node], index[nxt])
        if lowlink[node] == index[node]:
            comp: Set[SyncNode] = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                comp.add(member)
                if member is node:
                    break
            if len(comp) > 1 or node in adj.get(node, frozenset()):
                out.append(frozenset(comp))

    for node in adj:
        if node not in index:
            strongconnect(node)
    return out


def classify_wave(graph: SyncGraph, wave: Wave) -> WaveClassification:
    """Stalls, deadlock sets and the nodes coupled to them."""
    if not is_anomalous(graph, wave):
        raise ValueError(f"wave {wave} is not anomalous")
    stalls = stall_nodes(graph, wave)
    deadlocks = tuple(transitively_coupled_sets(graph, wave))
    anchor: Set[SyncNode] = set(stalls)
    for d in deadlocks:
        anchor |= d

    adj = coupling_graph(graph, wave)
    coupled: Set[SyncNode] = set()
    changed = True
    while changed:
        changed = False
        for r, deps in adj.items():
            if r in anchor or r in coupled:
                continue
            if deps & (anchor | coupled):
                coupled.add(r)
                changed = True
    return WaveClassification(
        wave=wave,
        stalls=stalls,
        deadlocks=deadlocks,
        coupled_to_anomaly=tuple(coupled),
    )
