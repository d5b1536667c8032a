"""Set-based oracle for the refined algorithm and its constraint-4 variant.

The paper's per-head loop, run literally: every hypothesis marks hashed
:class:`CLGNode` sets and enumerates every cyclic component of the
pruned CLG through per-edge closures.  :mod:`repro.analysis.refined`
runs the same hypotheses on the bitset kernels of
:class:`~repro.analysis.index.AnalysisIndex`; both must produce
identical reports, down to the per-rule pruning counters.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.coexec import CoExecInfo, compute_coexec
from repro.analysis.constraint4 import breakable_nodes
from repro.analysis.index import AnalysisIndex, coaccept_of
from repro.analysis.orderings import OrderingInfo, compute_orderings
from repro.analysis.refined import PRUNE_RULES, possible_heads
from repro.analysis.results import DeadlockEvidence, DeadlockReport, Verdict
from repro.errors import AnalysisError
from repro.syncgraph.clg import CLGEdge, CLGNode, EdgeKind
from repro.syncgraph.model import SyncGraph, SyncNode

from .clg import CLG, build_clg


def project_component(component: FrozenSet[CLGNode]) -> Tuple[int, ...]:
    """A CLG component's sync-graph nodes, as sorted uids."""
    return tuple(
        sorted({node.sync.uid for node in component if node.sync is not None})
    )


def component_for_head(
    graph: SyncGraph,
    clg: CLG,
    head: SyncNode,
    orderings: OrderingInfo,
    coexec: CoExecInfo,
    use_coaccept: bool = True,
    global_no_sync: FrozenSet[SyncNode] = frozenset(),
    prune_counts: Optional[Dict[str, int]] = None,
) -> Optional[FrozenSet[CLGNode]]:
    """Run one head hypothesis; return the cyclic component of ``h_i``.

    Returns None when the pruned CLG has no cycle through ``h_i`` —
    i.e. ``head`` cannot head any constraint-1 cycle surviving the
    SEQUENCEABLE / COACCEPT / NOT-COEXEC eliminations.

    ``global_no_sync`` carries hypothesis-independent head exclusions
    (nodes proven unable to wait on any anomalous wave, e.g. by the
    constraint-4 breaker check): their ``k_i`` loses sync edges.

    ``prune_counts``, when given, accumulates per-rule pruning
    effectiveness (``<rule>_nodes`` marks and ``<rule>_sync_edges`` /
    ``not_coexec_edges`` actual removals, rules per
    :data:`~repro.analysis.refined.PRUNE_RULES`) across calls.  It adds
    an extra edge sweep per head, so the observability layer only
    requests it when enabled.
    """
    no_sync: Set[CLGNode] = {clg.in_node(k) for k in global_no_sync}
    do_not_enter: Set[CLGNode] = set()
    for k in orderings.sequenceable_with(head):
        no_sync.add(clg.in_node(k))
    for k in graph.nodes_of_task(head.task):  # constraint 1c
        if k is not head:
            no_sync.add(clg.in_node(k))
    for k in graph.sync_neighbors(head):  # constraint 2
        no_sync.add(clg.in_node(k))
    if use_coaccept:
        for k in coaccept_of(graph, head):
            no_sync.add(clg.in_node(k))
            no_sync.add(clg.out_node(k))
    for k in coexec.not_coexec_with(head):
        do_not_enter.add(clg.in_node(k))
        do_not_enter.add(clg.out_node(k))

    if prune_counts is not None:
        _count_pruning(
            graph,
            clg,
            head,
            orderings,
            coexec,
            global_no_sync,
            use_coaccept,
            do_not_enter,
            prune_counts,
        )

    h_i = clg.in_node(head)
    if h_i in do_not_enter or h_i in no_sync:
        return None

    def edge_ok(edge: CLGEdge) -> bool:
        if edge.kind != EdgeKind.SYNC:
            return True
        return edge.src not in no_sync and edge.dst not in no_sync

    def node_ok(node: CLGNode) -> bool:
        return node not in do_not_enter

    for component in clg.cyclic_components(edge_ok, node_ok):
        if h_i in component:
            return component
    return None


def _count_pruning(
    graph: SyncGraph,
    clg: CLG,
    head: SyncNode,
    orderings: OrderingInfo,
    coexec: CoExecInfo,
    global_no_sync: FrozenSet[SyncNode],
    use_coaccept: bool,
    do_not_enter: Set[CLGNode],
    prune_counts: Dict[str, int],
) -> None:
    """Accumulate per-rule pruning effectiveness for one hypothesis.

    ``<rule>_nodes`` counts CLG node marks/removals; ``<rule>_sync_edges``
    counts sync edges actually suppressed by that rule's NO-SYNC marks
    (``not_coexec_edges`` counts all edges lost to DO-NOT-ENTER node
    removal).  Attribution is first-match in
    :data:`~repro.analysis.refined.PRUNE_RULES` order.
    """
    coacc: Set[CLGNode] = set()
    if use_coaccept:
        for k in coaccept_of(graph, head):
            coacc.add(clg.in_node(k))
            coacc.add(clg.out_node(k))
    rule_marks = (
        (
            "sequenceable",
            {clg.in_node(k) for k in orderings.sequenceable_with(head)},
        ),
        (
            "same_task",
            {
                clg.in_node(k)
                for k in graph.nodes_of_task(head.task)
                if k is not head
            },
        ),
        (
            "sync_partner",
            {clg.in_node(k) for k in graph.sync_neighbors(head)},
        ),
        ("coaccept", coacc),
        ("constraint4", {clg.in_node(k) for k in global_no_sync}),
    )
    claimed: Dict[CLGNode, str] = {}
    for rule, marks in rule_marks:
        fresh = [n for n in marks if n not in claimed]
        for n in fresh:
            claimed[n] = rule
        prune_counts[f"{rule}_nodes"] = prune_counts.get(
            f"{rule}_nodes", 0
        ) + len(fresh)
    prune_counts["not_coexec_nodes"] = prune_counts.get(
        "not_coexec_nodes", 0
    ) + len(do_not_enter)

    for edge in clg.edges():
        if edge.src in do_not_enter or edge.dst in do_not_enter:
            prune_counts["not_coexec_edges"] = (
                prune_counts.get("not_coexec_edges", 0) + 1
            )
            continue
        if edge.kind != EdgeKind.SYNC:
            continue
        rule = claimed.get(edge.src) or claimed.get(edge.dst)
        if rule is not None:
            key = f"{rule}_sync_edges"
            prune_counts[key] = prune_counts.get(key, 0) + 1


def refined_deadlock_analysis(
    graph: SyncGraph,
    clg: Optional[CLG] = None,
    orderings: Optional[OrderingInfo] = None,
    coexec: Optional[CoExecInfo] = None,
    use_coaccept: bool = True,
    global_no_sync: FrozenSet[SyncNode] = frozenset(),
    index: Optional[AnalysisIndex] = None,
) -> DeadlockReport:
    """The product's contract, answered by :func:`component_for_head`.

    A prebuilt ``index`` only contributes its ``orderings`` /
    ``coexec``; the hypotheses themselves never touch its bitsets.
    With observability on it adds the product's per-rule
    ``refined.pruned_nodes`` / ``refined.pruned_edges`` counters.
    """
    if graph.has_control_cycle():
        raise AnalysisError(
            "refined analysis requires acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    if index is not None:
        orderings, coexec = index.orderings, index.coexec
    if clg is None:
        clg = build_clg(graph)
    if orderings is None:
        orderings = compute_orderings(graph)
    if coexec is None:
        coexec = compute_coexec(graph)

    prune_counts: Optional[Dict[str, int]] = (
        {} if obs.is_enabled() else None
    )
    heads = possible_heads(graph)
    evidence: List[DeadlockEvidence] = []
    for head in heads:
        component = component_for_head(
            graph,
            clg,
            head,
            orderings,
            coexec,
            use_coaccept,
            global_no_sync,
            prune_counts,
        )
        if component is not None:
            evidence.append(
                DeadlockEvidence(
                    graph, project_component(component), head=head
                )
            )
    stats = {
        "clg_nodes": clg.node_count,
        "clg_edges": clg.edge_count,
        "poss_heads": len(heads),
        "ordered_pairs": orderings.pair_count,
        "not_coexec_pairs": coexec.pair_count,
    }
    if prune_counts is not None:
        for rule in PRUNE_RULES:
            obs.counter("refined.pruned_nodes", rule=rule).inc(
                prune_counts.get(f"{rule}_nodes", 0)
            )
            edge_key = (
                "not_coexec_edges"
                if rule == "not_coexec"
                else f"{rule}_sync_edges"
            )
            obs.counter("refined.pruned_edges", rule=rule).inc(
                prune_counts.get(edge_key, 0)
            )
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined",
        evidence=evidence,
        heads_examined=len(heads),
        stats=stats,
    )


def constraint4_deadlock_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """The refined oracle with the product's constraint-4 breaker marks."""
    orderings = (
        index.orderings if index is not None else compute_orderings(graph)
    )
    breakable = breakable_nodes(graph, orderings)
    report = refined_deadlock_analysis(
        graph, orderings=orderings, global_no_sync=breakable, index=index
    )
    report.algorithm = "refined+constraint4"
    report.stats["breakable_nodes"] = len(breakable)
    return report
