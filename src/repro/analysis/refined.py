"""The refined deadlock detection algorithm (paper, Section 4.2).

For every possible head node ``h``, the algorithm hypothesizes that
``h`` heads a deadlock cycle, prunes CLG edges that could only occur in
cycles spurious under that hypothesis, and searches for a strongly
connected component containing ``h_i``:

* nodes sequenceable with ``h`` cannot wait on the same execution wave,
  so they cannot be co-head nodes: their ``k_i`` CLG node loses its sync
  edges (they may still serve as *tail* nodes through ``k_o`` — tails
  never execute, so ordering facts do not constrain them; the paper
  makes the ``k_i``-only marking explicit in the extensions section);
* other nodes of ``h``'s own task cannot be co-heads either — a valid
  deadlock cycle enters each task exactly once (constraint 1c), so
  their ``k_i`` nodes lose sync edges as well;
* sync partners of ``h`` cannot be co-heads: two waiting wave nodes
  joined by a sync edge could rendezvous, so the wave would not be
  anomalous (constraint 2); their ``k_i`` nodes lose sync edges;
* accept nodes of the same signal type as an accept head ``h``
  (``COACCEPT[h]``) lose sync edges on both split nodes — by Lemma 2, a
  cycle leaving ``h``'s task through a same-type accept has a pair of
  head nodes that can rendezvous, violating constraint 2;
* nodes not co-executable with ``h`` (``NOT-COEXEC[h]``) are removed
  outright (DO-NOT-ENTER), approximating constraint 3b.

If no hypothesis yields a component, the program is certified
deadlock-free.  Any component is conservatively reported as a possible
deadlock.  Total cost is ``O(|N_CLG| · (|N_CLG| + |E_CLG|))``.

Only ``h_i``'s own component matters, and in the pruned CLG that is
``fwd(h_i) ∩ bwd(h_i)``: :meth:`AnalysisIndex.cyclic_component_ids`
takes both reaches one frontier at a time over int rows that the index
builds straight from the sync graph, so no CLG object is built here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .. import obs
from ..budget import CHECK_EVERY, checkpoint
from ..errors import AnalysisError
from ..syncgraph.clg import in_id_of, rendezvous_uids
from ..syncgraph.model import SyncGraph, SyncNode
from .index import AnalysisIndex, coaccept_of
from .results import DeadlockEvidence, DeadlockReport, Verdict

__all__ = [
    "possible_heads",
    "coaccept_of",
    "refined_deadlock_analysis",
    "PRUNE_RULES",
]

# Pruning rules, in marking order.  A node marked by several rules is
# attributed to the first that claims it (the counters measure where
# pruning power comes from, not set-theoretic overlap).
PRUNE_RULES = (
    "sequenceable",
    "same_task",
    "sync_partner",
    "coaccept",
    "constraint4",
    "not_coexec",
)


def possible_heads(graph: SyncGraph) -> Tuple[SyncNode, ...]:
    """``POSS-HEADS``: nodes with a sync edge and a rendezvous successor.

    A head node is entered via a sync edge and must traverse at least
    one control edge to a tail node (which exits via a sync edge), so a
    node with no rendezvous control successor cannot head a cycle.
    """
    # uids 0 and 1 are b and e: a successor uid >= 2 is a rendezvous.
    return tuple(
        node
        for node in graph.rendezvous_nodes
        if graph.partner_uids(node.uid)
        and any(s >= 2 for s in graph.successor_uids(node.uid))
    )


def refined_deadlock_analysis(
    graph: SyncGraph,
    use_coaccept: bool = True,
    global_no_sync: FrozenSet[SyncNode] = frozenset(),
    index: Optional[AnalysisIndex] = None,
) -> DeadlockReport:
    """Algorithm 2: per-head SCC search with spurious-cycle elimination.

    The hypotheses run on the forward–backward bitset kernel of
    :class:`AnalysisIndex`, whose rows come straight from the sync
    graph (no CLG object is built).  A prebuilt ``index`` may be shared
    across analyses, and carries any precomputed or external
    orderings/co-executability facts; it may come from another graph
    with the same uids (a comment edit's rebuild): evidence nodes are
    always ``graph``'s own.  With obs on, the per-rule pruning totals
    go to the ``refined.pruned_nodes`` / ``refined.pruned_edges``
    counters; the report is the same with obs on or off.
    """
    if graph.has_control_cycle():
        raise AnalysisError(
            "refined analysis requires acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    with obs.span("refined.precompute"):
        if index is None:
            index = AnalysisIndex(graph)

    observing = obs.is_enabled()
    prune_counts: Optional[Dict[str, int]] = {} if observing else None
    heads = possible_heads(graph)
    evidence: List[DeadlockEvidence] = []
    reached_total = 0
    with obs.span("refined.heads", heads=len(heads)):
        global_mask = index.in_mask(global_no_sync)
        budget = checkpoint()
        countdown = CHECK_EVERY if budget is not None else -1
        for head in heads:
            countdown -= 1
            if not countdown:
                budget.check()
                countdown = CHECK_EVERY
            no_sync, do_not_enter = index.head_marks(head, use_coaccept)
            no_sync |= global_mask
            if prune_counts is not None:
                index.accumulate_prune_counts(
                    head, use_coaccept, global_mask, do_not_enter,
                    prune_counts,
                )
            h_id = in_id_of(head)
            if ((do_not_enter | no_sync) >> h_id) & 1:
                continue
            ids, reached = index.cyclic_component_ids(
                h_id, no_sync, do_not_enter
            )
            reached_total += reached
            if ids is not None:
                evidence.append(
                    DeadlockEvidence(graph, rendezvous_uids(ids), head=head)
                )
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    stats = {
        "clg_nodes": index.node_count,
        "clg_edges": index.edge_count,
        "poss_heads": len(heads),
        "ordered_pairs": index.orderings.pair_count,
        "not_coexec_pairs": index.coexec.pair_count,
    }
    if observing:
        obs.counter("refined.heads_examined").inc(len(heads))
        obs.counter("refined.scc_passes").inc(len(heads))
        obs.counter("refined.components_flagged").inc(len(evidence))
        obs.counter("refined.nodes_reached").inc(reached_total)
        assert prune_counts is not None
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
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined",
        evidence=evidence,
        heads_examined=len(heads),
        stats=stats,
    )
