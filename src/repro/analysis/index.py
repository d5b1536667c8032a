"""Integer-indexed bitset kernels for the refined algorithm family.

A literal reading of the paper runs each head hypothesis through
per-edge Python closures over hashed :class:`CLGNode` sets and
re-enumerates *every* SCC of the pruned CLG.  That leaves large
constant factors on the table.  This module provides
:class:`AnalysisIndex`, the one implementation behind
:mod:`repro.analysis.refined` and :mod:`repro.analysis.extensions`:
built once per sync graph, it

* assigns dense integer ids to CLG nodes (``clg.node_index`` order) and
  stores the CLG as CSR-style int adjacency arrays, split into sync
  and non-sync (control/internal) edges — the only distinction the
  NO-SYNC marking needs;
* precomputes, per rendezvous node, the pruning mark vectors of the
  refined algorithm as int bitsets: SEQUENCEABLE-with (symmetric),
  same-task (constraint 1c), sync-partners (constraint 2), COACCEPT
  (Lemma 2) and NOT-COEXEC (constraint 3b);
* runs an iterative Tarjan kernel rooted at the hypothesis node that
  takes ``no_sync`` / ``do_not_enter`` exclusion bitsets directly and
  early-exits as soon as the root's component is decided: nodes
  unreachable from ``h_i`` are never visited, and components other
  than ``h_i``'s are never materialized.

Mark vectors are memoized per ``(head, use_coaccept)`` so the
extension analyses stop recomputing them inside their O(N²)–O(N^k)
combination loops.

Everything here must be observationally equivalent to the set-based
oracles in ``tests/oracles/`` (same verdicts, same evidence, same
``stats`` — including the per-rule pruning counters); the hypothesis
differential tests in ``tests/test_index.py`` enforce that.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .. import obs
from ..syncgraph.clg import CLG, EdgeKind, build_clg
from ..syncgraph.model import SyncGraph, SyncNode
from .coexec import CoExecInfo, compute_coexec
from .orderings import OrderingInfo, compute_orderings

__all__ = ["AnalysisIndex", "coaccept_of"]


def coaccept_of(graph: SyncGraph, node: SyncNode) -> Tuple[SyncNode, ...]:
    """``COACCEPT[node]``: other accepts of the same signal type.

    Empty for signaling (send) nodes, per the paper.
    """
    if node.kind != "accept":
        return ()
    assert node.signal is not None
    return tuple(
        other for other in graph.accepters_of(node.signal) if other is not node
    )


class AnalysisIndex:
    """Dense-id bitset view of one sync graph + CLG.

    Construct once and share across ``refined_deadlock_analysis``,
    ``constraint4`` and all four extension analyses via their
    ``index=`` parameter.  The precomputed ``clg`` / ``orderings`` /
    ``coexec`` are exposed so the differential tests can hand the same
    objects to the set-based oracles.
    """

    def __init__(
        self,
        graph: SyncGraph,
        clg: Optional[CLG] = None,
        orderings: Optional[OrderingInfo] = None,
        coexec: Optional[CoExecInfo] = None,
    ) -> None:
        self.graph = graph
        self.clg = clg if clg is not None else build_clg(graph)
        self.orderings = (
            orderings if orderings is not None else compute_orderings(graph)
        )
        self.coexec = coexec if coexec is not None else compute_coexec(graph)

        clg = self.clg
        node_index = clg.node_index
        nodes = clg.nodes
        n = len(nodes)
        self.node_count = n
        self._sync_of: List[Optional[SyncNode]] = [
            node.sync for node in nodes
        ]

        rendezvous = graph.rendezvous_nodes
        self.in_id: Dict[SyncNode, int] = {}
        self.out_id: Dict[SyncNode, int] = {}
        # in_of[p]: CLG in-node id of the rendezvous node at position p
        # (the positions the ordering rows are indexed by).
        in_of: List[int] = []
        in_bits = 0
        out_bits = 0
        for s in rendezvous:
            i = node_index[clg.in_node(s)]
            o = node_index[clg.out_node(s)]
            self.in_id[s] = i
            self.out_id[s] = o
            in_of.append(i)
            in_bits |= 1 << i
            out_bits |= 1 << o
        self.in_bits = in_bits
        self.out_bits = out_bits
        self.split_bits = in_bits | out_bits
        self.full_mask = (1 << n) - 1

        # CSR adjacency, split by the only distinction pruning needs:
        # sync edges (suppressible by NO-SYNC) vs control/internal.
        plain_start = [0] * (n + 1)
        sync_start = [0] * (n + 1)
        plain_dst: List[int] = []
        sync_dst: List[int] = []
        succ_all = [0] * n
        pred_all = [0] * n
        sync_succ = [0] * n
        sync_pred = [0] * n
        self_loops = 0
        for v, node in enumerate(nodes):
            for edge in clg.out_edges(node):
                w = node_index[edge.dst]
                succ_all[v] |= 1 << w
                pred_all[w] |= 1 << v
                if v == w:
                    self_loops |= 1 << v
                if edge.kind == EdgeKind.SYNC:
                    sync_dst.append(w)
                    sync_succ[v] |= 1 << w
                    sync_pred[w] |= 1 << v
                else:
                    plain_dst.append(w)
            plain_start[v + 1] = len(plain_dst)
            sync_start[v + 1] = len(sync_dst)
        self.plain_start = plain_start
        self.plain_dst = plain_dst
        self.sync_start = sync_start
        self.sync_dst = sync_dst
        self.succ_all_bits = succ_all
        self.pred_all_bits = pred_all
        self.sync_succ_bits = sync_succ
        self.sync_pred_bits = sync_pred
        self.self_loop_bits = self_loops

        # Per-head pruning mark vectors (in-node side unless noted).
        seq_bits: Dict[SyncNode, int] = {}
        same_task_bits: Dict[SyncNode, int] = {}
        partner_bits: Dict[SyncNode, int] = {}
        coaccept_bits: Dict[SyncNode, int] = {}
        not_coexec_bits: Dict[SyncNode, int] = {}
        task_bits: Dict[str, int] = {}
        in_id = self.in_id
        out_id = self.out_id
        for s, row in zip(rendezvous, self.orderings.sequenceable_rows):
            m = 0
            while row:
                k = (row & -row).bit_length() - 1
                row &= row - 1
                m |= 1 << in_of[k]
            seq_bits[s] = m
            m = 0
            for k in graph.sync_neighbors(s):
                m |= 1 << in_id[k]
            partner_bits[s] = m
            m = 0
            for k in coaccept_of(graph, s):
                m |= (1 << in_id[k]) | (1 << out_id[k])
            coaccept_bits[s] = m
            m = 0
            for k in self.coexec.not_coexec_with(s):
                m |= (1 << in_id[k]) | (1 << out_id[k])
            not_coexec_bits[s] = m
        for task in graph.tasks:
            t_in = 0
            t_all = 0
            for k in graph.nodes_of_task(task):
                t_in |= 1 << in_id[k]
                t_all |= (1 << in_id[k]) | (1 << out_id[k])
            task_bits[task] = t_all
            for k in graph.nodes_of_task(task):
                same_task_bits[k] = t_in & ~(1 << in_id[k])
        self.seq_bits = seq_bits
        self.same_task_bits = same_task_bits
        self.partner_bits = partner_bits
        self.coaccept_bits = coaccept_bits
        self.not_coexec_bits = not_coexec_bits
        self.task_bits = task_bits

        self._mark_cache: Dict[Tuple[SyncNode, bool], Tuple[int, int]] = {}
        if obs.is_enabled():
            obs.counter("index.builds").inc()
            obs.gauge("index.nodes").set(n)

    # -- mark vectors ------------------------------------------------------

    def head_marks(
        self, head: SyncNode, use_coaccept: bool = True
    ) -> Tuple[int, int]:
        """``(no_sync, do_not_enter)`` bitsets for one hypothesized head.

        Memoized: the extension analyses query the same head inside
        O(N²)–O(N^k) combination loops.
        """
        key = (head, use_coaccept)
        cached = self._mark_cache.get(key)
        observing = obs.is_enabled()
        if cached is not None:
            if observing:
                obs.counter("index.mark_cache_hits").inc()
            return cached
        no_sync = (
            self.seq_bits[head]
            | self.same_task_bits[head]
            | self.partner_bits[head]
        )
        if use_coaccept:
            no_sync |= self.coaccept_bits[head]
        marks = (no_sync, self.not_coexec_bits[head])
        self._mark_cache[key] = marks
        if observing:
            obs.counter("index.mark_cache_misses").inc()
        return marks

    def in_mask(self, nodes: Iterable[SyncNode]) -> int:
        """Bitset of the ``k_i`` ids of ``nodes``."""
        m = 0
        for k in nodes:
            m |= 1 << self.in_id[k]
        return m

    def task_restriction(self, tasks: Iterable[str]) -> int:
        """DO-NOT-ENTER bits removing every split node outside ``tasks``."""
        allowed = 0
        for task in tasks:
            allowed |= self.task_bits[task]
        return self.split_bits & ~allowed

    def project_ids(self, ids: Iterable[int]) -> FrozenSet[SyncNode]:
        """Component ids → sync-graph nodes (``project_component``)."""
        sync_of = self._sync_of
        return frozenset(
            sync_of[i] for i in ids if sync_of[i] is not None
        )

    # -- the kernel --------------------------------------------------------

    def cyclic_component_ids(
        self, root: int, no_sync: int, do_not_enter: int
    ) -> Tuple[Optional[List[int]], int]:
        """Cyclic SCC of ``root`` in the pruned CLG, plus nodes visited.

        Iterative Tarjan rooted at ``root`` only: sync edges incident to
        a ``no_sync`` endpoint and all edges incident to a
        ``do_not_enter`` node are skipped via bit tests.  Early exit —
        the DFS never leaves ``root``'s reachable set, components other
        than ``root``'s pop unmaterialized, and the walk stops the
        moment ``root``'s own component pops.  Returns ``(ids, visited)``
        with ``ids`` None when the component is acyclic (singleton
        without a self-loop); ``visited`` counts discovered nodes, the
        quantity the early exit saves versus a full enumeration.

        Callers must pre-check that ``root`` itself is not excluded.
        """
        plain_start = self.plain_start
        plain_dst = self.plain_dst
        sync_start = self.sync_start
        sync_dst = self.sync_dst
        excluded = do_not_enter
        ns_or_dne = no_sync | do_not_enter

        index: Dict[int, int] = {root: 0}
        lowlink: Dict[int, int] = {root: 0}
        on_stack = 1 << root
        stack = [root]
        counter = 1

        def neighbors(v: int) -> List[int]:
            out = [
                w
                for w in plain_dst[plain_start[v] : plain_start[v + 1]]
                if not (excluded >> w) & 1
            ]
            if not (no_sync >> v) & 1:
                out += [
                    w
                    for w in sync_dst[sync_start[v] : sync_start[v + 1]]
                    if not (ns_or_dne >> w) & 1
                ]
            return out

        work: List[Tuple[int, Iterable[int]]] = [
            (root, iter(neighbors(root)))
        ]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack |= 1 << w
                    work.append((w, iter(neighbors(w))))
                    advanced = True
                    break
                if (on_stack >> w) & 1 and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                if v == root:
                    # The root is the first node discovered, hence the
                    # root of its own SCC: everything still on the
                    # Tarjan stack is the component.  Decided — stop.
                    if len(stack) > 1 or (self.self_loop_bits >> root) & 1:
                        return stack, len(index)
                    return None, len(index)
                member = stack.pop()
                on_stack &= ~(1 << member)
                while member != v:
                    member = stack.pop()
                    on_stack &= ~(1 << member)
        return None, len(index)  # pragma: no cover - root always pops

    # -- pruning-effectiveness counters ------------------------------------

    def accumulate_prune_counts(
        self,
        head: SyncNode,
        use_coaccept: bool,
        global_no_sync: int,
        do_not_enter: int,
        counts: Dict[str, int],
    ) -> None:
        """Bitset replication of the set-based oracle's pruning counts
        (``tests/oracles/refined.py``).

        Same attribution rules: first-match claiming in PRUNE_RULES
        order for node marks; sync edges attributed src-first (the src
        of a sync edge is always an out-node, claimable only by
        COACCEPT); DO-NOT-ENTER removals claim all incident edges.
        ``<rule>_nodes`` keys are always written, edge keys only when
        non-zero — matching the oracle's incremental dict writes.
        """
        rule_marks = (
            ("sequenceable", self.seq_bits[head]),
            ("same_task", self.same_task_bits[head]),
            ("sync_partner", self.partner_bits[head]),
            ("coaccept", self.coaccept_bits[head] if use_coaccept else 0),
            ("constraint4", global_no_sync),
        )
        claimed_all = 0
        claim: Dict[str, int] = {}
        for rule, marks in rule_marks:
            fresh = marks & ~claimed_all
            claimed_all |= fresh
            claim[rule] = fresh
            counts[f"{rule}_nodes"] = counts.get(
                f"{rule}_nodes", 0
            ) + fresh.bit_count()
        dne = do_not_enter
        counts["not_coexec_nodes"] = counts.get(
            "not_coexec_nodes", 0
        ) + dne.bit_count()

        succ_all = self.succ_all_bits
        pred_all = self.pred_all_bits
        nce = 0
        m = dne
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            # Out-edges of a removed node, plus in-edges from surviving
            # sources (counting each edge between two removed nodes once).
            nce += succ_all[v].bit_count()
            nce += (pred_all[v] & ~dne).bit_count()
        if nce:
            counts["not_coexec_edges"] = counts.get("not_coexec_edges", 0) + nce

        sync_succ = self.sync_succ_bits
        sync_pred = self.sync_pred_bits
        src_claimed = claim["coaccept"] & self.out_bits
        src_count = 0
        m = src_claimed & ~dne
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            src_count += (sync_succ[v] & ~dne).bit_count()
        for rule, fresh in claim.items():
            count = src_count if rule == "coaccept" else 0
            m = fresh & self.in_bits & ~dne
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                count += (sync_pred[w] & ~dne & ~src_claimed).bit_count()
            if count:
                key = f"{rule}_sync_edges"
                counts[key] = counts.get(key, 0) + count
