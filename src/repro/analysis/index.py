"""Integer-indexed bitset kernels for the refined algorithm family.

A literal reading of the paper runs each head hypothesis through
per-edge Python closures over hashed CLG node sets and re-enumerates
*every* SCC of the pruned CLG.  That leaves large constant factors on
the table.  This module provides :class:`AnalysisIndex`, the one
implementation behind :mod:`repro.analysis.refined` and
:mod:`repro.analysis.extensions`: built once per sync graph, it

* turns the CLG's out-edges (:func:`~repro.syncgraph.clg.clg_out_edges`,
  ids ``b`` = 0, ``e`` = 1, ``r_i`` = 2·uid − 2, ``r_o`` = 2·uid − 1)
  into int bitset rows, successor and predecessor, split into sync and
  plain (control/internal) edges, the only distinction the NO-SYNC
  marking needs;
* precomputes, per rendezvous position (``uid - 2``), the pruning mark
  vectors of the refined algorithm as int bitsets over CLG ids:
  SEQUENCEABLE-with (symmetric), same-task (constraint 1c),
  sync-partners (constraint 2), COACCEPT (Lemma 2) and NOT-COEXEC
  (constraint 3b);
* finds the cyclic component of a hypothesis node ``h_i`` as
  ``fwd(h_i) ∩ bwd(h_i)`` in the pruned CLG — the forward–backward idea
  of Fleischer, Hendrickson and Pınar — one frontier at a time over the
  rows, with the ``no_sync`` / ``do_not_enter`` exclusion bitsets
  applied as masks.  Nodes unreachable from ``h_i`` are never touched,
  and when no edge re-enters ``h_i`` the backward pass is skipped.

No :class:`SyncNode` is hashed while the index is built, while a
head hypothesis runs or when its evidence is made: a component's ids
become sorted rendezvous uids
(:func:`~repro.syncgraph.clg.rendezvous_uids`), and the
:class:`~repro.analysis.results.DeadlockEvidence` resolves them in the
graph the caller analyzes rather than the one the index was built
from: the index holds only uids, so one index serves every uid-equal
graph — a comment edit rebuilds the sync graph with new spans but the
same uids.  Mark vectors
are memoized per ``(head, use_coaccept)`` so the extension analyses
stop recomputing them inside their O(N²)–O(N^k) combination loops.

Everything here must be observationally equivalent to the set-based
oracles in ``tests/oracles/`` (same verdicts, same evidence, same
``stats`` — including the per-rule pruning counters); the hypothesis
differential tests in ``tests/test_index.py`` enforce that, and
``tests/test_index_rows.py`` pins the rows to the object CLG oracle of
``tests/oracles/clg.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..syncgraph.clg import EdgeKind, clg_out_edges, in_id_of
from ..syncgraph.model import SyncGraph, SyncNode, bit_ids
from .coexec import CoExecInfo, compute_coexec
from .orderings import OrderingInfo, compute_orderings

__all__ = [
    "AnalysisIndex",
    "coaccept_of",
]


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


def _spread(row: int) -> int:
    """Position bitset → bitset of the positions' ``r_i`` ids.

    Bit ``p`` moves to bit ``2p + 2``: interleaving the binary digits
    with zeros doubles every bit index, and the shift skips ``b``/``e``.
    """
    return int("0".join(format(row, "b")), 2) << 2


class AnalysisIndex:
    """Dense-id bitset view of one sync graph's CLG.

    Construct once and share across ``refined_deadlock_analysis``,
    ``constraint4`` and all four extension analyses via their
    ``index=`` parameter (:attr:`repro.api.PreparedProgram.index` is
    the one the pipeline builds).  ``orderings`` / ``coexec`` are the
    one way to hand an analysis precomputed or externally enriched
    facts; they are exposed so the differential tests can hand the
    same objects to the set-based oracles.
    """

    def __init__(
        self,
        graph: SyncGraph,
        orderings: Optional[OrderingInfo] = None,
        coexec: Optional[CoExecInfo] = None,
    ) -> None:
        self.graph = graph
        self.orderings = (
            orderings if orderings is not None else compute_orderings(graph)
        )
        self.coexec = coexec if coexec is not None else compute_coexec(graph)

        count = len(graph) - 2
        n = 2 + 2 * count
        self.node_count = n
        # r_i ids are the even ids from 2, r_o ids the odd ones from 3.
        self.in_bits = int("01" * count + "00", 2)
        self.out_bits = self.in_bits << 1
        self.split_bits = self.in_bits | self.out_bits

        # The CLG's edges as bit rows.
        plain_succ = [0] * n
        plain_pred = [0] * n
        sync_succ = [0] * n
        sync_pred = [0] * n
        sync = EdgeKind.SYNC
        for v, out in enumerate(clg_out_edges(graph)):
            bit = 1 << v
            for w, kind in out:
                if kind is sync:
                    sync_succ[v] |= 1 << w
                    sync_pred[w] |= bit
                else:
                    plain_succ[v] |= 1 << w
                    plain_pred[w] |= bit
        self.plain_succ = plain_succ
        self.plain_pred = plain_pred
        self.sync_succ = sync_succ
        self.sync_pred = sync_pred
        self.edge_count = sum(row.bit_count() for row in plain_succ) + sum(
            row.bit_count() for row in sync_succ
        )

        # Per-position pruning mark vectors (in-node side unless noted).
        # A node's sync partners are its rule-6 successors.
        self.seq_bits = [
            _spread(row) for row in self.orderings.sequenceable_rows
        ]
        self.partner_bits = sync_succ[3::2]
        # Both split nodes: r_i | r_o = 3 << (2p + 2).
        self.not_coexec_bits = [
            _spread(row) * 3 for row in self.coexec.not_coexec_rows
        ]
        coaccept_bits = [0] * count
        for signal in graph.signals:
            group = [node.uid - 2 for node in graph.accepters_of(signal)]
            m = 0
            for p in group:
                m |= 3 << (2 * p + 2)
            for p in group:
                coaccept_bits[p] = m & ~(3 << (2 * p + 2))
        self.coaccept_bits = coaccept_bits
        same_task_bits = [0] * count
        task_bits: Dict[str, int] = {}
        for task in graph.tasks:
            members = [u - 2 for u in graph.task_uids(task)]
            t_in = 0
            for p in members:
                t_in |= 1 << (2 * p + 2)
            task_bits[task] = t_in * 3
            for p in members:
                same_task_bits[p] = t_in & ~(1 << (2 * p + 2))
        self.same_task_bits = same_task_bits
        self.task_bits = task_bits

        # Keyed by 2·uid + use_coaccept.
        self._mark_cache: Dict[int, Tuple[int, int]] = {}
        if obs.is_enabled():
            obs.counter("index.builds").inc()
            obs.gauge("index.nodes").set(n)
            obs.histogram("index.nodes_per_build").observe(n)

    # -- mark vectors ------------------------------------------------------

    def head_marks(
        self, head: SyncNode, use_coaccept: bool = True
    ) -> Tuple[int, int]:
        """``(no_sync, do_not_enter)`` bitsets for one hypothesized head.

        Memoized: the extension analyses query the same head inside
        O(N²)–O(N^k) combination loops.
        """
        key = 2 * head.uid + use_coaccept
        cached = self._mark_cache.get(key)
        observing = obs.is_enabled()
        if cached is not None:
            if observing:
                obs.counter("index.mark_cache_hits").inc()
            return cached
        p = head.uid - 2
        no_sync = (
            self.seq_bits[p] | self.same_task_bits[p] | self.partner_bits[p]
        )
        if use_coaccept:
            no_sync |= self.coaccept_bits[p]
        marks = (no_sync, self.not_coexec_bits[p])
        self._mark_cache[key] = marks
        if observing:
            obs.counter("index.mark_cache_misses").inc()
        return marks

    def not_coexec_marks(self, node: SyncNode) -> int:
        """DO-NOT-ENTER bits removing the nodes never co-executable
        with ``node`` (both split nodes of each)."""
        return self.not_coexec_bits[node.uid - 2]

    def in_mask(self, nodes: Iterable[SyncNode]) -> int:
        """Bitset of the ``k_i`` ids of ``nodes``."""
        m = 0
        for k in nodes:
            m |= 1 << in_id_of(k)
        return m

    def task_restriction(self, tasks: Iterable[str]) -> int:
        """DO-NOT-ENTER bits removing every split node outside ``tasks``."""
        allowed = 0
        for task in tasks:
            allowed |= self.task_bits[task]
        return self.split_bits & ~allowed

    # -- the kernel --------------------------------------------------------

    def cyclic_component_ids(
        self, root: int, no_sync: int, do_not_enter: int
    ) -> Tuple[Optional[List[int]], int]:
        """Cyclic SCC of ``root`` in the pruned CLG, plus nodes reached.

        The pruned CLG drops every node in ``do_not_enter`` and every
        sync edge with an endpoint in ``no_sync``.  Its SCC through
        ``root`` is ``fwd(root) ∩ bwd(root)``: the forward reach is
        taken one frontier at a time by OR-ing the successor rows of
        the frontier, and the backward reach the same way over the
        predecessor rows, restricted to the forward set.  When no edge
        re-enters ``root`` from its forward reach — a self-loop would —
        ``root`` lies on no cycle and the backward pass is skipped.

        Returns ``(ids, reached)``: ``ids`` is None when the component
        is acyclic, and ``reached`` is the size of the forward reach.
        Callers must pre-check that ``root`` itself is not excluded.
        """
        root_bit = 1 << root
        keep = ~do_not_enter
        sync_keep = ~(no_sync | do_not_enter)

        plain_rows = self.plain_succ
        sync_rows = self.sync_succ
        fwd = frontier = root_bit
        closing = 0
        while frontier:
            plain = sync = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                plain |= plain_rows[v]
                if not no_sync & low:
                    sync |= sync_rows[v]
            step = (plain & keep) | (sync & sync_keep)
            closing |= step
            frontier = step & ~fwd
            fwd |= frontier
        reached = fwd.bit_count()
        if not closing & root_bit:
            return None, reached

        plain_rows = self.plain_pred
        sync_rows = self.sync_pred
        sync_keep = fwd & ~no_sync
        bwd = frontier = root_bit
        while frontier:
            plain = sync = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                v = low.bit_length() - 1
                plain |= plain_rows[v]
                if not no_sync & low:
                    sync |= sync_rows[v]
            frontier = ((plain & fwd) | (sync & sync_keep)) & ~bwd
            bwd |= frontier
        return bit_ids(bwd), reached

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
        p = head.uid - 2
        rule_marks = (
            ("sequenceable", self.seq_bits[p]),
            ("same_task", self.same_task_bits[p]),
            ("sync_partner", self.partner_bits[p]),
            ("coaccept", self.coaccept_bits[p] if use_coaccept else 0),
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

        plain_succ, sync_succ = self.plain_succ, self.sync_succ
        plain_pred, sync_pred = self.plain_pred, self.sync_pred
        nce = 0
        m = dne
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            # Out-edges of a removed node, plus in-edges from surviving
            # sources (counting each edge between two removed nodes once).
            nce += plain_succ[v].bit_count() + sync_succ[v].bit_count()
            nce += ((plain_pred[v] | sync_pred[v]) & ~dne).bit_count()
        if nce:
            counts["not_coexec_edges"] = counts.get("not_coexec_edges", 0) + nce

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
