"""Extensions of the refined algorithm (paper, Section 4.2).

The paper lists four accuracy/cost trade-offs beyond single-head
hypotheses:

1. **Head pairs** — hypothesize two head nodes at once; report only
   components containing both.  A deadlock cycle spans at least two
   tasks, so it has at least two head nodes; a pair hypothesis can
   additionally skip pairs that provably cannot co-head (sequenceable,
   sync-edge-connected, or not co-executable).
2. **Head–tail pairs** — hypothesize the node where the cycle leaves
   the head's task; report only components containing ``h_i`` and
   ``t_o``.
3. **Combined** — pairs of head–tail pairs.
4. **k pairs** — generalization with exhaustive search for short
   cycles; the ``k = 2`` case coincides with 3 plus an exhaustive
   two-task cycle check, which is what we implement.

Each function certifies deadlock-freedom when no hypothesis survives;
any surviving hypothesis is conservatively reported.

Each analysis is a private loop over a small marking/search engine,
:class:`_IndexOps`, which drives the bitset kernels of
:class:`~repro.analysis.index.AnalysisIndex` — one shared index, mark
vectors memoized across the O(N²)–O(N^k) combination loops, the
forward–backward component kernel.  The differential tests run the
same loops on a set-based engine (``tests/oracles/extensions.py``).
Candidate tails are visited in uid order, so reports do not depend on
the string hash seed.  Every hypothesis loop checks the active request
budget (:mod:`repro.budget`) on entry and every
:data:`~repro.budget.CHECK_EVERY` hypotheses, as the refined head loop
does.
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from .. import obs
from ..budget import CHECK_EVERY, checkpoint
from ..errors import AnalysisError
from ..syncgraph.clg import in_id_of, out_id_of, rendezvous_uids
from ..syncgraph.model import SyncGraph, SyncNode
from .coexec import CoExecInfo
from .index import AnalysisIndex, coaccept_of
from .refined import possible_heads
from .results import DeadlockEvidence, DeadlockReport, Verdict

__all__ = [
    "head_pairs_analysis",
    "head_tail_analysis",
    "combined_pairs_analysis",
    "k_pairs_analysis",
    "k_pairs_3_analysis",
]


T = TypeVar("T")


def _budgeted(items: Iterable[T]) -> Iterator[T]:
    """``items``, with the active request budget checked before the
    first and then every :data:`~repro.budget.CHECK_EVERY` items."""
    budget = checkpoint()
    if budget is None:
        yield from items
        return
    countdown = CHECK_EVERY
    for item in items:
        countdown -= 1
        if not countdown:
            budget.check()
            countdown = CHECK_EVERY
        yield item


class _IndexOps:
    """Bitset marking/search engine over a shared :class:`AnalysisIndex`.

    Components come back as sorted rendezvous uids; evidence resolves
    them in ``graph``, the graph under analysis, which may be a
    uid-equal rebuild of ``index.graph``.
    """

    empty: int = 0

    def __init__(self, index: AnalysisIndex, graph: SyncGraph) -> None:
        self.index = index
        self.graph = graph
        self.orderings = index.orderings
        self.coexec = index.coexec

    def in_ref(self, node: SyncNode) -> int:
        return in_id_of(node)

    def out_ref(self, node: SyncNode) -> int:
        return out_id_of(node)

    def head_marks(
        self, head: SyncNode, use_coaccept: bool = True
    ) -> Tuple[int, int]:
        return self.index.head_marks(head, use_coaccept)

    def tail_marks(self, tail: SyncNode) -> int:
        return self.index.not_coexec_marks(tail)

    def task_restriction(self, tasks: Set[str]) -> int:
        return self.index.task_restriction(tasks)

    def search(
        self, required: Tuple[int, ...], no_sync: int, do_not_enter: int
    ) -> Optional[Tuple[int, ...]]:
        combined = no_sync | do_not_enter
        for r in required:
            if (combined >> r) & 1:
                return None
        # SCCs partition the pruned CLG, so the component of the first
        # required node is the only candidate containing all of them.
        ids, _reached = self.index.cyclic_component_ids(
            required[0], no_sync, do_not_enter
        )
        if ids is None:
            return None
        if len(required) > 1:
            id_set = set(ids)
            if any(r not in id_set for r in required[1:]):
                return None
        return rendezvous_uids(ids)


def _index_ops(
    graph: SyncGraph, index: Optional[AnalysisIndex]
) -> _IndexOps:
    if graph.has_control_cycle():
        raise AnalysisError(
            "extension analyses require acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    if index is None:
        index = AnalysisIndex(graph)
    return _IndexOps(index, graph)


def head_pairs_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """Extension 1: hypothesize pairs of head nodes.

    A pair is viable only if the two nodes are in different tasks, are
    not sequenceable, are co-executable, and cannot rendezvous with each
    other (constraint 2 — co-heads joined by a sync edge would let the
    wave advance).
    """
    return _head_pairs(graph, _index_ops(graph, index))


def _head_pairs(graph: SyncGraph, ops: _IndexOps) -> DeadlockReport:
    orderings, coexec = ops.orderings, ops.coexec
    heads = possible_heads(graph)
    evidence: List[DeadlockEvidence] = []
    examined = 0
    for h1, h2 in _budgeted(combinations(heads, 2)):
        if h1.task == h2.task:
            continue
        if orderings.sequenceable(h1, h2):
            continue
        if coexec.not_coexecutable(h1, h2):
            continue
        if graph.has_sync_edge(h1, h2):
            continue
        examined += 1
        ns1, dne1 = ops.head_marks(h1)
        ns2, dne2 = ops.head_marks(h2)
        uids = ops.search(
            (ops.in_ref(h1), ops.in_ref(h2)),
            ns1 | ns2,
            dne1 | dne2,
        )
        if uids is not None:
            evidence.append(DeadlockEvidence(graph, uids, head=h1, tail=h2))
    if obs.is_enabled():
        enumerated = len(heads) * (len(heads) - 1) // 2
        obs.counter(
            "extensions.pairs_enumerated", analysis="head-pairs"
        ).inc(enumerated)
        obs.counter(
            "extensions.pairs_examined", analysis="head-pairs"
        ).inc(examined)
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined+head-pairs",
        evidence=evidence,
        heads_examined=examined,
        stats={"pairs_examined": examined},
    )


def _candidate_tails(
    graph: SyncGraph,
    head: SyncNode,
    coexec: CoExecInfo,
    nodes: Tuple[SyncNode, ...],
) -> Tuple[SyncNode, ...]:
    """Candidate tail nodes for ``head`` per the paper's criteria, in
    uid order.

    ``t`` is reachable by control flow from ``head``, has a sync edge to
    exit through, and ``t ∉ COACCEPT[head] ∪ NOT-COEXEC[head]``.  The
    order matters: :func:`head_tail_analysis` stops at the first
    surviving tail.  ``nodes`` is ``graph.rendezvous_nodes``: positions
    are ``uid - 2``, and the tails must be ``graph``'s nodes, not those
    of the graph a shared ``coexec`` was computed on.
    """
    p = coexec.position(head)
    m = coexec.reach_rows[p] & ~coexec.not_coexec_rows[p]
    for k in coaccept_of(graph, head):
        m &= ~(1 << coexec.position(k))
    tails = []
    while m:
        low = m & -m
        m ^= low
        t = nodes[low.bit_length() - 1]
        if t.task == head.task and graph.sync_neighbors(t):
            tails.append(t)
    return tuple(tails)


def head_tail_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """Extension 2: hypothesize (head, tail) pairs within one task.

    For a candidate pair, nodes not co-executable with the head *or*
    the tail are removed, sequenceable nodes lose head-entry sync edges,
    and COACCEPT marking is unnecessary (the exit node is fixed).  A
    head with no viable tail cannot head any cycle.
    """
    return _head_tail(graph, _index_ops(graph, index))


def _head_tail(graph: SyncGraph, ops: _IndexOps) -> DeadlockReport:
    coexec = ops.coexec
    heads = possible_heads(graph)
    nodes = graph.rendezvous_nodes
    evidence: List[DeadlockEvidence] = []
    examined = 0
    for head in heads:
        for tail in _budgeted(_candidate_tails(graph, head, coexec, nodes)):
            examined += 1
            # COACCEPT marking is unnecessary when the exit node is
            # hypothesized explicitly (paper, extensions discussion).
            no_sync, do_not_enter = ops.head_marks(head, use_coaccept=False)
            do_not_enter = do_not_enter | ops.tail_marks(tail)
            uids = ops.search(
                (ops.in_ref(head), ops.out_ref(tail)),
                no_sync,
                do_not_enter,
            )
            if uids is not None:
                evidence.append(
                    DeadlockEvidence(graph, uids, head=head, tail=tail)
                )
                break  # one surviving tail suffices to flag this head
    if obs.is_enabled():
        obs.counter(
            "extensions.pairs_enumerated", analysis="head-tail"
        ).inc(examined)
        obs.counter(
            "extensions.pairs_examined", analysis="head-tail"
        ).inc(examined)
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined+head-tail",
        evidence=evidence,
        heads_examined=examined,
        stats={"head_tail_pairs_examined": examined},
    )


def combined_pairs_analysis(
    graph: SyncGraph,
    max_hypotheses: int = 250_000,
    index: Optional[AnalysisIndex] = None,
) -> DeadlockReport:
    """Extensions 3/4 (k=2): pairs of head–tail pairs.

    Every deadlock cycle spans at least two tasks, hence contributes at
    least two head–tail segments in distinct tasks; with ``k = 2`` the
    paper's exhaustive short-cycle search is therefore unnecessary (it
    is only required for ``k ≥ 3``, where two-task cycles would escape
    the distinct-pair hypotheses).  Raises :class:`AnalysisError` when
    the hypothesis space exceeds ``max_hypotheses`` — this extension is
    the expensive end of the paper's accuracy/cost spectrum.
    """
    return _combined_pairs(graph, _index_ops(graph, index), max_hypotheses)


def _combined_pairs(
    graph: SyncGraph, ops: _IndexOps, max_hypotheses: int
) -> DeadlockReport:
    orderings, coexec = ops.orderings, ops.coexec
    evidence: List[DeadlockEvidence] = []
    pairs: List[Tuple[SyncNode, SyncNode]] = []
    nodes = graph.rendezvous_nodes
    for head in possible_heads(graph):
        for tail in _candidate_tails(graph, head, coexec, nodes):
            pairs.append((head, tail))
    total = len(pairs) * (len(pairs) - 1) // 2
    if total > max_hypotheses:
        raise AnalysisError(
            f"combined-pairs hypothesis space too large ({total} pairs); "
            f"raise max_hypotheses to force the run"
        )
    examined = 0
    for (h1, t1), (h2, t2) in _budgeted(combinations(pairs, 2)):
        if h1.task == h2.task:
            continue
        if orderings.sequenceable(h1, h2):
            continue
        if coexec.not_coexecutable(h1, h2):
            continue
        if graph.has_sync_edge(h1, h2):
            continue
        examined += 1
        ns1, dne1 = ops.head_marks(h1, use_coaccept=False)
        ns2, dne2 = ops.head_marks(h2, use_coaccept=False)
        no_sync = ns1 | ns2
        do_not_enter = (
            dne1 | dne2 | ops.tail_marks(t1) | ops.tail_marks(t2)
        )
        uids = ops.search(
            (
                ops.in_ref(h1),
                ops.out_ref(t1),
                ops.in_ref(h2),
                ops.out_ref(t2),
            ),
            no_sync,
            do_not_enter,
        )
        if uids is not None:
            evidence.append(DeadlockEvidence(graph, uids, head=h1, tail=h2))
    if obs.is_enabled():
        obs.counter(
            "extensions.pairs_enumerated", analysis="combined-pairs"
        ).inc(total)
        obs.counter(
            "extensions.pairs_examined", analysis="combined-pairs"
        ).inc(examined)
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined+combined-pairs",
        evidence=evidence,
        heads_examined=examined,
        stats={"pair_hypotheses_examined": examined},
    )


def _restricted_two_task_search(
    graph: SyncGraph, ops: _IndexOps
) -> List[DeadlockEvidence]:
    """Exhaustive search for cycles spanning exactly two tasks.

    For every ordered task pair the CLG is restricted to those tasks'
    split nodes and each head hypothesis from the first task is run
    inside the restriction.  Complete for two-task cycles: such a cycle
    only ever touches nodes of its two tasks.
    """
    evidence: List[DeadlockEvidence] = []
    heads_by_task: Dict[str, List[SyncNode]] = {}
    for head in possible_heads(graph):
        heads_by_task.setdefault(head.task, []).append(head)
    tasks = [t for t in graph.tasks if t in heads_by_task]
    for a_idx, task_a in enumerate(tasks):
        for task_b in tasks[a_idx + 1 :]:
            restriction = ops.task_restriction({task_a, task_b})
            for head in _budgeted(heads_by_task[task_a]):
                ns, dne = ops.head_marks(head)
                uids = ops.search((ops.in_ref(head),), ns, dne | restriction)
                if uids is not None:
                    evidence.append(DeadlockEvidence(graph, uids, head=head))
                    break  # one witness per task pair suffices
    return evidence


def k_pairs_analysis(
    graph: SyncGraph,
    k: int = 3,
    max_hypotheses: int = 500_000,
    index: Optional[AnalysisIndex] = None,
) -> DeadlockReport:
    """Extension 4 for general ``k``: hypothesize ``k`` head–tail pairs.

    Per the paper: a deadlock cycle either joins fewer than ``k`` tasks
    — handled by exhaustive search (cycles span ≥ 2 tasks, so only the
    2..k-1 task cases need it; the two-task case is searched directly
    and cycles of 3..k-1 tasks necessarily light up some smaller tuple,
    so they are covered by recursing on ``k-1``) — or some set of ``k``
    hypothesized pairs lies in one strong component.

    Cost grows as ``O(pairs^k)``; ``max_hypotheses`` guards the
    combinatorial explosion.  ``k = 2`` delegates to
    :func:`combined_pairs_analysis`.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return _k_pairs(graph, _index_ops(graph, index), k, max_hypotheses)


def _k_pairs(
    graph: SyncGraph, ops: _IndexOps, k: int, max_hypotheses: int
) -> DeadlockReport:
    if k == 2:
        report = _combined_pairs(graph, ops, max_hypotheses)
        report.algorithm = "refined+k-pairs(2)"
        return report
    orderings, coexec = ops.orderings, ops.coexec

    # Cycles spanning fewer than k tasks.  For k = 3 only two-task
    # cycles need exhaustive coverage (searched directly, restricted to
    # each task pair); for k > 3 the k-1 analysis covers 2..k-1 tasks.
    if k == 3:
        evidence: List[DeadlockEvidence] = list(
            _restricted_two_task_search(graph, ops)
        )
    else:
        smaller = _k_pairs(graph, ops, k - 1, max_hypotheses)
        evidence = list(smaller.evidence)

    pairs: List[Tuple[SyncNode, SyncNode]] = []
    nodes = graph.rendezvous_nodes
    for head in possible_heads(graph):
        for tail in _candidate_tails(graph, head, coexec, nodes):
            pairs.append((head, tail))
    total = 1
    for i in range(k):
        total *= max(1, len(pairs) - i)
    if total > max_hypotheses:
        raise AnalysisError(
            f"k-pairs hypothesis space too large (~{total}); raise "
            "max_hypotheses to force the run"
        )
    examined = 0
    for combo in _budgeted(combinations(pairs, k)):
        tasks_used = {h.task for h, _ in combo}
        if len(tasks_used) != k:
            continue
        viable = True
        for (h1, _), (h2, _) in combinations(combo, 2):
            if (
                orderings.sequenceable(h1, h2)
                or coexec.not_coexecutable(h1, h2)
                or graph.has_sync_edge(h1, h2)
            ):
                viable = False
                break
        if not viable:
            continue
        examined += 1
        no_sync = ops.empty
        do_not_enter = ops.empty
        required = []
        for head, tail in combo:
            ns, dne = ops.head_marks(head, use_coaccept=False)
            no_sync = no_sync | ns
            do_not_enter = do_not_enter | dne | ops.tail_marks(tail)
            required.append(ops.in_ref(head))
            required.append(ops.out_ref(tail))
        uids = ops.search(tuple(required), no_sync, do_not_enter)
        if uids is not None:
            evidence.append(
                DeadlockEvidence(
                    graph, uids, head=combo[0][0], tail=combo[1][0]
                )
            )
    if obs.is_enabled():
        obs.counter(
            "extensions.pairs_enumerated", analysis=f"k-pairs({k})"
        ).inc(total)
        obs.counter(
            "extensions.pairs_examined", analysis=f"k-pairs({k})"
        ).inc(examined)
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    return DeadlockReport(
        verdict=verdict,
        algorithm=f"refined+k-pairs({k})",
        evidence=evidence,
        heads_examined=examined,
        stats={"k": k, "k_tuples_examined": examined},
    )


def k_pairs_3_analysis(
    graph: SyncGraph, index: Optional[AnalysisIndex] = None
) -> DeadlockReport:
    """:func:`k_pairs_analysis` fixed at ``k = 3``.

    A named, picklable registry entry for ``repro.api.ALGORITHMS`` — a
    lambda there would make the registry unpicklable and leak into any
    state that captures an algorithm callable (farm workers, caches).
    """
    return k_pairs_analysis(graph, k=3, index=index)
