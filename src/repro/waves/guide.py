"""Admissible future-cost guidance for exact witness search.

Blind BFS over the wave space (:mod:`repro.waves.engine`) spends its
state budget uniformly in every direction, even though the refined
static analysis has already named *which* rendezvous nodes could head a
deadlock cycle.  This module precomputes the wave-space analogue of a
decoder's future-cost table ``FCT[i, j]``: for every task position, the
shortest control distance (in rendezvous steps the task itself must
take) to each candidate anomaly head flagged by the refined analysis.
The engine's one search loop (:meth:`~repro.waves.engine.WaveIndex.search`)
then uses it for both guided frontiers, so the search walks toward the
flagged heads first: the A\\* heap orders expansion by ``g + h``, and
beam cuts each depth layer to the states with the lowest ``h``.  BFS,
the layered frontier with no cut, never consults it.  Only the A\\*
witness search reopens a key reached by a strictly shorter path.

The table is built from uids alone: positions are the engine's local
ids (``WaveIndex.task_of`` / ``local_of``), each task's local
predecessor lists are built once from
:meth:`~repro.syncgraph.model.SyncGraph.successor_uids` and shared by
every distance BFS, evidence groups come from
:attr:`~repro.analysis.results.DeadlockEvidence.uids`, and the
always-ready chains are uid lists and bitsets, so no
:class:`~repro.syncgraph.model.SyncNode` is hashed.  The node-keyed
build it is tested against is ``tests/oracles/guide.py``.

Admissibility argument (the heuristic never overestimates)
----------------------------------------------------------

Let ``W`` be any reachable deadlock wave and ``D`` its deadlock set.
The refined algorithm is conservative: if no head hypothesis produced
evidence, no deadlock wave is reachable at all; otherwise every member
``h`` of ``D`` that yields evidence has a component ``C(h) ⊇ D``
(constraint-1 cycles survive their own head's pruning).  Fix one such
``h`` — then in ``W``:

* the task of ``h`` is positioned exactly *at* ``h`` (deadlock-set
  members are wave entries), and
* at least one *other* task is positioned at a node of ``C(h)``
  belonging to its own task (``|D| >= 2`` and ``D ⊆ C(h)``).

A task whose current position is ``p`` needs at least ``dist(p, v)``
control steps to stand at ``v`` (every control step of a task fires one
rendezvous the task participates in), so any schedule from the current
wave to ``W`` fires at least

    ``bound(h) = max(dist(pos_head, h), min_t dist(pos_t, C(h) ∩ t))``

rendezvous.  The heuristic takes the **minimum of bound(h) over every
evidence group** — a lower bound on the distance to the *nearest*
deadlock wave.

The second ingredient charges for *quiescence*.  In any anomalous wave
— deadlock or stall — **every** task's entry is non-ready.  A task can
only be non-ready at ``e`` or at a rendezvous that can actually block.
The table statically certifies some rendezvous as *always-ready* by a
lockstep-prefix argument: if tasks ``t`` and ``u`` both have
straight-line bodies whose leading rendezvous partner each other
exclusively, one-to-one and in matching order, then whenever ``t``
stands at the ``i``-th prefix node, ``u`` provably stands at its
``i``-th — the pair is ready, so those nodes can never be the entry of
an anomalous wave.  Let ``q_t(p)`` be the control distance from ``p``
to the nearest *non-certified* position of ``t`` (including ``e``).
One rendezvous advances exactly two tasks one control step each, so
any schedule to any anomalous wave fires at least

    ``Q = max(max_t q_t, ceil((sum_t q_t) / 2))``

rendezvous.  The deadlock estimate is ``max(min_h bound(h), Q)`` and
the stall/any estimate is ``Q`` alone; the max of admissible lower
bounds is admissible.  Every ingredient is also *consistent*: one unit
of path cost moves two tasks one control step, dropping each per-task
distance by at most 1, hence each ``bound(h)``, ``max_t q_t`` and
``ceil(sum/2)`` by at most 1.  A\\* with a consistent heuristic pops
every state with its optimal ``g``, so the first matching anomalous
wave popped yields a *shortest* witness, exactly like BFS.

States from which no evidence group is reachable get a large **finite**
cost (:data:`SATURATED`): they are explored last but never pruned, so a
complete guided run still enumerates the same reachable wave set as
BFS and the verdict can never change — guidance only reorders which
states are expanded first.

Witness searches walk the persistent-set reduced graph of
:mod:`repro.waves.engine`, a subgraph of the full one: distances there
are never shorter, so both terms stay admissible, and every edge of it
is an edge of the full graph, so they stay consistent.

On a graph with control cycles (the pre-unroll graph that exact search
walks when the Lemma-1 unroll is approximate) the refined analysis
cannot run, so a table built without a report drops the cycle term and
keeps the quiescence term alone, which bounds the distance to every
anomalous wave, deadlocks included; :func:`_straight_chain` already
stops at a loop.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..syncgraph.model import SyncGraph

if TYPE_CHECKING:  # pragma: no cover - cycle guard (engine -> guide)
    from ..analysis.results import DeadlockReport
    from .engine import WaveIndex

__all__ = [
    "DEFAULT_BEAM_WIDTH",
    "SATURATED",
    "STRATEGIES",
    "FutureCostTable",
    "build_guide",
    "guide_for",
    "validate_strategy",
]

# Search-order selector shared by explore/exact_deadlock/exact_anomaly/
# find_anomaly_witness/confirm/analyze/CLI: "bfs" is the blind
# breadth-first baseline, "astar" best-first on g + FCT, "beam" layered
# best-first with a bounded frontier.
STRATEGIES = ("bfs", "astar", "beam")

DEFAULT_BEAM_WIDTH = 1024

# Per-task distance for "this task can never reach a flagged head from
# here", and the heuristic value when that holds for every evidence
# group.  Large enough to sort dead-end states behind every live one,
# finite so they are still expanded (never pruned): completeness — and
# therefore verdict parity with BFS — does not depend on the refined
# evidence being exhaustive.
SATURATED = 1 << 30

# One evidence group, precompiled against a WaveIndex:
# (head_shift, head_mask, head_dists, ((shift, mask, dists), ...))
# where dists are per-local-position distance tuples.
_Group = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, int, Tuple[int, ...]], ...]]


def validate_strategy(strategy: str, beam_width: Optional[int]) -> int:
    """Validate the (strategy, beam_width) combination.

    Returns the effective beam width (:data:`DEFAULT_BEAM_WIDTH` when
    unset).  Raises ``ValueError`` on an unknown strategy, a
    ``beam_width`` without ``strategy="beam"``, or a non-positive width.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose one of {STRATEGIES}"
        )
    if beam_width is not None:
        if strategy != "beam":
            raise ValueError(
                f"beam_width only applies to strategy='beam' "
                f"(got strategy={strategy!r})"
            )
        if beam_width < 1:
            raise ValueError(
                f"beam_width must be a positive integer (got {beam_width})"
            )
    return beam_width if beam_width is not None else DEFAULT_BEAM_WIDTH


def _distances(
    preds: List[List[int]], targets: Iterable[int]
) -> Tuple[int, ...]:
    """Shortest control distance from each of a task's wave positions
    to the nearest local position in ``targets`` (``SATURATED`` when
    unreachable).

    ``preds`` are the task's local predecessor lists.  Distances count
    control edges, i.e. rendezvous the task itself must fire to stand
    at the target; reverse BFS from the target set, one layer at a
    time.
    """
    dist = [SATURATED] * len(preds)
    layer = []
    for t in targets:
        if dist[t]:
            dist[t] = 0
            layer.append(t)
    d = 0
    while layer:
        d += 1
        nxt = []
        for cur in layer:
            for prev in preds[cur]:
                if d < dist[prev]:
                    dist[prev] = d
                    nxt.append(prev)
        layer = nxt
    return tuple(dist)


class FutureCostTable:
    """Precomputed admissible future costs over one :class:`WaveIndex`.

    Built from the candidate anomaly heads of a
    :class:`~repro.analysis.results.DeadlockReport` (normally the
    refined analysis of the engine's own graph, none on a cyclic graph
    — see :func:`build_guide`).  ``estimate(key)`` lower-bounds the number of
    rendezvous any schedule needs before the packed wave ``key`` can
    reach a deadlock wave; see the module docstring for the argument.
    """

    def __init__(
        self,
        engine: "WaveIndex",
        report: Optional["DeadlockReport"] = None,
    ) -> None:
        self.engine = engine
        graph = engine.graph
        if report is None and not graph.has_control_cycle():
            report = _refined_report(graph)
        # None on a cyclic graph given no report: the refined analysis
        # needs acyclic control flow, so the cycle term is dropped.
        self.report = report

        # Per task, the local predecessor lists of its positions (the
        # engine's local ids: its rendezvous uids in order, then `e`),
        # built once and read by every distance BFS below.
        task_of, local_of, e_local = (
            engine.task_of, engine.local_of, engine.e_local
        )
        e_uid = graph.e.uid
        preds: List[List[List[int]]] = []
        for i, task in enumerate(graph.tasks):
            p: List[List[int]] = [[] for _ in range(e_local[i] + 1)]
            for l, u in enumerate(graph.task_uids(task)):
                for s in graph.successor_uids(u):
                    if s == e_uid:
                        p[e_local[i]].append(l)
                    elif task_of[s] == i:
                        p[local_of[s]].append(l)
            preds.append(p)

        groups: List[_Group] = []
        seen: set = set()
        for ev in report.evidence if report is not None else ():
            members = ev.uids
            head = ev.head
            head_uid = head.uid if head is not None else -1
            sig = (head_uid, members)
            if sig in seen or not members:
                continue
            seen.add(sig)
            # task index -> the members' local ids, in uid order
            by_task: Dict[int, List[int]] = {}
            for u in members:
                by_task.setdefault(task_of[u], []).append(local_of[u])
            if len(by_task) < 2:
                continue  # a one-task component cannot deadlock a wave
            if head is None:
                # Headless evidence (e.g. the naive detector): the cycle
                # could be headed by any involved task, so emit one
                # group per task acting as head-at-any-of-its-targets —
                # the resulting min over groups is the second-smallest
                # per-task distance, which is the admissible bound for
                # "some >=2 tasks of the component stand at targets".
                for head_task, head_locals in by_task.items():
                    groups.append(
                        self._compile_group(
                            preds, head_task, head_locals, by_task
                        )
                    )
            else:
                groups.append(
                    self._compile_group(
                        preds, task_of[head_uid], [local_of[head_uid]],
                        by_task,
                    )
                )
        self._groups: Tuple[_Group, ...] = tuple(groups)

        # Quiescence distances: per task, the control distance to the
        # nearest position that is not certified always-ready (the
        # positions an anomalous wave could actually hold the task at,
        # `e` always among them).
        safe = _always_ready_uids(graph)
        quiet = []
        for i, task in enumerate(graph.tasks):
            targets = [
                l for l, u in enumerate(graph.task_uids(task))
                if not (safe >> u) & 1
            ]
            targets.append(e_local[i])
            quiet.append(
                (
                    engine.shift[i],
                    engine.mask[i],
                    _distances(preds[i], targets),
                )
            )
        self._quiet = tuple(quiet)

        if obs.is_enabled():
            obs.counter("guide.fct_builds").inc()
            obs.gauge("guide.groups").set(len(self._groups))

    def _compile_group(
        self,
        preds: List[List[List[int]]],
        head_task: int,
        head_locals: Sequence[int],
        by_task: Dict[int, List[int]],
    ) -> _Group:
        engine = self.engine
        tasks = engine.graph.tasks
        others = []
        # the other tasks in name order (their minimum is what counts)
        for task, locals_ in sorted(
            by_task.items(), key=lambda item: tasks[item[0]]
        ):
            if task != head_task:
                others.append(
                    (
                        engine.shift[task],
                        engine.mask[task],
                        _distances(preds[task], locals_),
                    )
                )
        return (
            engine.shift[head_task],
            engine.mask[head_task],
            _distances(preds[head_task], head_locals),
            tuple(others),
        )

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def _group_bound(self, key: int) -> int:
        """min over evidence groups of max(head distance, nearest
        other-member distance) — the cycle-formation term."""
        best = SATURATED
        for head_shift, head_mask, head_dists, others in self._groups:
            d_head = head_dists[(key >> head_shift) & head_mask]
            if d_head >= best:
                continue
            d_other = SATURATED
            for shift, mask, dists in others:
                d = dists[(key >> shift) & mask]
                if d < d_other:
                    d_other = d
                    if d == 0:
                        break
            bound = d_head if d_head > d_other else d_other
            if bound < best:
                best = bound
                if best == 0:
                    return 0
        return best

    def _quiescence(self, key: int) -> int:
        """max(max_t q_t, ceil(sum_t q_t / 2)) — every task must reach
        a position where it can actually be non-ready."""
        total = 0
        mx = 0
        for shift, mask, dists in self._quiet:
            d = dists[(key >> shift) & mask]
            if d >= SATURATED:
                return SATURATED
            total += d
            if d > mx:
                mx = d
        half = (total + 1) >> 1
        return mx if mx > half else half

    def estimate(self, key: int) -> int:
        """Admissible lower bound on rendezvous left before ``key`` can
        reach any deadlock wave (:data:`SATURATED` when provably — per
        the evidence coverage — none is reachable from here).  Without
        a report (a cyclic graph) it is the quiescence term alone, which
        bounds the distance to every anomalous wave, deadlocks
        included."""
        q = self._quiescence(key)
        if self.report is None:
            return q
        g = self._group_bound(key)
        return g if g > q else q

    def estimate_anomaly(self, key: int) -> int:
        """Admissible lower bound on rendezvous left before ``key`` can
        reach *any* anomalous wave (stall or deadlock): the quiescence
        term alone — stalls are not covered by deadlock evidence."""
        return self._quiescence(key)


def _straight_chain(graph: SyncGraph, task: str) -> List[int]:
    """The uids of the task's leading straight-line rendezvous chain.

    Nodes the task *must* traverse in order, each reachable only from
    its predecessor: a unique initial option, then unique control
    successors, with every chain node's control in-degree 1 (so the
    position index always equals the number of rendezvous fired).
    Stops at the first branch, join, loop, or non-rendezvous node
    (uids 0 and 1 are ``b`` and ``e``).
    """
    options = graph.initial_uids(task)
    if len(options) != 1:
        return []
    chain: List[int] = []
    seen = 0
    u = options[0]
    prev = -1
    while u >= 2 and not (seen >> u) & 1:
        preds = [p for p in graph.predecessor_uids(u) if p >= 2]
        if prev < 0:
            if preds:
                break  # joinable entry: index no longer forced
        elif not preds or any(p != prev for p in preds):
            break
        seen |= 1 << u
        chain.append(u)
        succs = list(dict.fromkeys(graph.successor_uids(u)))
        if len(succs) != 1:
            break
        prev = u
        u = succs[0]
    return chain


def _always_ready_uids(graph: SyncGraph) -> int:
    """Bitset over uids of the rendezvous certified never to block, by
    lockstep prefixes.

    For a pair of tasks whose straight-line chains partner each other
    exclusively, one-to-one and in matching order, position ``i`` of
    one implies position ``i`` of the other (each can only advance by
    the shared rendezvous), so both stand ready — those nodes can never
    be the entry of an anomalous wave.  See the module docstring for
    the induction.
    """
    chains = {task: _straight_chain(graph, task) for task in graph.tasks}
    safe = 0
    done: set = set()
    for task, chain in chains.items():
        if not chain:
            continue
        partners = graph.partner_uids(chain[0])
        if len(set(partners)) != 1:
            continue
        other = graph.node(partners[0]).task
        pair = tuple(sorted((task, other)))
        if other == task or pair in done:
            continue
        done.add(pair)
        for r, s in zip(chain, chains.get(other, [])):
            if set(graph.partner_uids(r)) == {s} and set(
                graph.partner_uids(s)
            ) == {r}:
                safe |= (1 << r) | (1 << s)
            else:
                break
    return safe


def _refined_report(graph: SyncGraph) -> "DeadlockReport":
    """The refined analysis of ``graph`` — the default head source.

    Imported lazily: :mod:`repro.analysis` itself imports the wave
    layer for confirmation, so a module-level import would cycle.
    """
    from ..analysis.refined import refined_deadlock_analysis

    return refined_deadlock_analysis(graph)


def build_guide(
    engine: "WaveIndex",
    report: Optional["DeadlockReport"] = None,
) -> FutureCostTable:
    """Build the future-cost table guiding searches over ``engine`` and
    make it the engine's cached guide (what :func:`guide_for` returns).

    ``report`` optionally supplies the candidate anomaly heads; when
    omitted the refined analysis runs on ``engine.graph`` itself, or,
    if that graph has a control cycle (which the refined analysis
    rejects), the table keeps the quiescence term alone.  Pass a report
    only if it was computed over the *same* graph the engine packs —
    evidence from a differently-unrolled graph names different nodes
    and would misdirect (though never corrupt: the heuristic affects
    expansion order only).
    """
    guide = FutureCostTable(engine, report)
    engine._fct_cache = guide
    return guide


def guide_for(engine: "WaveIndex") -> FutureCostTable:
    """The engine's cached guide, built on first use.

    Long-lived engines (the server session keeps one per document, the
    repair verifier one per candidate) pay the refined analysis and the
    distance BFS once; every subsequent guided search reuses the table.
    """
    guide = getattr(engine, "_fct_cache", None)
    return guide if guide is not None else build_guide(engine)
