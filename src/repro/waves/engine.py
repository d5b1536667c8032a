"""Indexed exact-exploration engine: one packed-integer wave search.

A literal search over the wave space walks tuples of
:class:`~repro.syncgraph.model.SyncNode` — every step allocates `Wave`
objects, hashes node tuples, and re-queries sync adjacency node by
node.  That is the right shape for an oracle (the tests keep one in
``tests/oracles/``) but pays large constant factors in the innermost
loop of what is already an exponential search.

:class:`WaveIndex` is the wave-space analogue of
:class:`repro.analysis.index.AnalysisIndex`: built once per sync graph
from its uid lists (no node is hashed), it

* assigns each task a *dense local position id* for every node that can
  appear as that task's wave entry (the task's rendezvous nodes plus the
  shared ``e``, last), kept in uid-indexed ``task_of`` / ``local_of``
  lists, and packs a whole wave into a single mixed-radix
  integer (one bit-field per task) — the seen set holds ints, the
  terminal test is one equality, and successor keys are computed by
  adding precomputed deltas;
* precomputes, per *slot* (task × local position), the ready-partner
  bitmask over all slots (who this node can rendezvous with, wherever
  the partner task currently stands), the bitmask of the tasks owning
  those partners, and the control-successor table as
  ``(key_delta, occupancy_delta)`` pairs;
* runs every search in one loop, :meth:`WaveIndex.search`,
  parametrized by frontier and goal.  The frontier is layered (BFS is
  the layered frontier with no cut; beam cuts each layer to the
  ``beam_width`` states with the lowest estimate) or an A\\* heap
  ordered by ``(g + h, -g, seq)``.  The goal is to exhaust the space
  and classify every anomalous wave, or to stop at the first matching
  one with parent links kept for its witness; only the A\\* witness
  goal reopens a key reached by a strictly shorter path.  Exhaustive
  BFS is **bit-exact** with the oracle kernel: identical seeding order
  (the cross product of per-task initial options), identical
  ready-pair order (``(i, j)`` with ``i < j``), identical successor
  order (``graph.control_successors`` order), and therefore identical
  ``visited_count``, ``can_terminate`` and anomaly classifications in
  order — the hypothesis differential tests in ``tests/test_engine.py``
  enforce this.

Persistent sets in the witness search
-------------------------------------

An exhaustive run walks the paper's ``NextWavesSet*`` unreduced: its
``visited_count`` is the feasible-wave count that ``--algorithm exact``
reports and the scaling benchmarks use as the exponential comparator.
A witness search (any goal) instead expands, at each wave, only the
ready pairs of one *persistent set* (Valmari's stubborn sets;
Godefroid, LNCS 1032): a set ``S`` of tasks closed under "add every
task that owns a sync partner of the current slot of a task in
``S``", of which it fires exactly the ready pairs with both tasks in
``S`` (:meth:`WaveIndex._persistent_pairs` picks the closure; the
choice depends only on the wave, so bfs, astar and beam search the
same reduced graph).  Why no witness is lost:

* a ready pair moves only its own two tasks, and whether ``(i, j)``
  is ready depends only on where ``i`` and ``j`` stand; so pairs on
  disjoint tasks commute and never enable or disable each other;
* the set is persistent.  Take any path from the wave that fires no
  pair of the set.  By induction it fires only pairs outside ``S``:
  while no ``S`` task has moved, a pair touching an ``S`` task ``t``
  pairs it with a partner of ``t``'s current slot, whose task is in
  ``S`` by closure — so both tasks are in ``S``, they still stand where
  they stood, and the pair was one of the set's ready pairs;
* the terminal wave and every anomalous wave (non-terminal, no ready
  pair) are *dead states*;
* persistent sets that are nonempty at every live wave (the closure
  of a task of a ready pair contains that pair) reach every reachable
  dead state — control cycles included, with no cycle proviso, since
  the argument inducts on path length.  :func:`classify_wave` depends
  only on the wave, so an unlimited search finds a ``deadlock`` /
  ``stall`` / ``any`` witness exactly when the full search does;
* every full path to a dead state has a trace-equivalent reduced path
  of the same length: the path must fire a pair of the set (the set's
  pairs stay ready until it does, and a dead state has none ready),
  the first one it fires commutes with every pair before it, so move
  it to the front and repeat.  BFS and A\\* witnesses therefore stay
  *shortest*;
* the reduced graph is a subgraph of the full one, so reduced
  distances are never shorter and the future-cost table of
  :mod:`repro.waves.guide` stays admissible and consistent;
* by design, budget-limited results, ``states`` and the choice among
  equally short witnesses may differ from the unreduced search.

The set costs little where it cannot help: a ready pair whose two
slots partner only each other's task is a closed set on its own and is
taken at once, the general closure runs only with two or more pairs
ready, and it stops as soon as a closure covers every ready task.

Anomalous waves are rare relative to the space walked, so they are
unpacked and handed to :func:`~repro.waves.anomaly.classify_wave`,
which reads the graph's partner and descendant bit rows; the
differential tests hold it to the node-keyed oracle of
``tests/oracles/anomaly.py``.

The search is *budget-faithful*: the ``state_limit`` is enforced
during seeding as well as expansion, and once the budget is hit the
search stops discovering states but still drains its frontier,
classifying every wave already in hand — partial anomalies survive
exhaustion instead of being thrown away.  A request's deadline and
cancel token (:mod:`repro.budget`) abort it instead.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from itertools import product
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .. import obs
from ..budget import CHECK_EVERY, checkpoint
from ..syncgraph.model import SyncGraph, SyncNode
from .anomaly import WaveClassification, classify_wave
from .guide import DEFAULT_BEAM_WIDTH, guide_for
from .wave import Wave

__all__ = ["GOALS", "SearchResult", "WaveIndex"]

Rendezvous = Tuple[SyncNode, SyncNode]
WitnessData = Tuple[Wave, Tuple[Rendezvous, ...], Tuple[Wave, ...],
                    WaveClassification]

# Witness goals: which anomalous wave ends a witness search.
GOALS: Dict[str, Callable[[WaveClassification], bool]] = {
    "deadlock": lambda c: c.has_deadlock,
    "stall": lambda c: c.has_stall,
    "any": lambda c: True,
}

# Orders after every (f, -g, seq, key, occ) heap entry: f = g + h stays
# far below it (h <= SATURATED, g <= the states discovered).
_DRAINED = (1 << 62,)


class SearchResult(NamedTuple):
    """One :meth:`WaveIndex.search` run.

    ``anomalous`` is filled by exhaustive runs, ``witness`` (``(initial,
    schedule, waves, classification)``, ready to wrap into an
    :class:`~repro.waves.witness.AnomalyWitness`) by witness searches
    that found one.  ``limited`` covers both the state budget and a
    beam cut (``truncated``).  ``frontier_peak`` is telemetry: the
    widest depth layer before its cut (bfs, beam) or the largest heap
    (astar).
    """

    states: int
    can_terminate: bool
    anomalous: List[WaveClassification]
    witness: Optional[WitnessData]
    limited: bool
    truncated: bool
    frontier_peak: int


class WaveIndex:
    """Dense-position packed-integer view of one sync graph's wave space.

    Construct once and pass to :func:`repro.waves.explore.explore` /
    :func:`repro.waves.witness.find_anomaly_witness` via ``engine=`` to
    amortize the build (and the cached guide) over several searches.
    """

    def __init__(self, graph: SyncGraph) -> None:
        self.graph = graph
        tasks = graph.tasks
        n = len(tasks)
        self.task_count = n
        nodes = graph.nodes
        e_uid = graph.e.uid

        # Per-task position universes: every rendezvous node of the
        # task plus the shared `e`, each with a dense local id.  A
        # rendezvous uid's task and local id are read from uid-indexed
        # lists; `e` is last in every task, at `e_local[i]`.
        task_uids = [graph.task_uids(task) for task in tasks]
        task_of = [-1] * len(nodes)
        local_of = [-1] * len(nodes)
        shift: List[int] = []
        mask: List[int] = []
        base: List[int] = []
        e_local: List[int] = []
        node_of_slot: List[SyncNode] = []
        bit = 0
        for i, uids in enumerate(task_uids):
            for l, u in enumerate(uids):
                task_of[u] = i
                local_of[u] = l
            width = max(1, len(uids).bit_length())
            shift.append(bit)
            mask.append((1 << width) - 1)
            base.append(len(node_of_slot))
            node_of_slot.extend([nodes[u] for u in uids])
            node_of_slot.append(graph.e)
            e_local.append(len(uids))
            bit += width
        self.task_of = task_of
        self.local_of = local_of
        self.e_local = e_local
        self.shift = shift
        self.mask = mask
        self.slot_base = base
        self.node_of_slot = node_of_slot
        self.slot_count = len(node_of_slot)
        self.terminal_key = sum(
            e_local[i] << shift[i] for i in range(n)
        )

        # Per-slot tables: rendezvous bit, ready partners (bitmask over
        # slots of other tasks), the tasks owning those partners (as a
        # bitmask, and as the one such task's index or -1), successor
        # (key_delta, occ_delta) pairs.
        rdv_mask = 0
        partner_mask: List[int] = [0] * self.slot_count
        partner_tasks: List[int] = [0] * self.slot_count
        sole_partner: List[int] = [-1] * self.slot_count
        succ_deltas: List[Tuple[Tuple[int, int], ...]] = (
            [()] * self.slot_count
        )
        for i, uids in enumerate(task_uids):
            for l, u in enumerate(uids):
                slot = base[i] + l
                rdv_mask |= 1 << slot
                pm = pt = 0
                for p in graph.partner_uids(u):
                    j = task_of[p]
                    pm |= 1 << (base[j] + local_of[p])
                    if j != i:
                        pt |= 1 << j
                partner_mask[slot] = pm
                partner_tasks[slot] = pt
                if pt and not pt & (pt - 1):
                    sole_partner[slot] = pt.bit_length() - 1
                succs = graph.successor_uids(u)
                if len(set(succs)) != len(succs):
                    # mirror wave._advance_options: hand-built graphs
                    # may register a successor twice
                    succs = tuple(dict.fromkeys(succs))
                deltas = []
                for s in succs:
                    m = e_local[i] if s == e_uid else local_of[s]
                    deltas.append(
                        (
                            (m - l) << shift[i],
                            (1 << (base[i] + m)) ^ (1 << slot),
                        )
                    )
                succ_deltas[slot] = tuple(deltas)
        self.rdv_mask = rdv_mask
        self.partner_mask = partner_mask
        self.partner_tasks = partner_tasks
        self.sole_partner = sole_partner
        self.succ_deltas = succ_deltas

        # Initial options per task, as locals in graph order.
        self.initial_locals: List[Tuple[int, ...]] = []
        for i, task in enumerate(tasks):
            opts = graph.initial_uids(task)
            if not opts:
                raise ValueError(
                    f"task {task!r} has no initial wave options; "
                    "sync graph construction is incomplete"
                )
            self.initial_locals.append(
                tuple(e_local[i] if u == e_uid else local_of[u] for u in opts)
            )

        if obs.is_enabled():
            obs.counter("engine.builds").inc()
            obs.gauge("engine.slots").set(self.slot_count)

    # -- packing helpers ---------------------------------------------------

    def _slots_of(self, key: int) -> List[int]:
        shift = self.shift
        mask = self.mask
        base = self.slot_base
        return [
            base[i] + ((key >> shift[i]) & mask[i])
            for i in range(self.task_count)
        ]

    def unpack(self, key: int) -> Wave:
        """The reference :class:`Wave` this packed key denotes."""
        node_of = self.node_of_slot
        return Wave(tuple(node_of[s] for s in self._slots_of(key)))

    def _seed(self) -> Iterator[Tuple[int, int]]:
        """Lazy ``(key, occ)`` stream over the initial cross product.

        Same order as :func:`repro.waves.wave.initial_waves`; lazy so
        the caller can enforce the state budget *while* seeding.
        """
        shift = self.shift
        base = self.slot_base
        for combo in product(*self.initial_locals):
            key = 0
            occ = 0
            for i, l in enumerate(combo):
                key |= l << shift[i]
                occ |= 1 << (base[i] + l)
            yield key, occ

    def _ready_pairs(self, slots: List[int], occ: int) -> List[Tuple[int, int]]:
        """Task-index pairs ``(i, j)``, ``i < j``, that can rendezvous.

        Matches :func:`repro.waves.wave.ready_pairs` order exactly.  A
        slot whose partners all belong to one task can only pair with
        that task, so its scan skips the other tasks.
        """
        pairs: List[Tuple[int, int]] = []
        partner_mask = self.partner_mask
        sole = self.sole_partner
        rdv = self.rdv_mask
        n = self.task_count
        for i in range(n):
            s_i = slots[i]
            if not (rdv >> s_i) & 1:
                continue
            m = partner_mask[s_i] & occ
            if not m:
                continue
            j = sole[s_i]
            if j < 0:
                for j in range(i + 1, n):
                    if (m >> slots[j]) & 1:
                        pairs.append((i, j))
            elif j > i:
                # every partner of s_i is in task j, and one is ready
                pairs.append((i, j))
        return pairs

    def _persistent_pairs(
        self, slots: List[int], occ: int
    ) -> List[Tuple[int, int]]:
        """The ready pairs of one persistent set, in :meth:`_ready_pairs`
        order; the witness searches expand only these (see the module
        docstring).

        The first ready pair whose two slots partner only each other's
        task is a closed set on its own and is taken at once.  Otherwise,
        with two or more pairs ready, each seed task of a ready pair is
        closed under "add every task owning a partner of the current
        slot of a task in the set", and the closure with the fewest
        ready pairs wins, ties to the lowest seed.  A closure is
        abandoned as soon as it covers every ready task (it reduces
        nothing) or takes in a lower seed (whose closure it then
        contains, so that seed did at least as well).  A task common to
        every ready pair lies in every closure, so its own closure is
        the least and the only one tried.
        """
        pairs = self._ready_pairs(slots, occ)
        if len(pairs) < 2:
            return pairs
        sole = self.sole_partner
        ready = 0
        common = -1
        for i, j in pairs:
            if sole[slots[i]] == j and sole[slots[j]] == i:
                return [(i, j)]
            both = (1 << i) | (1 << j)
            ready |= both
            common &= both
        partner_tasks = self.partner_tasks
        best = pairs
        seeds = common if common else ready
        while seeds:
            low = seeds & -seeds
            seeds ^= low
            # lower seeds were tried already (none when seeding from the
            # common task, whose closure every other one contains)
            lower = 0 if common else ready & (low - 1)
            closed = todo = low
            while todo:
                bit = todo & -todo
                todo ^= bit
                add = partner_tasks[slots[bit.bit_length() - 1]] & ~closed
                if add:
                    closed |= add
                    if closed & ready == ready or closed & lower:
                        break
                    todo |= add
            else:
                chosen = [
                    (i, j) for i, j in pairs
                    if (closed >> i) & 1 and (closed >> j) & 1
                ]
                if len(chosen) < len(best):
                    best = chosen
                    if len(best) == 1:
                        break
        return best

    # -- the search --------------------------------------------------------

    def search(
        self,
        state_limit: int,
        strategy: str = "bfs",
        beam_width: int = DEFAULT_BEAM_WIDTH,
        goal: Optional[str] = None,
    ) -> SearchResult:
        """Search the packed wave space under a state budget.

        ``goal`` is ``None`` to exhaust the reachable space, classifying
        every anomalous wave, or a kind of :data:`GOALS` to stop at the
        first anomalous wave of that kind and return its witness
        (parent links are kept only then).  A witness search expands one
        persistent set of ready pairs per wave (see the module
        docstring), an exhaustive one every ready pair.

        ``strategy`` picks the frontier:

        * ``"bfs"`` — layered, one depth layer after the other;
        * ``"beam"`` — layered, each layer cut to the ``beam_width``
          states with the lowest estimate (stable on ties) before it is
          expanded.  Cut states leave the seen set, so a later layer may
          rediscover them; any cut marks the run ``truncated``, which
          implies ``limited``;
        * ``"astar"`` — one heap ordered by ``(g + h, -g, seq)``.  Only
          a witness search reopens a key reached by a strictly shorter
          path, so its first matching wave popped is reached by a
          shortest schedule; exhaustive A\\* never reopens.

        The state budget is enforced during seeding and expansion.
        Once it is hit the search discovers nothing new but still
        classifies every wave already in hand.  ``states`` counts the
        waves the search holds (of the reduced graph, for a witness
        search); a witness search stopped in the middle
        of a cut layer does not count the part of the next layer built
        so far, which has not passed its cut yet.  The active request
        :mod:`~repro.budget` is checked on entry and every
        :data:`~repro.budget.CHECK_EVERY` states.
        """
        budget = checkpoint()
        countdown = CHECK_EVERY if budget is not None else -1
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        slots_of = self._slots_of
        matches = None if goal is None else GOALS[goal]
        witness = matches is not None
        ready_pairs = (
            self._persistent_pairs if witness else self._ready_pairs
        )
        estimate: Optional[Callable[[int], int]] = None
        if strategy != "bfs":
            # Deadlock goals (and exhaustive runs) add the evidence-group
            # term; stall/any goals use the quiescence term alone — both
            # admissible for their goal set (see waves.guide).
            guide = guide_for(self)
            estimate = (
                guide.estimate
                if goal in (None, "deadlock")
                else guide.estimate_anomaly
            )
        heap = strategy == "astar"
        cut = beam_width if strategy == "beam" else None
        reopen = heap and witness

        # key -> (parent_key, (fired_slot_a, fired_slot_b)) for a witness
        # goal, None otherwise (and for seeds).
        seen: Dict[int, Optional[Tuple[int, Tuple[int, int]]]] = {}
        g_of: Dict[int, int] = {}  # best known g, kept only to reopen
        # The current depth layer of (key, occ), or the A* heap of
        # (f, -g, seq, key, occ) over a sentinel that orders last.
        frontier: list = [_DRAINED] if heap else []
        nxt: List[Tuple[int, int]] = []
        limited = truncated = can_terminate = False
        anomalous: List[WaveClassification] = []
        found: Optional[WitnessData] = None
        dominated = dropped = popped = seq = peak = 0
        for key, occ in self._seed():
            if key in seen:
                dominated += 1
                continue
            if len(seen) >= state_limit:
                limited = True
                break
            seen[key] = None
            if heap:
                if reopen:
                    g_of[key] = 0
                heappush(frontier, (estimate(key), 0, seq, key, occ))
                seq += 1
            else:
                frontier.append((key, occ))

        while frontier:
            if heap:
                # The whole search is one batch: pop until the sentinel.
                batch = iter(partial(heappop, frontier), _DRAINED)
            else:
                if len(frontier) > peak:
                    peak = len(frontier)
                if cut is not None and len(frontier) > cut:
                    layer = frontier
                    order = sorted(
                        range(len(layer)),
                        key=lambda idx: estimate(layer[idx][0]),
                    )
                    for idx in order[cut:]:
                        del seen[layer[idx][0]]
                    frontier = [layer[idx] for idx in sorted(order[:cut])]
                    dropped += len(layer) - cut
                    truncated = True
                batch = frontier
                nxt = []
            for entry in batch:
                countdown -= 1
                if not countdown:
                    budget.check()
                    countdown = CHECK_EVERY
                if heap:
                    # After the pop the sentinel stands in for the popped
                    # entry: len(frontier) is the heap size before it.
                    if len(frontier) > peak:
                        peak = len(frontier)
                    _, neg_g, _, key, occ = entry
                    if reopen and -neg_g > g_of[key]:
                        continue  # stale entry superseded by a shorter path
                    popped += 1
                    g1 = 1 - neg_g
                else:
                    key, occ = entry
                if key == terminal:
                    can_terminate = True
                    continue
                slots = slots_of(key)
                pairs = ready_pairs(slots, occ)
                if not pairs:
                    if occ & rdv:
                        wave_class = classify_wave(graph, self.unpack(key))
                        if not witness:
                            anomalous.append(wave_class)
                        elif matches(wave_class):
                            found = self._reconstruct(seen, key, wave_class)
                            break
                    continue
                if limited:
                    continue  # budget spent: classify what we have, no growth
                for i, j in pairs:
                    link = (key, (slots[i], slots[j])) if witness else None
                    for kd_a, od_a in succ_deltas[slots[i]]:
                        for kd_b, od_b in succ_deltas[slots[j]]:
                            nk = key + kd_a + kd_b
                            if nk in seen:
                                if not (reopen and g1 < g_of[nk]):
                                    dominated += 1
                                    continue
                            elif len(seen) >= state_limit:
                                limited = True
                                break
                            seen[nk] = link
                            if heap:
                                if reopen:
                                    g_of[nk] = g1
                                heappush(
                                    frontier,
                                    (g1 + estimate(nk), -g1, seq, nk,
                                     occ ^ od_a ^ od_b),
                                )
                                seq += 1
                            else:
                                nxt.append((nk, occ ^ od_a ^ od_b))
                        if limited:
                            break
                    if limited:
                        break
            if found is not None:
                break
            if not heap:
                frontier = nxt

        if obs.is_enabled():
            if heap:
                obs.counter("astar.pushed").inc(seq)
                obs.counter("astar.popped").inc(popped)
            if cut is not None:
                obs.counter("beam.truncated").inc(dropped)
            if estimate is not None:
                obs.counter("guide.pruned_dominated").inc(dominated)
        return SearchResult(
            states=len(seen) - (len(nxt) if cut is not None else 0),
            can_terminate=can_terminate,
            anomalous=anomalous,
            witness=found,
            limited=limited or truncated,
            truncated=truncated,
            frontier_peak=peak,
        )

    def _reconstruct(
        self,
        parents: Dict[int, Optional[Tuple[int, Tuple[int, int]]]],
        key: int,
        classification: WaveClassification,
    ) -> WitnessData:
        """Replay the parent chain of ``key`` into witness data."""
        node_of = self.node_of_slot
        schedule: List[Rendezvous] = []
        chain: List[Wave] = [classification.wave]
        cursor = key
        while True:
            parent = parents[cursor]
            if parent is None:
                break
            cursor, (sa, sb) = parent
            schedule.append((node_of[sa], node_of[sb]))
            chain.append(self.unpack(cursor))
        schedule.reverse()
        chain.reverse()
        return (
            self.unpack(cursor),
            tuple(schedule),
            tuple(chain),
            classification,
        )
