"""Indexed exact-exploration engine: packed-integer wave kernels.

A literal search over the wave space walks tuples of
:class:`~repro.syncgraph.model.SyncNode` — every step allocates `Wave`
objects, hashes node tuples, and re-queries sync adjacency through
per-node dict lookups.  That is the right shape for an oracle (the
tests keep one in ``tests/oracles/``) but pays large constant factors
in the innermost loop of what is already an exponential search.

:class:`WaveIndex` is the wave-space analogue of
:class:`repro.analysis.index.AnalysisIndex`: built once per sync graph,
it

* assigns each task a *dense local position id* for every node that can
  appear as that task's wave entry (the task's rendezvous nodes plus the
  shared ``e``), and packs a whole wave into a single mixed-radix
  integer (one bit-field per task) — the dedup set holds ints, the
  terminal test is one equality, and successor keys are computed by
  adding precomputed deltas;
* precomputes, per *slot* (task × local position), the ready-partner
  bitmask over all slots (who this node can rendezvous with, wherever
  the partner task currently stands) and the control-successor table as
  ``(key_delta, occupancy_delta)`` pairs;
* runs BFS kernels for exhaustive exploration and shortest-witness
  search that are **bit-exact** with the oracle kernels: identical
  seeding order (the cross product of per-task initial options),
  identical ready-pair order (``(i, j)`` with ``i < j``), identical
  successor order (``graph.control_successors`` order), and therefore
  identical ``visited_count``, ``can_terminate``, anomaly
  classifications, and witness schedules — the hypothesis differential
  tests in ``tests/test_engine.py`` enforce this.

Anomalous waves are rare relative to the space walked, so their
classification is delegated to the reference
:func:`~repro.waves.anomaly.classify_wave` on the unpacked wave —
parity of stalls/deadlocks/coupling is inherited rather than re-proved.

Both kernels are *budget-faithful*: the ``state_limit`` is enforced
during seeding as well as expansion, and once the budget is hit the
kernel stops discovering states but still drains the queue, classifying
every wave already in hand — partial anomalies survive exhaustion
instead of being thrown away.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import obs
from ..syncgraph.model import SyncGraph, SyncNode
from .anomaly import WaveClassification, classify_wave
from .wave import Wave

__all__ = ["WaveIndex"]

Rendezvous = Tuple[SyncNode, SyncNode]
WitnessData = Tuple[Wave, Tuple[Rendezvous, ...], Tuple[Wave, ...],
                    WaveClassification]


class WaveIndex:
    """Dense-position packed-integer view of one sync graph's wave space.

    Construct once and pass to :func:`repro.waves.explore.explore` /
    :func:`repro.waves.witness.find_anomaly_witness` via ``engine=`` to
    amortize the build over several searches.
    """

    def __init__(self, graph: SyncGraph) -> None:
        self.graph = graph
        tasks = graph.tasks
        n = len(tasks)
        self.task_count = n

        # Per-task position universes: every rendezvous node of the
        # task plus the shared `e`, each with a dense local id.
        shift: List[int] = []
        mask: List[int] = []
        base: List[int] = []
        node_of_slot: List[SyncNode] = []
        local_maps: List[Dict[SyncNode, int]] = []
        e_local: List[int] = []
        bit = 0
        for task in tasks:
            positions = list(graph.nodes_of_task(task)) + [graph.e]
            local = {node: idx for idx, node in enumerate(positions)}
            width = max(1, (len(positions) - 1).bit_length())
            shift.append(bit)
            mask.append((1 << width) - 1)
            base.append(len(node_of_slot))
            node_of_slot.extend(positions)
            local_maps.append(local)
            e_local.append(local[graph.e])
            bit += width
        self.shift = shift
        self.mask = mask
        self.slot_base = base
        self.node_of_slot = node_of_slot
        self.slot_count = len(node_of_slot)
        self.terminal_key = sum(
            e_local[i] << shift[i] for i in range(n)
        )

        # Per-slot tables: rendezvous bit, ready partners (bitmask over
        # slots of other tasks), successor (key_delta, occ_delta) pairs.
        task_idx = {t: i for i, t in enumerate(tasks)}
        rdv_mask = 0
        partner_mask: List[int] = [0] * self.slot_count
        succ_deltas: List[Tuple[Tuple[int, int], ...]] = (
            [()] * self.slot_count
        )
        for i, task in enumerate(tasks):
            local = local_maps[i]
            for node, l in local.items():
                slot = base[i] + l
                if not node.is_rendezvous:
                    continue
                rdv_mask |= 1 << slot
                pm = 0
                for p in graph.sync_neighbors(node):
                    j = task_idx[p.task]
                    pm |= 1 << (base[j] + local_maps[j][p])
                partner_mask[slot] = pm
                succs = graph.control_successors(node)
                if len(set(succs)) != len(succs):
                    # mirror wave._advance_options: hand-built graphs
                    # may register a successor twice
                    succs = tuple(dict.fromkeys(succs))
                deltas = []
                for s in succs:
                    m = local[s]
                    deltas.append(
                        (
                            (m - l) << shift[i],
                            (1 << (base[i] + m)) ^ (1 << slot),
                        )
                    )
                succ_deltas[slot] = tuple(deltas)
        self.rdv_mask = rdv_mask
        self.partner_mask = partner_mask
        self.succ_deltas = succ_deltas

        # Initial options per task, as locals in graph order.
        self.initial_locals: List[Tuple[int, ...]] = []
        for i, task in enumerate(tasks):
            opts = graph.initial_options(task)
            if not opts:
                raise ValueError(
                    f"task {task!r} has no initial wave options; "
                    "sync graph construction is incomplete"
                )
            self.initial_locals.append(
                tuple(local_maps[i][node] for node in opts)
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

        Matches :func:`repro.waves.wave.ready_pairs` order exactly.
        """
        pairs: List[Tuple[int, int]] = []
        partner_mask = self.partner_mask
        rdv = self.rdv_mask
        n = self.task_count
        for i in range(n):
            s_i = slots[i]
            if not (rdv >> s_i) & 1:
                continue
            m = partner_mask[s_i] & occ
            if not m:
                continue
            for j in range(i + 1, n):
                if (m >> slots[j]) & 1:
                    pairs.append((i, j))
        return pairs

    # -- kernels -----------------------------------------------------------

    def explore(
        self, state_limit: int
    ) -> Tuple[int, bool, List[WaveClassification], bool, int]:
        """Exhaustive BFS over the packed wave space.

        Returns ``(visited_count, can_terminate, anomalous, limited,
        frontier_peak)`` — the raw material of an
        :class:`~repro.waves.explore.ExplorationResult`.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        visited: set = set()
        queue: deque = deque()
        limited = False
        for key, occ in self._seed():
            if key in visited:
                continue
            if len(visited) >= state_limit:
                limited = True
                break
            visited.add(key)
            queue.append((key, occ))
        can_terminate = False
        anomalous: List[WaveClassification] = []
        frontier_peak = 0
        while queue:
            if len(queue) > frontier_peak:
                frontier_peak = len(queue)
            key, occ = queue.popleft()
            if key == terminal:
                can_terminate = True
                continue
            slots = self._slots_of(key)
            pairs = self._ready_pairs(slots, occ)
            if not pairs:
                if occ & rdv:
                    anomalous.append(classify_wave(graph, self.unpack(key)))
                continue
            if limited:
                continue  # budget spent: classify what we have, no growth
            for i, j in pairs:
                for kd_a, od_a in succ_deltas[slots[i]]:
                    for kd_b, od_b in succ_deltas[slots[j]]:
                        nk = key + kd_a + kd_b
                        if nk in visited:
                            continue
                        if len(visited) >= state_limit:
                            limited = True
                            break
                        visited.add(nk)
                        queue.append((nk, occ ^ od_a ^ od_b))
                    if limited:
                        break
                if limited:
                    break
        return len(visited), can_terminate, anomalous, limited, frontier_peak

    def find_witness(
        self,
        matches: Callable[[WaveClassification], bool],
        state_limit: int,
    ) -> Tuple[Optional[WitnessData], int, bool]:
        """Shortest-witness BFS with parent tracking.

        Returns ``(witness_data, states_discovered, limited)`` where
        ``witness_data`` is ``(initial, schedule, waves,
        classification)`` ready to wrap into an
        :class:`~repro.waves.witness.AnomalyWitness`, or ``None`` when
        no discovered wave matched.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        node_of = self.node_of_slot
        succ_deltas = self.succ_deltas
        # key -> (parent_key, (fired_slot_a, fired_slot_b)) | None
        parents: Dict[int, Optional[Tuple[int, Tuple[int, int]]]] = {}
        queue: deque = deque()
        limited = False
        for key, occ in self._seed():
            if key in parents:
                continue
            if len(parents) >= state_limit:
                limited = True
                break
            parents[key] = None
            queue.append((key, occ))
        while queue:
            key, occ = queue.popleft()
            if key == terminal:
                continue
            slots = self._slots_of(key)
            pairs = self._ready_pairs(slots, occ)
            if not pairs:
                if not occ & rdv:
                    continue
                classification = classify_wave(graph, self.unpack(key))
                if not matches(classification):
                    continue
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
                    (
                        self.unpack(cursor),
                        tuple(schedule),
                        tuple(chain),
                        classification,
                    ),
                    len(parents),
                    limited,
                )
            if limited:
                continue
            for i, j in pairs:
                fired = (slots[i], slots[j])
                for kd_a, od_a in succ_deltas[slots[i]]:
                    for kd_b, od_b in succ_deltas[slots[j]]:
                        nk = key + kd_a + kd_b
                        if nk in parents:
                            continue
                        if len(parents) >= state_limit:
                            limited = True
                            break
                        parents[nk] = (key, fired)
                        queue.append((nk, occ ^ od_a ^ od_b))
                    if limited:
                        break
                if limited:
                    break
        return None, len(parents), limited

    # -- guided kernels ----------------------------------------------------
    #
    # Same budget-faithful contract as the BFS kernels (state_limit
    # enforced during seeding and expansion; once hit, what is already
    # in hand is still processed, never grown), but expansion *order*
    # follows an admissible future-cost estimate (see
    # :mod:`repro.waves.guide`).  A* orders the open heap by
    # ``(g + h, -g, seq)`` — the ``-g`` tie-break dives through
    # plateaus of equal ``f`` instead of sweeping them breadth-first —
    # and beam search processes depth layers truncated to the best
    # ``beam_width`` states by ``h``.  Identical packed keys recombine
    # for free exactly as in BFS; a key rediscovered at equal-or-worse
    # cost is dropped and counted as ``guide.pruned_dominated``.

    def explore_astar(
        self, state_limit: int, estimate: Callable[[int], int]
    ) -> Tuple[int, bool, List[WaveClassification], bool, int]:
        """Exhaustive best-first exploration ordered by ``g + h``.

        Same return shape as :meth:`explore`; an unlimited run visits
        exactly the same state set, so verdicts cannot change — only
        *which* states are in hand when a budget trips.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        visited: set = set()
        heap: List[Tuple[int, int, int, int, int]] = []
        seq = 0
        limited = False
        pushed = popped = dominated = 0
        for key, occ in self._seed():
            if key in visited:
                dominated += 1
                continue
            if len(visited) >= state_limit:
                limited = True
                break
            visited.add(key)
            heapq.heappush(heap, (estimate(key), 0, seq, key, occ))
            seq += 1
            pushed += 1
        can_terminate = False
        anomalous: List[WaveClassification] = []
        frontier_peak = 0
        while heap:
            if len(heap) > frontier_peak:
                frontier_peak = len(heap)
            _, neg_g, _, key, occ = heapq.heappop(heap)
            popped += 1
            if key == terminal:
                can_terminate = True
                continue
            slots = self._slots_of(key)
            pairs = self._ready_pairs(slots, occ)
            if not pairs:
                if occ & rdv:
                    anomalous.append(classify_wave(graph, self.unpack(key)))
                continue
            if limited:
                continue  # budget spent: classify what we have, no growth
            g1 = 1 - neg_g
            for i, j in pairs:
                for kd_a, od_a in succ_deltas[slots[i]]:
                    for kd_b, od_b in succ_deltas[slots[j]]:
                        nk = key + kd_a + kd_b
                        if nk in visited:
                            dominated += 1
                            continue
                        if len(visited) >= state_limit:
                            limited = True
                            break
                        visited.add(nk)
                        heapq.heappush(
                            heap,
                            (g1 + estimate(nk), -g1, seq, nk,
                             occ ^ od_a ^ od_b),
                        )
                        seq += 1
                        pushed += 1
                    if limited:
                        break
                if limited:
                    break
        if obs.is_enabled():
            obs.counter("astar.pushed").inc(pushed)
            obs.counter("astar.popped").inc(popped)
            obs.counter("guide.pruned_dominated").inc(dominated)
        return len(visited), can_terminate, anomalous, limited, frontier_peak

    def explore_beam(
        self,
        state_limit: int,
        estimate: Callable[[int], int],
        beam_width: int,
    ) -> Tuple[int, bool, List[WaveClassification], bool, int, bool]:
        """Layered beam exploration: each depth layer keeps only the
        ``beam_width`` best states by ``h``.

        Returns ``(visited_count, can_terminate, anomalous, limited,
        frontier_peak, truncated)``.  Any truncation makes the run
        non-exhaustive (``truncated`` implies the caller must treat the
        result as limited): absence of an anomaly in a truncated run
        certifies nothing.  A beam wide enough never to truncate visits
        exactly the BFS state set.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        visited: set = set()
        limited = False
        truncated = False
        dominated = dropped = 0
        seed: List[Tuple[int, int]] = []
        for key, occ in self._seed():
            if key in visited:
                dominated += 1
                continue
            if len(visited) >= state_limit:
                limited = True
                break
            visited.add(key)
            seed.append((key, occ))
        layer = self._beam_cut(seed, estimate, beam_width, visited)
        if len(layer) < len(seed):
            dropped += len(seed) - len(layer)
            truncated = True
        can_terminate = False
        anomalous: List[WaveClassification] = []
        frontier_peak = len(layer)
        while layer:
            successors: List[Tuple[int, int]] = []
            for key, occ in layer:
                if key == terminal:
                    can_terminate = True
                    continue
                slots = self._slots_of(key)
                pairs = self._ready_pairs(slots, occ)
                if not pairs:
                    if occ & rdv:
                        anomalous.append(
                            classify_wave(graph, self.unpack(key))
                        )
                    continue
                if limited:
                    continue
                for i, j in pairs:
                    for kd_a, od_a in succ_deltas[slots[i]]:
                        for kd_b, od_b in succ_deltas[slots[j]]:
                            nk = key + kd_a + kd_b
                            if nk in visited:
                                dominated += 1
                                continue
                            if len(visited) >= state_limit:
                                limited = True
                                break
                            visited.add(nk)
                            successors.append((nk, occ ^ od_a ^ od_b))
                        if limited:
                            break
                    if limited:
                        break
            if len(successors) > frontier_peak:
                frontier_peak = len(successors)
            layer = self._beam_cut(successors, estimate, beam_width, visited)
            if len(layer) < len(successors):
                dropped += len(successors) - len(layer)
                truncated = True
        if obs.is_enabled():
            obs.counter("beam.truncated").inc(dropped)
            obs.counter("guide.pruned_dominated").inc(dominated)
        return (
            len(visited), can_terminate, anomalous,
            limited or truncated, frontier_peak, truncated,
        )

    @staticmethod
    def _beam_cut(
        states: List[Tuple[int, int]],
        estimate: Callable[[int], int],
        beam_width: int,
        visited: set,
    ) -> List[Tuple[int, int]]:
        """The ``beam_width`` best states by ``h`` (stable on ties).

        Dropped states are also removed from ``visited`` so a later
        layer may rediscover them through another path — a truncated
        beam narrows the frontier, it does not poison the state space.
        """
        if len(states) <= beam_width:
            return states
        order = sorted(
            range(len(states)), key=lambda idx: estimate(states[idx][0])
        )
        keep = sorted(order[:beam_width])
        for idx in order[beam_width:]:
            visited.discard(states[idx][0])
        return [states[idx] for idx in keep]

    def find_witness_astar(
        self,
        matches: Callable[[WaveClassification], bool],
        state_limit: int,
        estimate: Callable[[int], int],
    ) -> Tuple[Optional[WitnessData], int, bool]:
        """Shortest-witness A\\* with parent tracking.

        The estimate is admissible and consistent (see
        :mod:`repro.waves.guide`), and rediscovered keys re-enter the
        heap whenever a strictly shorter path is found, so the first
        matching anomalous wave *popped* is reached by a shortest
        schedule — the witness has exactly the BFS witness length.
        Same return shape as :meth:`find_witness`.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        # key -> best known g; key -> (parent_key, fired) | None
        g_of: Dict[int, int] = {}
        parents: Dict[int, Optional[Tuple[int, Tuple[int, int]]]] = {}
        heap: List[Tuple[int, int, int, int, int]] = []
        seq = 0
        limited = False
        pushed = popped = dominated = 0
        for key, occ in self._seed():
            if key in g_of:
                dominated += 1
                continue
            if len(g_of) >= state_limit:
                limited = True
                break
            g_of[key] = 0
            parents[key] = None
            heapq.heappush(heap, (estimate(key), 0, seq, key, occ))
            seq += 1
            pushed += 1
        while heap:
            _, neg_g, _, key, occ = heapq.heappop(heap)
            g = -neg_g
            if g > g_of[key]:
                continue  # stale entry superseded by a shorter path
            popped += 1
            if key == terminal:
                continue
            slots = self._slots_of(key)
            pairs = self._ready_pairs(slots, occ)
            if not pairs:
                if not occ & rdv:
                    continue
                classification = classify_wave(graph, self.unpack(key))
                if not matches(classification):
                    continue
                if obs.is_enabled():
                    obs.counter("astar.pushed").inc(pushed)
                    obs.counter("astar.popped").inc(popped)
                    obs.counter("guide.pruned_dominated").inc(dominated)
                return (
                    self._reconstruct(parents, key, classification),
                    len(g_of),
                    limited,
                )
            if limited:
                continue
            g1 = g + 1
            for i, j in pairs:
                fired = (slots[i], slots[j])
                for kd_a, od_a in succ_deltas[slots[i]]:
                    for kd_b, od_b in succ_deltas[slots[j]]:
                        nk = key + kd_a + kd_b
                        known = g_of.get(nk)
                        if known is not None:
                            if g1 < known:
                                g_of[nk] = g1
                                parents[nk] = (key, fired)
                                heapq.heappush(
                                    heap,
                                    (g1 + estimate(nk), -g1, seq, nk,
                                     occ ^ od_a ^ od_b),
                                )
                                seq += 1
                                pushed += 1
                            else:
                                dominated += 1
                            continue
                        if len(g_of) >= state_limit:
                            limited = True
                            break
                        g_of[nk] = g1
                        parents[nk] = (key, fired)
                        heapq.heappush(
                            heap,
                            (g1 + estimate(nk), -g1, seq, nk,
                             occ ^ od_a ^ od_b),
                        )
                        seq += 1
                        pushed += 1
                    if limited:
                        break
                if limited:
                    break
        if obs.is_enabled():
            obs.counter("astar.pushed").inc(pushed)
            obs.counter("astar.popped").inc(popped)
            obs.counter("guide.pruned_dominated").inc(dominated)
        return None, len(g_of), limited

    def find_witness_beam(
        self,
        matches: Callable[[WaveClassification], bool],
        state_limit: int,
        estimate: Callable[[int], int],
        beam_width: int,
    ) -> Tuple[Optional[WitnessData], int, bool, bool]:
        """Layered beam witness search.

        Returns ``(witness_data, states_discovered, limited,
        truncated)``.  A found witness is always a valid replayable
        schedule, but truncation forfeits both shortest-ness and the
        right to conclude absence — callers must treat a truncated
        witnessless run as limited.
        """
        graph = self.graph
        terminal = self.terminal_key
        rdv = self.rdv_mask
        succ_deltas = self.succ_deltas
        parents: Dict[int, Optional[Tuple[int, Tuple[int, int]]]] = {}
        limited = False
        truncated = False
        dominated = dropped = 0
        seed: List[Tuple[int, int]] = []
        for key, occ in self._seed():
            if key in parents:
                dominated += 1
                continue
            if len(parents) >= state_limit:
                limited = True
                break
            parents[key] = None
            seed.append((key, occ))
        layer = self._beam_cut_parents(seed, estimate, beam_width, parents)
        if len(layer) < len(seed):
            dropped += len(seed) - len(layer)
            truncated = True
        while layer:
            successors: List[Tuple[int, int]] = []
            pending: Dict[int, Tuple[int, Tuple[int, int]]] = {}
            for key, occ in layer:
                if key == terminal:
                    continue
                slots = self._slots_of(key)
                pairs = self._ready_pairs(slots, occ)
                if not pairs:
                    if not occ & rdv:
                        continue
                    classification = classify_wave(graph, self.unpack(key))
                    if not matches(classification):
                        continue
                    if obs.is_enabled():
                        obs.counter("beam.truncated").inc(dropped)
                        obs.counter("guide.pruned_dominated").inc(dominated)
                    return (
                        self._reconstruct(parents, key, classification),
                        len(parents),
                        limited,
                        truncated,
                    )
                if limited:
                    continue
                for i, j in pairs:
                    fired = (slots[i], slots[j])
                    for kd_a, od_a in succ_deltas[slots[i]]:
                        for kd_b, od_b in succ_deltas[slots[j]]:
                            nk = key + kd_a + kd_b
                            if nk in parents or nk in pending:
                                dominated += 1
                                continue
                            if len(parents) + len(pending) >= state_limit:
                                limited = True
                                break
                            pending[nk] = (key, fired)
                            successors.append((nk, occ ^ od_a ^ od_b))
                        if limited:
                            break
                    if limited:
                        break
            if len(successors) > beam_width:
                order = sorted(
                    range(len(successors)),
                    key=lambda idx: estimate(successors[idx][0]),
                )
                keep = sorted(order[:beam_width])
                dropped += len(successors) - beam_width
                truncated = True
                successors = [successors[idx] for idx in keep]
            for nk, _ in successors:
                parents[nk] = pending[nk]
            layer = successors
        if obs.is_enabled():
            obs.counter("beam.truncated").inc(dropped)
            obs.counter("guide.pruned_dominated").inc(dominated)
        return None, len(parents), limited, truncated

    @staticmethod
    def _beam_cut_parents(
        states: List[Tuple[int, int]],
        estimate: Callable[[int], int],
        beam_width: int,
        parents: Dict[int, Optional[Tuple[int, Tuple[int, int]]]],
    ) -> List[Tuple[int, int]]:
        """Seed-layer truncation twin of :meth:`_beam_cut` operating on
        the witness kernels' parent map."""
        if len(states) <= beam_width:
            return states
        order = sorted(
            range(len(states)), key=lambda idx: estimate(states[idx][0])
        )
        keep = sorted(order[:beam_width])
        for idx in order[beam_width:]:
            parents.pop(states[idx][0], None)
        return [states[idx] for idx in keep]

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
