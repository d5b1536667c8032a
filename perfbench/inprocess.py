"""``cold_corpus`` and ``exact_confirm``: operations run one after
another in the benchmark process, through repro's public API, obs off.

Both are closed loops with one caller.  The timed phase is a fixed
number of whole passes over a fixed input list; the seed only shuffles
the order inside each pass.  A host-probe sample every
:data:`PROBE_EVERY` operations lets latencies and the timed wall be
scaled to reference host speed.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
import repro.analysis.confirm as confirm
import repro.reporting as reporting
from repro.analysis.confirm import ConfirmationOutcome
from repro.syncgraph.build import build_sync_graph
from repro.transforms.inline import inline_procedures
from repro.waves import (
    classify_wave,
    initial_waves,
    is_anomalous,
    next_waves_with_events,
)

from . import common
from .common import Op, WrongAnswer
from .inputs import Case, cold_cases, exact_cases
from .spans import Tracer, layer_metrics, self_times

# Fixed state budget for escalation; the deepest corridors exhaust it
# under bfs and beam, which is part of what the workload measures.
STATE_LIMIT = 20_000
STRATEGIES = ("bfs", "astar", "beam")
SETUP_RUNS = 5
PROBE_EVERY = 10  # operations between host-probe samples

SETTLED = (ConfirmationOutcome.CONFIRMED, ConfirmationOutcome.REFUTED)
# A definite verdict: settled by search, or certified before it (no
# input is certified by refined today; one that becomes so stays decided).
DECIDED = SETTLED + (ConfirmationOutcome.NOT_NEEDED,)


@dataclass
class Workload:
    """One in-process workload: its operations and how to check them."""

    name: str
    why: str
    nominal_pass_s: float  # calibrated pass time at nominal host speed
    items: List[Tuple[Case, Optional[str]]]  # (input, strategy or None)
    kind_of: Callable[["Outcome"], str]  # the op's latency class
    classes: Tuple[str, ...]


@dataclass
class Outcome:
    """What one operation returned, kept for the post-run gates."""

    case: Case
    payload: str
    result: Any
    confirmed: Any = None


@dataclass
class Recorder:
    """Work counts read from return values during the traced pass."""

    search_states: int = 0
    searches: int = 0
    limited: int = 0

    def on_search(self, value: Any) -> None:
        self.searches += 1
        if hasattr(value, "states"):  # WitnessSearchOutcome
            self.search_states += value.states
        else:  # ExplorationResult
            self.search_states += value.visited_count
        self.limited += bool(value.limited)


# Latency classes of cold_corpus: rendezvous-node bands.  With the
# log-uniform size spread the p50 rank falls inside the middle band and
# the p90 rank inside the top one.
SIZE_BANDS = ("rv<12", "rv12-47", "rv48+")


def size_band(out: "Outcome") -> str:
    rv = len(out.result.sync_graph.rendezvous_nodes)
    return SIZE_BANDS[(rv >= 12) + (rv >= 48)]


def cold_workload() -> Workload:
    return Workload(
        name="cold_corpus",
        why=(
            "one-shot certification with no work shared between inputs: "
            "the front half and the refined kernel do nearly all the work"
        ),
        nominal_pass_s=3.5,
        items=[(case, None) for case in cold_cases()],
        kind_of=size_band,
        classes=SIZE_BANDS,
    )


def exact_workload() -> Workload:
    return Workload(
        name="exact_confirm",
        why=(
            "escalation to exact search under a fixed budget with each of "
            "the three frontiers: the search kernel does most of the work"
        ),
        nominal_pass_s=5.0,
        items=[(case, s) for case in exact_cases() for s in STRATEGIES],
        kind_of=lambda out: out.confirmed.outcome,
        classes=(
            ConfirmationOutcome.CONFIRMED,
            ConfirmationOutcome.REFUTED,
            ConfirmationOutcome.INCONCLUSIVE,
            ConfirmationOutcome.NOT_NEEDED,
            ConfirmationOutcome.UNROLL_LIMITED,
        ),
    )


def run_op(case: Case, strategy: Optional[str]) -> Outcome:
    """The operation itself: what ``repro prog.adl --json`` (with
    ``--confirm --strategy`` for escalation) does after start-up.

    Layer functions are looked up on their modules at call time, as the
    CLI does, so the traced run's wrappers see every call.
    """
    result = repro.analyze(case.text)
    confirmed = None
    if strategy is not None:
        confirmed = confirm.confirm_analysis(
            result, state_limit=STATE_LIMIT, strategy=strategy
        )
    payload = reporting.render_json(
        reporting.analysis_result_to_dict(result, confirmation=confirmed)
    )
    return Outcome(case, payload, result, confirmed)


def check_op(case: Case, strategy: Optional[str], out: Outcome) -> bool:
    """Gate one answer against the known one; returns ``decided``."""
    certified = out.result.deadlock.deadlock_free
    if certified and case.deadlock:
        raise WrongAnswer(f"{case.name}: refined certified a known deadlock")
    if strategy is None:
        return certified
    outcome = out.confirmed.outcome
    if outcome == ConfirmationOutcome.CONFIRMED and not case.deadlock:
        raise WrongAnswer(f"{case.name}/{strategy}: known-free CONFIRMED")
    if outcome == ConfirmationOutcome.REFUTED and case.deadlock:
        raise WrongAnswer(f"{case.name}/{strategy}: known deadlock REFUTED")
    return outcome in DECIDED


def search_graph(result: Any):
    """The graph confirm_analysis searched (pre-unroll when the
    Lemma-1 unroll was approximate)."""
    if result.deadlock.stats.get("unroll_approximated"):
        return build_sync_graph(inline_procedures(result.program)[0])
    return result.sync_graph


def replays(graph: Any, witness: Any) -> bool:
    """Whether ``witness`` is a real schedule, step by step, through the
    public ``repro.waves`` successor relation, ending in a deadlock."""
    if witness.initial not in initial_waves(graph):
        return False
    wave = witness.initial
    for step, fired in enumerate(witness.schedule):
        target = witness.waves[step + 1]
        if (fired, target) not in set(next_waves_with_events(graph, wave)):
            return False
        wave = target
    return is_anomalous(graph, wave) and (
        classify_wave(graph, wave).has_deadlock
    )


def cross_check(first: Dict[Tuple[str, Optional[str]], Outcome]) -> None:
    """Gates across strategies on the first pass's answers."""
    by_case: Dict[str, Dict[str, Outcome]] = {}
    for (name, strategy), out in first.items():
        if strategy is not None:
            by_case.setdefault(name, {})[strategy] = out
    for name, outs in by_case.items():
        settled = {
            s: o.confirmed.outcome
            for s, o in outs.items()
            if o.confirmed.outcome in SETTLED
        }
        if len(set(settled.values())) > 1:
            raise WrongAnswer(f"{name}: strategies disagree {settled}")
        lengths = {
            s: len(o.confirmed.witness.schedule)
            for s, o in outs.items()
            if o.confirmed.witness is not None
        }
        if "bfs" in lengths and "astar" in lengths and (
            lengths["bfs"] != lengths["astar"]
        ):
            raise WrongAnswer(f"{name}: bfs/astar witness lengths {lengths}")
        for s, o in outs.items():
            witness = o.confirmed.witness
            if witness is not None and not replays(
                search_graph(o.result), witness
            ):
                raise WrongAnswer(f"{name}/{s}: witness does not replay")


def pass_orders(n_items: int, seed: int, passes: int) -> List[List[int]]:
    """The seed's only effect: the order of the items in each pass."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = list(range(n_items))
        rng.shuffle(order)
        orders.append(order)
    return orders


class Runner:
    """Runs whole passes and gates every answer as it arrives.

    Every operation's payload must be byte-identical in every pass, and
    the sha256 over all payloads in operation order is the run's
    payload digest.  The timed wall is kept as the segments between
    host-probe samples, so it can be scaled to reference host speed.
    """

    def __init__(self, workload: Workload, probe: common.HostProbe) -> None:
        self.workload = workload
        self.probe = probe
        self.ops: List[Op] = []
        self.wall_s = 0.0
        self.segments: List[Tuple[float, float]] = []
        self._digest = hashlib.sha256()
        self._fingerprints: Dict[Tuple[str, Optional[str]], str] = {}
        self.first: Dict[Tuple[str, Optional[str]], Outcome] = {}

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def run_pass(
        self,
        order: Sequence[int],
        tracer: Optional[Tracer] = None,
        sizes: Optional["Sizes"] = None,
    ) -> None:
        probe = self.probe
        if not self.segments:  # later passes start on the last sample
            probe.sample()
        segment = time.perf_counter()
        for count, index in enumerate(order, start=1):
            case, strategy = self.workload.items[index]
            if tracer is not None:
                tracer.op = len(self.ops)
            t0 = time.perf_counter()
            out = run_op(case, strategy)
            latency = time.perf_counter() - t0
            decided = check_op(case, strategy, out)
            key = (case.name, strategy)
            payload = out.payload.encode()
            fingerprint = hashlib.sha256(payload).hexdigest()
            if self._fingerprints.setdefault(key, fingerprint) != fingerprint:
                raise WrongAnswer(f"{key}: payload changed between passes")
            if strategy is not None:  # kept for the cross-strategy gates
                self.first.setdefault(key, out)
            self._digest.update(payload)
            self.ops.append(Op(self.workload.kind_of(out), latency, True,
                               decided, t0))
            if sizes is not None:
                sizes.add(out)
            if count % PROBE_EVERY == 0 or count == len(order):
                end = time.perf_counter()
                self.segments.append((segment, end))
                self.wall_s += end - segment
                probe.sample()
                segment = time.perf_counter()

    def at_reference(self) -> Tuple[List[Op], float]:
        """The operations and the timed wall at reference host speed."""
        return common.ops_at_reference(self.ops, self.probe), sum(
            self.probe.at_reference(a, b) for a, b in self.segments
        )


def run_untraced(
    workload: Workload, orders: List[List[int]], probe: common.HostProbe
) -> Runner:
    runner = Runner(workload, probe)
    for order in orders:
        runner.run_pass(order)
    cross_check(runner.first)
    return runner


def run_traced(
    workload: Workload, orders: List[List[int]], probe: common.HostProbe
) -> Tuple[Runner, common.Metrics]:
    """Per-layer metrics from traced passes.

    Each traced pass follows an untraced pass over the same order, so
    both see the same host phases and ``trace.overhead_ratio`` compares
    like with like.  The end-to-end metrics never come from here.
    """
    untraced = Runner(workload, probe)
    traced = Runner(workload, probe)
    tracer = Tracer()
    recorder = Recorder()
    tracer.hooks["waves.search"] = recorder.on_search
    sizes = Sizes()
    for order in orders:
        untraced.run_pass(order)
        tracer.install()
        try:
            traced.run_pass(order, tracer=tracer, sizes=sizes)
        finally:
            tracer.uninstall()
    cross_check(traced.first)
    layers = self_times(tracer.records)
    metrics = layer_metrics(layers, traced.wall_s)
    metrics.update(sizes.metrics())
    search_s = layers["waves.search"][1]
    metrics["waves.search.states"] = (recorder.search_states, "count")
    metrics["waves.search.states_per_s"] = (
        recorder.search_states / search_s if search_s else 0.0,
        "1/s",
    )
    metrics["waves.search.limited_share"] = (
        recorder.limited / recorder.searches if recorder.searches else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        traced.at_reference()[1] / untraced.at_reference()[1] - 1.0,
        "ratio",
    )
    return traced, metrics


class Sizes:
    """Input sizes, pruning work and payload bytes, summed over the
    answers; they describe the inputs and repeat exactly."""

    FIELDS = (
        ("syncgraph.clg_nodes", "clg_nodes"),
        ("syncgraph.clg_edges", "clg_edges"),
        ("analysis.orderings.pairs", "ordered_pairs"),
        ("analysis.coexec.pairs", "not_coexec_pairs"),
        ("analysis.refined.heads", "poss_heads"),
    )

    def __init__(self) -> None:
        self.totals = {name: 0 for name, _ in self.FIELDS}
        self.rendezvous = self.payload_bytes = 0
        self.free = self.free_flagged = 0

    def add_report(self, rendezvous: int, stats: Dict[str, Any],
                   certified: bool, known_free: bool) -> None:
        self.rendezvous += rendezvous
        for name, key in self.FIELDS:
            self.totals[name] += stats.get(key, 0)
        if known_free:
            self.free += 1
            self.free_flagged += not certified

    def add(self, out: Outcome) -> None:
        self.add_report(
            len(out.result.sync_graph.rendezvous_nodes),
            out.result.deadlock.stats,
            out.result.deadlock.deadlock_free,
            not out.case.deadlock,
        )
        self.payload_bytes += len(out.payload.encode())

    def metrics(self) -> common.Metrics:
        out: common.Metrics = {
            "syncgraph.rendezvous_nodes": (self.rendezvous, "count"),
        }
        for name, _ in self.FIELDS:
            out[name] = (self.totals[name], "count")
        out["analysis.refined.false_alarm_share"] = (
            self.free_flagged / self.free if self.free else 0.0,
            "ratio",
        )
        out["reporting.bytes"] = (self.payload_bytes, "bytes")
        return out
