"""``daemon_session``: a monitored editor daemon, warm-restarted.

``repro serve`` runs over stdio at its defaults (one worker, 256-entry
LRU) with a disk store in a fresh directory and ``--metrics`` on.
Set-up primes the store through one daemon, stops it, and restarts from
that store several times; the last restart is measured.  One stdio
connection carries two client namespaces, each a closed loop with one
editor action in flight.  An action is timed from its first request
written to its last reply read, so queue wait behind the other
namespace counts.  Each pass runs as segments with a host-probe sample
between them, so actions and segments can be scaled to reference host
speed; the pass's timed check runs last, alone, in a segment whose wait
is not scaled.

The workspace, which documents are hot and how many actions of each
kind run are fixed; the seed only shuffles each namespace's actions
within a pass.  Payloads are checked against one-shot analyses after
the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import repro
from repro import obs
from repro.lang.parser import parse_program
from repro.lint import lint_to_dict, run_lint
from repro.reporting import analysis_result_to_dict

from . import common
from .common import Op, WrongAnswer
from .inprocess import Sizes
from .inputs import Case, daemon_workspace, input_properties
from .spans import layer_metrics, self_times
from .stdio import Daemon, become_subreaper, serve_argv

WHY = (
    "an editor daemon under a monitor: cache tiers, invalidation, lint, "
    "transport, queueing and telemetry do the work, the search kernel little"
)
NOMINAL_PASS_S = 4.0
SETUP_RESTARTS = 5
EXACT_LIMIT = 3_000  # state_limit of the editor's exact check
TIMEOUT_S = 2.0  # params.timeout of the timed check, as editors send it
NAMESPACES = ("alice", "bob")
HOT = 6  # hot documents per namespace: every edit lands on one of them
# Actions per namespace between host-probe samples: a pass runs as
# segments, each ended by both namespaces, then a probe sample.
SEGMENT = 12
# The known defect below makes every timed check wait out its whole
# budget: a fixed wait, not work, which scaling to host speed would
# distort.  Each pass's timed checks run last, alone, in segments of
# their own whose wall and latencies stay unscaled.
FIXED_WAIT = ("timed",)

# Actions per namespace per pass.  About four fifths of them compute
# (re-lint, re-parse, fresh analyses), so both the p50 and the p90 rank
# sit well inside that class: below it are the cached answers, whose
# latency is mostly queue wait behind the other namespace and changes
# steeply with rank; above it, under 2% of actions, are the timed
# checks and sweeps.
SCRIPT: Dict[str, Dict[str, int]] = {
    "alice": {"recheck": 10, "exact_cached": 4, "status": 2,
              "exact_fresh": 3, "open": 18, "save_comment": 21,
              "save_semantic": 24, "sweep": 1, "timed": 1},
    "bob": {"recheck": 10, "exact_cached": 4, "status": 2,
            "exact_fresh": 3, "open": 18, "save_comment": 21,
            "save_semantic": 24, "sweep": 1, "timed": 0},
}
# The documents each kind rotates over: every one, the hot ones (every
# edit lands on one of them) or the rest.
TARGETS = {"recheck": "all", "exact_cached": "cold", "open": "cold",
           "save_comment": "hot", "save_semantic": "hot",
           "exact_fresh": "hot", "timed": "hot"}
CLASSES = {
    "cached": ("recheck", "exact_cached", "status"),
    "compute": ("exact_fresh", "open", "save_comment", "save_semantic"),
    "slow": ("sweep", "timed"),
}
KINDS = sum(CLASSES.values(), ())

REQUEST_TIMEOUT = 1001
CERTIFIED = "certified-deadlock-free"


@dataclass
class Doc:
    """One document of one namespace and the edits applied to it."""

    uri: str
    case: Case
    semantic: int = 0  # id of the handshake the last semantic edit added
    comment: int = 0  # number of leading comment lines
    version: int = 1

    def text(self) -> str:
        """Comment lines, the base program, one handshake.  A semantic
        edit swaps the handshake for a fresh one, so every program it
        makes is new and all have the same size."""
        a, b = f"hs{self.semantic}a", f"hs{self.semantic}b"
        return (
            "".join(f"-- edit note {i}\n" for i in range(self.comment))
            + self.case.text.rstrip()
            + f"\ntask {a} is begin send {b}.ping{self.semantic}; end;"
            + f"\ntask {b} is begin accept ping{self.semantic}; end;\n"
        )


@dataclass
class Record:
    """One analyze/lint/batch reply to check after the timed phase."""

    kind: str  # "analyze", "exact", "lint", "batch"
    doc: Optional[Doc]
    text: str
    semantic: int
    reply: Dict[str, Any]
    op_index: int
    tier: str = ""  # cache tier that answered an analyze


@dataclass
class NamespaceRun:
    name: str
    docs: List[Doc]
    ops: List[Op] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
    request_ids: List[int] = field(default_factory=list)
    semantic_counter: int = 0
    # Texts sent for each (uri, semantic id): comment variants of one
    # program, the only places a stale cached span can come from.
    variants: Dict[Tuple[str, int], Set[int]] = field(default_factory=dict)


def split_workspace() -> Dict[str, List[Doc]]:
    cases = daemon_workspace()
    out: Dict[str, List[Doc]] = {ns: [] for ns in NAMESPACES}
    for i, case in enumerate(cases):
        ns = NAMESPACES[i % len(NAMESPACES)]
        out[ns].append(Doc(uri=f"mem:{ns}/{case.name}.adl", case=case))
    for ns, docs in out.items():
        # Hot documents first; each namespace gets stall variants among
        # them, so comment edits that move lines reach located spans.
        docs.sort(key=lambda d: (not d.case.name.endswith("_flush"),
                                 d.case.name))
    return out


def pass_script(ns: str, docs: List[Doc], pass_no: int,
                rng: random.Random) -> List[Tuple[str, Doc]]:
    """The namespace's actions for one pass, in seed order.  Targets
    rotate over the documents by pass number, never by seed."""
    pools = {"all": docs, "hot": docs[:HOT], "cold": docs[HOT:]}
    actions: List[Tuple[str, Doc]] = []
    for kind, count in SCRIPT[ns].items():
        pool = pools[TARGETS.get(kind, "all")]
        actions += [(kind, pool[(pass_no * count + i) % len(pool)])
                    for i in range(count)]
    rng.shuffle(actions)
    return actions


def sweep_request(run: NamespaceRun) -> Tuple[str, Dict[str, Any]]:
    """A workspace sweep: every document's base program in one batch."""
    return ("batch", {"items": [{"label": d.uri, "text": d.case.text}
                                for d in run.docs]})


def action_requests(run: NamespaceRun, kind: str, doc: Doc
                    ) -> List[Tuple[str, Dict[str, Any]]]:
    """Apply the action's edit to ``doc`` and return its requests."""
    uri = doc.uri
    if kind in ("save_comment", "save_semantic", "timed"):
        if kind == "save_comment":
            doc.comment = (doc.comment + 1) % 4
        else:
            run.semantic_counter += 1
            doc.semantic = run.semantic_counter
        doc.version += 1
        change = ("didChange", {"uri": uri, "text": doc.text(),
                                "version": doc.version})
        if kind == "timed":
            return [change, ("analyze", {"uri": uri, "timeout": TIMEOUT_S})]
        return [change, ("analyze", {"uri": uri}), ("lint", {"uri": uri})]
    if kind == "open":
        doc.version += 1
        return [("didOpen", {"uri": uri, "text": doc.text(),
                             "version": doc.version}),
                ("analyze", {"uri": uri}), ("lint", {"uri": uri})]
    if kind == "recheck":
        return [("analyze", {"uri": uri})]
    if kind in ("exact_cached", "exact_fresh"):
        return [("analyze", {"uri": uri, "exact": True,
                             "state_limit": EXACT_LIMIT})]
    if kind == "sweep":
        return [sweep_request(run)]
    return [("status", {})]


class Session:
    """Drives one measured daemon through the timed passes."""

    def __init__(self, daemon: Daemon, runs: Dict[str, NamespaceRun],
                 probe: common.HostProbe) -> None:
        self.daemon = daemon
        self.runs = runs
        self.probe = probe
        self.wall_s = 0.0
        self.windows: List[Tuple[float, float]] = []
        self.wait_windows: List[Tuple[float, float]] = []

    def run_action(self, run: NamespaceRun, kind: str, doc: Doc) -> None:
        requests = action_requests(run, kind, doc)
        text = doc.text()
        run.variants.setdefault((doc.uri, doc.semantic), set()).add(
            doc.comment)
        replies, ids, started, done = self.daemon.call(requests, run.name)
        op_index = len(run.ops)
        ok, decided = True, False
        for (method, params), reply in zip(requests, replies):
            if method == "analyze":
                if "error" in reply:
                    code = reply["error"].get("code")
                    # Known defect: a timed stdio check answers 1001
                    # only after its whole budget.
                    if not (kind == "timed" and code == REQUEST_TIMEOUT
                            and done - started >= TIMEOUT_S):
                        raise WrongAnswer(f"{kind} {doc.uri}: {reply}")
                    ok = False
                    continue
                report = reply["result"]["report"]
                record_kind = "exact" if params.get("exact") else "analyze"
                run.records.append(Record(record_kind, doc, text,
                                          doc.semantic, report, op_index,
                                          reply["result"]["cache"]))
                if record_kind == "exact":
                    decided = (report["deadlock"]["verdict"] == CERTIFIED
                               or report["deadlock"]["stats"].get(
                                   "deadlock_waves", 0) > 0)
                else:
                    decided = report["deadlock"]["verdict"] == CERTIFIED
            elif "error" in reply:
                raise WrongAnswer(f"{kind} {doc.uri} {method}: {reply}")
            elif method == "lint":
                run.records.append(Record("lint", doc, text, doc.semantic,
                                          reply["result"]["report"],
                                          op_index))
            elif method == "batch":
                run.records.append(Record("batch", None, "", 0,
                                          reply["result"]["report"],
                                          op_index))
            elif method == "status" and "counters" not in reply["result"]:
                raise WrongAnswer(f"status reply without counters: {reply}")
        run.ops.append(Op(kind, done - started, ok, decided, started))
        run.request_ids.extend(ids)

    def run_passes(self, seed: int, passes: int) -> None:
        rngs = {ns: random.Random(f"{seed}:{ns}") for ns in self.runs}
        self.probe.sample()
        for pass_no in range(passes):
            scripts = {ns: pass_script(ns, run.docs, pass_no, rngs[ns])
                       for ns, run in self.runs.items()}
            work = {ns: [a for a in script if a[0] not in FIXED_WAIT]
                    for ns, script in scripts.items()}
            longest = max(len(script) for script in work.values())
            for start in range(0, longest, SEGMENT):
                self.run_segment({ns: script[start:start + SEGMENT]
                                  for ns, script in work.items()})
                self.probe.sample()
            for ns, script in scripts.items():
                for action in script:
                    if action[0] in FIXED_WAIT:
                        self.run_segment({ns: [action]}, self.wait_windows)
                        self.probe.sample()

    def run_segment(self, scripts: Dict[str, List[Tuple[str, Doc]]],
                    windows: Optional[List[Tuple[float, float]]] = None
                    ) -> None:
        """Each namespace runs its actions on its own thread; the
        segment's span goes to ``windows`` (default: the work
        segments)."""
        errors: List[BaseException] = []

        def drive(ns: str) -> None:
            try:
                for kind, doc in scripts[ns]:
                    self.run_action(self.runs[ns], kind, doc)
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(ns,), daemon=True)
                   for ns in scripts]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        self.wall_s += end - begin
        (self.windows if windows is None else windows).append((begin, end))
        if errors:
            raise errors[0]


def open_all(daemon: Daemon, runs: Dict[str, NamespaceRun],
             analyze: bool) -> None:
    """Open every document (the editor restoring its tabs); when
    priming, also analyze it both ways so the store holds the results."""
    for ns, run in runs.items():
        for doc in run.docs:
            run.variants.setdefault((doc.uri, doc.semantic), set()).add(
                doc.comment)
            requests = [("didOpen", {"uri": doc.uri, "text": doc.text(),
                                     "version": doc.version})]
            if analyze:
                requests += [
                    ("analyze", {"uri": doc.uri}),
                    ("analyze", {"uri": doc.uri, "exact": True,
                                 "state_limit": EXACT_LIMIT}),
                ]
            replies, _, _, _ = daemon.call(requests, ns)
            for reply in replies:
                if "error" in reply:
                    raise WrongAnswer(f"set-up {doc.uri}: {reply}")


class References:
    """One-shot answers for the texts the daemon saw, computed once.

    They run with repro's telemetry on, as the daemon under ``--metrics``
    does: the refined report then carries its pruning counters, exactly
    as ``repro prog.adl --json --metrics-out`` prints them.
    """

    def __init__(self) -> None:
        self._analyze: Dict[Tuple[str, bool], Dict[str, Any]] = {}
        self._lint: Dict[Tuple[str, str], Dict[str, Any]] = {}

    def analyze(self, text: str, exact: bool) -> Dict[str, Any]:
        key = (text, exact)
        if key not in self._analyze:
            with obs.observed():
                result = (
                    repro.analyze(text, exact=True, state_limit=EXACT_LIMIT)
                    if exact else repro.analyze(text)
                )
            self._analyze[key] = analysis_result_to_dict(result)
        return self._analyze[key]

    def lint(self, text: str, uri: str) -> Dict[str, Any]:
        key = (text, uri)
        if key not in self._lint:
            with obs.observed():
                result = run_lint(parse_program(text), source=text, path=uri)
            self._lint[key] = lint_to_dict(result)
        return self._lint[key]


def check_records(run: NamespaceRun, refs: References) -> Set[int]:
    """Gate every recorded payload; return the ops that hit the
    known stale-span defect (a failed operation, not a wrong answer).

    A daemon ``analyze`` must equal a one-shot analysis of the same
    text.  The one recognised exception is a cached report carrying the
    spans of another comment variant of the same program that this
    namespace sent earlier.
    """
    stale: Set[int] = set()
    for rec in run.records:
        if rec.kind == "batch":
            check_batch(run, rec.reply)
            continue
        doc = rec.doc
        if rec.kind == "lint":
            if rec.reply != refs.lint(rec.text, doc.uri):
                raise WrongAnswer(f"lint payload differs for {doc.uri}")
            continue
        exact = rec.kind == "exact"
        if rec.reply == refs.analyze(rec.text, exact):
            continue
        others = [
            Doc(doc.uri, doc.case, rec.semantic, comment).text()
            for comment in sorted(run.variants[(doc.uri, rec.semantic)])
        ]
        if any(rec.reply == refs.analyze(t, exact) for t in others
               if t != rec.text):
            stale.add(rec.op_index)
            continue
        raise WrongAnswer(f"{rec.kind} payload differs for {doc.uri}")
    return stale


def check_batch(run: NamespaceRun, report: Dict[str, Any]) -> None:
    known = {d.uri: d.case for d in run.docs}
    for item in report["item_reports"]:
        case = known[item["label"]]
        if item["status"] != "ok":
            raise WrongAnswer(f"sweep item {item['label']}: {item}")
        if item["deadlock"]["deadlock_free"] and case.deadlock:
            raise WrongAnswer(f"sweep certified known deadlock {case.name}")


def decided_gate(run: NamespaceRun) -> None:
    """Refined must never certify a known-deadlock document."""
    for rec in run.records:
        if rec.kind == "analyze" and rec.doc.case.deadlock and (
            rec.reply["deadlock"]["verdict"] == CERTIFIED
        ):
            raise WrongAnswer(f"certified known deadlock {rec.doc.uri}")


@dataclass
class SessionResult:
    runs: Dict[str, NamespaceRun]
    wall_s: float
    windows: List[Tuple[float, float]]  # the work segments
    wait_windows: List[Tuple[float, float]]  # the timed checks' segments
    setup_spans: List[Tuple[float, float]]  # spawn to first ping
    peak_rss_mb: float
    bytes_read: int
    status_before: Dict[str, Any]
    status_after: Dict[str, Any]
    trace: Optional[Dict[str, Any]] = None


def status(daemon: Daemon) -> Dict[str, Any]:
    replies, _, _, _ = daemon.call([("status", {})])
    return replies[0]["result"]


def run_session(seed: int, passes: int, probe: common.HostProbe,
                traced: bool) -> SessionResult:
    """Prime, restart from the store, run the passes, tear down."""
    base = common.RUN_DIR / ("traced" if traced else "plain")
    store = base / "store"
    store.mkdir(parents=True)
    log = base / "daemon.log"
    spans_out = base / "spans.json" if traced else None
    runs = {ns: NamespaceRun(ns, docs)
            for ns, docs in split_workspace().items()}
    prime = Daemon(serve_argv(store), log)
    try:
        open_all(prime, runs, analyze=True)
        for ns, run in runs.items():
            prime.call([sweep_request(run)], ns)
    finally:
        prime.stop()
    setup: List[Tuple[float, float]] = []
    while len(setup) < SETUP_RESTARTS:
        probe.sample()
        daemon = Daemon(serve_argv(store, spans_out), log)
        try:
            setup.append(daemon.ping_span())
        finally:
            if len(setup) < SETUP_RESTARTS:  # not the measured restart
                daemon.stop()
    try:
        open_all(daemon, runs, analyze=False)
        before = status(daemon)
        bytes_before = daemon.bytes_read
        session = Session(daemon, runs, probe)
        session.run_passes(seed, passes)
        read = daemon.bytes_read - bytes_before
        after = status(daemon)
    finally:
        daemon.stop()
    trace = json.loads(spans_out.read_text()) if traced else None
    return SessionResult(runs, session.wall_s, session.windows,
                         session.wait_windows, setup,
                         daemon.peak_rss_mb, read, before, after, trace)


def verify(result: SessionResult) -> Set[Tuple[str, int]]:
    """Post-run gates; returns the (namespace, op) pairs that hit the
    known stale-span defect."""
    refs = References()
    stale = set()
    for ns, run in result.runs.items():
        decided_gate(run)
        stale |= {(ns, i) for i in check_records(run, refs)}
    return stale


def all_ops(result: SessionResult, stale: Set[Tuple[str, int]]) -> List[Op]:
    ops = []
    for ns, run in result.runs.items():
        for i, op in enumerate(run.ops):
            if (ns, i) in stale:
                op = op._replace(ok=False)
            ops.append(op)
    return ops


def digest(result: SessionResult) -> str:
    """sha256 over the analyze/lint payloads each namespace received,
    namespace by namespace in operation order."""
    h = hashlib.sha256()
    for ns in NAMESPACES:
        for rec in result.runs[ns].records:
            if rec.kind != "batch":
                h.update(json.dumps(rec.reply, sort_keys=True).encode())
    return h.hexdigest()


def delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> int:
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return a - b


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(result: SessionResult) -> common.Metrics:
    """Per-layer work and ratios from replies, status and the launcher."""
    before, after = result.status_before, result.status_after
    sizes = Sizes()
    tiers = {"memory": 0, "store": 0, "computed": 0}
    searches = limited = states = 0
    for run in result.runs.values():
        for rec in run.records:
            if rec.kind not in ("analyze", "exact"):
                continue
            stats = rec.reply["deadlock"]["stats"]
            # The payload counts the begin and end nodes too.
            sizes.add_report(
                rec.reply["sync_graph"]["nodes"] - 2, stats,
                rec.reply["deadlock"]["verdict"] == CERTIFIED,
                not rec.doc.case.deadlock,
            )
            tiers[rec.tier] += 1
            if rec.kind == "exact":
                searches += 1
                states += stats.get("feasible_waves", 0)
                limited += bool(stats.get("exploration_limited"))
    n_tiers = sum(tiers.values())
    metrics = sizes.metrics()
    metrics["reporting.bytes"] = (result.bytes_read, "bytes")
    metrics["waves.search.states"] = (states, "count")
    metrics["waves.search.limited_share"] = (ratio(limited, searches),
                                             "ratio")
    lru_hits = delta(after, before, "lru", "hits")
    lru_misses = delta(after, before, "lru", "misses")
    metrics["farm.lru.hit_ratio"] = (ratio(lru_hits, lru_hits + lru_misses),
                                     "ratio")
    s_hits = delta(after, before, "store", "stats", "hits")
    s_misses = delta(after, before, "store", "stats", "misses")
    metrics["farm.store.hit_ratio"] = (ratio(s_hits, s_hits + s_misses),
                                       "ratio")
    metrics["farm.store.writes"] = (
        delta(after, before, "store", "stats", "stores"), "count")
    l_hits = delta(after, before, "counters", "lint_cache_hits")
    l_runs = delta(after, before, "counters", "lint_runs")
    metrics["lint.cache_hit_ratio"] = (ratio(l_hits, l_hits + l_runs),
                                       "ratio")
    for tier in tiers:
        metrics[f"server.cache.{tier}_share"] = (ratio(tiers[tier], n_tiers),
                                                 "ratio")
    for kind in ("partial", "full"):
        metrics[f"server.invalidations.{kind}"] = (
            delta(after, before, "counters", f"invalidations_{kind}"),
            "count")
    return metrics


def traced_layers(result: SessionResult
                  ) -> Tuple[common.Metrics, float]:
    """Self times from the launcher's spans inside the timed passes
    (both processes read the same monotonic clock), and the search
    kernel's self time."""
    windows = result.windows + result.wait_windows
    spans = [tuple(s) for s in result.trace["spans"]
             if any(lo <= s[2] and s[3] <= hi for lo, hi in windows)]
    layers = self_times(spans)
    metrics = layer_metrics(layers, result.wall_s)
    timed_ids = {rid for run in result.runs.values()
                 for rid in run.request_ids}
    waits = [w * 1000.0 for rid, w in result.trace["queue_waits"]
             if rid in timed_ids]
    metrics["server.queue.wait_p50_ms"] = (common.percentile(waits, 50),
                                           "ms")
    metrics["server.queue.wait_p90_ms"] = (common.percentile(waits, 90),
                                           "ms")
    metrics["obs.spans_retained"] = (result.trace["obs_spans_retained"],
                                     "count")
    return metrics, layers["waves.search"][1]


def census(result: SessionResult, ops: List[Op], passes: int,
           seconds: float) -> Dict[str, Any]:
    # Comment lines never change a result key; the base program and the
    # handshake id do.
    keys = {(rec.kind, rec.doc.uri, rec.semantic)
            for run in result.runs.values() for rec in run.records
            if rec.kind in ("analyze", "exact")}
    counts = {kind: sum(op.kind == kind for op in ops) for kind in KINDS}
    n = len(ops)
    cached = sum(counts[k] for k in CLASSES["cached"])
    slow = sum(counts[k] for k in CLASSES["slow"])
    return {
        "why": WHY,
        "seconds": seconds,
        "passes": passes,
        "operations": n,
        "latency_samples": n,
        "action_kind_counts": counts,
        "action_kind_shares": {k: round(v / n, 4) for k, v in counts.items()},
        "classes": common.class_census(ops, KINDS),
        "class_boundary_shares": {
            "cached_answers": round(cached / n, 4),
            "through_compute": round((n - slow) / n, 4),
        },
        "distinct_result_keys": len(keys),
        "lru_capacity": result.status_after["lru"]["max_entries"],
        "lru_evictions": result.status_after["lru"]["evictions"],
        "inputs": input_properties([d.case for run in result.runs.values()
                                    for d in run.docs]),
        "payload_sha256": digest(result),
        "timeout_s": TIMEOUT_S,
        "exact_state_limit": EXACT_LIMIT,
    }


def reference_wall(result: SessionResult, probe: common.HostProbe
                   ) -> float:
    """The timed wall: work segments at reference host speed, the timed
    checks' fixed waits as they are."""
    return sum(probe.at_reference(a, b) for a, b in result.windows) + sum(
        b - a for a, b in result.wait_windows)


def run(seed: int, seconds: float, trace: bool
        ) -> Tuple[int, int, common.Metrics, Dict[str, Any]]:
    become_subreaper()
    probe = common.HostProbe()
    passes = common.passes_for(seconds, NOMINAL_PASS_S)
    plain = run_session(seed, passes, probe, traced=False)
    stale = verify(plain)
    ops = all_ops(plain, stale)
    if trace:
        traced = run_session(seed, passes, probe, traced=True)
        verify(traced)
        metrics, search_s = traced_layers(traced)
        metrics.update(layer_counts(traced))
        states = metrics["waves.search.states"][0]
        metrics["waves.search.states_per_s"] = (ratio(states, search_s),
                                                "1/s")
        metrics["trace.overhead_ratio"] = (
            reference_wall(traced, probe) / reference_wall(plain, probe) - 1,
            "ratio")
        metrics.update(common.import_metrics())
        metrics["host.probe_ms"] = (probe.median_ms, "ms")
        metrics = common.complete_per_layer(metrics)
    scaled = common.ops_at_reference(ops, probe, FIXED_WAIT)
    setup = [probe.at_reference(a, b) for a, b in plain.setup_spans]
    if not trace:
        metrics = common.end_to_end(scaled, reference_wall(plain, probe),
                                    setup, plain.peak_rss_mb)
    info = census(plain, scaled, passes, seconds)
    info["setup_samples_s"] = [round(s, 4) for s in setup]
    info["unscaled"] = common.unscaled(ops, plain.wall_s, plain.setup_spans)
    info["known_defects"] = {
        "stale_spans": len(stale),
        "timed_check_timeouts": sum(
            1 for op in ops if op.kind == "timed" and not op.ok),
    }
    info["host_probe_ms"] = probe.census()
    failed = sum(not op.ok for op in ops)
    return len(ops), failed, metrics, info
