"""Shared pieces of the benchmark: paths, statistics, host probe, set-up
timing and the result line."""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for daemon stores and span files, inside the checkout;
# each run works in its own subdirectory and removes it at the end.
WORK = ROOT / ".perfbench-work"
RUN_DIR = WORK / f"run-{os.getpid()}"

# (value, unit) pairs keyed by metric name.
Metrics = Dict[str, Tuple[float, str]]


class WrongAnswer(Exception):
    """A gate saw an answer that contradicts the known one."""


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: repro from this checkout.

    Children keep their bytecode in the run's own cache, whatever the
    caller's environment says about writing it: the first, untimed
    start compiles and later starts load, so set-up times never include
    compilation, and a stale cache from another run is never read.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(RUN_DIR / "pycache")
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def passes_for(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes a run makes: fixed by ``--seconds``, never by how
    fast the host happens to be, so every run does the same work."""
    return max(1, round(seconds / nominal_pass_s))


def probe_kernel() -> int:
    """Fixed pure-Python work; its time tracks host speed only."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc


# The probe's time on the reference host (2 vCPUs of a shared Xeon) in its
# fast phase.  That host's speed drifts by up to 2x in phases lasting
# from seconds to minutes, more than any regression bound, so every timed
# interval is scaled by this over the probe time measured around it: the
# timing metrics read as wall time at the reference speed.
REFERENCE_PROBE_MS = 2.5
# Samples on each side of an interval that set its host speed.
PROBE_NEIGHBOURS = 2


class HostProbe:
    """Times :func:`probe_kernel` at intervals through a run, and scales
    the intervals between samples to reference host speed.

    The time spent probing is tracked so callers can leave it out of
    the timed phase.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        self._at: List[float] = []  # perf_counter of each sample, ascending
        self.spent_s = 0.0

    def sample(self, reps: int = 3) -> None:
        begin = time.perf_counter()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            probe_kernel()
            times.append((time.perf_counter() - t0) * 1000.0)
        self.samples_ms.append(statistics.median(times))
        self._at.append(begin)
        self.spent_s += time.perf_counter() - begin

    def local_ms(self, t: float) -> float:
        """Median probe time of the samples nearest ``t``."""
        j = bisect.bisect_left(self._at, t)
        near = self.samples_ms[
            max(0, j - PROBE_NEIGHBOURS): j + PROBE_NEIGHBOURS
        ]
        return statistics.median(near)

    def at_reference(self, t0: float, t1: float) -> float:
        """Seconds the interval ``[t0, t1]`` would take at reference
        host speed."""
        return (t1 - t0) * REFERENCE_PROBE_MS / self.local_ms((t0 + t1) / 2)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms) if self.samples_ms else 0.0

    def census(self) -> Dict[str, Any]:
        return {
            "median": round(self.median_ms, 4),
            "quartiles": quartiles(self.samples_ms),
            "samples": len(self.samples_ms),
            "reference": REFERENCE_PROBE_MS,
        }


def spawn_import_spans(
    runs: int, probe: HostProbe
) -> List[Tuple[float, float]]:
    """``(start, end)`` of ``python -c 'import repro'`` runs: interpreter
    start plus import, what a CLI user pays on every invocation.  One
    untimed run first, so byte-compilation of a fresh checkout is not
    counted; a probe sample follows each timed run."""
    cmd = [sys.executable, "-c", "import repro"]
    env = child_env()
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    probe.sample()
    spans = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        spans.append((t0, time.perf_counter()))
        probe.sample()
    return spans


def unscaled(
    ops: Sequence[Op],
    wall_s: float,
    setup_spans: Sequence[Tuple[float, float]],
) -> Dict[str, Any]:
    """The timing metrics as raw wall time, for the census."""
    ms = [op.latency_s * 1000.0 for op in ops]
    return {
        "setup_samples_s": [round(b - a, 4) for a, b in setup_spans],
        "throughput_ops_s": round(len(ops) / wall_s, 4),
        "latency_p50_ms": round(percentile(ms, 50), 4),
        "latency_p90_ms": round(percentile(ms, 90), 4),
    }


# The third-party packages whose import is reported apart.
DEPS = ("networkx", "numpy")


def _child_seconds(code: str) -> List[str]:
    return subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        check=True,
        cwd=ROOT,
        capture_output=True,
        text=True,
    ).stdout.split()


def import_split_seconds(runs: int = 3) -> Tuple[float, float]:
    """Median ``(deps_import_s, import_s)`` in fresh interpreters: the
    whole import of repro (with its server and lint packages), and the
    import of just those of :data:`DEPS` that repro loads."""
    deps, total = [], []
    for _ in range(runs):
        out = _child_seconds(
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            "import repro, repro.server.session, repro.lint\n"
            "print(time.perf_counter() - t0, "
            f"*[m for m in {DEPS!r} if m in sys.modules])\n"
        )
        total.append(float(out[0]))
        loaded = ", ".join(out[1:])
        deps.append(
            float(
                _child_seconds(
                    "import time\n"
                    "t0 = time.perf_counter()\n"
                    + (f"import {loaded}\n" if loaded else "")
                    + "print(time.perf_counter() - t0)\n"
                )[0]
            )
        )
    return statistics.median(deps), statistics.median(total)


def import_metrics() -> Metrics:
    deps_s, import_s = import_split_seconds()
    return {"setup.import_s": (import_s, "s"),
            "setup.deps_import_s": (deps_s, "s")}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values: Iterable[float]) -> List[float]:
    data = sorted(values)
    if len(data) < 2:
        return data * 3 if data else []
    return [round(q, 3) for q in statistics.quantiles(data, n=4)]


def source_identity() -> Dict[str, str]:
    """The commit when the checkout is a git repository, and always a
    digest of ``src/`` so two checkouts can be compared without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.adl")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def host_facts() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Op(NamedTuple):
    """One timed operation's outcome."""

    kind: str  # latency class
    latency_s: float
    ok: bool  # answered without error and with a correct payload
    decided: bool  # ended in a definite verdict
    started: float = 0.0  # perf_counter when the operation began


def ops_at_reference(
    ops: Sequence[Op], probe: HostProbe, fixed_kinds: Sequence[str] = ()
) -> List[Op]:
    """``ops`` with each latency scaled to reference host speed, except
    those of ``fixed_kinds``: fixed waits, as long at any host speed."""
    return [
        op if op.kind in fixed_kinds else op._replace(
            latency_s=probe.at_reference(op.started,
                                         op.started + op.latency_s)
        )
        for op in ops
    ]


def end_to_end(
    ops: Sequence[Op],
    timed_wall_s: float,
    setup_samples_s: Sequence[float],
    peak_rss_mb: float,
) -> Metrics:
    """The seven end-to-end metrics, from the timed phase's operations."""
    latencies_ms = [op.latency_s * 1000.0 for op in ops]
    n = len(ops)
    return {
        "setup_s": (statistics.median(setup_samples_s), "s"),
        "throughput_ops_s": (n / timed_wall_s, "ops/s"),
        "latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "latency_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "success_rate": (sum(op.ok for op in ops) / n, "ratio"),
        "decided_share": (sum(op.decided for op in ops) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def class_census(
    ops: Sequence[Op], order: Sequence[str]
) -> Dict[str, Any]:
    """Operation counts per class and the cumulative latency-rank share
    at each class boundary, classes ordered by their median latency.

    ``order`` lists the classes; the p50 and p90 ranks should fall well
    inside one class, not on a boundary where host speed flips them.
    """
    counts = {kind: 0 for kind in order}
    lat: Dict[str, List[float]] = {kind: [] for kind in order}
    for op in ops:
        counts[op.kind] += 1
        lat[op.kind].append(op.latency_s * 1000.0)
    ranked = sorted(
        (k for k in order if counts[k]),
        key=lambda k: statistics.median(lat[k]),
    )
    n = len(ops)
    boundaries = []
    cumulative = 0
    for kind in ranked:
        cumulative += counts[kind]
        boundaries.append(
            {
                "through": kind,
                "cumulative_share": round(cumulative / n, 4),
                "median_ms": round(statistics.median(lat[kind]), 3),
            }
        )
    return {"counts": counts, "class_boundaries": boundaries}


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Metrics,
    census: Optional[Dict[str, Any]] = None,
) -> None:
    """Print the census line, then the result as the last stdout line."""
    if census is not None:
        print("census " + json.dumps(census, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def per_layer_catalog() -> List[Tuple[str, str]]:
    """Every per-layer metric, ``(name, unit)``, in output order."""
    from .spans import LAYERS

    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [
        ("server.queue.wait_p50_ms", "ms"),
        ("server.queue.wait_p90_ms", "ms"),
        ("syncgraph.rendezvous_nodes", "count"),
        ("syncgraph.clg_nodes", "count"),
        ("syncgraph.clg_edges", "count"),
        ("analysis.orderings.pairs", "count"),
        ("analysis.coexec.pairs", "count"),
        ("analysis.refined.heads", "count"),
        ("analysis.refined.false_alarm_share", "ratio"),
        ("waves.search.states", "count"),
        ("waves.search.states_per_s", "1/s"),
        ("waves.search.limited_share", "ratio"),
        ("reporting.bytes", "bytes"),
        ("farm.lru.hit_ratio", "ratio"),
        ("farm.store.hit_ratio", "ratio"),
        ("farm.store.writes", "count"),
        ("lint.cache_hit_ratio", "ratio"),
        ("server.cache.memory_share", "ratio"),
        ("server.cache.store_share", "ratio"),
        ("server.cache.computed_share", "ratio"),
        ("server.invalidations.partial", "count"),
        ("server.invalidations.full", "count"),
        ("obs.spans_retained", "count"),
        ("setup.import_s", "s"),
        ("setup.deps_import_s", "s"),
        ("other.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("host.probe_ms", "ms"),
    ]
    return names


def complete_per_layer(measured: Metrics) -> Metrics:
    """All per-layer metrics in catalog order; a layer the workload
    never reaches reads 0."""
    out: Metrics = {}
    for name, unit in per_layer_catalog():
        value, _ = measured.get(name, (0, unit))
        out[name] = (value, unit)
    return out
