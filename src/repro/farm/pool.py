"""Fault-isolated parallel execution of analysis work items.

The pool wraps :class:`concurrent.futures.ProcessPoolExecutor` with the
two guarantees a batch run needs and the executor alone does not give:

* **Per-item timeouts.**  A running task cannot be cancelled through
  the executor API, so when an item overruns its deadline the pool
  marks it ``TIMEOUT``, terminates the worker processes, rebuilds the
  executor, and requeues the innocent in-flight items.
* **Crash containment.**  A worker dying (segfault, ``os._exit``, OOM
  kill) breaks the whole executor and poisons every in-flight future.
  The pool rebuilds the executor and re-runs the poisoned items in
  *quarantine* — one at a time — so the next crash unambiguously
  identifies the culprit: an item that crashes while running alone is
  marked ``CRASHED`` and the rest of the batch continues at full
  parallelism.  (``max_crash_retries`` caps repeated multi-item
  breakages as a safety valve.)

Ordinary Python exceptions inside :func:`analyze` never surface as
future exceptions at all: the worker catches them and returns a
``FAILED`` outcome carrying the traceback, so one malformed program
cannot take down a batch.

``jobs=1`` runs everything serially in-process — no fork/spawn, no
pickling, and therefore no preemptive timeouts or crash isolation
(documented fallback for platforms without usable multiprocessing).

Fault injection: setting ``REPRO_FARM_INJECT_CRASH`` to a substring of
an item label makes the worker die via ``os._exit`` on that item, and
``REPRO_FARM_INJECT_HANG`` makes it sleep forever.  These exist so
crash/timeout containment stays testable end-to-end (tests and CI
drills); both are inert unless explicitly set.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import budget, obs

__all__ = [
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUS_CRASHED",
    "WorkItem",
    "WorkOutcome",
    "run_pool",
]

STATUS_OK = "ok"
STATUS_FAILED = "failed"  # exception in the worker (parse/analysis error)
STATUS_TIMEOUT = "timeout"  # exceeded the per-item deadline
STATUS_CRASHED = "crashed"  # worker process died

_CRASH_ENV = "REPRO_FARM_INJECT_CRASH"
_HANG_ENV = "REPRO_FARM_INJECT_HANG"


@dataclass(frozen=True)
class WorkItem:
    """One program to analyze, fully described by picklable values.

    ``lint`` additionally runs the lint rules over the source and
    reports per-rule diagnostic counts alongside the analysis result.
    """

    label: str
    source: str
    algorithm: str = "refined"
    state_limit: int = 200_000
    lint: bool = False
    strategy: str = "bfs"
    beam_width: Optional[int] = None


@dataclass
class WorkOutcome:
    """What happened to one :class:`WorkItem`.

    ``result`` is set only for ``ok`` (:func:`analyze_item` sets the
    report payload of :func:`repro.reporting.analysis_result_to_dict`);
    ``error`` carries the worker traceback for ``failed`` and a short
    description for ``timeout``/``crashed``.  ``lint_counts`` maps rule
    id to diagnostic count for lint-enabled items (``{}`` when the
    source lints clean, ``None`` when linting was off or never ran).
    """

    label: str
    status: str
    result: Optional[object] = field(default=None, repr=False)
    error: Optional[str] = None
    duration_s: float = 0.0
    lint_counts: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _maybe_inject_fault(label: str) -> None:
    crash = os.environ.get(_CRASH_ENV)
    if crash and crash in label:
        os._exit(86)
    hang = os.environ.get(_HANG_ENV)
    if hang and hang in label:
        while True:  # pragma: no cover - killed by the parent
            time.sleep(60)


def analyze_item(item: WorkItem) -> WorkOutcome:
    """Default worker: run the full pipeline on one item and return
    its report payload.

    Module-level (hence picklable for spawn-based pools) and
    exception-total: every Python failure becomes a ``FAILED`` outcome.
    """
    _maybe_inject_fault(item.label)
    start = time.perf_counter()
    try:
        from ..api import analyze_prepared, prepare
        from ..reporting import analysis_result_to_dict

        prepared = prepare(item.source)
        result = analyze_prepared(
            prepared,
            algorithm=item.algorithm,
            state_limit=item.state_limit,
            strategy=item.strategy,
            beam_width=item.beam_width,
        )
        lint_counts = None
        if item.lint:
            from ..lint import run_lint

            # The analysis's own prepared program: one parse, one front
            # half and one refined run serve both.
            lint = run_lint(
                prepared.source_program,
                source=item.source,
                path=item.label,
                prepared=prepared,
            )
            lint_counts = dict(Counter(d.rule_id for d in lint.diagnostics))
        return WorkOutcome(
            label=item.label,
            status=STATUS_OK,
            result=analysis_result_to_dict(result),
            duration_s=time.perf_counter() - start,
            lint_counts=lint_counts,
        )
    except Exception:
        return WorkOutcome(
            label=item.label,
            status=STATUS_FAILED,
            error=traceback.format_exc(),
            duration_s=time.perf_counter() - start,
        )


def _init_worker() -> None:
    """Start-up of every pool process: drop what a fork inherited.

    A forked worker starts with the state of the thread that forked it,
    which for a daemon ``batch`` with ``jobs`` > 1 is a worker thread
    serving that request: the daemon's SIGTERM/SIGINT handlers (the
    pool's ``terminate()`` would print a traceback per worker), the
    request's cancel token and budget (the worker would check them
    again in every later item), and the obs session, whose copy is
    never exported.
    """
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    budget.clear()
    obs.disable()


def _new_executor(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=_mp_context(), initializer=_init_worker
    )


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_pool(
    items: Sequence[WorkItem],
    jobs: int = 1,
    timeout: Optional[float] = None,
    worker: Callable[[WorkItem], WorkOutcome] = analyze_item,
    max_crash_retries: int = 2,
) -> List[WorkOutcome]:
    """Run ``worker`` over ``items``, returning outcomes in input order.

    ``timeout`` is the per-item wall-clock budget in seconds (pool mode
    only; the serial fallback cannot preempt a running analysis).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return [worker(item) for item in items]
    return _run_parallel(items, jobs, timeout, worker, max_crash_retries)


def _run_parallel(
    items: Sequence[WorkItem],
    jobs: int,
    timeout: Optional[float],
    worker: Callable[[WorkItem], WorkOutcome],
    max_crash_retries: int,
) -> List[WorkOutcome]:
    # The executor forks all of its workers at the first submit, so
    # never ask for more than there are items to run.
    jobs = min(jobs, len(items))
    results: List[Optional[WorkOutcome]] = [None] * len(items)
    pending: deque = deque(enumerate(items))
    # Items poisoned by a pool breakage, re-run one at a time so the
    # next crash pins down which of them is the crasher.
    quarantine: deque = deque()
    crash_counts: Dict[int, int] = {}
    executor: Optional[ProcessPoolExecutor] = None
    # future -> (index, item, started_at)
    inflight: Dict[object, Tuple[int, WorkItem, float]] = {}

    def spin_up() -> ProcessPoolExecutor:
        nonlocal executor
        if executor is None:
            executor = _new_executor(jobs)
        return executor

    def tear_down() -> None:
        """Kill worker processes and discard the executor.

        ``shutdown`` alone would leave a hung/stuck worker running
        forever; terminating the processes is the whole point, and the
        ``_processes`` map is the only handle the executor exposes
        (stable in CPython since 3.3, guarded anyway).
        """
        nonlocal executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        executor = None

    def handle_crash_of_inflight() -> None:
        """The pool broke: every in-flight item was poisoned.

        A lone in-flight item is definitively the crasher — nothing
        else could have killed the pool — and is marked CRASHED.
        Otherwise the whole cohort moves to quarantine to be re-run one
        at a time, charging each a crash strike; ``max_crash_retries``
        strikes marks an item CRASHED even without a solo conviction
        (safety valve against pathological repeated breakage).
        """
        obs.counter("farm.worker.crashes").inc()
        entries = sorted(inflight.values(), key=lambda entry: entry[0])
        inflight.clear()
        for idx, item, started in entries:
            crash_counts[idx] = crash_counts.get(idx, 0) + 1
            if len(entries) == 1 or crash_counts[idx] > max_crash_retries:
                results[idx] = WorkOutcome(
                    label=item.label,
                    status=STATUS_CRASHED,
                    error=(
                        "worker process died while analyzing this item"
                        + (
                            ""
                            if len(entries) == 1
                            else f" (poisoned {crash_counts[idx]} pool"
                            " breakages)"
                        )
                        + "; see stderr for the worker's exit context"
                    ),
                    duration_s=time.monotonic() - started,
                )
            else:
                quarantine.append((idx, item))
        tear_down()

    try:
        while pending or quarantine or inflight:
            if quarantine:
                # Drain suspects strictly one at a time: wait for the
                # pool to empty, then fly a single item so any breakage
                # convicts it alone.
                if not inflight:
                    idx, item = quarantine.popleft()
                    fut = spin_up().submit(worker, item)
                    inflight[fut] = (idx, item, time.monotonic())
            else:
                while pending and len(inflight) < jobs:
                    idx, item = pending.popleft()
                    fut = spin_up().submit(worker, item)
                    inflight[fut] = (idx, item, time.monotonic())

            if timeout is not None:
                now = time.monotonic()
                next_deadline = min(
                    started + timeout for (_, _, started) in inflight.values()
                )
                wait_s = min(0.5, max(0.01, next_deadline - now))
            else:
                wait_s = 0.5
            done, _ = wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            broke = False
            for fut in done:
                idx, item, started = inflight.pop(fut)
                try:
                    outcome = fut.result()
                except BrokenProcessPool:
                    # Put it back for crash accounting with the rest of
                    # the in-flight set.
                    inflight[fut] = (idx, item, started)
                    broke = True
                except Exception:
                    outcome = WorkOutcome(
                        label=item.label,
                        status=STATUS_FAILED,
                        error=traceback.format_exc(),
                        duration_s=time.monotonic() - started,
                    )
                    results[idx] = outcome
                else:
                    results[idx] = outcome
            if broke:
                handle_crash_of_inflight()
                continue

            if timeout is not None:
                now = time.monotonic()
                overdue = [
                    (fut, entry)
                    for fut, entry in inflight.items()
                    if now - entry[2] > timeout
                ]
                if overdue:
                    for fut, (idx, item, started) in overdue:
                        del inflight[fut]
                        results[idx] = WorkOutcome(
                            label=item.label,
                            status=STATUS_TIMEOUT,
                            error=(
                                f"exceeded the per-item timeout of "
                                f"{timeout:g}s"
                            ),
                            duration_s=now - started,
                        )
                    # The executor cannot cancel a running task: kill
                    # the workers and requeue the innocent in-flight
                    # items (no crash strike — the pool did not break,
                    # we broke it).
                    for fut, (idx, item, _) in sorted(inflight.items(),
                                                      key=lambda kv: -kv[1][0]):
                        pending.appendleft((idx, item))
                    inflight.clear()
                    tear_down()
    finally:
        tear_down()

    assert all(outcome is not None for outcome in results)
    return results  # type: ignore[return-value]
