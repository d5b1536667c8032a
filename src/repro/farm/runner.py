"""Batch driver: collect ADL sources, consult the cache, schedule the pool.

The runner is the piece that turns the one-shot ``analyze`` pipeline
into a corpus engine: it accepts files, directories, and glob patterns
(plus in-memory programs via :func:`repro.api.analyze_many`), checks
the content-addressed cache before spending any worker time, fans the
misses out across the :mod:`pool <repro.farm.pool>`, stores fresh
results back, and emits a schema-versioned :class:`BatchReport` whose
JSON/JSONL serialisation reuses :mod:`repro.reporting`.

Instrumented with :mod:`repro.obs`: spans ``farm.run`` /
``farm.collect`` / ``farm.schedule`` and counters ``farm.cache.hits``,
``farm.cache.misses``, ``farm.items.analyzed``, ``farm.items.failed``,
``farm.items.timeout``, ``farm.worker.crashes`` (the last one lives in
the pool).
"""

from __future__ import annotations

import glob as _glob
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..api import prepare
from ..errors import ReproError
from ..lang.ast_nodes import Program
from ..lang.pretty import pretty
from ..reporting import own_validation, summary_result_to_dict
from .cache import PIPELINE_VERSION, ResultCache, cache_key
from .pool import (
    STATUS_FAILED,
    STATUS_OK,
    WorkItem,
    WorkOutcome,
    run_pool,
)

__all__ = [
    "BATCH_SCHEMA_VERSION",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_OFF",
    "BatchReport",
    "ItemReport",
    "collect_sources",
    "run_batch",
]

# 1: initial batch schema — per-item records (label, status, cache,
#    duration_s, program, deadlock, stall, error) plus a summary record
#    with totals; JSONL tags records with "kind".
# 2: lint-enabled batches — item records gain "lint_counts" (rule id ->
#    diagnostic count, {} when clean) and the summary record gains
#    "lint" ({"enabled", "diagnostics"}).
BATCH_SCHEMA_VERSION = 2

CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_OFF = "off"


@dataclass
class ItemReport:
    """Outcome of one batch item (see :data:`pool` statuses).

    ``result`` is the item's report payload
    (:func:`repro.reporting.analysis_result_to_dict`) when it is ``ok``.
    """

    label: str
    status: str
    cache: str = CACHE_OFF  # "hit" | "miss" | "off"
    duration_s: float = 0.0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = field(default=None, repr=False)
    lint_counts: Optional[Dict[str, int]] = None
    # A hit's own text, for :attr:`BatchReport.results`: the payload
    # may come from another layout of the same program.
    _source: Optional[str] = field(default=None, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        payload: dict = {
            "label": self.label,
            "status": self.status,
            "cache": self.cache,
            "duration_s": round(self.duration_s, 6),
            "error": self.error,
        }
        if self.result is not None:
            payload.update(summary_result_to_dict(self.result))
        if self.lint_counts is not None:
            payload["lint_counts"] = dict(sorted(self.lint_counts.items()))
        return payload


@dataclass
class BatchReport:
    """Everything one batch run produced, in submission order."""

    items: List[ItemReport]
    algorithm: str
    state_limit: int
    jobs: int
    timeout: Optional[float] = None
    cache_enabled: bool = True
    wall_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    lint_enabled: bool = False

    @property
    def results(self) -> List[Optional[Dict[str, Any]]]:
        """Per-item report payloads, input order, each equal to
        :func:`repro.reporting.analysis_result_to_dict` of a one-shot
        :func:`repro.analyze` of the item's text; ``None`` for items
        that failed, timed out, or crashed."""
        results = []
        for item in self.items:
            result, source = item.result, item._source
            if source is not None:
                result = own_validation(
                    result, lambda: prepare(source).validation
                )
            results.append(result)
        return results

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def counts(self) -> dict:
        counts: dict = {}
        for item in self.items:
            counts[item.status] = counts.get(item.status, 0) + 1
        return counts

    @property
    def deadlock_free(self) -> bool:
        """True iff every item analyzed clean: no failures and no
        possible-deadlock verdicts."""
        return self.ok and all(
            item.result["deadlock"]["deadlock_free"] for item in self.items
        )

    def summary_dict(self) -> dict:
        return {
            "schema_version": BATCH_SCHEMA_VERSION,
            "pipeline_version": PIPELINE_VERSION,
            "algorithm": self.algorithm,
            "state_limit": self.state_limit,
            "jobs": self.jobs,
            "timeout": self.timeout,
            "items": len(self.items),
            "counts": self.counts,
            "cache": {
                "enabled": self.cache_enabled,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "lint": {
                "enabled": self.lint_enabled,
                "diagnostics": sum(
                    sum(item.lint_counts.values())
                    for item in self.items
                    if item.lint_counts is not None
                ),
            },
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_dict(self) -> dict:
        payload = self.summary_dict()
        payload["item_reports"] = [item.to_dict() for item in self.items]
        return payload

    def to_jsonl(self) -> str:
        """One JSON object per line: every item, then the summary.

        Each record carries ``"kind"`` (``"item"`` / ``"summary"``) and
        ``"schema_version"`` so consumers can stream without buffering.
        """
        lines = []
        for item in self.items:
            record = {"kind": "item", "schema_version": BATCH_SCHEMA_VERSION}
            record.update(item.to_dict())
            lines.append(json.dumps(record, sort_keys=True))
        summary = {"kind": "summary"}
        summary.update(self.summary_dict())
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        lines = []
        for item in self.items:
            if item.ok:
                verdict = item.result["deadlock"]["verdict"]
                stall = item.result["stall"]["verdict"]
                detail = f"{verdict}; {stall}"
            else:
                detail = (item.error or "").strip().splitlines()
                detail = detail[-1] if detail else item.status
            if item.lint_counts is not None:
                lint = (
                    ", ".join(
                        f"{rule}={n}"
                        for rule, n in sorted(item.lint_counts.items())
                    )
                    or "clean"
                )
                detail = f"{detail}; lint: {lint}"
            lines.append(
                f"{item.label}: {item.status} [cache {item.cache}] {detail}"
            )
        counts = ", ".join(
            f"{status}={n}" for status, n in sorted(self.counts.items())
        )
        lines.append(
            f"batch: {len(self.items)} item(s) in {self.wall_time_s:.2f}s "
            f"({counts}; cache {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es))"
        )
        return "\n".join(lines)


def collect_sources(
    specs: Sequence[Union[str, Path]],
) -> List[Tuple[str, str]]:
    """Expand files, directories, and glob patterns into
    ``(label, source_text)`` pairs, sorted within each spec and
    de-duplicated across specs.

    Directories are searched recursively for ``*.adl``.  A spec that
    matches nothing raises :class:`~repro.errors.ReproError`.
    """
    seen = set()
    collected: List[Tuple[str, str]] = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            matches = sorted(path.rglob("*.adl"))
        elif path.is_file():
            matches = [path]
        else:
            matches = sorted(Path(p) for p in _glob.glob(str(spec)))
        if not matches:
            raise ReproError(f"no ADL sources match {str(spec)!r}")
        for match in matches:
            key = str(match.resolve())
            if key in seen:
                continue
            seen.add(key)
            collected.append((str(match), match.read_text()))
    return collected


def run_batch(
    programs: Iterable[Union[str, Program, Tuple[str, str]]],
    algorithm: str = "refined",
    state_limit: int = 200_000,
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache: Union[ResultCache, str, Path, bool, None] = None,
    lint: bool = False,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> BatchReport:
    """Analyze many programs with caching and parallelism.

    ``programs`` may mix ``(label, source)`` pairs (as produced by
    :func:`collect_sources`), bare source strings, and parsed
    :class:`~repro.lang.ast_nodes.Program` objects.  ``cache`` selects
    the result cache: an existing :class:`ResultCache`, a directory,
    ``True`` for the default directory, or ``None``/``False`` to
    disable caching.  Each item's ``result`` is the report payload of
    :func:`repro.api.analyze` on that program — the farm only changes
    how the work is scheduled and memoised.

    ``strategy``/``beam_width`` steer exact exploration (see
    :mod:`repro.waves.guide`) and are part of the cache key — a
    budget-limited run's findings depend on expansion order.

    ``lint`` additionally runs the lint rules over every item; each
    :class:`ItemReport` then carries ``lint_counts`` (rule id ->
    diagnostic count) and lint-enabled cache entries are stored under
    their own keys with the counts alongside the payload.
    """
    started = time.perf_counter()
    result_cache = _coerce_cache(cache)
    with obs.span(
        "farm.run", algorithm=algorithm, jobs=jobs,
        cache=result_cache is not None,
    ):
        with obs.span("farm.collect"):
            labelled = _labelled_sources(programs)

        reports: List[Optional[ItemReport]] = [None] * len(labelled)
        work: List[Tuple[int, WorkItem, Optional[str]]] = []
        for idx, (label, source) in enumerate(labelled):
            key = None
            if result_cache is not None:
                try:
                    key = cache_key(
                        source, algorithm, state_limit, lint,
                        strategy=strategy, beam_width=beam_width,
                    )
                except ReproError:
                    # Unparseable: let the worker produce the FAILED
                    # outcome (uniform error reporting), uncached.
                    key = None
                else:
                    hit = result_cache.get(key)
                    if hit is not None:
                        obs.counter("farm.cache.hits").inc()
                        item = reports[idx] = ItemReport(
                            label=label,
                            status=STATUS_OK,
                            cache=CACHE_HIT,
                            result=hit["payload"],
                            lint_counts=hit.get("lint_counts"),
                        )
                        item._source = source
                        continue
                    obs.counter("farm.cache.misses").inc()
            work.append(
                (
                    idx,
                    WorkItem(
                        label=label,
                        source=source,
                        algorithm=algorithm,
                        state_limit=state_limit,
                        lint=lint,
                        strategy=strategy,
                        beam_width=beam_width,
                    ),
                    key,
                )
            )

        with obs.span("farm.schedule", items=len(work)):
            outcomes = run_pool(
                [item for (_, item, _) in work], jobs=jobs, timeout=timeout
            )

        for (idx, _, key), outcome in zip(work, outcomes):
            reports[idx] = _item_from_outcome(outcome, result_cache, key)

        assert all(report is not None for report in reports)
        items: List[ItemReport] = reports  # type: ignore[assignment]
        hits = sum(1 for item in items if item.cache == CACHE_HIT)
        misses = sum(1 for item in items if item.cache == CACHE_MISS)
        if obs.is_enabled():
            obs.counter("farm.items.analyzed").inc(
                sum(1 for item in items if item.ok and item.cache != CACHE_HIT)
            )
            failed = sum(1 for item in items if item.status == STATUS_FAILED)
            timed_out = sum(
                1 for item in items if item.status == "timeout"
            )
            if failed:
                obs.counter("farm.items.failed").inc(failed)
            if timed_out:
                obs.counter("farm.items.timeout").inc(timed_out)
    return BatchReport(
        items=items,
        algorithm=algorithm,
        state_limit=state_limit,
        jobs=jobs,
        timeout=timeout,
        cache_enabled=result_cache is not None,
        wall_time_s=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=misses,
        lint_enabled=lint,
    )


def _coerce_cache(
    cache: Union[ResultCache, str, Path, bool, None],
) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache_dir=cache)


def _labelled_sources(
    programs: Iterable[Union[str, Program, Tuple[str, str]]],
) -> List[Tuple[str, str]]:
    labelled: List[Tuple[str, str]] = []
    for i, entry in enumerate(programs):
        if isinstance(entry, tuple):
            label, source = entry
        elif isinstance(entry, Program):
            label, source = entry.name, pretty(entry)
        else:
            label, source = f"program-{i}", entry
        labelled.append((label, source))
    return labelled


def _item_from_outcome(
    outcome: WorkOutcome,
    result_cache: Optional[ResultCache],
    key: Optional[str],
) -> ItemReport:
    if outcome.ok and result_cache is not None and key is not None:
        result_cache.put(key, outcome.result, outcome.lint_counts)
    return ItemReport(
        label=outcome.label,
        status=outcome.status,
        cache=(
            CACHE_OFF
            if result_cache is None or key is None
            else CACHE_MISS
        ),
        duration_s=outcome.duration_s,
        error=outcome.error,
        result=outcome.result,
        lint_counts=outcome.lint_counts,
    )
