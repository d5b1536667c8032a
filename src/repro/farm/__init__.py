"""Batch-analysis farm: parallel scheduling + content-addressed caching.

The farm turns the one-shot :func:`repro.analyze` pipeline into a
corpus engine:

* :mod:`repro.farm.cache` — report payloads keyed by a canonical hash
  of the parsed program, the algorithm, the state limit, and a
  pipeline version stamp, stored as checked JSON envelopes, one file
  per key.
* :mod:`repro.farm.pool` — fault-isolated
  :class:`~concurrent.futures.ProcessPoolExecutor` workers with
  per-item timeouts and crash containment, plus a serial fallback.
* :mod:`repro.farm.runner` — the batch driver: file/dir/glob
  collection, cache-first scheduling, and schema-versioned
  :class:`~repro.farm.runner.BatchReport` output (JSON and JSONL).

Typical use::

    from repro.farm import collect_sources, run_batch

    report = run_batch(
        collect_sources(["workloads/"]), jobs=4, cache=True
    )
    print(report.describe())

Library users who already hold sources or parsed programs can instead
call :func:`repro.analyze_many`, which routes through the same runner.
Every tier carries one record per item, the report payload of
:func:`repro.reporting.analysis_result_to_dict`: workers return it,
the cache stores it, and ``BatchReport.results`` lists it.
"""

from .cache import (
    PIPELINE_VERSION,
    CacheStats,
    LruFront,
    ResultCache,
    cache_key,
    canonical_source,
    default_cache_dir,
)
from .pool import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    WorkItem,
    WorkOutcome,
    run_pool,
)
from .runner import (
    BATCH_SCHEMA_VERSION,
    BatchReport,
    ItemReport,
    collect_sources,
    run_batch,
)

__all__ = [
    "BATCH_SCHEMA_VERSION",
    "PIPELINE_VERSION",
    "STATUS_CRASHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "BatchReport",
    "CacheStats",
    "LruFront",
    "ItemReport",
    "ResultCache",
    "WorkItem",
    "WorkOutcome",
    "cache_key",
    "canonical_source",
    "collect_sources",
    "default_cache_dir",
    "run_batch",
    "run_pool",
]
