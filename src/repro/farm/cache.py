"""Content-addressed result cache for the batch-analysis farm.

An analysis run is a pure function of (canonical program, algorithm,
state limit, pipeline version), so its :class:`~repro.api.AnalysisResult`
can be keyed by a hash of those inputs and reused across runs and
processes.  Keys hash the *parsed* program rendered back through the
pretty-printer, not raw source bytes — comments and whitespace never
reach the AST, so edits that cannot change the analysis cannot change
the key either.

:data:`PIPELINE_VERSION` is a bump-on-change stamp folded into every
key.  Any PR that changes analysis semantics (detector logic, the
transforms, sync-graph construction, result dataclasses) must bump it;
stale entries then simply stop being addressable and age out, so no
explicit invalidation pass is needed.

The cache is two-level: an in-memory LRU front (per
:class:`ResultCache` instance) over a pickle-per-entry disk backend
(shared across processes).  Disk entries that fail to load for any
reason — truncated writes, unpickling errors, a key mismatch, an old
format — are treated as misses and deleted, never raised.

Entries are pickles: only point a cache at directories you trust, the
same caveat as pytest's or mypy's cache.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, OrderedDict as OrderedDictT, Union
from collections import OrderedDict

from ..lang.ast_nodes import Program
from ..lang.parser import parse_program
from ..lang.pretty import pretty

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> farm)
    from ..api import AnalysisResult

__all__ = [
    "PIPELINE_VERSION",
    "CACHE_FORMAT",
    "CacheStats",
    "LruFront",
    "ResultCache",
    "cache_key",
    "canonical_source",
    "default_cache_dir",
]

# Bump whenever analysis semantics change: detector logic, transforms,
# sync-graph construction, or the shape of AnalysisResult.  Old entries
# become unaddressable (different key), so they are never served stale.
# v3: budget-faithful exact exploration — analyze(exact=...) now returns
# a partial possible-deadlock report with stats["exploration_limited"]
# instead of raising on budget exhaustion (PR 5).
# v4: exact exploration of loop programs walks the pre-unroll graph when
# Lemma-1 only approximated (stats gain unroll_approximated /
# explored_pre_unroll_graph), and lint-enabled batch entries store a
# {"analysis", "lint_counts"} wrapper (PR 7).
# v5: AnalysisResult gained the source-provenance ``uri`` field
# (repro.server in-memory buffers); older pickles miss the attribute.
# v6: guided exact search — exact reports gained stats["strategy"] (and
# beam_width/beam_truncated for beam runs), and the search strategy /
# beam width joined the cache key: budget-limited runs legitimately
# differ by expansion order, so strategies must not share entries.
# v7: the sync-graph builder emits control successors and initial
# options in uid order, and the extension analyses visit candidate
# tails in uid order; v6 entries of budget-limited exact runs, witness
# choices and extension evidence followed the string hash seed.
# v8: SyncGraph keeps uid-list adjacency (``_succ``/``_pred``/``_sync``)
# built from the AST; v7 pickles carry node-keyed dicts the new class
# cannot read.
# v9: SyncNode carries its AST statement as ``stmt`` instead of a
# whole CFG node; v8 pickles carry a field the class no longer has.
# v10: AnalysisResult lost the unread ``uri`` field, and the key lost
# its ``exact=`` line: ``algorithm="exact"`` is the one spelling, so
# one exact run is filed under one key.
PIPELINE_VERSION = 10

# On-disk envelope format, independent of analysis semantics.
CACHE_FORMAT = 1

# Distinguishes "key absent" from a legitimately cached None.
_MISS = object()


def canonical_source(program: Union[str, "Program"]) -> str:
    """The whitespace/comment-neutral form of ``program``.

    Source text is parsed and unparsed; comments are dropped by the
    lexer and layout is normalised by the pretty-printer, so two sources
    differing only in formatting canonicalise identically.  Parse errors
    propagate — an unparseable program has no canonical form.
    """
    if isinstance(program, str):
        program = parse_program(program)
    return pretty(program)


def cache_key(
    program: Union[str, "Program"],
    algorithm: str = "refined",
    state_limit: int = 200_000,
    lint: bool = False,
    strategy: str = "bfs",
    beam_width: Optional[int] = None,
) -> str:
    """Content hash addressing one analysis run.

    Mirrors the :func:`repro.api.analyze` signature plus the farm's
    ``lint`` switch: everything that can change the stored entry is
    hashed, nothing else is.  Lint-enabled entries carry extra payload
    (per-rule diagnostic counts), so they live under distinct keys
    rather than shadowing plain analysis results, and they hash the
    exact source text: ``-- lint: disable=`` comments change the
    counts, and the canonical form drops comments.  ``strategy`` and
    ``beam_width`` are part of the key because a *budget-limited* exact
    run's verdict legitimately depends on expansion order (an
    exhaustive run does not, but the stats payload still differs).
    """
    body = canonical_source(program)  # parse errors propagate
    if lint and isinstance(program, str):
        body = program
    stamp = "\n".join(
        (
            f"pipeline={PIPELINE_VERSION}",
            f"algorithm={algorithm}",
            f"state_limit={state_limit}",
            f"lint={lint}",
            f"strategy={strategy}",
            f"beam_width={beam_width}",
            body,
        )
    )
    return hashlib.sha256(stamp.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0  # corrupted/unreadable disk entries, counted as misses

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
        }


class LruFront:
    """A bounded, introspectable LRU map: the in-memory cache front.

    Extracted from :class:`ResultCache` so any long-lived holder of hot
    analysis state — the result cache, :class:`repro.server.Session` —
    shares one LRU implementation with uniform size/hit/miss
    introspection (:meth:`snapshot`), instead of each growing a private
    ``OrderedDict`` with ad-hoc counters.

    Thread-safe: the daemon's worker pool shares one front across
    workers, and both the ``OrderedDict`` reordering in :meth:`get` and
    the bare counter increments are read-modify-write sequences that
    corrupt under interleaving (``move_to_end`` on a key another thread
    just evicted raises ``KeyError``; racing ``hits += 1`` loses
    counts).  Every public operation holds one internal lock; the
    critical sections are dict probes, so contention is negligible next
    to the analyses the front memoises.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDictT[str, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str, default=None):
        """The value for ``key`` (refreshing recency), else ``default``."""
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: str, value) -> int:
        """Store ``key`` and return how many entries were evicted."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def items(self):
        """Current ``(key, value)`` pairs, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # Pure membership probe: no recency refresh, no counter churn.
        with self._lock:
            return key in self._entries

    def snapshot(self) -> dict:
        """Introspection payload for status endpoints / obs gauges."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class ResultCache:
    """Two-level cache: in-memory LRU over a pickle-per-entry directory.

    ``memory_entries`` bounds the LRU front only; the disk backend is
    unbounded (entries are small and content-addressed, ``clear()``
    wipes them).  Disk writes are atomic (temp file + ``os.replace``),
    so a killed run never leaves a half-written entry that a later run
    would trip over — and if anything else corrupts an entry, loading it
    counts as a miss and deletes the file.

    Safe to share across threads: the front is an internally locked
    :class:`LruFront`, the stats counters are guarded here, temp-file
    names include the thread id, and the content-addressed entries
    themselves are immutable (racing writers of one key store identical
    bytes).
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        memory_entries: int = 256,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self.front = LruFront(max_entries=memory_entries)
        # Guards the bare CacheStats counters; the front locks itself.
        self._stats_lock = threading.Lock()

    # -- paths -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        # Two-level fan-out keeps any one directory small.
        return self.cache_dir / key[:2] / f"{key}.pkl"

    # -- lookup ----------------------------------------------------------

    def get(self, key: str) -> Optional["AnalysisResult"]:
        """The cached result for ``key``, or None (miss)."""
        cached = self.front.get(key, _MISS)
        if cached is not _MISS:
            with self._stats_lock:
                self.stats.hits += 1
            return cached
        result = self._load_disk(key)
        if result is None:
            with self._stats_lock:
                self.stats.misses += 1
            return None
        self._remember(key, result)
        with self._stats_lock:
            self.stats.hits += 1
        return result

    def put(self, key: str, result: "AnalysisResult") -> None:
        """Store ``result`` under ``key`` (memory + disk)."""
        self._remember(key, result)
        path = self._entry_path(key)
        envelope = {"format": CACHE_FORMAT, "key": key, "result": result}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # pid + thread id: concurrent daemon workers storing the
            # same key must not collide on the temp file either.
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{threading.get_ident()}"
            )
            with open(tmp, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            with self._stats_lock:
                self.stats.stores += 1
        except OSError:
            # A read-only or full cache dir degrades to memory-only.
            with self._stats_lock:
                self.stats.errors += 1

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident (front or disk), without loading.

        A pure probe: no stats churn, no LRU refresh, no unpickling —
        used by flush paths that only need to know if a store round-trip
        can be skipped.
        """
        return key in self.front or self.on_disk(key)

    def on_disk(self, key: str) -> bool:
        """Whether ``key`` has a disk entry — i.e. survives this
        process.  Flush paths use this rather than :meth:`contains`,
        which the memory front would satisfy even after the file is
        gone."""
        return self._entry_path(key).exists()

    def clear(self) -> None:
        """Drop the memory front and delete every disk entry."""
        self.front.clear()
        if not self.cache_dir.exists():
            return
        for entry in self.cache_dir.glob("??/*.pkl"):
            try:
                entry.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        """Number of entries on disk."""
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.glob("??/*.pkl"))

    # -- internals -------------------------------------------------------

    def _remember(self, key: str, result: "AnalysisResult") -> None:
        evicted = self.front.put(key, result)
        with self._stats_lock:
            self.stats.evictions += evicted

    def _load_disk(self, key: str) -> Optional["AnalysisResult"]:
        path = self._entry_path(key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or envelope.get("format") != CACHE_FORMAT
                or envelope.get("key") != key
            ):
                raise ValueError("cache entry envelope mismatch")
            return envelope["result"]
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupted, truncated, or foreign entry: a miss, not a
            # crash.  Delete it so the slot heals on the next store.
            with self._stats_lock:
                self.stats.errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
