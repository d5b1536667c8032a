"""Content-addressed result cache for the batch-analysis farm.

An analysis run is a pure function of (canonical program, algorithm,
state limit, pipeline version), so its report payload — what
:func:`repro.reporting.analysis_result_to_dict` returns, ``--json``
prints and the daemon replies with — can be keyed by a hash of those
inputs and reused across runs and processes.  Keys hash the *parsed*
program rendered back through the pretty-printer, not raw source
bytes — comments and whitespace never reach the AST, so edits that
cannot change the analysis cannot change the key either.  The
payload's one located part, its validation diagnostics, is rendered
from the requester's own text on a hit
(:func:`repro.reporting.own_validation`).

Entries are JSON envelopes, one file per key
(``<dir>/<key[:2]>/<key>.json``): ``{"key", "payload"}``, plus
``"lint_counts"`` under lint keys.  Loading one checks that it names
its own key and that the payload has this schema's ``schema_version``
and top-level keys; anything else at an entry's path — truncated
writes, foreign files, records of another schema — is a miss that is
counted in :attr:`CacheStats.errors` and deleted, never raised.
Loading parses JSON and executes nothing, so a cache directory may be
shared.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, OrderedDict as OrderedDictT, Union

from ..lang.ast_nodes import Program
from ..lang.parser import parse_program
from ..lang.pretty import pretty
from ..reporting import SCHEMA_VERSION

__all__ = [
    "PIPELINE_VERSION",
    "CacheStats",
    "LruFront",
    "ResultCache",
    "cache_key",
    "canonical_source",
    "default_cache_dir",
]

# Folded into every key.  Bump it only when verdicts, evidence or stats
# can change for some program: the payload's own ``schema_version``
# covers the record's shape, and a record of another shape fails the
# load check.  v11: entries are checked JSON payloads, not pickles.
PIPELINE_VERSION = 11

# The top-level keys every payload of this schema carries.
_PAYLOAD_KEYS = frozenset(
    (
        "schema_version",
        "program",
        "tasks",
        "procedures",
        "loops_transformed",
        "sync_graph",
        "deadlock",
        "stall",
        "validation",
    )
)


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
    errors: int = 0  # unreadable or rejected entries, counted as misses

    def to_dict(self) -> dict:
        return asdict(self)


class LruFront:
    """A bounded, introspectable LRU map: the in-memory cache front.

    :class:`repro.server.Session` keeps its resident report payloads in
    one, with size/hit/miss introspection (:meth:`snapshot`) for the
    ``status`` method and the obs gauges.

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

    def put(self, key: str, value) -> None:
        """Store ``key``, evicting the least recently used beyond
        ``max_entries``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

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
    """A directory of checked JSON envelopes, one file per key.

    The directory is unbounded (entries are a few KiB and
    content-addressed; :meth:`clear` wipes them).  Writes are atomic
    (temp file + ``os.replace``), so a killed run never leaves a
    half-written entry that a later run would trip over.

    Safe to share across threads: the stats counters are guarded,
    temp-file names include the pid and thread id, and racing writers
    of one key store the same report.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()

    def _entry_path(self, key: str) -> Path:
        # Two-level fan-out keeps any one directory small.
        return self.cache_dir / key[:2] / f"{key}.json"

    def _count(self, name: str) -> None:
        with self._stats_lock:
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The checked envelope stored under ``key`` — ``{"key",
        "payload"}`` plus ``"lint_counts"`` under lint keys — or None
        (a miss)."""
        envelope = self._load(key)
        self._count("misses" if envelope is None else "hits")
        return envelope

    def put(
        self,
        key: str,
        payload: Dict[str, Any],
        lint_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Store ``payload`` (and lint-enabled runs' ``lint_counts``)
        under ``key``."""
        envelope: Dict[str, Any] = {"key": key, "payload": payload}
        if lint_counts is not None:
            envelope["lint_counts"] = lint_counts
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # pid + thread id: concurrent daemon workers storing the
            # same key must not collide on the temp file either.
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{threading.get_ident()}"
            )
            tmp.write_text(json.dumps(envelope, separators=(",", ":")))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache dir degrades to no store.
            self._count("errors")
        else:
            self._count("stores")

    def on_disk(self, key: str) -> bool:
        """Whether ``key`` has an entry file, without loading it."""
        return self._entry_path(key).exists()

    def clear(self) -> None:
        """Delete every file in the fan-out directories."""
        for entry in self.cache_dir.glob("??/*"):
            try:
                entry.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        """Number of entries on disk."""
        return sum(1 for _ in self.cache_dir.glob("??/*.json"))

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._entry_path(key)
        try:
            envelope = json.loads(path.read_bytes())
            payload = envelope["payload"]
            if (
                envelope["key"] != key
                or payload["schema_version"] != SCHEMA_VERSION
                or not _PAYLOAD_KEYS <= payload.keys()
                or not isinstance(envelope.get("lint_counts", {}), dict)
            ):
                raise ValueError("not an entry of this key and schema")
            return envelope
        except FileNotFoundError:
            return None
        except (OSError, ValueError, LookupError, TypeError, RecursionError):
            # Unreadable, corrupted, truncated, or foreign entry: a
            # miss, not a crash.  Delete it so the slot heals on the
            # next store.
            self._count("errors")
            try:
                path.unlink()
            except OSError:
                pass
            return None
