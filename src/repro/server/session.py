"""Session state: documents, cached pipeline artifacts, invalidation.

A :class:`Session` is the daemon's memory.  It owns

* **documents** keyed by URI with version numbers, each caching the
  algorithm-independent front half of the pipeline
  (:class:`repro.api.PreparedProgram`), which builds its
  :class:`~repro.analysis.index.AnalysisIndex` and
  :class:`~repro.waves.engine.WaveIndex` kernels and its refined report
  lazily and reuses them across requests;
* a **resident result front** — one :class:`repro.farm.cache.LruFront`
  keyed by the farm's content-addressed :func:`cache_key`, holding
  report payloads so a repeat ``analyze`` of an unchanged document is
  answered without re-running anything;
* an optional **disk store** (the farm :class:`ResultCache`, the same
  payloads as JSON) consulted below the front, so a restarted daemon is
  warm for any program it — or a batch run — has ever analyzed.

Incremental invalidation lives in :meth:`Document.apply_change`: a
``didChange`` carries the new text and optionally the edited source
ranges.  The edit keeps the cached span-free kernels, the
``AnalysisIndex`` and ``WaveIndex`` (*partial* invalidation), exactly
when the new text still canonicalises to the same program —
whitespace/comment-only edits and formatting churn — and hands them to
the rebuilt prepared program; the end-to-end spans the lint layer
threads through the AST label the cheap case (every edited range
outside every task/procedure declaration span).  Anything that changes
the canonical program is a *full* invalidation of that one document;
other documents are never touched.  ``analyze``, ``lint`` and
``repair`` of one document version share its prepared program, so the
refined analysis runs once for all three, and every reply carries the
document's own spans, cache hits included
(:func:`repro.reporting.own_validation`).

**Multi-client namespaces.**  Document tables are keyed per client
(the ``client`` field on protocol requests; HTTP clients default to a
per-address id), so two editors opening ``mem:a`` with different
buffers never clobber each other.  The expensive shared state — the
resident :class:`LruFront` and the disk store — is content-addressed
and deliberately *crosses* namespaces: the same program analyzed by
any client warms every other.

**Thread safety.**  The daemon's worker threads serve requests
concurrently, and every analysis runs in this process on the thread
serving its request.  Session-level mutable state (the namespace table,
the plain counters) is guarded by one session lock; each
:class:`Document` carries an ``RLock`` held for the whole of any
operation that reads or rebuilds its layered caches, so requests for
the *same* document serialize (preserving warm-cache semantics) while
requests for different documents run concurrently.  The shared
``LruFront``/``ResultCache`` lock themselves.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import budget, obs
from ..api import ALGORITHMS, PreparedProgram, analyze_prepared, prepare
from ..errors import ReproError
from ..farm.cache import LruFront, ResultCache, cache_key
from ..lang.ast_nodes import Program
from ..lang.parser import parse_program
from ..lang.pretty import pretty
from ..obs.export import instrument_values
from ..waves.guide import validate_strategy
from ..reporting import analysis_result_to_dict, own_validation
from .protocol import PROTOCOL_VERSION
from .scheduler import DEFAULT_CLIENT

__all__ = ["Document", "Session", "INVALIDATION_KINDS"]

INVALIDATION_KINDS = ("none", "partial", "full")


def _spans_overlap(a, b) -> bool:
    """Whether two 1-based, end-exclusive source regions intersect."""
    a_start, a_end = (a.line, a.column), (a.end_line, a.end_column)
    b_start, b_end = (b.line, b.column), (b.end_line, b.end_column)
    return a_start < b_end and b_start < a_end


class _Range:
    """One edited region from ``didChange`` params (duck-typed Span)."""

    __slots__ = ("line", "column", "end_line", "end_column")

    def __init__(self, raw: Dict[str, Any]) -> None:
        try:
            self.line = int(raw["start_line"])
            self.column = int(raw.get("start_column", 1))
            self.end_line = int(raw.get("end_line", self.line))
            self.end_column = int(raw.get("end_column", self.column + 1))
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                "didChange range needs integer start_line (and optional "
                "start_column/end_line/end_column)"
            ) from None


class Document:
    """One open source buffer and everything derived from it.

    Derived state is strictly layered: ``program`` (the parse of the
    exact source, spans intact) feeds ``prepared`` (inline + validate +
    unroll + sync graph), which owns the lazily built ``index`` (CLG
    bitset kernels), ``engine`` (packed-wave kernels) and ``refined``
    report.  A partial invalidation replaces the layers that carry
    source spans — the parse, and ``prepared``, whose sync graph points
    at statements, whose validation diagnostics are located and whose
    refined evidence is made of those nodes — and hands ``index`` and
    ``engine`` to the rebuilt ``prepared``: they hold only uids, and a
    canonically equal program builds a uid-equal graph (``SyncNode``
    equality ignores the ``stmt`` it carries).  Analyses read nodes off
    the rebuilt graph and only ids off the kept kernels.
    """

    def __init__(self, uri: str, text: str, version: int = 1) -> None:
        self.uri = uri
        self.version = version
        self.source = text
        self.rebuilds = 0  # full pipeline invalidations survived
        # Held for the whole of any session operation on this document:
        # same-document requests serialize (lazy layers build once,
        # warm-cache progressions stay deterministic), different
        # documents proceed in parallel.  RLock because analyze →
        # repair style nesting re-enters from the same worker thread.
        self.lock = threading.RLock()
        self._reset()

    # -- cached layers ---------------------------------------------------

    def _reset(self) -> None:
        self._program: Optional[Program] = None
        self._canonical: Optional[str] = None
        self._prepared: Optional[PreparedProgram] = None
        # Why this version cannot be prepared, once an attempt failed.
        self._failed: Optional[ReproError] = None
        # The previous version's prepared program after a partial
        # invalidation: its kernels go to the next rebuild.
        self._earlier: Optional[PreparedProgram] = None
        self._lint_cache: Dict[Tuple, Any] = {}
        self._repair_cache: Dict[Tuple, Dict[str, Any]] = {}

    def program(self) -> Program:
        """The parsed AST of the current source (cached; spans intact)."""
        if self._program is None:
            self._program = parse_program(self.source)
        return self._program

    def canonical(self) -> str:
        """The whitespace/comment-neutral form of the current source."""
        if self._canonical is None:
            self._canonical = pretty(self.program())
        return self._canonical

    def prepared(self) -> PreparedProgram:
        """The algorithm-independent pipeline front half (cached), with
        the kernels of the version before a comment edit.  A version
        whose front half fails is prepared once: later calls raise the
        same error until the next change."""
        if self._prepared is None:
            if self._failed is not None:
                # A fresh traceback each time, so it does not grow.
                raise self._failed.with_traceback(None)
            program = self.program()
            try:
                prepared = prepare(program)
            except ReproError as exc:
                self._failed = exc
                raise
            if self._earlier is not None:
                prepared.adopt_kernels(self._earlier)
                self._earlier = None
            self._prepared = prepared
        return self._prepared

    def artifacts(self) -> Dict[str, bool]:
        """Which cached layers currently exist (status introspection)."""
        holder = self._prepared or self._earlier
        return {
            "program": self._program is not None,
            "prepared": self._prepared is not None,
            "index": holder is not None and holder.built("index"),
            "engine": holder is not None and holder.built("engine"),
        }

    # -- invalidation ----------------------------------------------------

    def apply_change(
        self,
        text: str,
        version: Optional[int] = None,
        ranges: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> Tuple[str, str]:
        """Replace the source; decide how much cached state survives.

        Returns ``(kind, reason)`` with ``kind`` one of
        :data:`INVALIDATION_KINDS`:

        * ``"none"`` — byte-identical text; nothing dropped.
        * ``"partial"`` — the text changed but canonicalises to the
          same program (whitespace/comments/formatting, or an edit
          entirely outside every task/procedure declaration span).
          The parse and the prepared pipeline are rebuilt so spans
          track the new text, and the per-source lint and repair
          caches drop (suppression comments, diagnostic and fix spans
          are layout-sensitive), but the ``AnalysisIndex`` and
          ``WaveIndex`` pass to the rebuilt prepared program — and the
          content-addressed analysis results, whose key is the
          canonical form, survive.
        * ``"full"`` — the canonical program changed (or stopped
          parsing): every derived layer of *this document* is dropped.
        """
        self.version = version if version is not None else self.version + 1
        if text == self.source:
            return "none", "identical-text"

        outside = self._edit_outside_decls(ranges)
        old_canonical: Optional[str]
        try:
            old_canonical = self.canonical()
        except ReproError:
            old_canonical = None

        self.source = text
        try:
            new_program = parse_program(text)
        except ReproError:
            self._reset()
            self.rebuilds += 1
            return "full", "parse-error"

        if old_canonical is not None and pretty(new_program) == old_canonical:
            # Same canonical program: keep the uid-only index/engine,
            # drop the layers whose spans follow the old layout.
            self._program = new_program
            self._canonical = old_canonical
            if self._prepared is not None:
                self._earlier = self._prepared
            self._prepared = self._failed = None
            self._lint_cache = {}
            self._repair_cache = {}
            reason = (
                "edit-outside-declarations"
                if outside
                else "whitespace-or-comments"
            )
            return "partial", reason

        self._reset()
        self._program = new_program
        self.rebuilds += 1
        return "full", "semantic-edit"

    def _edit_outside_decls(
        self, ranges: Optional[Sequence[Dict[str, Any]]]
    ) -> bool:
        """True when every edited range misses every declaration span.

        Uses the end-to-end spans the lint layer threads through the
        AST (``TaskDecl.decl_loc`` covers the whole ``task … end;``
        region).  Conservative in both directions: no ranges → False
        (nothing claimed), span-less declarations → False.
        """
        if not ranges:
            return False
        try:
            program = self.program()
        except ReproError:
            return False
        decl_spans = []
        for task in program.tasks:
            span = task.decl_loc or task.loc
            if span is None:
                return False
            decl_spans.append(span)
        for proc in program.procedures:
            if proc.loc is None:
                return False
            decl_spans.append(proc.loc)
        try:
            edits = [_Range(raw) for raw in ranges]
        except ValueError:
            return False
        return all(
            not _spans_overlap(edit, span)
            for edit in edits
            for span in decl_spans
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "uri": self.uri,
            "version": self.version,
            "bytes": len(self.source),
            "rebuilds": self.rebuilds,
            "artifacts": self.artifacts(),
        }


class Session:
    """All resident daemon state plus the request-serving logic."""

    def __init__(
        self,
        store: Optional[ResultCache] = None,
        lru_entries: int = 256,
    ) -> None:
        self._namespaces: Dict[str, Dict[str, Document]] = {
            DEFAULT_CLIENT: {}
        }
        self.store = store
        self.lru = LruFront(max_entries=lru_entries)
        self.started_at = time.time()
        # Guards the namespace table and the plain counters; never held
        # across an analysis (document locks cover those).
        self._lock = threading.RLock()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "store_hits": 0,
            "computed": 0,
            "cancelled": 0,
            "lint_cache_hits": 0,
            "lint_runs": 0,
            "repairs": 0,
            "invalidations_none": 0,
            "invalidations_partial": 0,
            "invalidations_full": 0,
        }

    # -- namespaces ------------------------------------------------------

    @property
    def documents(self) -> Dict[str, Document]:
        """The default client's document table (single-client callers)."""
        return self._docs(DEFAULT_CLIENT)

    def _docs(self, client: Optional[str]) -> Dict[str, Document]:
        name = client or DEFAULT_CLIENT
        with self._lock:
            docs = self._namespaces.get(name)
            if docs is None:
                docs = self._namespaces[name] = {}
            return docs

    def namespaces(self) -> Dict[str, Dict[str, Document]]:
        """Snapshot of every client's document table."""
        with self._lock:
            return {
                client: dict(docs)
                for client, docs in self._namespaces.items()
            }

    # -- counters --------------------------------------------------------

    def _count(self, name: str, obs_name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1
        if obs.is_enabled():
            obs.counter(obs_name).inc()

    def _document_count(self) -> int:
        with self._lock:
            return sum(len(docs) for docs in self._namespaces.values())

    def _update_gauges(self) -> None:
        if obs.is_enabled():
            obs.gauge("server.documents").set(self._document_count())
            obs.gauge("server.lru.entries").set(len(self.lru))

    # -- document lifecycle ----------------------------------------------

    def open_document(
        self,
        uri: str,
        text: str,
        version: int = 1,
        client: Optional[str] = None,
    ) -> Document:
        doc = Document(uri, text, version=version)
        self._docs(client)[uri] = doc
        self._update_gauges()
        return doc

    def change_document(
        self,
        uri: str,
        text: str,
        version: Optional[int] = None,
        ranges: Optional[Sequence[Dict[str, Any]]] = None,
        client: Optional[str] = None,
    ) -> Dict[str, Any]:
        doc = self._docs(client).get(uri)
        if doc is None:
            doc = self.open_document(
                uri,
                text,
                version=version if version is not None else 1,
                client=client,
            )
            kind, reason = "full", "opened"
            self._count("invalidations_full", "server.invalidations.full")
        else:
            with doc.lock:
                kind, reason = doc.apply_change(text, version, ranges)
            self._count(
                f"invalidations_{kind}", f"server.invalidations.{kind}"
            )
        return {
            "uri": uri,
            "version": doc.version,
            "invalidation": kind,
            "reason": reason,
        }

    def close_document(
        self, uri: str, client: Optional[str] = None
    ) -> bool:
        existed = self._docs(client).pop(uri, None) is not None
        self._update_gauges()
        return existed

    def _resolve(
        self,
        uri: Optional[str],
        text: Optional[str],
        client: Optional[str] = None,
    ) -> Document:
        """The document a request targets, opening/updating as needed."""
        docs = self._docs(client)
        if text is not None:
            uri = uri or "untitled:adhoc"
            doc = docs.get(uri)
            if doc is None:
                return self.open_document(uri, text, client=client)
            with doc.lock:
                if text != doc.source:
                    kind, _ = doc.apply_change(text)
                    self._count(
                        f"invalidations_{kind}",
                        f"server.invalidations.{kind}",
                    )
            return doc
        if uri is None:
            raise ValueError("request needs a 'uri' or a 'text' param")
        doc = docs.get(uri)
        if doc is not None:
            return doc
        path = Path(uri)
        if path.is_file():
            return self.open_document(uri, path.read_text(), client=client)
        raise ValueError(
            f"unknown document {uri!r} (didOpen it, pass 'text', or "
            "use a readable file path)"
        )

    # -- analyze ---------------------------------------------------------

    def analyze_document(
        self,
        uri: Optional[str] = None,
        text: Optional[str] = None,
        algorithm: str = "refined",
        state_limit: int = 200_000,
        timeout: Optional[float] = None,
        strategy: str = "bfs",
        beam_width: Optional[int] = None,
        client: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """One ``analyze`` request: ``(report payload, cache source)``.

        The payload is exactly
        :func:`repro.reporting.analysis_result_to_dict` — what the
        one-shot CLI prints with ``--json``.  Cache source is
        ``"memory"`` (resident LRU — no re-parse, no re-index),
        ``"store"`` (content-addressed disk entry from an earlier
        daemon run or batch), or ``"computed"``.  ``strategy`` /
        ``beam_width`` steer exact exploration exactly like
        :func:`repro.api.analyze`; they are part of the cache key.
        The computation runs under the request budget
        (:mod:`repro.budget`): the daemon's cancel token plus a
        ``timeout``-second deadline from when it starts.  A cache hit
        answers regardless; an abort raises
        :class:`~repro.errors.RequestTimeout` or
        :class:`~repro.errors.RequestCancelled` with nothing cached.
        """
        return self._analysis(
            self._resolve(uri, text, client),
            algorithm=algorithm,
            state_limit=state_limit,
            timeout=timeout,
            strategy=strategy,
            beam_width=beam_width,
        )

    def _analysis(
        self,
        doc: Document,
        algorithm: str,
        state_limit: int,
        timeout: Optional[float] = None,
        strategy: str = "bfs",
        beam_width: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], str]:
        if algorithm != "exact" and algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of "
                f"{sorted(ALGORITHMS)} or 'exact'"
            )
        validate_strategy(strategy, beam_width)
        with doc.lock:
            key = cache_key(
                doc.program(),
                algorithm=algorithm,
                state_limit=state_limit,
                strategy=strategy,
                beam_width=beam_width,
            )
            payload, tier = self.lru.get(key), "memory"
            if payload is not None:
                self._count("cache_hits", "server.cache_hits")
            elif self.store is not None:
                entry = self.store.get(key)
                if entry is not None:
                    payload, tier = entry["payload"], "store"
                    self.lru.put(key, payload)
                    self._count("store_hits", "server.store_hits")
            if payload is not None:
                # The entry may come from another layout of this program.
                own = own_validation(payload, lambda: doc.prepared().validation)
                return own, tier

            with budget.limit(timeout):
                result = analyze_prepared(
                    doc.prepared(),
                    algorithm=algorithm,
                    state_limit=state_limit,
                    strategy=strategy,
                    beam_width=beam_width,
                )
            payload = analysis_result_to_dict(result)
            self.lru.put(key, payload)
            if self.store is not None:
                self.store.put(key, payload)
            self._count("computed", "server.computed")
            self._update_gauges()
            return payload, "computed"

    # -- lint ------------------------------------------------------------

    def lint_document(
        self,
        uri: Optional[str] = None,
        text: Optional[str] = None,
        disable: Sequence[str] = (),
        select: Optional[Sequence[str]] = None,
        sarif: bool = False,
        client: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]], str]:
        """One ``lint`` request: ``(payload, sarif doc or None, cache)``.

        The payload is :func:`repro.lint.output.lint_to_dict` — the CLI
        ``--lint --json`` stdout — with the document URI as the
        diagnostic path / SARIF ``artifactLocation`` (synthetic URIs
        for unsaved buffers pass through untouched).  Lint runs on the
        document's prepared program, so ADL012 reads the refined report
        ``analyze`` built for this version, or builds it for both.
        """
        from ..lint import lint_to_dict, run_lint, sarif_report

        doc = self._resolve(uri, text, client)
        with doc.lock:
            key = (
                tuple(disable),
                tuple(select) if select is not None else None,
            )
            result = doc._lint_cache.get(key)
            if result is not None:
                cache = "memory"
                self._count("lint_cache_hits", "server.lint_cache_hits")
            else:
                cache = "computed"
                program = doc.program()
                try:
                    prepared = doc.prepared()
                except ReproError as exc:
                    # Broken past parsing: lint degrades on its own,
                    # without preparing the program again.
                    prepared = exc
                result = run_lint(
                    program,
                    source=doc.source,
                    path=doc.uri,
                    disable=disable,
                    select=select,
                    prepared=prepared,
                )
                doc._lint_cache[key] = result
                self._count("lint_runs", "server.lint_runs")
            sarif_doc = sarif_report([result]) if sarif else None
            return lint_to_dict(result), sarif_doc, cache

    # -- repair ----------------------------------------------------------

    def repair_document(
        self,
        uri: Optional[str] = None,
        text: Optional[str] = None,
        algorithm: str = "refined",
        state_limit: int = 200_000,
        max_fixes: int = 5,
        strategy: str = "bfs",
        beam_width: Optional[int] = None,
        client: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], str]:
        """One ``repair`` request: the CLI ``--suggest-fixes --json``
        payload (analysis report + ``"repair"`` key), cache-aware.

        ``cache`` is the tier that answered the analysis.  Fixes must
        carry the document's own spans, so synthesis reads the
        document's own prepared program whichever tier answered;
        payloads are cached per document.
        """
        from ..repair import suggest_repairs

        doc = self._resolve(uri, text, client)
        with doc.lock:
            _, cache = self._analysis(
                doc,
                algorithm=algorithm,
                state_limit=state_limit,
            )
            key = (algorithm, state_limit, max_fixes, strategy, beam_width)
            full = doc._repair_cache.get(key)
            if full is not None:
                self._count("cache_hits", "server.cache_hits")
                return full, "memory"
            with budget.limit():
                result = analyze_prepared(
                    doc.prepared(),
                    algorithm=algorithm,
                    state_limit=state_limit,
                )
            report = suggest_repairs(
                result=result,
                algorithm="refined" if algorithm == "exact" else algorithm,
                state_limit=state_limit,
                max_fixes=max_fixes,
                strategy=strategy,
                beam_width=beam_width,
            )
            # Re-render through the same reporting entry point the CLI
            # uses so the repair-bearing payload is byte-identical to
            # ``--suggest-fixes --json``.
            full = analysis_result_to_dict(result, repair=report)
            doc._repair_cache[key] = full
            self._count("repairs", "server.repairs")
            return full, cache

    # -- batch -----------------------------------------------------------

    def run_batch(
        self,
        items: Optional[Sequence[Dict[str, Any]]] = None,
        paths: Optional[Sequence[str]] = None,
        algorithm: str = "refined",
        state_limit: int = 200_000,
        jobs: int = 1,
        timeout: Optional[float] = None,
        lint: bool = False,
    ) -> Dict[str, Any]:
        """One ``batch`` request through the farm runner.

        ``items`` are in-memory ``{"label", "text"}`` pairs; ``paths``
        are files/dirs/globs collected exactly like the CLI ``--batch``
        positionals.  The farm reuses the session's disk store, so
        batch results warm the daemon and vice versa.
        """
        from ..farm.runner import collect_sources, run_batch

        pairs: List[Tuple[str, str]] = []
        if items:
            for i, item in enumerate(items):
                if "text" not in item:
                    raise ValueError(f"batch item {i} needs 'text'")
                pairs.append(
                    (str(item.get("label", f"item-{i}")), item["text"])
                )
        if paths:
            pairs.extend(collect_sources(paths))
        if not pairs:
            raise ValueError("batch needs 'items' or 'paths'")
        report = run_batch(
            pairs,
            algorithm=algorithm,
            state_limit=state_limit,
            jobs=jobs,
            timeout=timeout,
            cache=self.store if self.store is not None else False,
            lint=lint,
        )
        return report.to_dict()

    # -- status / flush --------------------------------------------------

    def status(self) -> Dict[str, Any]:
        self._update_gauges()
        namespaces = self.namespaces()
        with self._lock:
            counters = dict(self.counters)
        payload: Dict[str, Any] = {
            "protocol_version": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            # Flat view (single-client payload shape unchanged): the
            # default namespace's documents, as every stdio client sees.
            "documents": [
                doc.to_dict()
                for doc in namespaces.get(DEFAULT_CLIENT, {}).values()
            ],
            "clients": {
                client: sorted(docs)
                for client, docs in sorted(namespaces.items())
                if docs
            },
            "counters": counters,
            "lru": self.lru.snapshot(),
            "store": (
                {
                    "dir": str(self.store.cache_dir),
                    "stats": self.store.stats.to_dict(),
                }
                if self.store is not None
                else None
            ),
            "algorithms": sorted(ALGORITHMS) + ["exact"],
        }
        active = obs.current()
        if active is not None:
            # Counters and gauges only: serializing the span forest
            # would cost time that grows with the daemon's uptime.
            payload["metrics"] = instrument_values(active.registry)
        return payload

    def flush(self) -> int:
        """Persist resident results the disk store does not yet have.

        Stores are write-through, so this usually writes nothing; it
        exists for the shutdown path, where it guarantees the next
        daemon start is as warm as this one ended.
        """
        if self.store is None:
            return 0
        written = 0
        for key, payload in self.lru.items():
            if not self.store.on_disk(key):
                self.store.put(key, payload)
                written += 1
        return written
