"""``repro.server`` — a long-lived analysis daemon with session state.

The one-shot CLI re-pays parse, sync-graph build, and ``AnalysisIndex``
/ ``WaveIndex`` construction on every invocation.  The server keeps that
hot state resident: a :class:`~repro.server.session.Session` owns
documents keyed by URI with version numbers, caching the prepared
pipeline (parsed program → inlined program → sync graph → indexes) per
document and finished reports in a shared
:class:`~repro.farm.cache.LruFront`, fronted by the farm's
content-addressed disk store so even a restarted daemon answers warm.

The wire protocol is newline-delimited JSON-RPC-style requests over
stdio (optionally HTTP via the stdlib server) — see
:mod:`repro.server.protocol` and ``docs/SERVER.md``::

    $ repro serve
    {"id": 1, "method": "analyze", "params": {"uri": "a.adl", "text": "..."}}
    {"id": 1, "result": {"report": {...}, "cache": "computed"}}
    {"id": 2, "method": "analyze", "params": {"uri": "a.adl"}}
    {"id": 2, "result": {"report": {...}, "cache": "memory"}}

Report payloads are byte-identical to the one-shot CLI's ``--json`` /
``--lint --json`` / ``--suggest-fixes --json`` output for the same
source (same :mod:`repro.reporting` functions, schema_version 4), so a
client can switch between CLI and daemon without reparsing anything.

``didChange`` requests carry edited source ranges; the
:class:`~repro.server.session.Document` uses the lint layer's
end-to-end spans plus canonical-form comparison to decide whether an
edit can keep the cached parse/CLG (whitespace/comment-only or
out-of-task edits → *partial* invalidation) or must rebuild (*full*),
with ``server.invalidations.partial`` / ``server.invalidations.full``
obs counters proving the reuse.

Start it with ``repro serve`` (or ``python -m repro.server``); requests
are processed in-process by a bounded set of worker threads
(``--workers``, default 1) fed by a fair two-level scheduler —
interactive requests dispatch ahead of ``batch`` sweeps, clients
round-robin within a level — with per-client document namespaces, a
per-request budget (deadline and cancel token, :mod:`repro.budget`)
that stops queued and in-flight work, and graceful SIGTERM/SIGINT
shutdown (stdio *and* HTTP) that drains the queue and flushes the
cache.
"""

from __future__ import annotations

from .daemon import AnalysisServer, serve_stdio
from .httpd import serve_http
from .scheduler import FairScheduler, ScheduledRequest
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RequestTimeout,
    decode_request,
    dumps,
    error_response,
    response,
)
from .session import Document, Session

__all__ = [
    "AnalysisServer",
    "Document",
    "FairScheduler",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RequestTimeout",
    "ScheduledRequest",
    "Session",
    "decode_request",
    "dumps",
    "error_response",
    "response",
    "serve_http",
    "serve_stdio",
]
