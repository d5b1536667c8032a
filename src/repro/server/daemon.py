"""The daemon proper: request loop, worker pool, graceful shutdown.

Structure::

    stdin ──reader (main thread)──▶ FairScheduler ──worker threads──▶ stdout
    HTTP connection threads ──────▶      │
                                         └─▶ shared Session

The reader (or an HTTP connection thread) decodes each request and
submits it to the :class:`~repro.server.scheduler.FairScheduler`; a
bounded pool of **worker threads** drains it, runs the handler against
the shared :class:`~repro.server.session.Session`, and delivers one
response per request through the entry's transport continuation.  The
scheduler dispatches interactive requests ahead of ``batch`` sweeps and
round-robins across clients, so no client or bulk job can starve the
rest; within one client, requests stay FIFO.  The queue is bounded
(:data:`DEFAULT_QUEUE_SIZE`) — overflow is rejected immediately with
``SERVER_BUSY`` rather than silently buffered.

The default is **one worker** (:data:`DEFAULT_WORKERS`), which keeps
the original stdio contract: responses in strict per-client arrival
order, no concurrent session access.  With ``workers > 1`` the session
serves requests from several threads at once — per-document locks keep
same-document requests serialized while different documents proceed in
parallel.  Every request runs in this process on one path, whatever the
worker count: extra workers keep a short request from waiting behind a
long one, but the GIL runs one analysis at a time, so they add no CPU
throughput.  The one request that forks is a ``batch`` with ``jobs`` >
1, through :func:`repro.farm.pool.run_pool`, which starts at most
``min(jobs, items)`` processes.

Each worker runs its request with the request's cancel event as its
cancel token (:mod:`repro.budget`).  An analysis checks that token,
plus a deadline of ``params.timeout`` seconds from when the analysis
starts, in its long-running loops (wave search, refined per-head loop,
orderings fixpoint).  A timed-out request answers code 1001 and a
cancelled one 1004 as soon as the next check runs, and the worker is
free for the next request.  Nothing an aborted request half-built is
cached.

Cancellation (``cancel`` method, ``params.id`` = the target request's
id, same client namespace): a still-queued request is removed and
answered with code 1004 immediately; an in-flight request has its
cancel event set.  Work that never checks it (lint, repair synthesis,
batch, a phase outside the checked loops) runs to completion and is
cached as usual, and its worker then discards the result and answers
1004 all the same.  ``cancel`` itself is handled on the transport
thread, never queued — it cannot wait behind the very request it is
cancelling.

Shutdown is graceful from all three triggers — a ``shutdown`` request,
SIGTERM, or SIGINT: transports stop accepting input, the workers drain
every request already queued (each still gets its response), resident
results are flushed to the disk store, and the process exits 0.
"""

from __future__ import annotations

import math
import signal
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

from .. import budget, obs
from ..errors import ReproError, RequestCancelled, RequestTimeout
from .protocol import (
    ANALYSIS_ERROR,
    INTERNAL_ERROR,
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    REQUEST_CANCELLED,
    REQUEST_TIMEOUT,
    SERVER_BUSY,
    SHUTTING_DOWN,
    ProtocolError,
    Request,
    decode_request,
    dumps,
    error_response,
    response,
)
from .scheduler import DEFAULT_CLIENT, FairScheduler, ScheduledRequest
from .session import Session

__all__ = [
    "AnalysisServer",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_WORKERS",
    "serve_stdio",
]

DEFAULT_QUEUE_SIZE = 64
DEFAULT_WORKERS = 1


def _timeout_param(params: Dict[str, Any]) -> Optional[float]:
    """``params.timeout``: absent, or seconds as a finite number > 0."""
    value = params.get("timeout")
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"timeout must be a finite number of seconds > 0, got {value!r}"
        )
    return float(value)


def _count_param(
    params: Dict[str, Any], name: str, default: Optional[int]
) -> Optional[int]:
    """``params[name]``: absent (``default``), or an int >= 1 — not a
    bool, float or string."""
    value = params.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _version_param(
    params: Dict[str, Any], default: Optional[int]
) -> Optional[int]:
    """``params["version"]``: absent (``default``), or an int >= 0 —
    not a bool, float, string or null."""
    if "version" not in params:
        return default
    value = params["version"]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"version must be an integer >= 0, got {value!r}")
    return value


class _SignalStop(Exception):
    """Raised in the serving loop by SIGTERM/SIGINT handlers."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


class AnalysisServer:
    """One daemon instance: a session plus the request machinery.

    Usable three ways: :meth:`serve` runs the full stdio loop;
    :meth:`submit` feeds the worker pool from any transport thread
    (the HTTP front end); :meth:`handle_line` / :meth:`handle_request`
    process a single request synchronously (the protocol tests and
    golden transcripts drive these directly, no threads involved).
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        workers: int = DEFAULT_WORKERS,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.session = session if session is not None else Session()
        self.scheduler = FairScheduler(max_pending=queue_size)
        self.shutting_down = threading.Event()
        self.flushed: Optional[int] = None
        self._write_lock = threading.Lock()
        # Guards the worker bookkeeping below, never held across work.
        self._state_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._inflight: Dict[Tuple[str, Any], ScheduledRequest] = {}
        self._busy = 0
        self._handlers = {
            "analyze": self._handle_analyze,
            "lint": self._handle_lint,
            "repair": self._handle_repair,
            "batch": self._handle_batch,
            "didOpen": self._handle_did_open,
            "didChange": self._handle_did_change,
            "didClose": self._handle_did_close,
            "cancel": self._handle_cancel,
            "status": self._handle_status,
            "ping": self._handle_ping,
            "shutdown": self._handle_shutdown,
        }

    # -- single-request path ---------------------------------------------

    def handle_line(self, line: str) -> Dict[str, Any]:
        """Decode and serve one request line; always returns a response."""
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return error_response(None, exc.code, str(exc))
        return self.handle_request(request)

    def handle_request(
        self, request: Request, client: Optional[str] = None
    ) -> Dict[str, Any]:
        """Serve one decoded request; exceptions become error responses.

        ``client`` is the transport-assigned namespace; a ``"client"``
        field on the request itself wins over it.
        """
        self.session._count("requests", "server.requests")
        if obs.is_enabled():
            obs.counter("server.requests.by_method", method=request.method).inc()
        namespace = request.client or client or DEFAULT_CLIENT
        handler = self._handlers.get(request.method)
        if handler is None:
            return error_response(
                request.id,
                METHOD_NOT_FOUND,
                f"unknown method {request.method!r}; methods: "
                + ", ".join(sorted(self._handlers)),
            )
        try:
            return response(request.id, handler(request.params, namespace))
        except RequestTimeout as exc:
            return error_response(request.id, REQUEST_TIMEOUT, str(exc))
        except RequestCancelled as exc:
            return error_response(request.id, REQUEST_CANCELLED, str(exc))
        except ReproError as exc:
            return error_response(
                request.id,
                ANALYSIS_ERROR,
                f"{type(exc).__name__}: {exc}",
            )
        except (TypeError, ValueError, KeyError) as exc:
            return error_response(request.id, INVALID_PARAMS, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            return error_response(
                request.id,
                INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
            )

    # -- handlers --------------------------------------------------------

    def _handle_analyze(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        payload, cache = self.session.analyze_document(
            uri=params.get("uri"),
            text=params.get("text"),
            # "exact": true is shorthand for "algorithm": "exact".
            algorithm=(
                "exact"
                if params.get("exact")
                else params.get("algorithm", "refined")
            ),
            state_limit=_count_param(params, "state_limit", 200_000),
            timeout=_timeout_param(params),
            strategy=params.get("strategy", "bfs"),
            beam_width=_count_param(params, "beam_width", None),
            client=client,
        )
        return {"report": payload, "cache": cache}

    def _handle_lint(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        payload, sarif_doc, cache = self.session.lint_document(
            uri=params.get("uri"),
            text=params.get("text"),
            disable=params.get("disable", ()),
            select=params.get("select"),
            sarif=bool(params.get("sarif", False)),
            client=client,
        )
        result: Dict[str, Any] = {"report": payload, "cache": cache}
        if sarif_doc is not None:
            result["sarif"] = sarif_doc
        return result

    def _handle_repair(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        payload, cache = self.session.repair_document(
            uri=params.get("uri"),
            text=params.get("text"),
            algorithm=params.get("algorithm", "refined"),
            state_limit=_count_param(params, "state_limit", 200_000),
            max_fixes=_count_param(params, "max_fixes", 5),
            strategy=params.get("strategy", "bfs"),
            beam_width=_count_param(params, "beam_width", None),
            client=client,
        )
        return {"report": payload, "cache": cache}

    def _handle_batch(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        return {
            "report": self.session.run_batch(
                items=params.get("items"),
                paths=params.get("paths"),
                algorithm=params.get("algorithm", "refined"),
                state_limit=_count_param(params, "state_limit", 200_000),
                jobs=_count_param(params, "jobs", 1),
                timeout=_timeout_param(params),
                lint=bool(params.get("lint", False)),
            )
        }

    def _handle_did_open(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        uri = params["uri"]
        doc = self.session.open_document(
            uri,
            params["text"],
            version=_version_param(params, 1),
            client=client,
        )
        return {"uri": uri, "version": doc.version, "opened": True}

    def _handle_did_change(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        return self.session.change_document(
            params["uri"],
            params["text"],
            version=_version_param(params, None),
            ranges=params.get("ranges"),
            client=client,
        )

    def _handle_did_close(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        uri = params["uri"]
        return {
            "uri": uri,
            "closed": self.session.close_document(uri, client=client),
        }

    def _handle_cancel(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        """Cancel a queued or in-flight request of the same client.

        Queued: removed outright, answered ``REQUEST_CANCELLED`` here
        and now.  In-flight: its cancel event is set, which the
        request's budget checks; its worker answers 1004 when the
        handler stops or returns.  Unknown ids (already answered,
        never seen) report ``cancelled: false``.
        """
        if "id" not in params:
            raise ValueError("cancel needs params.id (the request to cancel)")
        target = params["id"]
        entry = self.scheduler.cancel(client, target)
        if entry is not None:
            entry.respond(
                error_response(
                    target,
                    REQUEST_CANCELLED,
                    f"request {target!r} cancelled while queued",
                )
            )
            self.session._count("cancelled", "server.cancelled")
            self._gauge_queue()
            return {"id": target, "cancelled": True, "state": "queued"}
        with self._state_lock:
            running = self._inflight.get((client, target))
        if running is not None:
            running.cancelled.set()
            return {"id": target, "cancelled": True, "state": "running"}
        return {"id": target, "cancelled": False, "state": "unknown"}

    def _handle_status(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        payload = self.session.status()
        with self._state_lock:
            busy = self._busy
        payload["server"] = {
            "workers": self.workers,
            "busy": busy,
            "queue": self.scheduler.snapshot(),
        }
        return payload

    def _handle_ping(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        return {"pong": True}

    def _handle_shutdown(
        self, params: Dict[str, Any], client: str
    ) -> Dict[str, Any]:
        self.shutting_down.set()
        self.flushed = self.session.flush()
        return {"ok": True, "flushed": self.flushed}

    # -- worker pool ------------------------------------------------------

    def submit(
        self,
        request: Request,
        client: Optional[str] = None,
        respond: Callable[[Dict[str, Any]], None] = lambda reply: None,
    ) -> None:
        """Feed one request to the pool; ``respond`` is called exactly
        once with its response, on whichever thread produces it.

        ``cancel`` runs here on the calling (transport) thread — it
        must never wait behind the request it is cancelling.  Overflow
        and post-shutdown arrivals are answered immediately.
        """
        namespace = request.client or client or DEFAULT_CLIENT
        if request.method == "cancel":
            respond(self.handle_request(request, client=namespace))
            return
        if self.shutting_down.is_set():
            respond(
                error_response(
                    request.id, SHUTTING_DOWN, "server is shutting down"
                )
            )
            return
        entry = ScheduledRequest(
            request=request, client=namespace, respond=respond
        )
        if not self.scheduler.submit(entry):
            if self.shutting_down.is_set():
                respond(
                    error_response(
                        request.id,
                        SHUTTING_DOWN,
                        "server is shutting down",
                    )
                )
            else:
                respond(
                    error_response(
                        request.id,
                        SERVER_BUSY,
                        f"request queue is full "
                        f"({self.scheduler.max_pending} pending)",
                    )
                )
            return
        self._gauge_queue()

    @property
    def started(self) -> bool:
        """Whether the worker pool is running."""
        with self._state_lock:
            return self._started

    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._state_lock:
            if self._started:
                return
            self._started = True
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def drain(self) -> None:
        """Refuse new requests, answer everything queued, stop workers."""
        self.scheduler.close()
        for thread in self._threads:
            thread.join()
        with self._state_lock:
            self._threads = []
            self._started = False

    def _worker_loop(self) -> None:
        while True:
            entry = self.scheduler.take()
            if entry is None:
                return
            self._gauge_queue()
            request = entry.request
            key = (entry.client, request.id)
            with self._state_lock:
                self._inflight[key] = entry
                self._busy += 1
                busy = self._busy
            self._gauge_busy(busy)
            try:
                with budget.request(entry.cancelled):
                    reply = self.handle_request(request, client=entry.client)
            finally:
                with self._state_lock:
                    self._inflight.pop(key, None)
                    self._busy -= 1
                    busy = self._busy
                self._gauge_busy(busy)
            if entry.cancelled.is_set():
                # In-flight cancel: the analysis stopped at a budget
                # check, or the handler never checks and completed
                # (warming the caches) — either way the caller asked
                # for no result.
                reply = error_response(
                    request.id,
                    REQUEST_CANCELLED,
                    f"request {request.id!r} cancelled while running",
                )
                self.session._count("cancelled", "server.cancelled")
            entry.respond(reply)

    def _gauge_queue(self) -> None:
        if obs.is_enabled():
            obs.gauge("server.queue_depth").set(self.scheduler.depth())

    def _gauge_busy(self, busy: int) -> None:
        if obs.is_enabled():
            obs.gauge("server.workers_busy").set(busy)

    # -- stdio loop ------------------------------------------------------

    def _write(self, out: TextIO, obj: Dict[str, Any]) -> None:
        with self._write_lock:
            out.write(dumps(obj) + "\n")
            out.flush()

    def serve(
        self,
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
        install_signal_handlers: bool = True,
    ) -> int:
        """Run the stdio loop until EOF, ``shutdown``, or a signal.

        Returns the process exit code (0 for every graceful path).
        Without an explicit ``stdin`` the requests are read from a
        private file object on fd 0, not ``sys.stdin``: the reader
        holds the lock of the file it blocks on, and a process forked
        for a ``batch`` with ``jobs`` > 1 closes ``sys.stdin`` on
        start-up — which would wait forever on that copied, held lock.
        """
        if stdin is None:
            with open(
                sys.stdin.fileno(),
                encoding=sys.stdin.encoding,
                errors=sys.stdin.errors,
                closefd=False,
            ) as private:
                return self.serve(
                    private, stdout, install_signal_handlers
                )
        out = stdout if stdout is not None else sys.stdout

        previous: Dict[int, Any] = {}
        if install_signal_handlers:

            def _on_signal(signum: int, frame: Any) -> None:
                raise _SignalStop(signum)

            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous[sig] = signal.signal(sig, _on_signal)
                except ValueError:  # pragma: no cover - non-main thread
                    pass

        def respond(reply: Dict[str, Any]) -> None:
            self._write(out, reply)

        self.start()
        try:
            for line in stdin:
                if not line.strip():
                    continue
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self._write(
                        out, error_response(None, exc.code, str(exc))
                    )
                    continue
                self.submit(request, respond=respond)
                if request.method == "shutdown":
                    # A worker answers it (after draining this client's
                    # earlier requests); the reader stops accepting now.
                    break
        except (_SignalStop, KeyboardInterrupt):
            self.shutting_down.set()
        finally:
            # Drain: everything already queued still gets its response.
            self.drain()
            if self.flushed is None:
                # Shutdown came from EOF or a signal, not a request;
                # flush here so the next start is just as warm.
                self.flushed = self.session.flush()
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        return 0


def serve_stdio(
    session: Optional[Session] = None,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    workers: int = DEFAULT_WORKERS,
) -> int:
    """Create an :class:`AnalysisServer` and run it over stdio."""
    return AnalysisServer(
        session=session, queue_size=queue_size, workers=workers
    ).serve()
