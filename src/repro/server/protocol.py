"""Wire protocol: newline-delimited JSON-RPC-style framing.

One request per line, one response per line, in request order::

    {"id": 1, "method": "analyze", "params": {"uri": "f.adl", "text": "..."}}
    {"id": 1, "result": {"report": {...}, "cache": "computed"}}

Every request gets exactly one response — including the LSP-flavoured
document notifications (``didOpen``/``didChange``/``didClose``), which
acknowledge with the invalidation decision so editor clients can show
cache behaviour.  ``id`` may be any JSON scalar and is echoed verbatim;
requests without an ``id`` are answered with ``"id": null``.

Errors use JSON-RPC codes for protocol failures and a small positive
range for analysis-level failures::

    {"id": 1, "error": {"code": 1000, "message": "ParseError: ..."}}

Requests may carry a top-level ``"client"`` string naming the session
namespace they target; multi-client transports key per-client document
tables on it.  The ``cancel`` method (``params.id`` = the id to
cancel) drops a queued request or marks an in-flight one — the
cancelled request itself answers with code 1004.

Responses are rendered compactly (one line, no extra whitespace); the
embedded ``report`` payloads are plain dicts from :mod:`repro.reporting`
and :mod:`repro.lint.output`, so re-rendering them with
``json.dumps(report, indent=2)`` reproduces the one-shot CLI's stdout
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import RequestTimeout

__all__ = [
    "PROTOCOL_VERSION",
    "METHODS",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "ANALYSIS_ERROR",
    "REQUEST_TIMEOUT",
    "SERVER_BUSY",
    "SHUTTING_DOWN",
    "REQUEST_CANCELLED",
    "ProtocolError",
    "Request",
    "RequestTimeout",
    "decode_request",
    "dumps",
    "error_response",
    "response",
]

PROTOCOL_VERSION = 1

# The full method surface; the daemon's dispatch table mirrors this.
METHODS = (
    "analyze",
    "lint",
    "repair",
    "batch",
    "didOpen",
    "didChange",
    "didClose",
    "cancel",
    "status",
    "ping",
    "shutdown",
)

# JSON-RPC 2.0 protocol-failure codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

# Application-level codes (positive, repro-specific).
ANALYSIS_ERROR = 1000  # lex/parse/validate/analysis failure
REQUEST_TIMEOUT = 1001  # per-request wall-clock budget exceeded
SERVER_BUSY = 1002  # bounded request queue is full
SHUTTING_DOWN = 1003  # request arrived after shutdown began
REQUEST_CANCELLED = 1004  # request cancelled via the ``cancel`` method


class ProtocolError(Exception):
    """A malformed request; carries the JSON-RPC error code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    """One decoded protocol request.

    ``client`` is the optional session namespace the request targets —
    multi-client transports (HTTP) key per-client document tables on
    it.  ``None`` means the transport's default namespace.
    """

    id: Any
    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    client: Optional[str] = None


def decode_request(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on junk."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(PARSE_ERROR, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            INVALID_REQUEST, "request must be a JSON object"
        )
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError(
            INVALID_REQUEST, "request needs a string 'method'"
        )
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            INVALID_PARAMS, "'params' must be a JSON object"
        )
    client = obj.get("client")
    if client is not None and not isinstance(client, str):
        raise ProtocolError(
            INVALID_REQUEST, "'client' must be a string when present"
        )
    return Request(
        id=obj.get("id"), method=method, params=params, client=client
    )


def dumps(obj: Any) -> str:
    """One-line compact JSON — the only framing the protocol uses."""
    return json.dumps(obj, separators=(",", ":"))


def response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "result": result}


def error_response(
    request_id: Any,
    code: int,
    message: str,
    data: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"id": request_id, "error": error}
