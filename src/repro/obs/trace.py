"""Nested timed spans: where does one analysis run spend its time?

A :class:`Tracer` records a forest of :class:`Span` objects.  Spans are
opened with the ``Tracer.span`` context manager and nest by dynamic
scope — a span opened while another is active becomes its child, so
``api.analyze``'s phase spans naturally contain the spans opened inside
the algorithms they call.  Each thread has its own stack of open spans:
concurrent requests become separate roots of the one shared forest.

Span names follow the same dotted convention as metric names
(``analyze.parse``, ``refined.scc``); attributes carry small
per-span facts (node counts, algorithm names) — never large objects.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


@dataclass
class Span:
    """One timed region.  ``duration_s`` is None while still open."""

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: Optional[float] = None
    children: List["Span"] = field(default_factory=list)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanHandle:
    """Context manager that closes ``span`` and pops the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._span.duration_s = time.perf_counter() - self._span.start_s
        stack = self._tracer._open.stack
        if stack and stack[-1] is self._span:
            stack.pop()


class _NullSpanHandle:
    """Shared no-op span for the disabled path: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN_OBJ

    def __exit__(self, *exc_info: object) -> None:
        pass


class _NullSpan(Span):
    def set_attribute(self, key: str, value: Any) -> None:  # noqa: ARG002
        pass


_NULL_SPAN_OBJ = _NullSpan("null")
NULL_SPAN = _NullSpanHandle()


class _OpenSpans(threading.local):
    """The calling thread's stack of open spans (``__init__`` runs once
    per thread)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    """Collects a forest of spans for one observed scope."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._open = _OpenSpans()

    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        span = Span(
            name=name, attributes=dict(attributes), start_s=time.perf_counter()
        )
        stack = self._open.stack
        if stack:
            stack[-1].children.append(span)
        else:
            self.roots.append(span)
        stack.append(span)
        return _SpanHandle(self, span)

    def all_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [root.to_dict() for root in self.roots]

    def render(self) -> str:
        """Human-readable span tree with millisecond durations."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            dur = (
                f"{span.duration_s * 1000:8.2f} ms"
                if span.duration_s is not None
                else "   (open)  "
            )
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            pad = "  " * depth
            lines.append(
                f"{dur}  {pad}{span.name}" + (f"  [{attrs}]" if attrs else "")
            )
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)
