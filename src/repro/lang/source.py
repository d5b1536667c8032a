"""Source locations for ADL syntax trees.

A :class:`Span` is a half-open region of source text identified by
1-based line and column numbers; ``end_column`` points one past the
last character, matching the convention of most editors and of SARIF
``region`` objects.  Spans are attached to AST nodes by the parser (the
optional ``loc`` field) and travel with statements through the
transform pipeline: leaf statements are shared, not copied, so a
rendezvous point in an unrolled or inlined program still knows where it
was written.

Nodes built programmatically (:class:`~repro.lang.builder.ProgramBuilder`,
the random workload generators) have ``loc = None``; every consumer of
spans treats them as optional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .lexer import RawToken

__all__ = ["Span"]


@dataclass(frozen=True)
class Span:
    """A contiguous region of ADL source text (1-based, end-exclusive)."""

    line: int
    column: int
    end_line: int
    end_column: int

    @staticmethod
    def from_tokens(start: "RawToken", end: "RawToken") -> "Span":
        """The span covering ``start`` through ``end`` inclusive: two
        :class:`~repro.lang.lexer.Token` values or the lexer's plain
        ``(type, value, line, column)`` tuples."""
        return Span(start[2], start[3], end[2], end[3] + max(1, len(end[1])))

    def cover(self, other: Optional["Span"]) -> "Span":
        """The smallest span containing both ``self`` and ``other``."""
        if other is None:
            return self
        start = min(
            (self.line, self.column), (other.line, other.column)
        )
        end = max(
            (self.end_line, self.end_column),
            (other.end_line, other.end_column),
        )
        return Span(start[0], start[1], end[0], end[1])

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.line}:{self.column}"
