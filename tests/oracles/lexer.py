"""Character-loop oracle for the ADL tokenizer.

The tokenizer :mod:`repro.lang.lexer` replaced: one Python step per
character and a frozen-dataclass token each.  ``tests/test_frontend_oracles.py``
compares the two token for token, errors included.

Tokenizer for ADL source text.

ADL (Ada-like Definition Language) is the concrete syntax for the
paper's program model.  A small example::

    program handshake;

    task t1 is
    begin
        send t2.sig1;
        accept sig2;
    end;

    task t2 is
    begin
        accept sig1;
        send t1.sig2;
    end;

Tokens are keywords, identifiers, integers, punctuation
(``; . , := .. ?``) and comments (``-- to end of line``, discarded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import LexError

__all__ = ["Token", "TokenType", "tokenize", "KEYWORDS"]


KEYWORDS = frozenset(
    {
        "program",
        "task",
        "procedure",
        "call",
        "is",
        "begin",
        "end",
        "send",
        "accept",
        "if",
        "then",
        "elsif",
        "else",
        "while",
        "for",
        "in",
        "loop",
        "null",
        "not",
        "true",
        "false",
    }
)


class TokenType:
    """Token kinds; plain string constants keep tokens easy to debug."""

    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INT = "INT"
    SEMI = "SEMI"
    DOT = "DOT"
    DOTDOT = "DOTDOT"
    ASSIGN = "ASSIGN"
    QUESTION = "QUESTION"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: str
    value: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type}({self.value!r})@{self.line}:{self.column}"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> List[Token]:
    """Tokenize ADL source text; raises :class:`LexError` on bad input."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            word = source[i:j]
            kind = (
                TokenType.KEYWORD if word.lower() in KEYWORDS else TokenType.IDENT
            )
            value = word.lower() if kind == TokenType.KEYWORD else word
            yield Token(kind, value, line, start_col)
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            yield Token(TokenType.INT, source[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if source.startswith(":=", i):
            yield Token(TokenType.ASSIGN, ":=", line, start_col)
            i += 2
            col += 2
            continue
        if source.startswith("..", i):
            yield Token(TokenType.DOTDOT, "..", line, start_col)
            i += 2
            col += 2
            continue
        simple = {
            ";": TokenType.SEMI,
            ".": TokenType.DOT,
            "?": TokenType.QUESTION,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
        }
        if ch in simple:
            yield Token(simple[ch], ch, line, start_col)
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    yield Token(TokenType.EOF, "", line, col)
