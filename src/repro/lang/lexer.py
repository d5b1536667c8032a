"""Tokenizer for ADL source text.

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

Identifiers start with a character for which ``str.isalpha`` holds, or
``_``, and continue over ``str.isalnum`` characters and ``_``; keywords
are identifiers whose ``str.lower`` is in :data:`KEYWORDS`.  Integers
are runs of ``str.isdigit`` characters.  One compiled regex finds the
maximal runs of word characters (``re``'s ``\\w`` is exactly
``str.isalnum`` plus ``_``); a run that is all digits or starts with a
letter is one token, anything else (``9abc``, ``²x``, ``½x``) is split
by those rules, character by character.  Columns count code points and
restart after each newline; a trailing comment does not advance the
end-of-file column.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from ..errors import LexError

__all__ = ["Token", "TokenType", "tokenize", "scan", "KEYWORDS"]


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


class Token(NamedTuple):
    type: str
    value: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type}({self.value!r})@{self.line}:{self.column}"


_PUNCT = {
    ":=": TokenType.ASSIGN,
    "..": TokenType.DOTDOT,
    ";": TokenType.SEMI,
    ".": TokenType.DOT,
    "?": TokenType.QUESTION,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
}

# Blanks are skipped in front of every match; each alternative is one
# group, so ``lastindex`` names it.  ``.`` (with DOTALL) catches any
# other character, and the empty end match consumes trailing blanks.
_SCAN = re.compile(
    r"[ \t\r]*(?:(\n)|(--[^\n]*)|(\w+)|(:=|\.\.|[;.?()])|(.)|\Z)", re.S
)
_NEWLINE, _COMMENT, _WORD, _PUNCTUATION, _BAD = 1, 2, 3, 4, 5

RawToken = Tuple[str, str, int, int]  # a Token's fields, as a plain tuple


def _word_token(word: str, line: int, column: int) -> RawToken:
    lowered = word.lower()
    if lowered in KEYWORDS:
        return (TokenType.KEYWORD, lowered, line, column)
    return (TokenType.IDENT, word, line, column)


def _split_word(
    word: str, line: int, column: int, out: List[RawToken]
) -> None:
    """Tokens of a word run that neither is all digits nor starts with
    a letter: digit runs up to the first letter or ``_``, which starts
    an identifier running to the end of the word."""
    i, n = 0, len(word)
    while i < n:
        ch = word[i]
        if ch.isalpha() or ch == "_":
            out.append(_word_token(word[i:], line, column + i))
            return
        if not ch.isdigit():
            raise LexError(f"unexpected character {ch!r}", line, column + i)
        j = i + 1
        while j < n and word[j].isdigit():
            j += 1
        out.append((TokenType.INT, word[i:j], line, column + i))
        i = j


def scan(source: str) -> List[RawToken]:
    """:func:`tokenize` without the :class:`Token` wrapper (the parser's
    input): the same tokens as plain ``(type, value, line, column)``
    tuples."""
    tokens: List[RawToken] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the current line's first character
    comment_column = 0  # of a comment ending the current line, else 0
    for match in _SCAN.finditer(source):
        kind = match.lastindex
        if kind == _WORD:
            word = match.group(_WORD)
            column = match.start(_WORD) - line_start + 1
            first = word[0]
            if word.isdigit():
                append((TokenType.INT, word, line, column))
            elif first.isalpha() or first == "_":
                append(_word_token(word, line, column))
            else:
                _split_word(word, line, column, tokens)
        elif kind == _PUNCTUATION:
            text = match.group(_PUNCTUATION)
            append(
                (
                    _PUNCT[text],
                    text,
                    line,
                    match.start(_PUNCTUATION) - line_start + 1,
                )
            )
        elif kind == _NEWLINE:
            line += 1
            line_start = match.end()
            comment_column = 0
        elif kind == _COMMENT:
            comment_column = match.start(_COMMENT) - line_start + 1
        elif kind == _BAD:
            start = match.start(_BAD)
            raise LexError(
                f"unexpected character {source[start]!r}",
                line,
                start - line_start + 1,
            )
        else:  # the end of the text
            column = comment_column or match.end() - line_start + 1
            append((TokenType.EOF, "", line, column))
            break
    return tokens


def tokenize(source: str) -> List[Token]:
    """Tokenize ADL source text; raises :class:`LexError` on bad input."""
    return list(map(Token._make, scan(source)))
