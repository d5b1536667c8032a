"""Recursive-descent parser for ADL source text.

Grammar (EBNF; ``[]`` optional, ``{}`` repeated, terminals quoted)::

    program  = "program" IDENT ";" (task | procedure) {task | procedure}
    task     = "task" IDENT "is" "begin" {stmt} "end" ";"
    procedure= "procedure" IDENT "is" "begin" {stmt} "end" ";"
    stmt     = "send" IDENT "." IDENT ";"
             | "accept" IDENT ["(" IDENT ")"] ";"
             | "call" IDENT ";"
             | IDENT ":=" expr ";"
             | "if" cond "then" {stmt}
               {"elsif" cond "then" {stmt}}
               ["else" {stmt}] "end" "if" ";"
             | "while" cond "loop" {stmt} "end" "loop" ";"
             | "for" IDENT "in" INT ".." INT "loop" {stmt} "end" "loop" ";"
             | "null" ";"
    cond     = "?" | ["not"] (IDENT | "true" | "false")
    expr     = "?" | IDENT | INT | "true" | "false"

``elsif`` chains desugar into nested :class:`~repro.lang.ast_nodes.If`
nodes, so the AST only ever has two-way branches.

The parser reads the lexer's plain token tuples through one list of
token *kinds* (a keyword's own text, else its token type), so most
productions check a fixed run of tokens with one slice comparison, and
it builds every node once, with its source span.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ParseError
from .ast_nodes import (
    Accept,
    Assign,
    Call,
    Condition,
    For,
    If,
    Null,
    ProcDecl,
    Program,
    Send,
    Statement,
    TaskDecl,
    While,
)
from .lexer import RawToken, TokenType, scan
from .source import Span

__all__ = ["parse_program", "parse_task_body"]

_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_INT = TokenType.INT
_SEMI = TokenType.SEMI
_EOF = TokenType.EOF

# Fixed token runs, as kinds.
_PROGRAM = ["program", _IDENT, _SEMI]
_TASK = ["task", _IDENT, "is", "begin"]
_PROCEDURE = ["procedure", _IDENT, "is", "begin"]
_END = ["end", _SEMI]
_SEND = ["send", _IDENT, TokenType.DOT, _IDENT, _SEMI]
_ACCEPT = ["accept", _IDENT]
_BINDS = [TokenType.LPAREN, _IDENT, TokenType.RPAREN]
_ASSIGN = [_IDENT, TokenType.ASSIGN]
_FOR = ["for", _IDENT, "in", _INT]
_UPPER = [TokenType.DOTDOT, _INT]
_END_IF = ["end", "if", _SEMI]
_END_LOOP = ["end", "loop", _SEMI]
_NULL = ["null", _SEMI]
_CALL = ["call", _IDENT, _SEMI]
_THEN = ["then"]
_LOOP = ["loop"]
_SEMICOLON = [_SEMI]

_BLOCK_END = frozenset({"end", "elsif", "else", _EOF})
_EXPRESSIONS = frozenset({_IDENT, _INT, TokenType.QUESTION, "true", "false"})


class _Parser:
    def __init__(self, tokens: List[RawToken]) -> None:
        self._tokens = tokens
        self._kinds = [
            value if type_ == _KEYWORD else type_
            for type_, value, _, _ in tokens
        ]
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    def _expected(self, want: str, pos: int) -> ParseError:
        type_, value, line, column = self._tokens[pos]
        return ParseError(
            f"expected {want!r}, found {value or type_!r}", line, column
        )

    def _seq(self, kinds: List[str]) -> int:
        """Consume a run of tokens of ``kinds``; return its first index."""
        pos = self._pos
        end = pos + len(kinds)
        if self._kinds[pos:end] != kinds:
            # The run stops at the first mismatch, at the latest at EOF.
            for i, kind in enumerate(kinds, pos):
                if self._kinds[i] != kind:
                    raise self._expected(kind, i)
        self._pos = end
        return pos

    def _expect_eof(self) -> None:
        if self._kinds[self._pos] != _EOF:
            raise self._expected(_EOF, self._pos)

    def _span_from(self, start: int) -> Span:
        """Span from token ``start`` through the last consumed token."""
        tokens = self._tokens
        return Span.from_tokens(tokens[start], tokens[self._pos - 1])

    # -- grammar productions --------------------------------------------

    def parse_program(self) -> Program:
        name_tok = self._tokens[self._seq(_PROGRAM) + 1]
        tasks: List[TaskDecl] = []
        procedures: List[ProcDecl] = []
        kinds = self._kinds
        while True:
            kind = kinds[self._pos]
            if kind == "task":
                start, name, body = self._declaration(_TASK)
                tasks.append(
                    TaskDecl(
                        name=name[1],
                        body=body,
                        loc=Span.from_tokens(name, name),
                        decl_loc=self._span_from(start),
                    )
                )
            elif kind == "procedure":
                _, name, body = self._declaration(_PROCEDURE)
                procedures.append(
                    ProcDecl(
                        name=name[1],
                        body=body,
                        loc=Span.from_tokens(name, name),
                    )
                )
            else:
                break
        self._expect_eof()
        if not tasks:
            raise ParseError("program has no tasks")
        return Program(
            name=name_tok[1],
            tasks=tuple(tasks),
            procedures=tuple(procedures),
            loc=Span.from_tokens(name_tok, name_tok),
        )

    def _declaration(
        self, header: List[str]
    ) -> Tuple[int, RawToken, Tuple[Statement, ...]]:
        """A task or procedure: its first token's index, its name token
        and its body."""
        start = self._seq(header)
        body = self._stmts()
        self._seq(_END)
        return start, self._tokens[start + 1], body

    def _stmts(self) -> Tuple[Statement, ...]:
        stmts: List[Statement] = []
        kinds = self._kinds
        while True:
            start = self._pos
            kind = kinds[start]
            if kind in _BLOCK_END:
                return tuple(stmts)
            handler = _STATEMENTS.get(kind)
            if handler is None:
                type_, value, line, column = self._tokens[start]
                if type_ == _KEYWORD:
                    raise ParseError(
                        f"unexpected keyword {value!r}", line, column
                    )
                raise ParseError(
                    f"unexpected token {value or type_!r}", line, column
                )
            stmts.append(handler(self, start))

    def _send(self, start: int) -> Send:
        self._seq(_SEND)
        tokens = self._tokens
        return Send(
            task=tokens[start + 1][1],
            message=tokens[start + 3][1],
            loc=self._span_from(start),
        )

    def _accept(self, start: int) -> Accept:
        self._seq(_ACCEPT)
        binds = None
        if self._kinds[self._pos] == TokenType.LPAREN:
            binds = self._tokens[self._seq(_BINDS) + 1][1]
        self._seq(_SEMICOLON)
        return Accept(
            message=self._tokens[start + 1][1],
            binds=binds,
            loc=self._span_from(start),
        )

    def _assign(self, start: int) -> Assign:
        self._seq(_ASSIGN)
        pos = self._pos
        type_, value, line, column = self._tokens[pos]
        if self._kinds[pos] not in _EXPRESSIONS:
            raise ParseError(
                f"expected expression, found {value!r}", line, column
            )
        self._pos = pos + 1
        self._seq(_SEMICOLON)
        return Assign(
            var=self._tokens[start][1],
            expr=value,
            loc=self._span_from(start),
        )

    def _cond(self) -> Condition:
        kinds = self._kinds
        pos = self._pos
        if kinds[pos] == TokenType.QUESTION:
            self._pos = pos + 1
            return Condition.unknown()
        negated = kinds[pos] == "not"
        if negated:
            pos += 1
        type_, value, line, column = self._tokens[pos]
        kind = kinds[pos]
        if kind == _IDENT:
            self._pos = pos + 1
            return Condition.of_var(value, negated)
        if kind == "true" or kind == "false":
            self._pos = pos + 1
            return Condition(text=f"not {value}" if negated else value)
        raise ParseError(
            f"expected condition, found {value or type_!r}", line, column
        )

    def _if(self, start: int) -> If:
        # The arms of an elsif chain share the one trailing "end if;".
        # The chain nests from the last arm outwards: each arm's span
        # runs from its condition (the first arm's from "if") to ";".
        kinds = self._kinds
        self._pos = start + 1
        arms: List[Tuple[int, Condition, Tuple[Statement, ...]]] = []
        arm_start = start
        while True:
            condition = self._cond()
            self._seq(_THEN)
            arms.append((arm_start, condition, self._stmts()))
            if kinds[self._pos] != "elsif":
                break
            self._pos += 1
            arm_start = self._pos
        else_body: Tuple[Statement, ...] = ()
        if kinds[self._pos] == "else":
            self._pos += 1
            else_body = self._stmts()
        self._seq(_END_IF)
        for arm_start, condition, then_body in reversed(arms):
            node = If(
                condition=condition,
                then_body=then_body,
                else_body=else_body,
                loc=self._span_from(arm_start),
            )
            else_body = (node,)
        return node

    def _while(self, start: int) -> While:
        self._pos = start + 1
        condition = self._cond()
        self._seq(_LOOP)
        body = self._stmts()
        self._seq(_END_LOOP)
        return While(
            condition=condition, body=body, loc=self._span_from(start)
        )

    def _int(self, pos: int) -> int:
        """The value of INT token ``pos``.  ``str.isdigit`` admits digits
        ``int`` rejects (``²``), and ``int`` limits the digit count."""
        _, value, line, column = self._tokens[pos]
        try:
            return int(value)
        except ValueError:
            raise ParseError(
                f"invalid integer {value!r}", line, column
            ) from None

    def _for(self, start: int) -> For:
        self._seq(_FOR)
        lower = self._int(start + 3)
        upper = self._int(self._seq(_UPPER) + 1)
        self._seq(_LOOP)
        body = self._stmts()
        self._seq(_END_LOOP)
        return For(
            var=self._tokens[start + 1][1],
            lower=lower,
            upper=upper,
            body=body,
            loc=self._span_from(start),
        )

    def _null(self, start: int) -> Null:
        self._seq(_NULL)
        return Null(loc=self._span_from(start))

    def _call(self, start: int) -> Call:
        self._seq(_CALL)
        return Call(
            name=self._tokens[start + 1][1], loc=self._span_from(start)
        )


# Statement productions by their first token's kind; each is called
# with that token's index as the current position.
_STATEMENTS = {
    "send": _Parser._send,
    "accept": _Parser._accept,
    "if": _Parser._if,
    "while": _Parser._while,
    "for": _Parser._for,
    "null": _Parser._null,
    "call": _Parser._call,
    _IDENT: _Parser._assign,
}


def parse_program(source: str) -> Program:
    """Parse ADL source text into a :class:`Program` AST.

    Raises :class:`~repro.errors.LexError` or
    :class:`~repro.errors.ParseError` on malformed input.  The result is
    *not* semantically validated; see :mod:`repro.lang.validate`.
    """
    return _Parser(scan(source)).parse_program()


def parse_task_body(source: str) -> Tuple[Statement, ...]:
    """Parse a bare statement sequence (convenience for tests)."""
    parser = _Parser(scan(source))
    stmts = parser._stmts()
    parser._expect_eof()
    return stmts
