"""Token-cursor oracle for the ADL parser.

The parser :mod:`repro.lang.parser` replaced: a ``_cur``/``_check``/
``_accept`` call chain per token and a ``dataclasses.replace`` per
statement to attach its span.  ``tests/test_frontend_oracles.py``
compares the two AST for AST (spans included) and error for error.

Recursive-descent parser for ADL source text.

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
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.errors import ParseError
from repro.lang.ast_nodes import (
    Accept,
    Call,
    Assign,
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
from repro.lang.source import Span

from .lexer import Token, TokenType, tokenize

__all__ = ["parse_program", "parse_task_body"]


def _span(start: Token, end: Token) -> Span:
    # What Span's token constructor computed, on attribute tokens.
    return Span(
        line=start.line,
        column=start.column,
        end_line=end.line,
        end_column=end.column + max(1, len(end.value)),
    )


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.type != TokenType.EOF:
            self._pos += 1
        return tok

    def _check(self, type_: str, value: str | None = None) -> bool:
        tok = self._cur
        return tok.type == type_ and (value is None or tok.value == value)

    def _accept(self, type_: str, value: str | None = None) -> Token | None:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: str, value: str | None = None) -> Token:
        tok = self._accept(type_, value)
        if tok is None:
            want = value if value is not None else type_
            got = self._cur.value or self._cur.type
            raise ParseError(
                f"expected {want!r}, found {got!r}",
                self._cur.line,
                self._cur.column,
            )
        return tok

    def _expect_kw(self, kw: str) -> Token:
        return self._expect(TokenType.KEYWORD, kw)

    def _span_from(self, start: Token) -> Span:
        """Span from ``start`` through the most recently consumed token."""
        end = self._tokens[self._pos - 1] if self._pos > 0 else start
        return _span(start, end)

    # -- grammar productions --------------------------------------------

    def parse_program(self) -> Program:
        self._expect_kw("program")
        name_tok = self._expect(TokenType.IDENT)
        name = name_tok.value
        self._expect(TokenType.SEMI)
        tasks: List[TaskDecl] = []
        procedures: List[ProcDecl] = []
        while True:
            if self._check(TokenType.KEYWORD, "task"):
                tasks.append(self._parse_task())
            elif self._check(TokenType.KEYWORD, "procedure"):
                procedures.append(self._parse_procedure())
            else:
                break
        self._expect(TokenType.EOF)
        if not tasks:
            raise ParseError("program has no tasks")
        return Program(
            name=name,
            tasks=tuple(tasks),
            procedures=tuple(procedures),
            loc=_span(name_tok, name_tok),
        )

    def _parse_task(self) -> TaskDecl:
        start_tok = self._expect_kw("task")
        name_tok = self._expect(TokenType.IDENT)
        self._expect_kw("is")
        self._expect_kw("begin")
        body = self._parse_stmts()
        self._expect_kw("end")
        self._expect(TokenType.SEMI)
        return TaskDecl(
            name=name_tok.value,
            body=tuple(body),
            loc=_span(name_tok, name_tok),
            decl_loc=self._span_from(start_tok),
        )

    def _parse_procedure(self) -> ProcDecl:
        self._expect_kw("procedure")
        name_tok = self._expect(TokenType.IDENT)
        self._expect_kw("is")
        self._expect_kw("begin")
        body = self._parse_stmts()
        self._expect_kw("end")
        self._expect(TokenType.SEMI)
        return ProcDecl(
            name=name_tok.value,
            body=tuple(body),
            loc=_span(name_tok, name_tok),
        )

    def _parse_stmts(self) -> List[Statement]:
        stmts: List[Statement] = []
        while True:
            tok = self._cur
            if tok.type == TokenType.KEYWORD and tok.value in (
                "end",
                "elsif",
                "else",
            ):
                return stmts
            if tok.type == TokenType.EOF:
                return stmts
            stmts.append(self._parse_stmt())

    def _parse_stmt(self) -> Statement:
        tok = self._cur
        if tok.type == TokenType.KEYWORD:
            handler = {
                "send": self._parse_send,
                "accept": self._parse_accept,
                "if": self._parse_if,
                "while": self._parse_while,
                "for": self._parse_for,
                "null": self._parse_null,
                "call": self._parse_call,
            }.get(tok.value)
            if handler is None:
                raise ParseError(
                    f"unexpected keyword {tok.value!r}", tok.line, tok.column
                )
            stmt = handler()
        elif tok.type == TokenType.IDENT:
            stmt = self._parse_assign()
        else:
            raise ParseError(
                f"unexpected token {tok.value or tok.type!r}",
                tok.line,
                tok.column,
            )
        return replace(stmt, loc=self._span_from(tok))

    def _parse_send(self) -> Send:
        self._expect_kw("send")
        task = self._expect(TokenType.IDENT).value
        self._expect(TokenType.DOT)
        message = self._expect(TokenType.IDENT).value
        self._expect(TokenType.SEMI)
        return Send(task=task, message=message)

    def _parse_accept(self) -> Accept:
        self._expect_kw("accept")
        message = self._expect(TokenType.IDENT).value
        binds = None
        if self._accept(TokenType.LPAREN):
            binds = self._expect(TokenType.IDENT).value
            self._expect(TokenType.RPAREN)
        self._expect(TokenType.SEMI)
        return Accept(message=message, binds=binds)

    def _parse_assign(self) -> Assign:
        var = self._expect(TokenType.IDENT).value
        self._expect(TokenType.ASSIGN)
        tok = self._cur
        if tok.type in (TokenType.IDENT, TokenType.INT, TokenType.QUESTION):
            expr = self._advance().value
        elif tok.type == TokenType.KEYWORD and tok.value in ("true", "false"):
            expr = self._advance().value
        else:
            raise ParseError(
                f"expected expression, found {tok.value!r}",
                tok.line,
                tok.column,
            )
        self._expect(TokenType.SEMI)
        return Assign(var=var, expr=expr)

    def _parse_cond(self) -> Condition:
        if self._accept(TokenType.QUESTION):
            return Condition.unknown()
        negated = self._accept(TokenType.KEYWORD, "not") is not None
        tok = self._cur
        if tok.type == TokenType.IDENT:
            self._advance()
            return Condition.of_var(tok.value, negated)
        if tok.type == TokenType.KEYWORD and tok.value in ("true", "false"):
            self._advance()
            text = f"not {tok.value}" if negated else tok.value
            return Condition(text=text)
        raise ParseError(
            f"expected condition, found {tok.value or tok.type!r}",
            tok.line,
            tok.column,
        )

    def _parse_if(self) -> If:
        self._expect_kw("if")
        return self._parse_if_tail()

    def _parse_if_tail(self) -> If:
        # An elsif chain shares the single trailing "end if;": the
        # innermost recursive call consumes it on behalf of the chain.
        start = self._cur
        condition = self._parse_cond()
        self._expect_kw("then")
        then_body = self._parse_stmts()
        if self._accept(TokenType.KEYWORD, "elsif"):
            return If(
                condition=condition,
                then_body=tuple(then_body),
                else_body=(self._parse_if_tail(),),
                loc=self._span_from(start),
            )
        else_body: Tuple[Statement, ...] = ()
        if self._accept(TokenType.KEYWORD, "else"):
            else_body = tuple(self._parse_stmts())
        self._expect_kw("end")
        self._expect_kw("if")
        self._expect(TokenType.SEMI)
        return If(
            condition=condition,
            then_body=tuple(then_body),
            else_body=else_body,
            loc=self._span_from(start),
        )

    def _parse_while(self) -> While:
        self._expect_kw("while")
        condition = self._parse_cond()
        self._expect_kw("loop")
        body = self._parse_stmts()
        self._expect_kw("end")
        self._expect_kw("loop")
        self._expect(TokenType.SEMI)
        return While(condition=condition, body=tuple(body))

    def _parse_for(self) -> For:
        self._expect_kw("for")
        var = self._expect(TokenType.IDENT).value
        self._expect_kw("in")
        lower = self._int_literal()
        self._expect(TokenType.DOTDOT)
        upper = self._int_literal()
        self._expect_kw("loop")
        body = self._parse_stmts()
        self._expect_kw("end")
        self._expect_kw("loop")
        self._expect(TokenType.SEMI)
        return For(var=var, lower=lower, upper=upper, body=tuple(body))

    def _int_literal(self) -> int:
        # The one change from the replaced parser, which let int()'s
        # ValueError escape for digits such as "²".
        tok = self._expect(TokenType.INT)
        try:
            return int(tok.value)
        except ValueError:
            raise ParseError(
                f"invalid integer {tok.value!r}", tok.line, tok.column
            ) from None

    def _parse_null(self) -> Null:
        self._expect_kw("null")
        self._expect(TokenType.SEMI)
        return Null()

    def _parse_call(self) -> Call:
        self._expect_kw("call")
        name = self._expect(TokenType.IDENT).value
        self._expect(TokenType.SEMI)
        return Call(name=name)


def parse_program(source: str) -> Program:
    """Parse ADL source text into a :class:`Program` AST.

    Raises :class:`~repro.errors.LexError` or
    :class:`~repro.errors.ParseError` on malformed input.  The result is
    *not* semantically validated; see :mod:`repro.lang.validate`.
    """
    return _Parser(tokenize(source)).parse_program()


def parse_task_body(source: str) -> Tuple[Statement, ...]:
    """Parse a bare statement sequence (convenience for tests)."""
    parser = _Parser(tokenize(source))
    stmts = parser._parse_stmts()
    parser._expect(TokenType.EOF)
    return tuple(stmts)
