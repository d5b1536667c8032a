"""Differential tests: the front half against the implementations it
replaced, kept in ``tests/oracles/``.

* Lexer and parser, over generated programs rendered with random
  layout, comments, keyword case and non-ASCII identifiers, and over
  randomly damaged text: the same tokens and the same AST, every
  ``loc`` and ``decl_loc`` included, or else the same error type,
  message, line and column.
* Sync-graph builder, over generated programs (loops kept and
  unrolled) and every corpus: the same nodes (the very ``stmt`` objects
  included),
  the same control successor, predecessor and sync lists in order, the
  same initial options and the same control-cycle answer.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.lang.ast_nodes import Program, TaskDecl
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program, parse_task_body
from repro.lang.validate import validate_program
from repro.syncgraph.build import build_sync_graph
from repro.transforms.inline import inline_procedures
from repro.transforms.unroll import remove_loops
from tests.oracles import lexer as oracle_lexer
from tests.oracles import parser as oracle_parser
from tests.oracles.syncgraph_build import (
    build_sync_graph as oracle_build_sync_graph,
)
from tests.test_properties import (
    N_TASKS,
    TASKS,
    _all_corpus_sources,
    _rich_stmt,
    rich_programs,
    small_programs,
)

DIFF = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CORPUS = dict(_all_corpus_sources())


def _analyzable():
    """The corpus programs that reach the builder in the pipeline:
    inlined and valid (``structure_smells`` is neither)."""
    programs = {}
    for name, source in CORPUS.items():
        try:
            program, _ = inline_procedures(parse_program(source))
            validate_program(program)
        except ReproError:
            continue
        programs[name] = program
    return programs


ANALYZABLE = _analyzable()

# --------------------------------------------------------------------------
# generated source text
# --------------------------------------------------------------------------

# Identifiers exercise the lexer's character classes: non-ASCII letters,
# "²" (a digit that int() rejects), "½" (numeric but neither letter nor
# digit) and, rarely, a Kelvin sign, whose lower case makes "task".
_IDENTS = st.sampled_from(
    [
        "a", "t1", "x_2", "_u", "msg", "é", "名前", "straße", "Ωmega",
        "q9", "İd", "x²", "d½",
    ] * 3
    + ["tas\u212a"]
)
_INTS = st.sampled_from(["0", "1", "3", "42", "007", "٣", "²", "1²"])
# Mostly layout; the rare empty separator glues neighbours together.
_SEPARATORS = st.sampled_from(
    [" "] * 12
    + ["\n", "\n", "\t", "  ", "\r\n", " -- note\n", "\n-- é\n", ""]
)
_DAMAGE = st.sampled_from(
    [
        "²", "½", "$", ":", "-", "--", ";", "end", "if", "(", ")", "9",
        "\n", "..", ".", "é", "?", "not", ":=", "begin", "\x0b",
    ]
)


def _keyword(draw, word):
    style = draw(st.sampled_from(["lower", "lower", "upper", "title"]))
    return getattr(word, style)()


def _cond(draw):
    if draw(st.booleans()):
        return ["?"]
    out = [_keyword(draw, "not")] if draw(st.booleans()) else []
    choice = draw(st.sampled_from(["ident", "true", "false"]))
    out.append(draw(_IDENTS) if choice == "ident" else _keyword(draw, choice))
    return out


def _stmts(draw, depth):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        out += _stmt(draw, depth)
    return out


def _stmt(draw, depth):
    kinds = ["send", "accept", "call", "assign", "null"]
    if depth > 0:
        kinds += ["if", "while", "for"]
    kind = draw(st.sampled_from(kinds))
    kw = lambda word: _keyword(draw, word)  # noqa: E731
    if kind == "send":
        return [kw("send"), draw(_IDENTS), ".", draw(_IDENTS), ";"]
    if kind == "accept":
        binds = ["(", draw(_IDENTS), ")"] if draw(st.booleans()) else []
        return [kw("accept"), draw(_IDENTS), *binds, ";"]
    if kind == "call":
        return [kw("call"), draw(_IDENTS), ";"]
    if kind == "assign":
        expr = draw(
            st.one_of(
                st.sampled_from(["?", "true", "false"]), _IDENTS, _INTS
            )
        )
        return [draw(_IDENTS), ":=", expr, ";"]
    if kind == "null":
        return [kw("null"), ";"]
    if kind == "if":
        out = [kw("if"), *_cond(draw), kw("then"), *_stmts(draw, depth - 1)]
        for _ in range(draw(st.integers(0, 2))):
            out += [kw("elsif"), *_cond(draw), kw("then")]
            out += _stmts(draw, depth - 1)
        if draw(st.booleans()):
            out += [kw("else"), *_stmts(draw, depth - 1)]
        return out + [kw("end"), kw("if"), ";"]
    if kind == "while":
        head = [kw("while"), *_cond(draw)]
    else:
        head = [kw("for"), draw(_IDENTS), kw("in"), draw(_INTS), "..",
                draw(_INTS)]
    return head + [kw("loop"), *_stmts(draw, depth - 1), kw("end"),
                   kw("loop"), ";"]


@st.composite
def adl_texts(draw, damaged=False, bare=False):
    """Program text (or a bare statement list) with random layout."""
    if bare:
        tokens = _stmts(draw, 2)
    else:
        tokens = [_keyword(draw, "program"), draw(_IDENTS), ";"]
    for i in range(0 if bare else draw(st.integers(1, 3))):
        unit = "task"
        if i:
            unit = draw(st.sampled_from(["task", "procedure"]))
        tokens += [_keyword(draw, unit), draw(_IDENTS), _keyword(draw, "is"),
                   _keyword(draw, "begin"), *_stmts(draw, 2),
                   _keyword(draw, "end"), ";"]
    text = draw(_SEPARATORS)
    for token in tokens:
        text += token + draw(_SEPARATORS)
    if damaged:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 4))
            text = text[:at] + draw(_DAMAGE) * draw(st.integers(0, 1)) + (
                text[at + cut:]
            )
    return text


# --------------------------------------------------------------------------
# comparison helpers
# --------------------------------------------------------------------------


def _shape(value):
    """Every field of a dataclass tree, ``compare=False`` ones too."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _shape(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    return value


def _outcome(fn, text):
    try:
        result = fn(text)
    except ReproError as exc:
        return (type(exc).__name__, str(exc), exc.line, exc.column)
    if isinstance(result, list):  # tokens
        return [(t.type, t.value, t.line, t.column) for t in result]
    return _shape(result)


def _assert_same_front_half(text):
    assert _outcome(tokenize, text) == _outcome(oracle_lexer.tokenize, text)
    assert _outcome(parse_program, text) == _outcome(
        oracle_parser.parse_program, text
    )
    assert _outcome(parse_task_body, text) == _outcome(
        oracle_parser.parse_task_body, text
    )


def _uids(nodes):
    return [node.uid for node in nodes]


def _graph_shape(graph):
    nodes = graph.nodes
    return {
        "nodes": [
            (_shape(node), None if node.stmt is None else id(node.stmt))
            for node in nodes
        ],
        "succ": [_uids(graph.control_successors(x)) for x in nodes],
        "pred": [list(graph.predecessor_uids(x.uid)) for x in nodes],
        "sync": [_uids(graph.sync_neighbors(x)) for x in nodes],
        "initial": [_uids(graph.initial_options(t)) for t in graph.tasks],
        "edges": [(a.uid, b.uid) for a, b in graph.control_edges()],
        "sync_edges": [(a.uid, b.uid) for a, b in graph.sync_edges()],
        "signals": [
            (s, _uids(graph.senders_of(s)), _uids(graph.accepters_of(s)))
            for s in graph.signals
        ],
        "cyclic": graph.has_control_cycle(),
        "stats": graph.stats(),
    }


def _graph_outcome(build, program):
    try:
        return _graph_shape(build(program))
    except TypeError as exc:  # a statement the builder cannot place
        return (type(exc).__name__, str(exc))


def _assert_same_graph(program):
    assert _graph_outcome(build_sync_graph, program) == _graph_outcome(
        oracle_build_sync_graph, program
    )


# --------------------------------------------------------------------------
# lexer and parser
# --------------------------------------------------------------------------


class TestLexerAndParser:
    @DIFF
    @given(adl_texts())
    def test_generated_programs(self, text):
        _assert_same_front_half(text)

    @DIFF
    @given(adl_texts(damaged=True))
    def test_damaged_programs(self, text):
        _assert_same_front_half(text)

    @DIFF
    @given(st.booleans().flatmap(lambda d: adl_texts(damaged=d, bare=True)))
    def test_statement_lists(self, text):
        _assert_same_front_half(text)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_and_its_truncations(self, name):
        source = CORPUS[name]
        _assert_same_front_half(source)
        for cut in range(0, len(source), 11):
            _assert_same_front_half(source[:cut])
            _assert_same_front_half(source[:cut] + source[cut + 5:])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "null; -- trailing comment",
            "x := 1²;",
            "9abc := ²3;",
            "a := ½;",
            "tasK t is begin end;",
            "for i in ² .. 3 loop null; end loop;",
            "for i in 1 .. 1² loop null; end loop;",
            "for i in 1 ." + ". 2 loop null; end loop;",
            "if not not x then null; end if;",
            "if ? then null; elsif ? then null; elsif x then null; "
            "else null; end if;",
            "accept m (",
            "program p; task t is begin null; end; stray",
            "program p;",
        ],
    )
    def test_edge_cases(self, text):
        _assert_same_front_half(text)


# --------------------------------------------------------------------------
# sync-graph builder
# --------------------------------------------------------------------------


class TestBuilder:
    @DIFF
    @given(small_programs(with_loops=True))
    def test_small_programs_before_and_after_unroll(self, program):
        _assert_same_graph(program)
        _assert_same_graph(remove_loops(program)[0])

    @DIFF
    @given(rich_programs())
    def test_rich_programs(self, program):
        _assert_same_graph(program)
        _assert_same_graph(remove_loops(program)[0])

    @settings(DIFF, max_examples=100)
    @given(st.data())
    def test_nested_programs(self, data):
        # Compound statements three deep: loops around branches with
        # an empty arm, branches around loops, for loops in both.
        tasks = [
            TaskDecl(
                name=TASKS[i],
                body=tuple(
                    data.draw(st.lists(_rich_stmt(i, 3), max_size=3))
                ),
            )
            for i in range(N_TASKS)
        ]
        program = Program(name="nested", tasks=tuple(tasks))
        _assert_same_graph(program)
        _assert_same_graph(remove_loops(program)[0])

    @pytest.mark.parametrize("name", sorted(ANALYZABLE))
    def test_corpus(self, name):
        program = ANALYZABLE[name]
        _assert_same_graph(program)
        _assert_same_graph(remove_loops(program)[0])
