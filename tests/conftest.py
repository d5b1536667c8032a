"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.transforms.unroll import remove_loops
from repro.workloads.corpus import paper_corpus

HANDSHAKE_SRC = """
program handshake;
task t1 is begin send t2.sig1; accept sig2; end;
task t2 is begin accept sig1; send t1.sig2; end;
"""

CROSSED_SRC = """
program crossed;
task t1 is begin send t2.a; accept x; end;
task t2 is begin send t1.x; accept a; end;
"""

FIG2B_SRC = """
program fig2b;
task t1 is begin accept a; send t2.b; end;
task t2 is begin accept b; send t1.a; end;
"""

# "²" is a digit to str.isdigit, so the lexer reads it as an INT; int()
# rejects it.  A for bound written with it must be a parse error at the
# token, like any other malformed program.
SUPERSCRIPT_BOUND_SRC = """\
program superscript;
task t is begin
    for i in \u00b2 .. 3 loop null; end loop;
end;
"""
SUPERSCRIPT_BOUND_ERROR = "invalid integer '\u00b2' (line 3, column 14)"

STALL_SRC = """
program stall;
task t1 is begin send t2.m; end;
task t2 is begin null; end;
"""


@pytest.fixture
def handshake():
    return parse_program(HANDSHAKE_SRC)


@pytest.fixture
def crossed():
    return parse_program(CROSSED_SRC)


@pytest.fixture
def fig2b():
    return parse_program(FIG2B_SRC)


@pytest.fixture
def stall_program():
    return parse_program(STALL_SRC)


@pytest.fixture(scope="session")
def corpus():
    return paper_corpus()


def graph_of(program):
    """Sync graph of ``program`` after loop removal (helper, not fixture)."""
    transformed, _ = remove_loops(program)
    return build_sync_graph(transformed)


def spy_calls(monkeypatch, target):
    """Record every call of the function ``"module:attr"`` wherever
    repro looks it up: its module, every ``repro`` module that imported
    it by name, and the :data:`repro.api.ALGORITHMS` registry.

    Returns the list the positional-argument tuples are appended to.
    """
    import importlib
    import sys

    from repro.api import ALGORITHMS

    module_name, attr = target.split(":")
    original = getattr(importlib.import_module(module_name), attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if vars(module).get(attr) is original:
                monkeypatch.setattr(module, attr, spy)
    for key, value in list(ALGORITHMS.items()):
        if value is original:
            monkeypatch.setitem(ALGORITHMS, key, spy)
    return calls


def front_half_counts(monkeypatch, source):
    """Spies counting the parses and front halves run on ``source``.

    Returns a function giving ``(parses, prepares)`` so far: parses
    lex ``source`` itself, prepares take ``source`` or a program that
    prints like its parse.  Other programs (repair candidates, say)
    are not counted.
    """
    from repro.lang.ast_nodes import Program
    from repro.lang.pretty import pretty

    canonical = pretty(parse_program(source))
    scans = spy_calls(monkeypatch, "repro.lang.parser:scan")
    prepares = spy_calls(monkeypatch, "repro.api:prepare")

    def counts():
        return (
            sum(1 for args in scans if args[0] == source),
            sum(
                1
                for (program, *_) in prepares
                if program == source
                or (
                    isinstance(program, Program)
                    and pretty(program) == canonical
                )
            ),
        )

    return counts
