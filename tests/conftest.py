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
