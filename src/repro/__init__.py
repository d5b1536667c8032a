"""repro — Static Infinite Wait Anomaly Detection in Polynomial Time.

A complete reimplementation of Masticola & Ryder (ICPP 1990): the sync
graph and cycle location graph representations, execution-wave
semantics, the naive and refined polynomial deadlock-certification
algorithms with all extensions, stall analysis with the Section-5.1
source transforms, the Lemma-1 loop-unroll transform, both Appendix-A
NP-hardness reductions, a concrete rendezvous interpreter, and
exhaustive exact baselines — plus the ADL tasking language they all
operate on.

Quick start::

    import repro

    result = repro.analyze('''
        program handshake;
        task t1 is begin send t2.hello; accept world; end;
        task t2 is begin accept hello; send t1.world; end;
    ''')
    print(result.describe())
"""

from .api import (
    ALGORITHMS,
    AnalysisResult,
    PreparedProgram,
    analyze,
    analyze_many,
    analyze_prepared,
    certify_deadlock_free,
    certify_stall_free,
    prepare,
)
from .errors import (
    AnalysisError,
    ExplorationLimitError,
    LexError,
    ParseError,
    ReproError,
    SimulationError,
    ValidationError,
)
from .lang.ast_nodes import Program
from .lang.builder import ProgramBuilder
from .lang.parser import parse_program
from .lang.pretty import pretty

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AnalysisError",
    "AnalysisResult",
    "ExplorationLimitError",
    "LexError",
    "ParseError",
    "PreparedProgram",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "SimulationError",
    "ValidationError",
    "__version__",
    "analyze",
    "analyze_many",
    "analyze_prepared",
    "certify_deadlock_free",
    "certify_stall_free",
    "parse_program",
    "prepare",
    "pretty",
]
