"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LexError(ReproError):
    """Raised when the ADL lexer encounters an invalid character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised when the ADL parser encounters a malformed program."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        loc = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class ValidationError(ReproError):
    """Raised when an AST violates the paper's program model.

    Examples: a ``send`` naming an unknown task, a task sending a
    message to itself, or duplicate task names.
    """


class AnalysisError(ReproError):
    """Raised when a static analysis is handed input it cannot process."""


class UnknownTaskError(ReproError):
    """Raised when a task name does not belong to the sync graph.

    Replaces the bare ``ValueError`` that ``list.index`` used to leak
    out of :meth:`repro.waves.wave.Wave.position_of`.
    """

    def __init__(self, task: str, known: tuple) -> None:
        super().__init__(
            f"unknown task {task!r}; sync graph tasks are {list(known)}"
        )
        self.task = task
        self.known = known


class ExplorationLimitError(ReproError):
    """Raised when exhaustive wave exploration exceeds its state budget.

    Exhaustive exploration is exponential (the point of the paper); the
    limit keeps the exact baseline usable as a test oracle on small
    programs while failing loudly instead of hanging on large ones.

    ``result`` carries everything learned before the budget ran out (an
    :class:`~repro.waves.explore.ExplorationResult` with
    ``limited=True``) when the raising search tracked partials, else
    ``None``.  Anomalies found before exhaustion are definite; absence
    of anomalies and a ``False`` ``can_terminate`` are inconclusive.
    """

    def __init__(self, limit: int, result: object = None) -> None:
        super().__init__(
            f"feasible-wave exploration exceeded the budget of {limit} states"
        )
        self.limit = limit
        self.result = result


class SimulationError(ReproError):
    """Raised when the runtime interpreter is misconfigured."""


class RequestTimeout(ReproError):
    """A request's wall-clock deadline passed while it was still working.

    Raised by the loops that check the active
    :class:`~repro.budget.Budget`; the daemon answers code 1001.
    """


class RequestCancelled(ReproError):
    """A request was cancelled while it was still working.

    Raised by the loops that check the active
    :class:`~repro.budget.Budget`; the daemon answers code 1004.
    """
