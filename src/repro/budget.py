"""Request budget: a cancel token plus a wall-clock deadline.

A daemon worker runs each request inside :func:`request`, which records
the request's cancel token: the ``threading.Event`` that the ``cancel``
method sets.  Nothing checks that token on its own.  The session wraps
its in-process analysis in :func:`limit`, which makes one
:class:`Budget` of the token and ``params.timeout`` for that scope
only, so lint, repair synthesis and batch never see it (they catch
analysis errors, and would cache what an abort left behind).  Both
live in ``contextvars.ContextVar`` slots, so no function between the
daemon and the loops that do the work takes a parameter for them, and
concurrent requests on other threads each see their own.

Three loops can run long and check the budget: the wave search loop
(:meth:`repro.waves.engine.WaveIndex.search`), the refined analysis's
per-head loop and the orderings fixpoint.  Each calls :func:`checkpoint`
once on entry and then :meth:`Budget.check` every :data:`CHECK_EVERY`
steps; with no budget active, neither costs more than a counter.  A
passed deadline raises :class:`~repro.errors.RequestTimeout`, a set
cancel token :class:`~repro.errors.RequestCancelled`.  Work outside
those loops is not interrupted, so a phase without a check can overrun.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .errors import RequestCancelled, RequestTimeout

__all__ = [
    "CHECK_EVERY",
    "Budget",
    "checkpoint",
    "clear",
    "limit",
    "request",
]

# Loop steps between two budget checks.  One step is a search state, a
# refined head hypothesis or a fixpoint evaluation, so a check lands
# within about a millisecond of search and far less elsewhere.
CHECK_EVERY = 256


class Budget:
    """One analysis's cancel token and ``time.monotonic()`` deadline."""

    __slots__ = ("cancel", "deadline")

    def __init__(
        self,
        cancel: Optional[threading.Event] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.cancel = cancel
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )

    def check(self) -> None:
        """Raise if the request was cancelled or its deadline passed."""
        if self.cancel is not None and self.cancel.is_set():
            raise RequestCancelled("request cancelled while running")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise RequestTimeout("request ran past its timeout")


_cancel: ContextVar[Optional[threading.Event]] = ContextVar(
    "repro_cancel", default=None
)
_current: ContextVar[Optional[Budget]] = ContextVar(
    "repro_budget", default=None
)


@contextmanager
def request(cancel: threading.Event) -> Iterator[None]:
    """Run a request whose cancel token is ``cancel``.

    Only a :func:`limit` scope inside checks the token.
    """
    token = _cancel.set(cancel)
    try:
        yield
    finally:
        _cancel.reset(token)


@contextmanager
def limit(timeout: Optional[float] = None) -> Iterator[None]:
    """Check the request's cancel token, and a deadline ``timeout``
    seconds from now (``None``: no deadline), within the scope."""
    token = _current.set(Budget(_cancel.get(), timeout))
    try:
        yield
    finally:
        _current.reset(token)


def clear() -> None:
    """Drop the current context's token and budget for good.

    For a process forked while a request was running: the forking
    thread's request is not this process's to check.
    """
    _cancel.set(None)
    _current.set(None)


def checkpoint() -> Optional[Budget]:
    """Check the active budget now and return it (``None`` if none)."""
    budget = _current.get()
    if budget is not None:
        budget.check()
    return budget
