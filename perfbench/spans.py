"""Benchmark-side span tracer wrapped around repro's layer boundaries.

Nothing under ``src/`` is instrumented for the benchmark.  Instead
:meth:`Tracer.install` replaces each layer's public functions where the
program looks them up: module attributes (including every module that
did ``from x import f``), the ``repro.api.ALGORITHMS`` registry, and
class methods.  Spans stay in memory as tuples and are summarised once,
after the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

# The 27 layer boundaries.  Each target is "module:attr" or
# "module:Class.method".  The benchmark reports <layer>.calls and
# <layer>.self_s for every one of them.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "lang.parse": ("repro.lang.parser:parse_program",),
    "lang.validate": ("repro.lang.validate:validate_program",),
    "lang.pretty": ("repro.lang.pretty:pretty",),
    "transforms.inline": ("repro.transforms.inline:inline_procedures",),
    "transforms.unroll": ("repro.transforms.unroll:remove_loops",),
    # strict_dominators is where orderings builds the per-task control
    # graphs and calls networkx's dominator routine.
    "cfg.dominators": ("repro.analysis.orderings:strict_dominators",),
    "syncgraph.build": ("repro.syncgraph.build:build_sync_graph",),
    "syncgraph.clg": ("repro.syncgraph.clg:build_clg",),
    "analysis.orderings": ("repro.analysis.orderings:compute_orderings",),
    "analysis.coexec": ("repro.analysis.coexec:compute_coexec",),
    "analysis.index": ("repro.analysis.index:AnalysisIndex.__init__",),
    "analysis.refined": (
        "repro.analysis.refined:refined_deadlock_analysis",
    ),
    "analysis.stalls": ("repro.analysis.stalls:stall_analysis",),
    "analysis.confirm": ("repro.analysis.confirm:confirm_analysis",),
    "waves.engine": ("repro.waves.engine:WaveIndex.__init__",),
    "waves.guide": ("repro.waves.guide:FutureCostTable.__init__",),
    "waves.search": (
        "repro.waves.witness:search_anomaly_witness",
        "repro.waves.explore:explore",
    ),
    "reporting": (
        "repro.reporting:analysis_result_to_dict",
        "repro.reporting:render_json",
    ),
    "farm.cache_key": ("repro.farm.cache:cache_key",),
    "farm.lru": (
        "repro.farm.cache:LruFront.get",
        "repro.farm.cache:LruFront.put",
    ),
    "farm.store": (
        "repro.farm.cache:ResultCache.get",
        "repro.farm.cache:ResultCache.put",
    ),
    "farm.runner": ("repro.farm.runner:run_batch",),
    "farm.pool": ("repro.farm.pool:run_pool",),
    "lint": (
        "repro.lint.engine:run_lint",
        "repro.lint.output:lint_to_dict",
    ),
    "server.session": tuple(
        f"repro.server.session:Session.{method}"
        for method in (
            "analyze_document",
            "lint_document",
            "open_document",
            "change_document",
            "close_document",
            "run_batch",
            "status",
        )
    ),
    "server.transport": (
        "repro.server.protocol:decode_request",
        "repro.server.daemon:AnalysisServer._write",
    ),
    "obs": ("repro.obs:snapshot",),
}

# One finished span: (id, layer, start, end, parent id or -1, op id).
SpanRecord = Tuple[int, str, float, float, int, Any]


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for one ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Collects spans from wrapped layer functions, per thread.

    ``hooks`` maps a layer name to a callable that receives each return
    value of that layer, so work counts (search states, limited runs)
    are read from what the program returned.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.hooks: Dict[str, Callable[[Any], None]] = {}

    # -- per-thread context -----------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> Any:
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Any) -> None:
        self._local.op = value

    # -- installation -----------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.records.append(
                    (span_id, layer, start, end, parent, tracer.op)
                )
            hook = tracer.hooks.get(layer)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer target wherever repro looks it up."""
        import repro  # noqa: F401 - loads the package before scanning
        import repro.server.daemon  # noqa: F401
        import repro.server.session  # noqa: F401
        import repro.lint  # noqa: F401

        originals: Dict[int, Callable] = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapped = self._wrap(layer, original)
                originals[id(original)] = wrapped
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        # Re-point every other binding of a wrapped function: names
        # imported with ``from x import f`` and registry entries.
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)
        from repro.api import ALGORITHMS

        for key, value in list(ALGORITHMS.items()):
            wrapped = originals.get(id(value))
            if wrapped is not None:
                ALGORITHMS[key] = wrapped
                self._undo.append((ALGORITHMS, key, value))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def self_times(records: List[SpanRecord]) -> Dict[str, Tuple[int, float]]:
    """``layer -> (calls, self seconds)`` over ``records``.

    Self time is a span's duration minus the time its direct child spans
    cover; children run on the parent's thread, so they never overlap
    each other.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in records:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Tuple[int, float]] = {layer: (0, 0.0) for layer in LAYERS}
    for span_id, layer, start, end, _, _ in records:
        calls, self_s = out[layer]
        out[layer] = (
            calls + 1,
            self_s + (end - start) - child_time.get(span_id, 0.0),
        )
    return out


def layer_metrics(
    layers: Dict[str, Tuple[int, float]], traced_wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """``<layer>.calls``, ``<layer>.self_s`` and ``other.self_s``."""
    out: Dict[str, Tuple[float, str]] = {}
    total = 0.0
    for layer in LAYERS:
        calls, self_s = layers.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        total += self_s
    out["other.self_s"] = (traced_wall_s - total, "s")
    return out
