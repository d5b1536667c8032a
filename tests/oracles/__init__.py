"""Oracles for the product's indexed kernels and its front half.

Each analysis has one implementation in ``src/``; these are the simple,
literal implementations the differential tests compare it against:

* ``clg`` — the CLG as node and edge objects built by the six rules
  literally, with a filtered object Tarjan (vs the out-edge lists of
  :mod:`repro.syncgraph.clg` and the bit rows, cycle list and export
  read from them);
* ``refined`` — the per-head loop over hashed CLG node sets of the
  ``clg`` oracle (vs the :class:`~repro.analysis.index.AnalysisIndex`
  bitset kernels in :mod:`repro.analysis.refined`);
* ``extensions`` — the set-based marking/search engine, plugged into
  the product's own extension loops;
* ``explore`` / ``witness`` — breadth-first search over tuple-of-nodes
  waves (vs the packed-integer :class:`~repro.waves.engine.WaveIndex`),
  classifying with ``anomaly``;
* ``anomaly`` — ``control_descendants`` frozensets, node-set coupling
  and a node-keyed Tarjan (vs the uid bit rows of
  :mod:`repro.waves.anomaly` and :mod:`repro.waves.coupling`);
* ``guide`` — the future-cost tables from per-query ``SyncNode``-keyed
  maps and node-set lockstep chains (vs the uid lists of
  :class:`~repro.waves.guide.FutureCostTable`);
* ``lexer`` / ``parser`` — a character loop making frozen-dataclass
  tokens and a token-cursor parser that attaches each statement's span
  with ``dataclasses.replace`` (vs the regex lexer and build-once
  parser of :mod:`repro.lang`);
* ``syncgraph_build`` — the sync graph by erasing a per-task
  :class:`~repro.cfg.graph.TaskCFG`, one search per rendezvous (vs the
  first/follow pass of :mod:`repro.syncgraph.build`).

Every analysis entry point takes the product's arguments and returns
the product's result type, so a test can swap one for the other.  The
comparing tests are ``tests/test_index.py``, ``tests/test_index_rows.py``,
``tests/test_engine.py``, ``tests/test_wave_rows.py`` and
``tests/test_frontend_oracles.py``;
``benchmarks/bench_refined_kernel.py`` and ``benchmarks/bench_explore.py``
time the same pairs.
"""

from .explore import explore
from .extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_analysis,
)
from .refined import (
    component_for_head,
    constraint4_deadlock_analysis,
    refined_deadlock_analysis,
)
from .witness import find_anomaly_witness

__all__ = [
    "combined_pairs_analysis",
    "component_for_head",
    "constraint4_deadlock_analysis",
    "explore",
    "find_anomaly_witness",
    "head_pairs_analysis",
    "head_tail_analysis",
    "k_pairs_analysis",
    "refined_deadlock_analysis",
]
