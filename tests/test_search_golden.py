r"""Recorded behaviour of every exact-search mode under a state budget.

The wave search runs in three expansion orders (bfs, astar, beam) and
for two goals (exhaust the space, or stop at the first matching
anomaly), and a state budget can cut any of them short.  These goldens
pin, per case, every field that reaches a result object plus the four
guided-search counters, so a rewrite of the search loop must reproduce
today's behaviour exactly — including *which* states are in hand when a
budget trips, which no oracle in ``tests/oracles/`` covers for the
guided orders.  Witness-search records pin the persistent-set reduced
search (see :mod:`repro.waves.engine`), so their ``states`` count the
reduced graph; ``explore`` records pin the unreduced space.

Cases: the paper, ADL and repair corpora plus the ``dining_philosophers``
and ``corridor`` families; a ``scrambled`` family of random branching
programs searched under a deliberately inconsistent estimate, the only
cases where an A* witness search reopens a key reached by a strictly
shorter path; ``explore`` and witness search for the kinds
``deadlock``, ``stall`` and ``any``; bfs, astar, and beam at the default
width and at a width that truncates; state limits 3, 7, 20, 1,000 and
60,000.  Scalars are stored in clear, anomaly lists and witness
schedules as digests.

Each graph's adjacency lists are put in node-uid order before the
search, which visits successors in list order.  The goldens were
recorded in that order.  The first/follow builder's own order no
longer depends on the string hash (CI's hash-seed step pins that), but
it is not uid order: it lists ``e`` last, so without the sort 8 of the
43 programs would be searched in another order.

Regenerate (only after an intended behaviour change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_search_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.api import prepare
from repro.waves.engine import WaveIndex
from repro.waves.explore import explore
from repro.waves.witness import search_anomaly_witness
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.corpus import paper_corpus
from repro.workloads.patterns import corridor, dining_philosophers
from repro.workloads.random_programs import RandomProgramConfig, random_program

GOLDEN_DIR = Path(__file__).parent / "golden_search"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

LIMITS = (3, 7, 20, 1_000, 60_000)
# (strategy, beam_width): beam at its default width and at one narrow
# enough to truncate on every graph with more than two live states.
ORDERS = (("bfs", None), ("astar", None), ("beam", None), ("beam", 2))
KINDS = ("deadlock", "stall", "any")
COUNTERS = (
    "astar.pushed",
    "astar.popped",
    "beam.truncated",
    "guide.pruned_dominated",
)


def _family_programs(family):
    if family == "paper":
        return {n: e.program for n, e in paper_corpus().items()}
    if family == "adl":
        return {n: e.program for n, e in adl_corpus().items()}
    if family == "repair":
        return {n: e.program for n, e in repair_corpus().items()}
    if family == "dining":
        return {
            f"{n}-{'deadlock' if d else 'free'}": dining_philosophers(n, d)
            for n in (3, 4, 5)
            for d in (True, False)
        }
    if family == "corridor":
        return {
            f"{depth}x{chatter}": corridor(depth, chatter)
            for depth, chatter in ((3, 1), (4, 2), (5, 2), (6, 3))
        }
    return {
        f"random-{branch}-{seed}": random_program(
            RandomProgramConfig(
                tasks=3, statements_per_task=8, messages=2,
                branch_prob=branch, max_depth=3,
            ),
            seed,
        )
        for branch, seed in ((0.3, 31), (0.5, 2), (0.5, 9), (0.5, 13))
    }


FAMILIES = ("paper", "adl", "repair", "dining", "corridor", "scrambled")


class _ScrambledGuide:
    """An arbitrary, inconsistent estimate standing in for the guide."""

    @staticmethod
    def estimate(key: int) -> int:
        return (key * 2654435761 >> 5) % 7

    estimate_anomaly = estimate


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _uids(nodes):
    return [node.uid for node in nodes]


def _classification(c):
    # Recorded sorted by uid: the deadlock sets are frozensets, and the
    # search decides only which waves get classified, and in what
    # order, not how classify_wave lists a wave's nodes.
    return [
        _uids(c.wave.positions),
        sorted(_uids(c.stalls)),
        sorted(sorted(_uids(d)) for d in c.deadlocks),
        sorted(_uids(c.coupled_to_anomaly)),
    ]


def _witness(w):
    return [
        _uids(w.initial.positions),
        [[a.uid, b.uid] for a, b in w.schedule],
        [_uids(wave.positions) for wave in w.waves],
        _classification(w.classification),
    ]


def _observed(run):
    """``run()``'s record plus the guided-search counters it bumped."""
    with obs.observed() as session:
        try:
            record = run()
        except Exception as exc:  # pinned as behaviour, e.g. AnalysisError
            return {"error": type(exc).__name__}
    record["counters"] = [
        session.registry.counter_value(name) for name in COUNTERS
    ]
    return record


def _canonical_graph(program):
    """The exact-search graph with its adjacency lists in uid order."""
    graph = prepare(program).exact_graph
    for uids in (
        *graph._succ, *graph._pred, *graph._initial.values(), *graph._sync,
    ):
        uids.sort()
    return graph


def _records(name, program, scrambled):
    graph = _canonical_graph(program)
    engine = WaveIndex(graph)
    if scrambled:
        engine._fct_cache = _ScrambledGuide()  # what guide_for returns
    out = []
    for limit in LIMITS:
        for strategy, width in ORDERS:
            order = strategy if width is None else f"{strategy}{width}"

            def run_explore():
                r = explore(
                    graph, limit, engine=engine, on_limit="partial",
                    strategy=strategy, beam_width=width,
                )
                return {
                    "visited": r.visited_count,
                    "can_terminate": r.can_terminate,
                    "limited": r.limited,
                    "truncated": r.truncated,
                    "anomalies": _digest(
                        [_classification(c) for c in r.anomalous]
                    ),
                }

            out.append(
                {"case": f"{name} explore {order} {limit}",
                 **_observed(run_explore)}
            )
            for kind in KINDS:

                def run_witness():
                    o = search_anomaly_witness(
                        graph, kind, limit, engine=engine,
                        strategy=strategy, beam_width=width,
                    )
                    return {
                        "witness": (
                            None if o.witness is None
                            else _digest(_witness(o.witness))
                        ),
                        "states": o.states,
                        "limited": o.limited,
                        "truncated": o.truncated,
                    }

                out.append(
                    {"case": f"{name} {kind} {order} {limit}",
                     **_observed(run_witness)}
                )
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_search_matches_golden(family):
    records = []
    for name, program in _family_programs(family).items():
        records.extend(_records(name, program, family == "scrambled"))
    path = GOLDEN_DIR / f"{family}.jsonl"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["case"] for r in records] == [r["case"] for r in expected]
    for got, want in zip(records, expected):
        assert got == want, got["case"]
