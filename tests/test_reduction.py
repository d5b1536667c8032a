"""Persistent-set reduction of the witness search, against the oracles.

A witness search (:meth:`repro.waves.engine.WaveIndex.search` with a
goal) expands one persistent set of ready pairs per wave instead of all
of them; the module docstring of :mod:`repro.waves.engine` has the
soundness argument.  The oracle kernels in ``tests/oracles/`` expand
every pair, so they are the reference here:

* the dead waves reachable through the reduced successor relation are
  exactly the oracle's anomalous waves, and ``can_terminate`` agrees;
* for every kind and strategy an unlimited search finds a witness
  exactly when the oracle does, every witness replays through
  :mod:`repro.waves`, and bfs/astar witnesses are as short as the
  oracle's BFS one.

The three-task programs of the other differential tests cannot see any
of this: there any two ready pairs share a task, so the reduction never
fires.  These programs add one or two producer/consumer pairs to such a
draw (four to seven tasks), some of whose statements talk to the core
tasks, and are searched both after the Lemma-1 unroll and with their
loops kept (a cyclic graph).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang.ast_nodes import Accept, Condition, If, Null, Program, Send
from repro.lang.ast_nodes import TaskDecl, While
from repro.syncgraph.build import build_sync_graph
from repro.waves.anomaly import is_anomalous
from repro.waves.engine import GOALS, WaveIndex
from repro.waves.wave import iter_initial_waves, next_waves_with_events
from repro.waves.witness import search_anomaly_witness
from repro.workloads.patterns import barrier, corridor, dining_philosophers
from tests import oracles
from tests.conftest import graph_of
from tests.oracles.witness import find_witness_reference
from tests.test_properties import FAST, TASKS, small_programs

LIMIT = 200_000
# (strategy, beam_width): a beam this wide never cuts a layer here, so a
# beam search is as unlimited as the other two.
ORDERS = (("bfs", None), ("astar", None), ("beam", 1 << 20))


def _pair_stmt(leaf: st.SearchStrategy) -> st.SearchStrategy:
    inner = st.lists(leaf, min_size=1, max_size=2).map(tuple)
    compound = st.one_of(
        st.builds(
            If,
            condition=st.just(Condition.unknown()),
            then_body=inner,
            else_body=st.lists(leaf, max_size=1).map(tuple),
        ),
        st.builds(While, condition=st.just(Condition.unknown()), body=inner),
    )
    return st.one_of(leaf, leaf, leaf, compound)


@st.composite
def wide_programs(draw) -> Program:
    """A :func:`small_programs` draw plus one or two producer/consumer
    pairs on their own messages; the producer sometimes sends to a core
    task, so closures also grow beyond a single pair."""
    core = draw(small_programs())
    tasks = list(core.tasks)
    for c in range(draw(st.integers(1, 2))):
        tx, rx = f"c{c}tx", f"c{c}rx"
        own = [f"c{c}m0", f"c{c}m1"]
        tx_leaf = st.sampled_from(
            [Send(task=rx, message=m) for m in own] * 3
            + [Send(task=TASKS[c], message="m0"), Accept(message="ack"),
               Null()]
        )
        rx_leaf = st.sampled_from(
            [Accept(message=m) for m in own] * 3
            + [Send(task=tx, message="ack"), Null()]
        )
        for name, leaf in ((tx, tx_leaf), (rx, rx_leaf)):
            body = draw(st.lists(_pair_stmt(leaf), min_size=1, max_size=3))
            tasks.append(TaskDecl(name=name, body=tuple(body)))
    return Program(name="wide", tasks=tuple(tasks))


GRAPHS = [
    pytest.param(graph_of, id="unrolled"),
    pytest.param(build_sync_graph, id="cyclic"),
]


def _reduced_space(engine: WaveIndex):
    """Walk the engine's reduced successor relation exhaustively:
    (dead non-terminal waves, can_terminate, states, whether some wave
    expanded fewer pairs than were ready)."""
    seen = set()
    todo = []
    for key, occ in engine._seed():
        if key not in seen:
            seen.add(key)
            todo.append((key, occ))
    dead = set()
    can_terminate = fired = False
    while todo:
        key, occ = todo.pop()
        if key == engine.terminal_key:
            can_terminate = True
            continue
        slots = engine._slots_of(key)
        pairs = engine._persistent_pairs(slots, occ)
        if not pairs:
            dead.add(engine.unpack(key))
            continue
        if len(pairs) < len(engine._ready_pairs(slots, occ)):
            fired = True
        for i, j in pairs:
            for kd_a, od_a in engine.succ_deltas[slots[i]]:
                for kd_b, od_b in engine.succ_deltas[slots[j]]:
                    nk = key + kd_a + kd_b
                    if nk not in seen:
                        seen.add(nk)
                        todo.append((nk, occ ^ od_a ^ od_b))
    return dead, can_terminate, len(seen), fired


def _assert_replays(graph, witness):
    assert witness.waves[0] == witness.initial
    assert witness.initial in set(iter_initial_waves(graph))
    assert len(witness.waves) == len(witness.schedule) + 1
    for prev, event, nxt in zip(
        witness.waves, witness.schedule, witness.waves[1:]
    ):
        assert (event, nxt) in list(next_waves_with_events(graph, prev))
    assert is_anomalous(graph, witness.waves[-1])


class TestReducedSpace:
    @FAST
    @pytest.mark.parametrize("build", GRAPHS)
    @given(program=wide_programs())
    def test_dead_waves_match_oracle_anomalies(self, build, program):
        graph = build(program)
        full = oracles.explore(graph, state_limit=LIMIT)
        dead, can_terminate, states, _ = _reduced_space(WaveIndex(graph))
        assert dead == {c.wave for c in full.anomalous}
        assert can_terminate == full.can_terminate
        assert states <= full.visited_count

    @pytest.mark.parametrize(
        "program",
        [corridor(4, 2), dining_philosophers(4), dining_philosophers(6, False)],
        ids=lambda p: p.name,
    )
    def test_reduction_fires(self, program):
        # Chatter pairs reduce through the one-pair rule, the
        # philosophers' forks only through the general closure, which
        # must then be transitive (fork, philosopher, next fork, ...)
        # to keep the circular wait.
        graph = graph_of(program)
        full = oracles.explore(graph, state_limit=LIMIT)
        dead, _, states, fired = _reduced_space(WaveIndex(graph))
        assert fired
        assert states < full.visited_count
        assert dead == {c.wave for c in full.anomalous}
        data, _, _ = find_witness_reference(graph, GOALS["deadlock"], LIMIT)
        for strategy in ("bfs", "astar"):
            outcome = search_anomaly_witness(
                graph, "deadlock", LIMIT, strategy=strategy
            )
            assert (outcome.witness is None) == (data is None), strategy
            if data is not None:
                assert len(outcome.witness.schedule) == len(data[1])

    def test_common_task_keeps_every_pair(self):
        # Every ready pair of a barrier shares the coordinator: no
        # closure leaves a pair out, so the witness search walks the
        # whole space, exactly like the oracle.
        graph = graph_of(barrier(4, 2))
        _, _, states, fired = _reduced_space(WaveIndex(graph))
        assert not fired
        outcome = search_anomaly_witness(graph, "deadlock", LIMIT)
        assert outcome.refuted
        assert outcome.states == states == oracles.explore(
            graph, state_limit=LIMIT
        ).visited_count


class TestWitnessSearch:
    @FAST
    @pytest.mark.parametrize("build", GRAPHS)
    @given(program=wide_programs())
    def test_witnesses_match_oracle(self, build, program):
        graph = build(program)
        engine = WaveIndex(graph)
        for kind, matches in GOALS.items():
            data, oracle_states, limited = find_witness_reference(
                graph, matches, LIMIT
            )
            assert not limited
            for strategy, width in ORDERS:
                outcome = search_anomaly_witness(
                    graph, kind, LIMIT, engine=engine, strategy=strategy,
                    beam_width=width,
                )
                assert not outcome.limited, (kind, strategy)
                assert (outcome.witness is None) == (data is None), (
                    kind, strategy,
                )
                if outcome.witness is None:
                    # both walked their whole space; the reduced one is
                    # part of the full one
                    assert outcome.states <= oracle_states
                    continue
                _assert_replays(graph, outcome.witness)
                assert matches(outcome.witness.classification)
                if strategy != "beam":
                    assert len(outcome.witness.schedule) == len(data[1]), (
                        kind, strategy,
                    )
