"""The exact path and the evidence on uid arrays.

Once ``build_sync_graph`` returns, the refined analysis, the wave
engine, the future-cost table and wave classification read uid lists
and bit rows, and reports render from a per-graph label table.  These
tests pin that:

* a hash counter on :class:`SyncNode` sees no hash on a refined
  analysis, and on a confirmation only the deadlock sets of the
  returned classification;
* the uid future-cost tables equal the node-keyed oracle's
  (``tests/oracles/guide.py``) and ``classify_wave`` and the coupling
  and stall functions equal the node-keyed oracle
  (``tests/oracles/anomaly.py``) on every anomalous wave of an
  exploration, cyclic pre-unroll graphs included;
* :func:`repro.reporting.render_json` writes exactly the bytes of
  ``json.dumps(payload, indent=2)``.
"""

from __future__ import annotations

import collections
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import cli
from repro.analysis.confirm import confirm_analysis
from repro.analysis.naive import naive_deadlock_analysis
from repro.api import prepare
from repro.reporting import analysis_result_to_dict, render_json
from repro.syncgraph.model import SyncNode
from repro.waves import anomaly, coupling
from repro.waves.engine import WaveIndex
from repro.waves.explore import explore
from repro.waves.guide import STRATEGIES, FutureCostTable
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.patterns import (
    client_server,
    corridor,
    dining_philosophers,
)
from tests.oracles import anomaly as oracle_anomaly
from tests.oracles import guide as oracle_guide
from tests.test_properties import FAST, small_programs
from tests.test_search_golden import FAMILIES, _family_programs

# Exact-confirmation inputs: deep narrow deadlocks, circular and
# asymmetric dining, shared-reply servers and the repair corpus.
EXACT_PROGRAMS = {
    **{
        f"corridor-{d}x{c}": corridor(d, c)
        for d, c in ((4, 2), (5, 3), (6, 3), (7, 4))
    },
    **{
        f"dining-{n}-{dl}": dining_philosophers(n, dl)
        for n in (3, 4, 5)
        for dl in (True, False)
    },
    **{
        f"server-{c}x{r}": client_server(c, r, shared_reply=True)
        for c, r in ((3, 1), (4, 1), (5, 2))
    },
    **{f"repair-{n}": e.program for n, e in repair_corpus().items()},
}

GOLDEN_PROGRAMS = {
    f"{family}/{name}": program
    for family in FAMILIES
    for name, program in _family_programs(family).items()
}


@pytest.fixture
def hash_sites(monkeypatch):
    """Count ``SyncNode.__hash__`` calls by the file that made them."""
    sites = collections.Counter()
    original = SyncNode.__hash__

    def counting(node):
        caller = sys._getframe(1).f_code
        sites[os.path.basename(caller.co_filename)] += 1
        return original(node)

    monkeypatch.setattr(SyncNode, "__hash__", counting)
    return sites


class TestHashCount:
    def test_refined_analysis_hashes_no_node(self, hash_sites):
        result = repro.analyze(dining_philosophers(8, True))
        analysis_result_to_dict(result)
        assert not result.deadlock.deadlock_free
        assert len(result.deadlock.evidence) == 40
        assert sum(hash_sites.values()) == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_confirmation_hashes_only_the_deadlock_sets(
        self, hash_sites, strategy
    ):
        result = repro.analyze(dining_philosophers(4, True))
        assert sum(hash_sites.values()) == 0
        confirmed = confirm_analysis(result, strategy=strategy)
        analysis_result_to_dict(result, confirmation=confirmed)
        deadlocks = confirmed.witness.classification.deadlocks
        # The returned classification's deadlock frozensets, built in
        # classify_wave: nothing in WaveIndex, FutureCostTable,
        # SyncGraph or the coupling and stall code.
        assert sum(len(d) for d in deadlocks) == 8
        assert hash_sites == {"anomaly.py": 8}


def _exact_graph(program):
    return prepare(program).exact_graph


def assert_tables_match(graph, report=None):
    engine = WaveIndex(graph)
    table = FutureCostTable(engine, report)
    groups, quiet = oracle_guide.tables(engine, table.report)
    assert table._groups == groups
    assert table._quiet == quiet
    return table


def assert_classification_matches(graph, state_limit=60_000):
    run = explore(graph, state_limit, on_limit="partial")
    for c in run.anomalous:
        wave = c.wave
        ref = oracle_anomaly.classify_wave(graph, wave)
        assert c.wave == ref.wave
        assert c.stalls == ref.stalls
        assert set(c.deadlocks) == set(ref.deadlocks)
        assert len(c.deadlocks) == len(ref.deadlocks)
        assert set(c.coupled_to_anomaly) == set(ref.coupled_to_anomaly)
        assert len(c.coupled_to_anomaly) == len(ref.coupled_to_anomaly)
        assert anomaly.is_anomalous(graph, wave)
        assert anomaly.stall_nodes(graph, wave) == ref.stalls
        assert set(coupling.transitively_coupled_sets(graph, wave)) == set(
            oracle_anomaly.transitively_coupled_sets(graph, wave)
        )
        assert coupling.coupling_graph(
            graph, wave
        ) == oracle_anomaly.coupling_graph(graph, wave)
        for r in wave.real_nodes():
            assert coupling.coupled_to(
                graph, wave, r
            ) == oracle_anomaly.coupled_to(graph, wave, r)
    return run


class TestGuideTablesMatchOracle:
    @pytest.mark.parametrize("name", sorted(EXACT_PROGRAMS))
    def test_exact_confirm_inputs(self, name):
        graph = _exact_graph(EXACT_PROGRAMS[name])
        table = assert_tables_match(graph)
        if not graph.has_control_cycle():
            assert_tables_match(graph, naive_deadlock_analysis(graph))
        if name.startswith("dining") and name.endswith("True"):
            assert table._groups

    def test_golden_search_families(self):
        for name, program in GOLDEN_PROGRAMS.items():
            graph = _exact_graph(program)
            assert_tables_match(graph)
            if not graph.has_control_cycle():
                assert_tables_match(graph, naive_deadlock_analysis(graph))

    @FAST
    @given(small_programs())
    def test_hypothesis_programs(self, program):
        try:
            graph = _exact_graph(program)
        except repro.ReproError:
            return
        assert_tables_match(graph)


class TestClassificationMatchesOracle:
    def test_exact_confirm_inputs(self):
        cyclic = 0
        for name, program in EXACT_PROGRAMS.items():
            graph = _exact_graph(program)
            cyclic += graph.has_control_cycle()
            assert_classification_matches(graph, state_limit=20_000)

    def test_golden_search_families_and_adl_loops(self):
        cyclic = 0
        programs = dict(GOLDEN_PROGRAMS)
        programs.update(
            (f"adl/{n}", e.program) for n, e in adl_corpus().items()
        )
        for name, program in programs.items():
            try:
                graph = _exact_graph(program)
            except repro.ReproError:
                continue
            cyclic += graph.has_control_cycle()
            assert_classification_matches(graph, state_limit=20_000)
        assert cyclic  # pre-unroll graphs with control cycles

    @FAST
    @given(small_programs())
    def test_hypothesis_programs(self, program):
        try:
            graph = _exact_graph(program)
        except repro.ReproError:
            return
        assert_classification_matches(graph, state_limit=2_000)


# -- render_json -------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(
        st.text() | st.integers() | st.floats() | st.booleans() | st.none(),
        children,
        max_size=4,
    ),
    max_leaves=20,
)


def _same_bytes(payload):
    assert render_json(payload) == json.dumps(payload, indent=2)


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_generated_values(self, value):
        _same_bytes(value)

    def test_special_floats_and_keys(self):
        _same_bytes(
            {
                1: math.nan,
                2.5: math.inf,
                True: -math.inf,
                None: [-0.0, 1e300, 10**40],
                "é\n\"\ud800": [[], {}, ()],
            }
        )

    def test_unserializable_values_raise_like_json(self):
        for bad in ({1, 2}, {(1, 2): 3}, object()):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError):
                render_json(bad)

    def test_corpus_payloads_with_confirmation(self):
        for program in list(EXACT_PROGRAMS.values())[:12]:
            result = repro.analyze(program)
            for strategy in STRATEGIES:
                confirmed = confirm_analysis(
                    result, state_limit=5_000, strategy=strategy
                )
                _same_bytes(
                    analysis_result_to_dict(result, confirmation=confirmed)
                )

    @pytest.mark.parametrize(
        "name", sorted(repair_corpus())[:4] + sorted(adl_corpus())[:4]
    )
    def test_cli_payloads_with_repair_and_metrics(
        self, name, tmp_path, capsys
    ):
        corpus = {**adl_corpus(), **repair_corpus()}
        path = tmp_path / f"{name}.adl"
        path.write_text(corpus[name].source)
        code = cli.main(
            [
                str(path), "--json", "--confirm", "--suggest-fixes",
                "--max-fixes", "2", "--simulate", "3", "--stats",
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "metrics" in payload and "confirmation" in payload
        _same_bytes(payload)
        assert render_json(payload) + "\n" == out
