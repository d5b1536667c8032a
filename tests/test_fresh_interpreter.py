"""Properties only a fresh interpreter can show.

* Output must not depend on the string hash seed: the sync-graph
  builder's control-successor and initial-option order, and the
  extension analyses' reports (which stop at the first surviving tail),
  are compared byte for byte across two ``PYTHONHASHSEED`` values.
* ``import repro`` must not pull in networkx, which the program no
  longer uses (only tests and benchmarks do), nor any ``repro.cfg``
  module, which only the Taylor baseline and the oracles read.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

HASH_SEEDS = ("1", "2")


def _run(script: str, hash_seed: str = "0") -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _same_under_both_seeds(script: str) -> str:
    first, second = (_run(script, seed) for seed in HASH_SEEDS)
    assert first, "the script printed nothing"
    assert first == second
    return first


BUILDER_ORDER = """
    from repro.lang.parser import parse_program
    from repro.syncgraph.build import build_sync_graph
    from repro.transforms.inline import inline_procedures
    from repro.workloads.adl_corpus import adl_corpus
    from repro.workloads.corpus import paper_corpus

    programs = [(n, e.program) for n, e in paper_corpus().items()]
    programs += [(n, parse_program(e.source)) for n, e in adl_corpus().items()]
    for name, program in programs:
        graph = build_sync_graph(inline_procedures(program)[0])
        for node in graph.nodes:
            succ = [s.uid for s in graph.control_successors(node)]
            print(name, node.uid, succ)
        for task in graph.tasks:
            print(name, task, [s.uid for s in graph.initial_options(task)])
"""

EXTENSION_REPORTS = """
    import repro
    from repro.errors import AnalysisError
    from repro.reporting import analysis_result_to_dict, render_json
    from repro.workloads import patterns
    from repro.workloads.corpus import paper_corpus

    programs = [e.program for e in paper_corpus().values()]
    programs += [patterns.barrier(4, 2), patterns.barrier(3, 1),
                 patterns.dining_philosophers(3), patterns.master_workers(3, 2)]
    for program in programs:
        for algorithm in ("head-tail", "combined-pairs", "k-pairs-3"):
            try:
                result = repro.analyze(program, algorithm=algorithm)
            except AnalysisError as exc:
                print(program.name, algorithm, "error", exc)
                continue
            print(render_json(analysis_result_to_dict(result)))
"""


def test_builder_order_ignores_hash_seed():
    out = _same_under_both_seeds(BUILDER_ORDER)
    # fig4c branches: b's successors come out in uid order.
    assert "fig4c 0 [2, 4, 6, 8]" in out


def test_extension_reports_ignore_hash_seed():
    _same_under_both_seeds(EXTENSION_REPORTS)


def test_import_leaves_networkx_out():
    out = _run(
        """
        import sys
        import repro, repro.server.session, repro.lint
        print("networkx" in sys.modules)
        print(sorted(m for m in sys.modules if m.startswith("repro.cfg")))
        """
    )
    assert out.split("\n")[:2] == ["False", "[]"]
