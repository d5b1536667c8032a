"""Command-line interface: ``repro-analyze`` (or ``python -m repro.cli``).

Examples::

    repro-analyze program.adl
    repro-analyze program.adl --algorithm naive
    repro-analyze program.adl --algorithm exact --json
    repro-analyze program.adl --dot sync.dot --clg-dot clg.dot
    repro-analyze program.adl --simulate 100
    repro-analyze program.adl --trace
    repro-analyze program.adl --json --metrics-out metrics.json
    repro-analyze program.adl --metrics-out metrics.prom
    repro-analyze program.adl --lint
    repro-analyze program.adl --lint --fail-on warning
    repro-analyze program.adl --lint --json
    repro-analyze program.adl --lint --sarif lint.sarif
    repro-analyze program.adl --lint --disable ADL009,coupling-cycle
    repro-analyze program.adl --suggest-fixes
    repro-analyze program.adl --suggest-fixes --json
    repro-analyze program.adl --suggest-fixes --sarif fixes.sarif
    repro-analyze --batch corpus/ --jobs 8
    repro-analyze --batch corpus/ 'extra/*.adl' --jsonl-out report.jsonl
    repro-analyze --batch corpus/ --no-cache --timeout 30
    repro-analyze serve
    repro-analyze serve --http 127.0.0.1:8171

Under ``--json`` (and ``--jsonl-out``) stdout carries *only* the JSON
payload — one parseable document (or one per line) and nothing else.
Human-readable chatter — trace renders, progress, warnings — always
goes to stderr in JSON mode, so ``repro-analyze f.adl --json | jq .``
can never choke on interleaved text.  :func:`_chatter` is the single
routing point enforcing this.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import obs
from .analysis.confirm import confirm_analysis
from .api import ALGORITHMS, analyze_prepared, prepare
from .errors import ReproError
from .interp.runtime import sample_runs
from .reporting import render_json
from .syncgraph.clg import build_clg
from .syncgraph.dot import clg_to_dot, sync_graph_to_dot
from .waves.guide import validate_strategy

__all__ = ["main", "build_arg_parser"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Static infinite-wait anomaly detection for Ada-like "
            "rendezvous programs (Masticola & Ryder, ICPP 1990)."
        ),
    )
    parser.add_argument(
        "sources",
        nargs="+",
        metavar="source",
        help=(
            "path to an ADL source file, or '-' for stdin; with "
            "--batch, any mix of files, directories (searched "
            "recursively for *.adl), and glob patterns"
        ),
    )
    parser.add_argument(
        "--algorithm",
        default="refined",
        choices=sorted(ALGORITHMS) + ["exact"],
        help="deadlock detection algorithm (default: refined)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    parser.add_argument(
        "--dot", metavar="FILE", help="write the sync graph as Graphviz DOT"
    )
    parser.add_argument(
        "--clg-dot", metavar="FILE", help="write the CLG as Graphviz DOT"
    )
    parser.add_argument(
        "--simulate",
        type=int,
        metavar="RUNS",
        help="additionally run RUNS seeded concrete executions",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print sync graph / CLG size metrics and cost bounds",
    )
    parser.add_argument(
        "--confirm",
        action="store_true",
        help=(
            "escalate possible-deadlock reports to a bounded exact "
            "search: confirm with a concrete schedule or refute"
        ),
    )
    parser.add_argument(
        "--suggest-fixes",
        action="store_true",
        help=(
            "on a possible-deadlock verdict, synthesize candidate "
            "edits from the cycle evidence, certify each by "
            "re-analysis (with bounded exact escalation), and print "
            "the ranked fixes as unified diffs; with --json the "
            "report gains a 'repair' key, with --sarif the certified "
            "fixes are attached to the deadlock diagnostics as SARIF "
            "fix objects"
        ),
    )
    parser.add_argument(
        "--max-fixes",
        type=int,
        default=5,
        metavar="N",
        help=(
            "with --suggest-fixes, keep at most N ranked certified "
            "fixes (default: 5)"
        ),
    )
    parser.add_argument(
        "--state-limit",
        type=_positive_int,
        default=200_000,
        help=(
            "state budget for bounded exact searches — both "
            "--algorithm exact and --confirm (default: 200000)"
        ),
    )
    parser.add_argument(
        "--strategy",
        default="bfs",
        choices=["bfs", "astar", "beam"],
        help=(
            "expansion order for bounded exact searches (--algorithm "
            "exact, --confirm, --suggest-fixes escalation): bfs "
            "(default), astar guided by the admissible future-cost "
            "table, or beam (see --beam-width); guided strategies "
            "never change exhaustive verdicts, only how far a state "
            "budget reaches"
        ),
    )
    parser.add_argument(
        "--beam-width",
        type=int,
        metavar="N",
        help=(
            "with --strategy beam, states kept per depth layer "
            "(default: 1024); a truncated beam counts as a limited "
            "search"
        ),
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help=(
            "run the lint rules instead of the analysis pipeline: "
            "source-located diagnostics, no verdict; with --batch, "
            "lint every item alongside the analysis and report "
            "per-rule diagnostic counts"
        ),
    )
    parser.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning", "note"],
        help=(
            "lint severity threshold for a non-zero exit code "
            "(default: error)"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help=(
            "write a SARIF 2.1.0 report to FILE (lint diagnostics; "
            "with --suggest-fixes, certified fixes are attached to "
            "the deadlock diagnostics)"
        ),
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        default="",
        help=(
            "with --lint, comma-separated rule ids or names to skip "
            "(e.g. ADL009,coupling-cycle)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default="",
        help="with --lint, run only these comma-separated rules",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help=(
            "batch mode: analyze every matched source through the "
            "parallel farm with content-addressed result caching"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help=(
            "with --batch, worker processes to run (default: CPU "
            "count; 1 = serial in-process fallback)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "with --batch, result cache directory (default: "
            "$REPRO_CACHE_DIR or ~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --batch, disable the result cache entirely",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help=(
            "with --batch, per-item wall-clock budget; overruns are "
            "reported as timeout without aborting the run (needs "
            "--jobs > 1)"
        ),
    )
    parser.add_argument(
        "--jsonl-out",
        metavar="FILE",
        help=(
            "with --batch, stream the report to FILE as JSON lines: "
            "one record per item plus a final summary record"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable observability and print the timed span tree of the "
            "run (to stderr when combined with --json)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help=(
            "enable observability and write the metrics snapshot to "
            "FILE: Prometheus text format if FILE ends in .prom, "
            "JSON otherwise"
        ),
    )
    return parser


def _report_json(
    result, simulation, confirmation=None, stats=False, metrics=None,
    repair=None,
) -> str:
    from .reporting import analysis_result_to_dict

    payload = analysis_result_to_dict(
        result, simulation, confirmation, metrics, repair
    )
    if stats:
        from .syncgraph.metrics import compute_metrics

        # Graph size metrics share the "metrics" key with the obs
        # snapshot; key sets are disjoint, so merge rather than replace.
        payload.setdefault("metrics", {}).update(
            compute_metrics(result.sync_graph).to_dict()
        )
    return render_json(payload)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (anything else exits 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return value


def _check_strategy(args) -> Optional[str]:
    """Strategy/beam-width combo error, or None when valid.

    Checked once up front so every mode (one-shot, --confirm, batch)
    rejects a bad combination with exit code 2 before any work runs.
    """
    try:
        validate_strategy(args.strategy, args.beam_width)
    except ValueError as exc:
        return str(exc)
    return None


def _chatter(args, *values, **kwargs) -> None:
    """Print human-readable chatter without dirtying JSON stdout.

    The single routing point for anything that is not the machine
    payload: in ``--json`` mode it goes to stderr (stdout carries
    exactly one parseable document), otherwise to stdout.  New
    informational output must go through here, never bare ``print``.
    """
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(*values, file=stream, **kwargs)


def _split_rules(spec: str) -> List[str]:
    return [token.strip() for token in spec.split(",") if token.strip()]


def _suggest_fixes(args, result=None, prepared=None):
    """Run the repair pipeline on ``result`` (else on ``prepared``'s
    analysis); ``None`` when the program never reaches a verdict (the
    caller's lint diagnostics already explain why)."""
    from .repair import suggest_repairs

    algorithm = args.algorithm if args.algorithm != "exact" else "refined"
    try:
        if result is None:
            result = analyze_prepared(
                prepared, algorithm=algorithm, state_limit=args.state_limit
            )
        return suggest_repairs(
            algorithm=algorithm,
            state_limit=args.state_limit,
            max_fixes=args.max_fixes,
            result=result,
            strategy=args.strategy,
            beam_width=args.beam_width,
        )
    except ReproError:
        return None


def _write_metrics(args, session) -> Optional[dict]:
    """The obs snapshot of ``session`` (``None`` when obs was off),
    also written to ``--metrics-out``."""
    if session is None:
        return None
    from .obs.export import session_to_dict, session_to_prometheus

    snapshot = session_to_dict(session)
    if args.metrics_out:
        out = Path(args.metrics_out)
        if out.suffix.lower() == ".prom":
            out.write_text(session_to_prometheus(session))
        else:
            out.write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def _lint_main(args, source: str, source_path: str) -> int:
    from .lang.parser import parse_program
    from .lint import (
        RepairAttachment,
        lint_to_dict,
        render_text,
        run_lint,
        sarif_report,
    )

    session = obs.enable() if (args.trace or args.metrics_out) else None
    try:
        # One parse and one front half serve lint, repair and SARIF;
        # without repair, lint prepares the program itself.
        program = parse_program(source)
        prepared = None
        if args.suggest_fixes:
            try:
                prepared = prepare(program)
            except ReproError:
                pass  # no verdict to repair; lint degrades on its own
        result = run_lint(
            program,
            source=source,
            path=source_path if source_path != "-" else "stdin",
            disable=_split_rules(args.disable),
            select=_split_rules(args.select) or None,
            prepared=prepared,
        )
        repair = (
            _suggest_fixes(args, prepared=prepared)
            if prepared is not None
            else None
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # unknown rule name in --disable/--select
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    finally:
        if session is not None:
            obs.disable()

    if args.sarif:
        repairs = None
        if repair is not None and repair.fixed:
            repairs = {
                result.path: RepairAttachment(
                    program=program, report=repair, source=source
                )
            }
        doc = sarif_report([result], repairs=repairs)
        Path(args.sarif).write_text(json.dumps(doc, indent=2) + "\n")

    snapshot = _write_metrics(args, session)

    if args.json:
        payload = lint_to_dict(result)
        if repair is not None:
            from .reporting import repair_report_to_dict

            payload["repair"] = repair_report_to_dict(
                repair, original=program
            )
        if snapshot is not None:
            payload["metrics"] = snapshot
        print(render_json(payload))
    else:
        print(render_text(result))
        if repair is not None:
            print(repair.describe())
    if args.trace and session is not None:
        _chatter(args, session.tracer.render())

    return 1 if result.fails(args.fail_on) else 0


def _batch_main(args) -> int:
    from .errors import ReproError as _ReproError
    from .farm.runner import collect_sources, run_batch

    session = obs.enable() if (args.trace or args.metrics_out) else None
    try:
        pairs = collect_sources(args.sources)
        report = run_batch(
            pairs,
            algorithm=args.algorithm,
            state_limit=args.state_limit,
            jobs=args.jobs,
            timeout=args.timeout,
            cache=False if args.no_cache else (args.cache_dir or True),
            lint=args.lint,
            strategy=args.strategy,
            beam_width=args.beam_width,
        )
    except _ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if session is not None:
            obs.disable()

    if args.jsonl_out:
        Path(args.jsonl_out).write_text(report.to_jsonl())

    snapshot = _write_metrics(args, session)

    if args.json:
        payload = report.to_dict()
        if snapshot is not None:
            payload["metrics"] = snapshot
        print(render_json(payload))
    else:
        print(report.describe())
    if args.trace and session is not None:
        _chatter(args, session.tracer.render())

    return 0 if report.deadlock_free else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # The daemon has its own option surface; hand off before the
        # one-shot parser can reject its flags.  ``repro serve`` ==
        # ``python -m repro.server``.
        from .server.__main__ import main as serve_main

        return serve_main(argv[1:])
    args = build_arg_parser().parse_args(argv)
    strategy_error = _check_strategy(args)
    if strategy_error is not None:
        print(f"error: {strategy_error}", file=sys.stderr)
        return 2
    if args.batch:
        return _batch_main(args)
    if len(args.sources) > 1:
        print(
            "error: multiple sources require --batch", file=sys.stderr
        )
        return 2
    source_path = args.sources[0]
    if source_path == "-":
        source = sys.stdin.read()
    else:
        path = Path(source_path)
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2
        source = path.read_text()

    if args.lint:
        return _lint_main(args, source, source_path)

    session = (
        obs.enable() if (args.trace or args.metrics_out) else None
    )
    try:
        # One parse and one front half serve analysis, repair and SARIF.
        prepared = prepare(source)
        result = analyze_prepared(
            prepared,
            algorithm=args.algorithm,
            state_limit=args.state_limit,
            strategy=args.strategy,
            beam_width=args.beam_width,
        )
        simulation = (
            sample_runs(result.program, runs=args.simulate)
            if args.simulate
            else None
        )
        confirmation = (
            confirm_analysis(
                result,
                state_limit=args.state_limit,
                    strategy=args.strategy,
                beam_width=args.beam_width,
            )
            if args.confirm
            else None
        )
        repair = _suggest_fixes(args, result) if args.suggest_fixes else None
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if session is not None:
            obs.disable()

    if args.dot:
        Path(args.dot).write_text(sync_graph_to_dot(result.sync_graph))
    if args.clg_dot:
        clg = build_clg(result.sync_graph)
        Path(args.clg_dot).write_text(clg_to_dot(clg))
    if args.sarif:
        from .lint import RepairAttachment, run_lint, sarif_report

        lint_result = run_lint(
            result.program,
            source=source,
            path=source_path if source_path != "-" else "stdin",
            prepared=prepared,
        )
        repairs = None
        if repair is not None and repair.fixed:
            repairs = {
                lint_result.path: RepairAttachment(
                    program=result.program, report=repair, source=source
                )
            }
        doc = sarif_report([lint_result], repairs=repairs)
        Path(args.sarif).write_text(json.dumps(doc, indent=2) + "\n")

    snapshot = _write_metrics(args, session)

    if args.json:
        print(
            _report_json(
                result, simulation, confirmation, args.stats, snapshot,
                repair,
            )
        )
    else:
        print(result.describe())
        if args.stats:
            from .syncgraph.metrics import compute_metrics

            print(compute_metrics(result.sync_graph).describe())
        if simulation is not None:
            print(f"simulation: {simulation.describe()}")
        if confirmation is not None:
            print(f"confirmation: {confirmation.outcome}")
            if confirmation.witness is not None:
                print(confirmation.witness.describe())
        if repair is not None:
            from .repair import unified_fix_diff

            print(repair.describe())
            for fix in repair.fixes:
                print()
                diff = unified_fix_diff(
                    result.program, fix, path=source_path
                )
                print(diff, end="" if diff.endswith("\n") else "\n")
    if args.trace and session is not None:
        _chatter(args, session.tracer.render())

    certified = (
        confirmation.final_verdict == "certified-deadlock-free"
        if confirmation is not None
        else result.deadlock.deadlock_free
    )
    return 0 if certified else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
