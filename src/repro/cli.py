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
from .api import ALGORITHMS, AnalysisResult, analyze_prepared, prepare
from .errors import ReproError
from .interp.runtime import sample_runs
from .reporting import analysis_result_to_dict, render_json
from .syncgraph.clg import build_clg
from .syncgraph.dot import clg_to_dot, sync_graph_to_dot
from .syncgraph.metrics import compute_metrics
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
        help=(
            "with --lint, comma-separated rule ids or names to skip "
            "(e.g. ADL009,coupling-cycle)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
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


# The flags each mode has no use for: a run that names one is refused
# before any work runs, rather than dropping the flag in silence.
_BATCH_ONLY = ("jobs", "cache_dir", "no_cache", "timeout", "jsonl_out")
_LINT_ONLY = ("disable", "select", "fail_on")
_UNSUPPORTED = {
    "batch": (
        "dot", "clg_dot", "simulate", "stats", "confirm", "sarif",
        "suggest_fixes", *_LINT_ONLY,
    ),
    "lint": ("dot", "clg_dot", "simulate", "stats", "confirm", *_BATCH_ONLY),
}
# Flags read only with another flag: (that flag, the flags it enables).
_NEEDS = (
    ("batch", _BATCH_ONLY),
    ("lint", _LINT_ONLY),
    ("suggest_fixes", ("max_fixes",)),
)


def _unsupported_flag(args) -> Optional[str]:
    """The first flag given that the chosen mode would drop, if any.

    Every flag a mode may drop defaults to ``None`` (or ``False``), so
    any other value means it was given."""

    def given(dest: str) -> bool:
        value = getattr(args, dest)
        return value is not None and value is not False

    def flag(dest: str) -> str:
        return "--" + dest.replace("_", "-")

    mode = "batch" if args.batch else "lint" if args.lint else None
    for dest in _UNSUPPORTED.get(mode, ()):
        if given(dest):
            return f"{flag(dest)} is not supported with --{mode}"
    for owner, dests in _NEEDS:
        if not getattr(args, owner):
            for dest in dests:
                if given(dest):
                    return (
                        f"{flag(dest)} is not supported without "
                        f"{flag(owner)}"
                    )
    return None


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


def _lint_path(args) -> str:
    return args.sources[0] if args.sources[0] != "-" else "stdin"


def _repair_algorithm(args) -> str:
    return args.algorithm if args.algorithm != "exact" else "refined"


def _suggest_fixes(args, result: AnalysisResult):
    """The repair report of ``result``, or ``None`` when repair fails
    (the rest of the output already explains why)."""
    from .repair import suggest_repairs

    try:
        return suggest_repairs(
            algorithm=_repair_algorithm(args),
            state_limit=args.state_limit,
            max_fixes=5 if args.max_fixes is None else args.max_fixes,
            result=result,
            strategy=args.strategy,
            beam_width=args.beam_width,
        )
    except ReproError:
        return None


def _write_sarif(args, lint, program, source: str, repair) -> None:
    """Write ``lint`` to ``--sarif``, with ``repair``'s certified fixes
    attached to the deadlock diagnostics."""
    from .lint import RepairAttachment, sarif_report

    repairs = None
    if repair is not None and repair.fixed:
        repairs = {
            lint.path: RepairAttachment(
                program=program, report=repair, source=source
            )
        }
    doc = sarif_report([lint], repairs=repairs)
    Path(args.sarif).write_text(json.dumps(doc, indent=2) + "\n")


def _analysis_mode(args, source: str):
    """Analysis, with ``--confirm``, ``--simulate``, ``--suggest-fixes``
    and the artifact flags: ``(payload or text, exit code)``."""
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

    if args.dot:
        Path(args.dot).write_text(sync_graph_to_dot(result.sync_graph))
    if args.clg_dot:
        Path(args.clg_dot).write_text(clg_to_dot(build_clg(result.sync_graph)))
    if args.sarif:
        from .lint import run_lint

        # Lint reads the analysis's own refined report.
        lint = run_lint(
            result.program,
            source=source,
            path=_lint_path(args),
            prepared=prepared,
        )
        _write_sarif(args, lint, result.program, source, repair)

    if args.json:
        output = analysis_result_to_dict(
            result, simulation, confirmation, repair=repair
        )
        if args.stats:
            output["metrics"] = compute_metrics(result.sync_graph).to_dict()
    else:
        lines = [result.describe()]
        if args.stats:
            lines.append(compute_metrics(result.sync_graph).describe())
        if simulation is not None:
            lines.append(f"simulation: {simulation.describe()}")
        if confirmation is not None:
            lines.append(f"confirmation: {confirmation.outcome}")
            if confirmation.witness is not None:
                lines.append(confirmation.witness.describe())
        if repair is not None:
            from .repair import unified_fix_diff

            lines.append(repair.describe())
            for fix in repair.fixes:
                diff = unified_fix_diff(
                    result.program, fix, path=args.sources[0]
                )
                lines += ["", diff.removesuffix("\n")]
        output = "\n".join(lines)
    certified = (
        confirmation.final_verdict == "certified-deadlock-free"
        if confirmation is not None
        else result.deadlock.deadlock_free
    )
    return output, 0 if certified else 1


def _lint_mode(args, source: str):
    """``--lint`` (with ``--suggest-fixes``): ``(payload or text, exit
    code)``."""
    from .lang.parser import parse_program
    from .lint import lint_to_dict, render_text, run_lint

    program = parse_program(source)
    # With repair, one front half serves lint, repair and SARIF, and
    # lint takes a failed one as final; without, lint prepares itself.
    prepared = analysis = None
    if args.suggest_fixes:
        try:
            prepared = prepare(program)
            analysis = analyze_prepared(
                prepared,
                algorithm=_repair_algorithm(args),
                state_limit=args.state_limit,
            )
        except ReproError as exc:  # no verdict to repair
            if prepared is None:
                prepared = exc
    try:
        lint = run_lint(
            program,
            source=source,
            path=_lint_path(args),
            disable=_split_rules(args.disable or ""),
            select=_split_rules(args.select or "") or None,
            prepared=prepared,
        )
    except KeyError as exc:  # an unknown rule in --disable/--select
        raise ReproError(exc.args[0]) from None
    repair = _suggest_fixes(args, analysis) if analysis is not None else None

    if args.sarif:
        _write_sarif(args, lint, program, source, repair)

    if args.json:
        output = lint_to_dict(lint)
        if repair is not None:
            from .reporting import repair_report_to_dict

            output["repair"] = repair_report_to_dict(repair, original=program)
    else:
        output = render_text(lint)
        if repair is not None:
            output += "\n" + repair.describe()
    return output, 1 if lint.fails(args.fail_on or "error") else 0


def _batch_mode(args, _source):
    """``--batch``: ``(payload or text, exit code)``."""
    from .farm.runner import collect_sources, run_batch

    report = run_batch(
        collect_sources(args.sources),
        algorithm=args.algorithm,
        state_limit=args.state_limit,
        jobs=(os.cpu_count() or 1) if args.jobs is None else args.jobs,
        timeout=args.timeout,
        cache=False if args.no_cache else (args.cache_dir or True),
        lint=args.lint,
        strategy=args.strategy,
        beam_width=args.beam_width,
    )
    if args.jsonl_out:
        Path(args.jsonl_out).write_text(report.to_jsonl())
    output = report.to_dict() if args.json else report.describe()
    return output, 0 if report.deadlock_free else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # The daemon has its own option surface; hand off before the
        # one-shot parser can reject its flags.  ``repro serve`` ==
        # ``python -m repro.server``.
        from .server.__main__ import main as serve_main

        return serve_main(argv[1:])
    args = build_arg_parser().parse_args(argv)
    # Checked up front so every mode rejects a bad strategy/beam-width
    # combination, or a flag it would drop, with exit code 2 before any
    # work runs.
    try:
        validate_strategy(args.strategy, args.beam_width)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unsupported = _unsupported_flag(args)
    if unsupported is not None:
        print(f"error: {unsupported}", file=sys.stderr)
        return 2
    source = None
    if not args.batch:
        if len(args.sources) > 1:
            print(
                "error: multiple sources require --batch", file=sys.stderr
            )
            return 2
        if args.sources[0] == "-":
            source = sys.stdin.read()
        else:
            path = Path(args.sources[0])
            if not path.exists():
                print(f"error: no such file: {path}", file=sys.stderr)
                return 2
            source = path.read_text()

    mode = (
        _batch_mode
        if args.batch
        else _lint_mode if args.lint else _analysis_mode
    )
    # One observed window covers the whole request: analysis, lint,
    # repair, SARIF and the other artifacts.
    session = obs.enable() if (args.trace or args.metrics_out) else None
    try:
        output, code = mode(args, source)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if session is not None:
            obs.disable()

    if session is not None:
        from .obs.export import session_to_dict, session_to_prometheus

        snapshot = session_to_dict(session)
        if args.metrics_out:
            out = Path(args.metrics_out)
            out.write_text(
                session_to_prometheus(session)
                if out.suffix.lower() == ".prom"
                else json.dumps(snapshot, indent=2) + "\n"
            )
        if args.json:
            # --stats graph metrics share the key; the sets are
            # disjoint, and the snapshot's keys come first.
            output["metrics"] = {**snapshot, **output.get("metrics", {})}
    try:
        print(render_json(output) if args.json else output)
        if args.trace:
            _chatter(args, session.tracer.render())
    except BrokenPipeError:
        # The reader left (``| head``).  Point stdout at the null
        # device, so the interpreter's exit flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
