"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload cold_corpus --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``cold_corpus`` (one-shot certification), ``exact_confirm``
(escalation to exact search) and ``daemon_session`` (the editor daemon
over stdio, monitored).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  A ``census`` line with the run's facts precedes the result,
which is always the last stdout line.  A wrong answer exits 1 without a
result; a checkout without repro's sources exits 2.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_corpus", "exact_confirm", "daemon_session")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def terminate(signum, frame) -> None:
    # A second signal must not cut the teardown of the first short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    # Import repro from this checkout, and never shadow the standard
    # library with a module of this directory.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, workloads

    # A terminated run still tears its daemons down (finally blocks).
    signal.signal(signal.SIGTERM, terminate)
    try:
        if args.seconds <= 0:
            raise SystemExit("perfbench: --seconds must be positive")
        return workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except common.WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(common.RUN_DIR, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
