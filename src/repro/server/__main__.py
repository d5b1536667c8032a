"""Entry point: ``python -m repro.server`` / ``repro serve``.

Stdio is the wire, so *nothing* else may touch stdout — startup notes
and shutdown summaries go to stderr (and only with ``--verbose``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import obs
from ..farm.cache import ResultCache
from .daemon import DEFAULT_QUEUE_SIZE, DEFAULT_WORKERS, AnalysisServer
from .httpd import parse_hostport, serve_http
from .session import Session

__all__ = ["build_arg_parser", "main"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Long-lived analysis daemon: newline-delimited JSON "
            "requests on stdin, one JSON response per line on stdout. "
            "See docs/SERVER.md for the protocol."
        ),
    )
    parser.add_argument(
        "--http",
        metavar="HOST:PORT",
        help=(
            "serve HTTP on this address instead of stdio "
            "(POST /rpc, GET /status)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "content-addressed result store for warm restarts "
            "(default: the farm cache directory; see REPRO_CACHE_DIR)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="memory-only: skip the on-disk result store entirely",
    )
    parser.add_argument(
        "--lru-entries",
        type=int,
        default=256,
        metavar="N",
        help="resident result LRU capacity (default: 256)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=DEFAULT_QUEUE_SIZE,
        metavar="N",
        help=(
            "bounded request queue depth; overflow answers "
            f"SERVER_BUSY (default: {DEFAULT_QUEUE_SIZE})"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help=(
            "worker threads serving requests concurrently; more than "
            "one keeps short requests from waiting behind long ones "
            f"(default: {DEFAULT_WORKERS} — strict arrival order)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "enable the obs layer so 'status' responses include "
            "server.* counters and gauges"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="startup/shutdown notes on stderr (stdout stays protocol-pure)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.no_store:
        store = None
    elif args.cache_dir:
        store = ResultCache(cache_dir=args.cache_dir)
    else:
        store = ResultCache()
    if args.workers < 1:
        print("repro serve: --workers must be >= 1", file=sys.stderr)
        return 2
    session = Session(store=store, lru_entries=args.lru_entries)
    server = AnalysisServer(
        session=session, queue_size=args.queue_size, workers=args.workers
    )
    if args.metrics:
        obs.enable()
    if args.verbose:
        where = args.http if args.http else "stdio"
        print(
            f"repro server: protocol 1, {where}, "
            f"workers={args.workers}, "
            f"store={'off' if store is None else store.cache_dir}",
            file=sys.stderr,
        )
    try:
        if args.http:
            host, port = parse_hostport(args.http)
            code = serve_http(server, host=host, port=port)
        else:
            code = server.serve()
    finally:
        if args.verbose:
            print(
                f"repro server: stopped, flushed "
                f"{server.flushed or 0} result(s)",
                file=sys.stderr,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
