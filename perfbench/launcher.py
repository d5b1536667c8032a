"""Traced daemon launcher: ``repro serve`` with the benchmark's wrappers.

    python3 perfbench/launcher.py OUT.json [repro serve args...]

Installs the same layer wrappers as the in-process traced runs, records
when each request reaches the scheduler and when a worker takes it, and
serves exactly as ``python -m repro.server`` does.  On shutdown it
writes the spans, the queue waits and the number of spans repro's own
tracer retained to ``OUT.json``.  A worker's spans carry the id of the
request it is serving; the stdio reader's decode spans carry none.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    out_path, serve_args = Path(argv[0]), argv[1:]
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import Tracer
    from repro import obs
    from repro.server import __main__ as server_main
    from repro.server.scheduler import FairScheduler

    tracer = Tracer()
    tracer.install()
    submitted = {}
    waits = []
    lock = threading.Lock()
    submit, take = FairScheduler.submit, FairScheduler.take

    def timed_submit(self, entry):
        with lock:
            submitted[id(entry)] = time.perf_counter()
        return submit(self, entry)

    def timed_take(self):
        entry = take(self)
        if entry is not None:
            with lock:
                begin = submitted.pop(id(entry), None)
            if begin is not None:
                waits.append(
                    (entry.request.id, time.perf_counter() - begin)
                )
            # The worker's spans, reply write included, belong to this
            # request until it takes the next one.
            tracer.op = entry.request.id
        return entry

    FairScheduler.submit = timed_submit
    FairScheduler.take = timed_take
    try:
        code = server_main.main(serve_args)
    finally:
        session = obs.current()
        retained = (
            sum(1 for _ in session.tracer.all_spans()) if session else 0
        )
        out_path.write_text(
            json.dumps(
                {
                    "spans": tracer.records,
                    "queue_waits": waits,
                    "obs_spans_retained": retained,
                }
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
