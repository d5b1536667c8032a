"""A ``repro serve`` daemon over stdio, run and torn down by the
benchmark.

The daemon runs in its own process group.  Timed requests fork pool
workers that can outlive it, so teardown kills the whole group after a
bounded wait and checks that no process survives.  The benchmark
process makes itself a child subreaper, so those orphans are reparented
to it and reaped here rather than left to init.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .common import ROOT, child_env

REPLY_TIMEOUT_S = 60.0  # a reply slower than this means a hung daemon
SHUTDOWN_GRACE_S = 3.0
PR_SET_CHILD_SUBREAPER = 36


class DaemonError(RuntimeError):
    """The daemon died, hung, or left processes behind."""


def become_subreaper() -> None:
    """Reparent orphaned descendants to this process (Linux only)."""
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


class _Slot:
    __slots__ = ("event", "reply", "received_at")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Optional[Dict[str, Any]] = None
        self.received_at = 0.0


def serve_argv(store_dir: Path, launcher_out: Optional[Path] = None) -> List[str]:
    """``repro serve`` at its defaults (one worker, 256-entry LRU) with a
    disk store and ``--metrics``, as a monitored service runs; through
    the benchmark's tracing launcher when ``launcher_out`` is given."""
    args = ["--cache-dir", str(store_dir), "--metrics"]
    if launcher_out is None:
        return [sys.executable, "-m", "repro.server", *args]
    launcher = Path(__file__).with_name("launcher.py")
    return [sys.executable, str(launcher), str(launcher_out), *args]


class Daemon:
    """One daemon process and the client side of its stdio connection.

    Requests from several client threads share the connection; replies
    are matched to requests by id on a reader thread.
    """

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self._log = open(log_path, "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=ROOT,
            env=child_env(),
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.bytes_read = 0
        self.peak_rss_mb = 0.0
        self._ids = itertools.count(1)
        self._pending: Dict[int, _Slot] = {}
        self._pending_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            now = time.perf_counter()
            self.bytes_read += len(line)
            reply = json.loads(line)
            with self._pending_lock:
                slot = self._pending.pop(reply.get("id"), None)
            if slot is not None:
                slot.reply = reply
                slot.received_at = now
                slot.event.set()
        with self._pending_lock:
            slots, self._pending = list(self._pending.values()), {}
        for slot in slots:
            slot.event.set()

    def call(
        self, requests: Sequence[Tuple[str, Dict[str, Any]]],
        client: Optional[str] = None,
    ) -> Tuple[List[Dict[str, Any]], List[int], float, float]:
        """Send ``requests`` back to back, as an editor does, and wait
        for every reply.  Returns the replies, their ids, the time the
        first request was written and the time the last reply was read.
        """
        slots, ids, lines = [], [], []
        for method, params in requests:
            rid = next(self._ids)
            slot = _Slot()
            with self._pending_lock:
                self._pending[rid] = slot
            message: Dict[str, Any] = {"id": rid, "method": method}
            if params:
                message["params"] = params
            if client is not None:
                message["client"] = client
            lines.append(json.dumps(message))
            slots.append(slot)
            ids.append(rid)
        data = ("\n".join(lines) + "\n").encode()
        assert self.proc.stdin is not None
        with self._write_lock:
            started = time.perf_counter()
            try:
                self.proc.stdin.write(data)
                self.proc.stdin.flush()
            except (BrokenPipeError, ValueError) as exc:
                raise DaemonError(f"daemon stdin closed: {exc}") from None
        replies = []
        for slot in slots:
            if not slot.event.wait(REPLY_TIMEOUT_S) or slot.reply is None:
                raise DaemonError("daemon gave no reply")
            replies.append(slot.reply)
        return replies, ids, started, max(s.received_at for s in slots)

    def ping_span(self) -> Tuple[float, float]:
        """``(spawn, first answered ping)`` as perf_counter times."""
        replies, _, _, done = self.call([("ping", {})])
        if not replies[0].get("result", {}).get("pong"):
            raise DaemonError(f"bad ping reply {replies[0]}")
        return self.spawned_at, done

    def stop(self) -> None:
        """Shut down, then kill the process group; untimed.

        Raises :class:`DaemonError` if any process of the group is
        still alive afterwards.
        """
        # A client thread stuck in a write must not hold teardown up.
        if self._write_lock.acquire(timeout=SHUTDOWN_GRACE_S):
            try:
                assert self.proc.stdin is not None
                self.proc.stdin.write(b'{"id": 0, "method": "shutdown"}\n')
                self.proc.stdin.close()
            except (BrokenPipeError, ValueError, OSError):
                pass
            finally:
                self._write_lock.release()
        status = self._wait(SHUTDOWN_GRACE_S)
        if status is None:
            self._killpg()
            status = self._wait(None)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # Forked pool workers share the group and may outlive the daemon.
        self._killpg()
        deadline = time.monotonic() + 5.0
        while True:
            _reap_orphans()
            try:
                os.killpg(self.pgid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                raise DaemonError(
                    f"processes of group {self.pgid} survived teardown"
                )
            time.sleep(0.05)
        self._reader.join(5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def _wait(self, timeout: Optional[float]) -> Optional[int]:
        """Wait for the daemon; record its peak RSS from ``wait4``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            flags = 0 if deadline is None else os.WNOHANG
            pid, status, usage = os.wait4(self.proc.pid, flags)
            if pid == self.proc.pid:
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                return status
            if time.monotonic() > deadline:
                return None
            time.sleep(0.02)

    def _killpg(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _reap_orphans() -> None:
    """Reap exited descendants reparented to this subreaper."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
