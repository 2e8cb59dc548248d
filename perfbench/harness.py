"""Timing machinery shared by every workload: spans, fastest-call timing,
fresh-process set-up probes and per-call peak memory.

The host this benchmark was tuned on drifts in speed by tens of percent
over a few seconds, while CPU time tracks wall time. A single timed call
therefore measures the host as much as the program. Every timing here is
the fastest of many short calls spread over the run, taken round-robin
over the miners so that each one sees the same host conditions.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable


class Tracer:
    """In-memory span recorder: (name, start, end, parent, run id).

    ``span`` is a context manager placed by the harness around each call
    into a layer's public function. Spans stay in memory and are written
    once by :meth:`write` at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: int):
        idx = len(self.spans)
        rec = dict(
            name=name, start=time.perf_counter(), end=None,
            parent=self._stack[-1] if self._stack else None, run=run,
        )
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _roots_and_self_times(self) -> tuple[list[str], list[float]]:
        roots: list[str] = []
        child = [0.0] * len(self.spans)
        for s in self.spans:
            p = s["parent"]
            roots.append(s["name"] if p is None else roots[p])
            if p is not None:
                child[p] += s["end"] - s["start"]
        return roots, [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def fastest(self, root: str, name: str | None = None) -> float:
        """Fastest run's time of span ``name`` under root span ``root``.

        A layer's time in one run is the summed self time (duration minus
        the time its child spans cover) of its spans there; with ``name``
        None it is the root span's full duration. 0.0 when never recorded,
        i.e. the layer is idle on this workload.
        """
        roots, self_times = self._roots_and_self_times()
        per_run: dict[int, float] = {}
        for s, r, st in zip(self.spans, roots, self_times):
            if name is None and s["parent"] is None and s["name"] == root:
                per_run[s["run"]] = per_run.get(s["run"], 0.0) + s["end"] - s["start"]
            elif name is not None and r == root and s["name"] == name:
                per_run[s["run"]] = per_run.get(s["run"], 0.0) + st
        return min(per_run.values()) if per_run else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def no_span(name: str, run: int):
    """Stand-in for :meth:`Tracer.span` on untraced calls."""
    return nullcontext()


@dataclass
class Task:
    """One call site in the round-robin, with its timings and failures.

    ``call`` returns the output that ``check`` validates; ``check``
    returns an error message, or None when the output is right.
    """

    name: str
    call: Callable[[int], object]
    check: Callable[[object], str | None]
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, run_id: int) -> None:
        """One timed call; the output check runs after the clock stops."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.call(run_id)
            dt = time.perf_counter() - t0
            err = self.check(out)
        except Exception as exc:  # a failing call is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        if err is None:
            self.times.append(dt)
        else:
            self.failed += 1
            self.errors.append(f"{self.name}: {err}")

    def best(self) -> float:
        if not self.times:
            raise RuntimeError("no successful timed call: " + "; ".join(self.errors[:3]))
        return min(self.times)

    def p50(self) -> float:
        return statistics.median(self.times)


def round_robin(
    tasks: list[Task],
    seconds: float,
    interludes: list[tuple[float, Callable[[], None]]] = (),
) -> int:
    """Run rounds of ``tasks`` until ``seconds`` have passed; return rounds.

    ``interludes`` are (fraction of the window, action) pairs run between
    rounds once their time has come, e.g. set-up probes, so that they are
    spread across the run and never overlap a timed call. Those at 0 run
    before the window opens and those at 1 after it closes.
    """
    pending = sorted(interludes, key=lambda p: p[0])
    while pending and pending[0][0] <= 0.0:
        pending.pop(0)[1]()
    start = time.perf_counter()
    end = start + seconds
    rounds = 0
    while True:
        now = time.perf_counter()
        while pending and now >= start + pending[0][0] * seconds:
            pending.pop(0)[1]()
            now = time.perf_counter()
        if now >= end:
            break
        for t in tasks:
            t.run(rounds)
        rounds += 1
    for _, action in pending:
        action()
    return rounds


def probe_setup(args: list[str], timeout: float = 150.0) -> float:
    """Set-up time a fresh interpreter running ``args`` reports.

    The child prints ``ready <seconds>`` once the program could take its
    first call; it is then told to exit and is waited for, so no process
    outlives the probe.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        word, _, seconds = proc.stdout.readline().partition(" ")
        if word != "ready":
            raise RuntimeError("set-up probe failed before it was ready")
        proc.stdin.close()
        proc.wait(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        return float(seconds)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _status_kib(field_name: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} not in /proc/self/status")


def peak_rss_growth_mb(call: Callable[[], object]) -> float:
    """Peak RSS growth of one ``call``, run alone in a forked child, in MiB.

    A forked child starts with its high-water mark at its current RSS, so
    ``VmHWM`` after the call minus ``VmRSS`` before it is what the call
    added, and one miner's peak cannot hide another's. Fork before the
    first mining call (so little freed memory is left for the call to
    reuse unseen) and before any thread is started.
    """
    gc.collect()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, report, and leave without cleanup
        code = 1
        try:
            os.close(r)
            before = _status_kib("VmRSS")
            call()
            os.write(w, str(_status_kib("VmHWM") - before).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"peak-memory child failed (wait status {status})")
    return int(data) / 1024.0


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux ``prctl``).

    A process that a child starts and leaves behind, such as a Python
    worker a JVM forks, becomes this process's child when its parent
    ends, so :func:`reap_children` can wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # ended meanwhile
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            out.append(int(entry))
    return out


def reap_children(grace: float = 30.0) -> None:
    """Wait until this process has no child left; kill those alive after ``grace`` s.

    With :func:`become_subreaper` this covers every descendant, as the
    orphans of a child that ends become children here.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
