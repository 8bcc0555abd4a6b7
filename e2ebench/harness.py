"""Run mechanics shared by the workloads: clock, latency figures, trace.

Nothing here touches the program under test.  The workloads time their
calls into it with :class:`TimedPhase`, record spans with
:class:`Tracer` in the traced mode, and hand the figures to
:func:`result_line`.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

#: Checkout root: the directory holding ``e2ebench/``.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK_DIR = ROOT / ".e2ebench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Speed probes taken before each set-up and after the last one.
SETUP_PROBES = 3
#: Seconds of timed phase between two speed probes.
PROBE_EVERY_S = 0.1
#: An operation's local speed is the median of this many probes on
#: either side of it.
LOCAL_PROBES = 2
#: Operations per chunk of the latency record, and the record's types:
#: latency in seconds, probes taken before the operation.
RECORD_CHUNK = 1 << 16
_RECORD_TYPES = (np.float32, np.uint32)
#: Seconds one unit of :func:`reference_work` takes at the reference
#: speed: about the median of its probes on the machine the README's
#: figures come from, in one of its fast stretches.
REFERENCE_S = 0.0043
_REFERENCE_DATA = np.random.default_rng(20250101).random(20_000)
_REFERENCE_BYTES = _REFERENCE_DATA[:5_000].tobytes()


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU.

    With the client, the query server and the engine's threads spread
    over two CPUs, each hand-off between them crossed CPUs and the
    figures swung with the load on the other CPU (see README); on one
    CPU they repeat far better.  Call before any thread is started.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parallelism() -> int:
    """Engine threads: the CPUs this process may use, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@contextmanager
def run_directory():
    """An empty temporary directory in the checkout, removed at the end."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def reference_work() -> float:
    """Seconds one fixed unit of work takes on this machine right now.

    The unit shares no code with the program: a numpy sort and prefix
    sum, a JSON encoding of floats, an interpreter loop over a dict, and
    eight small files written and renamed in the checkout, the kinds of
    work the program's operations are made of.  A change to the program
    cannot move it; a change in the machine's own speed moves it with
    the program (see README, "Machine speed").
    """
    started = time.perf_counter()
    order = np.argsort(_REFERENCE_DATA, kind="stable")
    total = np.cumsum(_REFERENCE_DATA[order])
    json.dumps(total[:2000].tolist())
    counts: dict = {}
    for i in range(5_000):
        key = i % 997
        counts[key] = counts.get(key, 0.0) + i * 0.5
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"probe-{os.getpid()}"
    for _ in range(8):
        with open(path.with_suffix(".tmp"), "wb") as handle:
            handle.write(_REFERENCE_BYTES)
        os.replace(path.with_suffix(".tmp"), path)
    path.unlink()
    return time.perf_counter() - started


def speed(probes) -> float:
    """Machine speed over ``probes`` relative to the reference speed.

    A figure measured in seconds times this is the figure at the
    reference speed; 0.5 means the machine ran at half of it.
    """
    return REFERENCE_S / statistics.median(probes)


class TimedPhase:
    """Wall clock of the timed phase, minus the benchmark's own checks.

    Work inside :meth:`untimed` (output checks, clean-up between
    operations) neither counts toward ``--seconds`` nor toward
    ``ops_per_s``.  :meth:`probe_if_due`, called between operations and
    on leaving every untimed block, takes an untimed speed probe
    (:func:`reference_work`) once per ``PROBE_EVERY_S`` of timed phase,
    so the probes follow the machine's speed through the whole run.

    :meth:`record` keeps each successful operation's latency (float32)
    and the number of probes taken before it (uint32) in chunks of
    ``RECORD_CHUNK`` operations: eight bytes per operation, allocated a
    chunk at a time and never copied, so the record of a long run
    barely moves ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self.count = 0
        self._chunks: list = []
        self.probes = array("d", [reference_work()])
        self._start = time.perf_counter()
        self._paused = 0.0
        self._next_probe = PROBE_EVERY_S

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    def stop(self) -> None:
        """End the timed phase: ``timed`` is its length in seconds."""
        self.timed = self.elapsed()

    def record(self, started: float, ended: float) -> None:
        index = self.count % RECORD_CHUNK
        if index == 0:
            self._chunks.append(tuple(np.empty(RECORD_CHUNK, kind)
                                      for kind in _RECORD_TYPES))
        latencies, slots = self._chunks[-1]
        latencies[index] = ended - started
        slots[index] = len(self.probes)
        self.count += 1

    def _recorded(self, column: int) -> np.ndarray:
        parts = [chunk[column] for chunk in self._chunks]
        if not parts:
            return np.empty(0, _RECORD_TYPES[column])
        return np.concatenate(parts)[:self.count]

    def probe_if_due(self) -> None:
        if self.elapsed() >= self._next_probe:
            started = time.perf_counter()
            self.probes.append(reference_work())
            self._next_probe += PROBE_EVERY_S
            self._paused += time.perf_counter() - started

    @contextmanager
    def untimed(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started
        self.probe_if_due()

    def local_speeds(self) -> np.ndarray:
        """Each operation's machine speed: ``speed`` of the probes near it.

        An operation between probes ``s - 1`` and ``s`` takes the median
        of probes ``s - LOCAL_PROBES`` to ``s + LOCAL_PROBES - 1``: the
        fifth of a second of timed phase either side of it.
        """
        probes = np.frombuffer(self.probes, dtype=np.float64)
        near = np.array([
            np.median(probes[max(0, s - LOCAL_PROBES):s + LOCAL_PROBES])
            for s in range(len(probes) + 1)
        ])
        return REFERENCE_S / near[self._recorded(1)]

    def metrics(self) -> tuple:
        """``(figures as timed, figures at the reference speed)``.

        Each holds ``ops_per_s``, ``p50_ms`` and ``tail_ms`` of the
        successful operations.  At the reference speed, each latency is
        scaled by its own :meth:`local_speeds`, and so is its share of
        the timed phase; the rest of the timed phase (work between
        operations, failed operations) by the speed over all probes.
        """
        latencies = self._recorded(0).astype(np.float64)
        scaled = latencies * self.local_speeds()
        rest = (self.timed - latencies.sum()) * speed(self.probes)
        return (latency_metrics(latencies, self.timed),
                latency_metrics(scaled, scaled.sum() + rest))


def tail_index(count: int) -> int:
    """Index (ascending order) of the highest percentile with ten beyond it."""
    if count < 11:
        raise ValueError(f"{count} operations leave no tail with ten beyond it")
    return count - 11


def latency_metrics(latencies: np.ndarray, timed_seconds: float) -> dict:
    """``ops_per_s``, ``p50_ms`` and ``tail_ms`` of the given latencies."""
    ordered = np.sort(latencies)
    return {
        "ops_per_s": (len(ordered) / timed_seconds, "ops/s"),
        "p50_ms": (float(np.median(ordered)) * 1e3, "ms"),
        "tail_ms": (float(ordered[tail_index(len(ordered))]) * 1e3, "ms"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, repeats: int = SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times; keep the last, time them all.

    Each set-up starts from nothing; the previous one is closed and
    released before the next begins, so they do not stack up in memory.
    ``SETUP_PROBES`` speed probes are taken before each set-up and after
    the last, and each set-up's time is also scaled to the reference
    speed by the probes just before and after it.  Returns ``(last
    state, median set-up seconds as timed, median at the reference
    speed, median seconds spent generating inputs)``.
    """
    times = []
    generate = []
    probes = [[reference_work() for _ in range(SETUP_PROBES)]]
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
            probes[-1] += [reference_work() for _ in range(SETUP_PROBES)]
        state = None
        gc.collect()
        started = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - started)
        generate.append(state.gen.generate_seconds)
        probes.append([reference_work() for _ in range(SETUP_PROBES)])
    scaled = [took * speed(before + after)
              for took, before, after in zip(times, probes, probes[1:])]
    return (state, statistics.median(times), statistics.median(scaled),
            statistics.median(generate))


def settle() -> None:
    """Collect the garbage the discarded set-ups left, before timing.

    The collector is not called again: in the timed phase it runs when
    the program's own allocations trigger it, so its cost counts like
    any other work of the program.
    """
    gc.collect()


class Tracer:
    """Spans kept in memory, written as JSONL when the run ends.

    A span has a name, start, end, parent and operation id.  Each thread
    keeps its own open-span stack; a span opened on a thread with an
    empty stack (e.g. the query server's worker) is parented to the
    current operation's span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._op_span: int | None = None
        self.op_id: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._op_span
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.add(name, started, ended, span_id=span_id, parent=parent)

    def add(self, name: str, started: float, ended: float, *,
            span_id: int | None = None, parent: int | None = None) -> None:
        """Record a finished span (also for intervals measured between hooks)."""
        with self._lock:
            if span_id is None:
                span_id = self._next_id
                self._next_id += 1
            if parent is None and name != "op":
                stack = self._stack()
                parent = stack[-1] if stack else self._op_span
            self.spans.append({
                "id": span_id, "name": name, "start": started, "end": ended,
                "parent": parent, "op": self.op_id,
            })

    @contextmanager
    def operation(self, op_id: int):
        """The root span of one operation; everything inside nests under it."""
        self.op_id = op_id
        with self.span("op") as span_id:
            self._op_span = span_id
            try:
                yield
            finally:
                self._op_span = None
        self.op_id = None

    def reset(self) -> None:
        """Forget what set-up recorded; the timed phase starts clean."""
        self.spans.clear()
        self.counters.clear()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: ``(total seconds, self seconds, count)``."""
        child_time: dict = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            total, own, count = out.get(span["name"], (0.0, 0.0, 0))
            out[span["name"]] = (total + duration,
                                 own + duration - child_time[span["id"]],
                                 count + 1)
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    def summary(self, ops: int) -> str:
        """Layer table: total and self seconds per operation, span counts.

        The ``op`` row's self time is the remainder of the operations'
        wall time that no layer span covers.
        """
        lines = [f"{'layer':32} {'total s/op':>12} {'self s/op':>12} "
                 f"{'spans':>8}"]
        for name, (total, own, count) in sorted(self.totals().items()):
            label = "op (remainder)" if name == "op" else name
            lines.append(f"{label:32} {total / ops:12.6f} {own / ops:12.6f} "
                         f"{count:8d}")
        return "\n".join(lines)


class NullTracer:
    """The untraced run's tracer: operation and span are no-ops.

    Counts and hook spans are recorded only when hooks are installed,
    which the untraced run does not do.
    """

    _none = nullcontext()

    def span(self, name: str):
        return self._none

    def operation(self, op_id: int):
        return self._none


NULL_TRACER = NullTracer()


def result_line(*, correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The JSON object the benchmark prints as its last line."""
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
