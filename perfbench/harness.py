"""Shared benchmark plumbing: spans, self-time attribution, metrics, set-up.

Spans are recorded from the benchmark's own code around each call into
a library layer; nothing inside ``src/`` is instrumented.  A span
carries a name, start, end, parent and trace id, is kept in memory and
written out as JSONL when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import threading
import time
import uuid
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: The span that brackets one traced measurement phase.
ROOT = "run"

#: Times the set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Reference timings before each set-up repeat and after the last.
SETUP_TICKS = 4


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        stack = self._tracer._stack()
        self.parent = stack[-1] if stack else None
        self.id = next(self._tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append({
            "trace": self._tracer.trace_id,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": end,
            "thread": threading.current_thread().name,
            **self.attrs,
        })
        return False


class Tracer:
    """In-memory span recorder; a disabled tracer hands out a no-op span.

    Each thread keeps its own parent stack, so a span opened on another
    thread (the serving flusher calling a supplier) starts a tree of its
    own under the same trace id instead of nesting under whatever the
    main thread happens to be doing.
    """

    def __init__(self, enabled: bool = False, trace_id: Optional[str] = None):
        self.enabled = enabled
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs):
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict], root_name: str = ROOT) -> Tuple[float, Dict[str, float]]:
    """Root duration and per-name self time over the root's span tree.

    Only spans that descend from the (single) root count; the root's
    own self time is the part of the run no traced layer call covers --
    the benchmark's untraced gaps.  The self times sum to the root's
    duration.
    """
    roots = [s for s in spans if s["name"] == root_name]
    if len(roots) != 1:
        raise ValueError(f"expected one {root_name!r} span, got {len(roots)}")
    root = roots[0]
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: Dict[str, float] = {}
    todo = [root]
    while todo:
        span = todo.pop()
        kids = children.get(span["id"], [])
        lo, hi = span["start"], span["end"]
        covered = _covered([
            (max(lo, k["start"]), min(hi, k["end"]))
            for k in kids if k["end"] > lo and k["start"] < hi
        ])
        out[span["name"]] = out.get(span["name"], 0.0) + (hi - lo) - covered
        todo.extend(kids)
    return root["end"] - root["start"], out


def durations(spans: Iterable[dict], name: str) -> np.ndarray:
    """Durations (seconds) of every span called ``name``."""
    return np.array(
        [s["end"] - s["start"] for s in spans if s["name"] == name]
    )


def median_or_zero(values) -> float:
    """Median of ``values``; 0.0 when the workload made no such call."""
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def frontend_layer(phases: List[dict], spans: List[dict], out: Outcome) -> None:
    """``ServingFrontend`` figures over phases, from each one's ``stats()``."""
    stats = {
        key: sum(s[key] for s in phases) for key in (
            "flushes_size", "flushes_deadline", "flushes_forced", "hits",
            "misses", "queries", "shed", "submitted",
        )
    }
    stats["max_queue_depth"] = max(s["max_queue_depth"] for s in phases)
    flushes = stats["flushes_size"] + stats["flushes_deadline"] + stats["flushes_forced"]
    lookups = stats["hits"] + stats["misses"]
    out.add("frontend.submit_us", median_or_zero(durations(spans, "frontend.submit")) * 1e6)
    out.add("frontend.batch_mean", stats["queries"] / max(flushes, 1))
    out.add("frontend.flushes_deadline_frac", stats["flushes_deadline"] / max(flushes, 1))
    out.add("frontend.max_queue_depth", stats["max_queue_depth"])
    out.add("frontend.cache_hit_ratio", stats["hits"] / max(lookups, 1))
    out.add("frontend.shed_frac", stats["shed"] / max(stats["submitted"] + stats["shed"], 1))


def seconds_per_unit(fn, work: int, min_s: float = 0.05, samples: int = 5) -> float:
    """Median seconds per unit of ``work`` over repeated calls of ``fn``.

    Each of ``samples`` samples repeats ``fn`` until ``min_s`` has passed,
    so a call far shorter than the timer's noise is still resolved.
    """
    per_unit = []
    for _ in range(samples):
        reps = 0
        started = time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_s:
                break
        per_unit.append(elapsed / (reps * work))
    return float(np.median(per_unit))


#: The reference's two kinds of work.  A workload ticks the kinds its
#: own measured work is made of.
NUMPY = "numpy"
INTERPRETER = "interpreter"


class RefClock:
    """The machine's speed, sampled between slices of measured work.

    Other tenants of a shared host slow the code, by up to twice over
    tens of minutes and in bursts of seconds, and the process CPU time
    a piece of work takes slows with it.  :meth:`tick` times one fixed
    computation, which depends on neither the seed nor the library; a
    cost multiplied by :meth:`scale` is what it would be on a machine
    that runs that computation in the time ``NOMINAL_S`` gives.  Ticks
    spread through a run sample the speed the work itself met.

    Contention slows kinds of code unequally: a neighbour streaming
    through memory slows random reads from a large table and barely
    touches the interpreter, a busy sibling hyperthread slows the
    interpreter most.  So the computation is made of the ``kinds`` of
    work the workload runs: ``NUMPY`` -- random reads from a table far
    larger than a core's cache, sorts and gathers over arrays beyond it
    and within it -- and ``INTERPRETER`` -- dictionary updates, function
    calls, and objects made and appended under a lock.
    """

    #: About each kind's CPU seconds per tick on a quiet 2-core Xeon;
    #: any fixed values would do, they only set the unit.
    NOMINAL_S = {NUMPY: 0.006, INTERPRETER: 0.003}
    #: Elements of the table read at random (32 MB), and reads per tick.
    TABLE = 1 << 22
    READS = 1 << 17
    #: Elements of the large and the small sorted array (1 MB and
    #: 128 KB; a core has 2 MB of L2 cache), and passes over each.
    ARRAYS = ((1 << 17, 1), (1 << 14, 4))
    #: Iterations of each interpreted loop.
    N_LOOP = 4_000

    def __init__(self, kinds=(NUMPY, INTERPRETER)):
        unknown = set(kinds) - {NUMPY, INTERPRETER}
        if unknown or not kinds:
            raise ValueError(
                f"reference kinds must be among {NUMPY!r}, {INTERPRETER!r}"
            )
        self.kinds = tuple(kinds)
        if NUMPY in self.kinds:
            rng = np.random.default_rng(20110829)
            self._table = rng.random(self.TABLE)
            self._reads = rng.integers(0, self.TABLE, self.READS)
            self._read = np.empty(self.READS)
            #: (keys, permutation, two scratch arrays, passes) per size.
            self._arrays = [
                (rng.random(n), rng.permutation(n), np.empty(n), np.empty(n), passes)
                for n, passes in self.ARRAYS
            ]
        self._lock = threading.Lock()
        #: Reference CPU seconds, one per tick.
        self.samples: List[float] = []

    def tick(self) -> None:
        """Time the reference once, on this thread's CPU clock.

        An untimed pass over the arrays first brings them back into the
        caches, and nothing allocates an array, so what the workload
        did before -- with the caches, the allocator, the page tables --
        does not change the timed pass.
        """
        numpy = NUMPY in self.kinds
        if numpy:
            self._numpy()
        started = time.thread_time()
        if numpy:
            self._numpy()
        if INTERPRETER in self.kinds:
            self._interpret()
        self.samples.append(time.thread_time() - started)

    def _numpy(self) -> None:
        np.take(self._table, self._reads, out=self._read)
        for keys, perm, ordered, gathered, passes in self._arrays:
            for _ in range(passes):
                np.copyto(ordered, keys)
                ordered.sort()
                np.take(ordered, perm, out=gathered)
                np.cumsum(gathered, out=gathered)

    def _interpret(self) -> None:
        counts: Dict[int, int] = {}
        for i in range(self.N_LOOP):
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        total = 0
        for i in range(self.N_LOOP):
            total = _add(total, i & 7)
        [str(i) for i in range(self.N_LOOP // 4)]
        made = []
        for i in range(self.N_LOOP * 3 // 8):
            item = _Item(i, i & 15)
            with self._lock:
                made.append(item.key())

    def scale(self, average=np.median) -> float:
        """Factor from this run's CPU seconds to reference-speed seconds.

        ``average`` summarises the ticks; use the statistic the work's
        own timings are summarised with (the median of repeats of one
        piece of work, the mean for a total over varied work).
        """
        nominal = sum(self.NOMINAL_S[kind] for kind in self.kinds)
        return nominal / float(average(self.samples))


def _add(x: int, y: int) -> int:
    return x + y


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def key(self) -> tuple:
        return (self.a, self.b)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup: Callable[[], object], repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times; return (median seconds, last context).

    A set-up's time is the process CPU it takes, at reference speed: the
    reference is timed before every repeat (``SETUP_TICKS`` times) and
    after the last.  Every context but the last is closed before the
    next set-up starts, so repeats measure the same cold path instead of
    piling up state.
    """
    ref = RefClock()
    seconds = []
    ctx = None
    for _ in range(repeats):
        if ctx is not None:
            ctx.close()
            ctx = None
            gc.collect()
        for _ in range(SETUP_TICKS):
            ref.tick()
        start = time.process_time()
        ctx = setup()
        seconds.append(time.process_time() - start)
    for _ in range(SETUP_TICKS):
        ref.tick()
    return float(np.median(seconds)) * ref.scale(), ctx


def relative_mismatch(got, want, scale: float) -> np.ndarray:
    """Mask of answers off by more than 1e-9 relative.

    ``scale`` (the total weight) gives the absolute floor, so answers
    near zero compare at floating-point resolution of the data rather
    than of the answer.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    tol = 1e-9 * np.maximum(np.abs(want), 1e-6 * scale)
    return ~(np.abs(got - want) <= tol)


class Outcome:
    """What one run reports: metrics with units plus the correctness tally."""

    def __init__(self):
        #: Measured values by metric name; units come from BENCHMARK.json.
        self.values: Dict[str, float] = {}
        #: The reported metrics, (value, unit) by name, filled in last.
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: (workload-specific name, value, unit) lines printed for people.
        self.named: List[Tuple[str, float, str]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def note(self, name: str, value: float, unit: str) -> None:
        self.named.append((name, float(value), unit))

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })
