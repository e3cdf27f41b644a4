"""Low-overhead metrics: counters, gauges, log-bucket histograms, registry.

Every component in the serving stack keeps its functional counters
(wire bytes, dispatch outcomes, serving sheds) in one
:class:`CounterSet`; this module is that shared substrate, plus the
registry that makes all of them visible through one namespace.

Design rules, in order:

* **Pay for what you use.**  A disabled registry hands out shared
  null metrics whose record methods are empty -- one no-op call per
  record -- and components gate their ``time.monotonic()`` bracketing
  behind a single ``registry.enabled`` branch.  The serving hot path
  must stay within 5% of its uninstrumented speed (gated by
  ``benchmarks/check_regression.py``).
* **Atomic increments under the GIL.**  CPython's ``x.attr += 1`` is
  a read-modify-write across several bytecodes and *can* lose updates
  between threads.  :meth:`Counter.inc` and :meth:`Histogram.observe`
  take a (per-metric, uncontended) lock, which is the one documented
  way to mutate shared telemetry from tenant threads, the serving
  flusher and the dispatcher selector at once.
* **Mergeable histograms.**  :class:`Histogram` state is a plain dict
  of power-of-two bucket counts: worker-side histograms serialize
  through the existing wire codec (``to_state``/``from_state``,
  registered under the ``obs-hist`` tag) and ``merge`` sums bucket
  counts on the coordinator -- associative and commutative, exactly
  like the summary fold.

Naming convention (see ``OBSERVABILITY.md``): dotted lowercase
``<component>.<metric>[_unit]`` -- ``wire.bytes_sent``,
``serving.latency_seconds``, ``accuracy.tau`` -- with labels for the
cardinality axis (``tenant=...``, ``method=...``).  Snapshot keys
render labels as ``name{k=v,...}`` with keys sorted.
"""

from __future__ import annotations

import json
import math
import threading
import time
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "CounterSet",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


class Counter:
    """A monotonically growing count, incremented under a lock.

    The lock is what makes ``inc`` safe from any thread (the
    "atomic-increment-under-GIL" pattern every counter set shares); the
    plain ``value`` read is a single atomic load and needs none.
    """

    __slots__ = ("_lock", "_value")

    kind = "counter"

    def __init__(self, lock: Optional[threading.Lock] = None):
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self):
        return self._value

    def snapshot_value(self):
        return self._value


class CounterSet:
    """A fixed set of named counters under one lock, read as attributes.

    The functional counters of a component (a transport's wire bytes,
    a dispatcher's outcomes, a serving frontend's sheds and flush
    reasons) live in one set.  ``inc``/``set_max`` mutate under the
    set's lock, so they are safe from any thread; ``stats.frames_sent``
    is a plain instance attribute (one atomic load, no lock), and
    assigning to it raises -- a ``+=`` from two threads would lose
    updates.  The set is a registry collector yielding
    ``<prefix>.<field>{labels}``.
    """

    def __init__(
        self,
        prefix: str,
        labels: Optional[Dict[str, object]],
        fields: Iterable[str],
    ):
        self._prefix = prefix
        self._labels = dict(labels or {})
        self._lock = threading.Lock()
        self._fields = tuple(fields)
        vars(self).update(dict.fromkeys(self._fields, 0))

    def __setattr__(self, name: str, value) -> None:
        if not name.startswith("_"):
            raise AttributeError(
                f"counter {name!r} changes only through inc()/set_max()"
            )
        object.__setattr__(self, name, value)

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to one counter (safe from any thread)."""
        counts = vars(self)
        with self._lock:
            counts[name] += n

    def set_max(self, name: str, value) -> None:
        """Raise one counter to ``value`` if that is higher (high-water mark)."""
        counts = vars(self)
        with self._lock:
            if value > counts[name]:
                counts[name] = value

    def snapshot(self) -> Dict[str, int]:
        """Every counter as a plain dict, in field order."""
        counts = vars(self)
        return {name: counts[name] for name in self._fields}

    def obs_metrics(self):
        """Registry collector hook: ``<prefix>.<field>{labels}``."""
        counts = vars(self)
        for name in self._fields:
            yield (
                f"{self._prefix}.{name}", self._labels,
                _CounterField(counts, name),
            )


class _CounterField:
    """One :class:`CounterSet` field as a registry counter."""

    __slots__ = ("_counts", "_name")

    kind = "counter"

    def __init__(self, counts: Dict[str, int], name: str):
        self._counts = counts
        self._name = name

    def snapshot_value(self):
        return self._counts[self._name]


class Gauge:
    """A point-in-time value (queue depth, tau, pane count).

    ``set`` is a single attribute store -- atomic under the GIL -- so
    gauges need no lock.  ``set_max`` keeps a high-water mark and does
    take the lock (compare-and-store is not atomic).
    """

    __slots__ = ("_lock", "_value")

    kind = "gauge"

    def __init__(self, lock: Optional[threading.Lock] = None):
        self._lock = lock if lock is not None else threading.Lock()
        self._value = 0.0

    def set(self, value) -> None:
        self._value = value

    def set_max(self, value) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self):
        return self._value

    def snapshot_value(self):
        return self._value


def bucket_exponent(value: float) -> int:
    """The power-of-two bucket index of one positive value.

    Bucket ``e`` covers ``[2**(e-1), 2**e)``: ``math.frexp`` writes
    ``value = m * 2**e`` with ``0.5 <= m < 1``, so ``e`` is exact --
    no log/rounding edge cases at the boundaries.
    """
    return math.frexp(value)[1]


class Histogram:
    """Power-of-two log-bucket histogram with rank-exact percentiles.

    Observations land in buckets keyed by their binary exponent
    (bucket ``e`` covers ``[2**(e-1), 2**e)``; non-positive values
    land in a dedicated zero bucket), so the state stays a handful of
    integers regardless of the latency range -- from nanoseconds to
    hours is ~60 buckets.

    **Percentiles** are *rank-exact at bucket resolution*:
    :meth:`percentile` locates the bucket holding the
    ``ceil(q * count)``-th smallest observation by exact integer rank
    arithmetic (no interpolation, deterministic, merge-stable) and
    returns that bucket's upper edge ``2**e`` -- an upper bound on the
    true quantile that is tight to within one octave (the true value
    lies in ``(2**(e-1), 2**e]``).

    **Mergeable**: ``merge`` sums bucket counts (associative and
    commutative -- integer sums), ``to_state``/``from_state`` are the
    standard wire-codec hooks (tag ``obs-hist``), so worker-side
    histograms ship over :func:`repro.distributed.codec.to_bytes` and
    sum on the coordinator exactly like summaries fold.

    Thread safety: ``observe``/``observe_many``/``merge`` mutate under
    the metric's lock; reads (:meth:`snapshot_value`, percentiles)
    take the lock once to copy the bucket dict.
    """

    __slots__ = ("_lock", "_buckets", "_zero", "_count", "_total",
                 "_min", "_max")

    kind = "histogram"

    def __init__(self, lock: Optional[threading.Lock] = None):
        self._lock = lock if lock is not None else threading.Lock()
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if value > 0.0:
                exp = math.frexp(value)[1]
                self._buckets[exp] = self._buckets.get(exp, 0) + 1
            else:
                self._zero += 1
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values) -> None:
        """Record a whole batch with one lock acquisition.

        The bucket math is vectorized (``np.frexp`` + ``bincount``),
        which is how the serving flusher records a flush's worth of
        per-tenant latencies at ~per-batch rather than per-query cost.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        positive = values[values > 0.0]
        if positive.size:
            exps = np.frexp(positive)[1]
            lo = int(exps.min())
            counts = np.bincount(exps - lo)
        with self._lock:
            if positive.size:
                for offset, count in enumerate(counts):
                    if count:
                        exp = lo + offset
                        self._buckets[exp] = (
                            self._buckets.get(exp, 0) + int(count)
                        )
            self._zero += int(values.size - positive.size)
            self._count += int(values.size)
            self._total += float(values.sum())
            vmin = float(values.min())
            vmax = float(values.max())
            if vmin < self._min:
                self._min = vmin
            if vmax > self._max:
                self._max = vmax

    # ------------------------------------------------------------------
    # Merging / wire codec
    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram in (returns self for chaining).

        Bucket counts are integer sums, so merging is associative and
        commutative whatever the merge tree shape -- worker histograms
        collected in any order agree bit-for-bit on every count.
        """
        with other._lock:
            buckets = dict(other._buckets)
            zero, count = other._zero, other._count
            total, vmin, vmax = other._total, other._min, other._max
        with self._lock:
            for exp, n in buckets.items():
                self._buckets[exp] = self._buckets.get(exp, 0) + n
            self._zero += zero
            self._count += count
            self._total += total
            if vmin < self._min:
                self._min = vmin
            if vmax > self._max:
                self._max = vmax
        return self

    def to_state(self) -> dict:
        """Wire-codec state (sorted arrays: deterministic frames)."""
        with self._lock:
            exps = np.asarray(sorted(self._buckets), dtype=np.int64)
            counts = np.asarray(
                [self._buckets[int(e)] for e in exps], dtype=np.int64
            )
            return {
                "exps": exps,
                "counts": counts,
                "zero": self._zero,
                "count": self._count,
                "total": self._total,
                "min": self._min,
                "max": self._max,
            }

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        hist = cls()
        exps = np.asarray(state["exps"])
        counts = np.asarray(state["counts"])
        hist._buckets = {
            int(exp): int(count) for exp, count in zip(exps, counts)
        }
        hist._zero = int(state["zero"])
        hist._count = int(state["count"])
        hist._total = float(state["total"])
        hist._min = float(state["min"])
        hist._max = float(state["max"])
        return hist

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    def percentile(self, q: float) -> float:
        """Upper edge of the bucket holding the rank-``q`` observation.

        Exact integer rank selection: the returned ``2**e`` bounds the
        true ``q``-quantile from above, and the true value is
        guaranteed to exceed ``2**(e-1)`` (one-octave tightness).
        Returns ``0.0`` for an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("percentile fraction must be in (0, 1]")
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            rank = max(1, math.ceil(q * count))
            cumulative = self._zero
            if cumulative >= rank:
                return 0.0
            for exp in sorted(self._buckets):
                cumulative += self._buckets[exp]
                if cumulative >= rank:
                    return math.ldexp(1.0, exp)
        return self._max  # pragma: no cover - counts always cover rank

    def snapshot_value(self) -> dict:
        """The histogram as a plain dict (snapshots / JSONL timeline)."""
        with self._lock:
            buckets = {str(exp): n for exp, n in sorted(self._buckets.items())}
            count, zero, total = self._count, self._zero, self._total
            vmin, vmax = self._min, self._max
        out = {
            "count": count,
            "zero": zero,
            "total": total,
            "buckets": buckets,
        }
        if count:
            out["min"] = vmin
            out["max"] = vmax
            out["p50"] = self.percentile(0.50)
            out["p95"] = self.percentile(0.95)
            out["p99"] = self.percentile(0.99)
        return out


# ----------------------------------------------------------------------
# Null metrics (disabled registries hand these out)
# ----------------------------------------------------------------------

class _NullMetric:
    """Shared do-nothing metric: the cost of disabled instrumentation."""

    __slots__ = ()
    kind = "null"
    value = 0
    count = 0
    total = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot_value(self):
        return 0


NULL_COUNTER = _NullMetric()
NULL_GAUGE = _NullMetric()
NULL_HISTOGRAM = _NullMetric()

_METRIC_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}
_NULLS = {
    "counter": NULL_COUNTER,
    "gauge": NULL_GAUGE,
    "histogram": NULL_HISTOGRAM,
}


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Render ``name`` + labels as the canonical snapshot key."""
    if not labels:
        return name
    rendered = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class MetricsRegistry:
    """Named metrics plus pull-time collectors, one shared namespace.

    Two registration surfaces:

    * :meth:`counter` / :meth:`gauge` / :meth:`histogram` -- create-or-
      get a named metric (strong reference; same name + labels returns
      the same object, so increments accumulate).  On a disabled
      registry these return the shared null metrics, which is the
      pay-for-what-you-use contract: instrumented components hold null
      objects and every record call is an empty method.
    * :meth:`attach` -- register a *collector*: any object with an
      ``obs_metrics()`` method yielding ``(name, labels, metric)``
      triples.  Every :class:`CounterSet` (wire, dispatch, serving
      counters) is attached here; the registry keeps
      only a weak reference, so a torn-down transport's counters fall
      out of the snapshot with the transport.  Collectors contribute
      at snapshot time regardless of ``enabled`` -- their counters are
      functional state (wire accounting, shed counts) that exists
      either way, and pulling them costs nothing until asked.

    Same-key contributions (two transports of one name, per-supplier
    cache stats) are *summed* (counters/gauges) or *merged*
    (histograms) into the snapshot -- fleet totals, the Prometheus
    aggregation convention.

    ``enabled`` is decided at construction (or via :func:`repro.obs.
    enable` for the process-global registry) and should be set before
    the instrumented components are built: components grab their
    metric objects once, at init.
    """

    def __init__(self, enabled: bool = True, *, trace_capacity: int = 1024):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, tuple], object] = {}
        self._labels: Dict[Tuple[str, tuple], Dict[str, object]] = {}
        self._collectors: List[weakref.ref] = []
        # Imported lazily to keep module import order trivial.
        from repro.obs.trace import TraceRing

        self.trace = TraceRing(trace_capacity)
        self._timeline_prev: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Metric creation
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, object]):
        if not self.enabled:
            return _NULLS[kind]
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = _METRIC_TYPES[kind]()
                self._metrics[key] = metric
                self._labels[key] = dict(labels)
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # ------------------------------------------------------------------
    # Collectors (counter sets pulled at snapshot time)
    # ------------------------------------------------------------------
    def attach(self, collector) -> None:
        """Register an ``obs_metrics()`` provider (weakly referenced)."""
        if not hasattr(collector, "obs_metrics"):
            raise TypeError(
                f"{type(collector).__name__} lacks an obs_metrics() hook"
            )
        with self._lock:
            self._collectors.append(weakref.ref(collector))

    def _live_collectors(self) -> List[object]:
        with self._lock:
            live, refs = [], []
            for ref in self._collectors:
                obj = ref()
                if obj is not None:
                    live.append(obj)
                    refs.append(ref)
            self._collectors = refs
        return live

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **tags):
        """A context-manager span; records duration into the trace
        ring and a ``trace.<name>_seconds`` histogram.  A no-op span
        on a disabled registry."""
        if not self.enabled:
            from repro.obs.trace import NULL_SPAN

            return NULL_SPAN
        return self.trace.span(
            name, self.histogram(f"trace.{name}_seconds"), tags
        )

    # ------------------------------------------------------------------
    # Snapshots / deltas / timeline
    # ------------------------------------------------------------------
    def _contributions(self) -> Iterable[Tuple[str, object]]:
        with self._lock:
            own = [
                (metric_key(name, self._labels[(name, labelkey)]), metric)
                for (name, labelkey), metric in self._metrics.items()
            ]
        for key, metric in own:
            yield key, metric
        for collector in self._live_collectors():
            for name, labels, metric in collector.obs_metrics():
                yield metric_key(name, labels or {}), metric

    def snapshot(self) -> Dict[str, object]:
        """Every metric's current value, one flat dict.

        Counters/gauges map to numbers, histograms to bucket dicts
        (see :meth:`Histogram.snapshot_value`).  Same-key metrics from
        several registrants are summed/merged.
        """
        merged: Dict[str, object] = {}
        hists: Dict[str, Histogram] = {}
        for key, metric in self._contributions():
            if metric.kind == "histogram":
                acc = hists.get(key)
                if acc is None:
                    hists[key] = acc = Histogram()
                acc.merge(metric)
            else:
                merged[key] = merged.get(key, 0) + metric.snapshot_value()
        for key, hist in hists.items():
            merged[key] = hist.snapshot_value()
        return dict(sorted(merged.items()))

    @staticmethod
    def delta(
        current: Dict[str, object], previous: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        """The change between two snapshots.

        Numbers subtract; histogram dicts subtract bucket-wise (bucket
        counts are monotone), so a delta's percentiles describe *just
        the window* between the snapshots -- which is what a live p99
        panel wants.  Keys absent from ``previous`` pass through.
        """
        if not previous:
            return dict(current)
        out: Dict[str, object] = {}
        for key, value in current.items():
            prev = previous.get(key)
            if isinstance(value, dict):
                out[key] = _hist_delta(value, prev)
            elif isinstance(prev, (int, float)):
                out[key] = value - prev
            else:
                out[key] = value
        return out

    def report_timeline(self, stream=None, **extra) -> Dict[str, object]:
        """Emit one JSONL timeline record; returns it as a dict.

        Each record carries the wall-clock stamp, the *delta* of every
        counter/histogram since the previous ``report_timeline`` call
        (first call: since startup) and the absolute value of every
        gauge -- the shape the dashboard's panels consume.  ``stream``
        (any ``.write``-able) gets the JSON line; pass ``None`` to
        only collect.  ``extra`` fields ride along verbatim.
        """
        snap = self.snapshot()
        record = {
            "t": time.time(),
            "metrics": self.delta(snap, self._timeline_prev),
        }
        record.update(extra)
        self._timeline_prev = snap
        if stream is not None:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
        return record


def _hist_delta(current: dict, previous) -> dict:
    """Bucket-wise difference of two histogram snapshot dicts."""
    if not isinstance(previous, dict):
        return dict(current)
    buckets = {
        exp: count - previous.get("buckets", {}).get(exp, 0)
        for exp, count in current.get("buckets", {}).items()
    }
    buckets = {exp: count for exp, count in buckets.items() if count}
    out = {
        "count": current.get("count", 0) - previous.get("count", 0),
        "zero": current.get("zero", 0) - previous.get("zero", 0),
        "total": current.get("total", 0.0) - previous.get("total", 0.0),
        "buckets": buckets,
    }
    count = out["count"]
    if count > 0:
        window = Histogram()
        window._buckets = {int(exp): n for exp, n in buckets.items()}
        window._zero = out["zero"]
        window._count = count
        out["p50"] = window.percentile(0.50)
        out["p95"] = window.percentile(0.95)
        out["p99"] = window.percentile(0.99)
    return out


# Wire-codec registration: worker-side histograms frame through the
# standard summary codec under the "obs-hist" tag (coordinator-side
# merge is Histogram.merge).  The registration itself lives in
# repro.engine.registry._register_defaults, next to the summary
# codecs, because importing the registry from here would cycle
# (registry -> summaries -> ... -> obs -> registry).
