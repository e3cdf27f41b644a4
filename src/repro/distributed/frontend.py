"""Query-serving frontend over a (possibly live) summary supplier.

:class:`QueryFrontend` sits between query clients and any *snapshot
supplier* -- a :class:`~repro.distributed.coordinator.DistributedIngest`
fleet, a local :class:`~repro.stream.engine.StreamEngine`, or anything
else exposing ``snapshot(method)`` plus a version counter.  It answers
large range-query batteries against the latest folded state while
ingest continues, with two layers of reuse:

* an **LRU snapshot cache** keyed by ``(method, supplier version)``:
  while the supplier's state is unchanged, repeated batteries skip the
  fold/collect entirely (for a distributed supplier that is the whole
  worker round trip);
* **sort-order reuse** through the cached summary objects themselves:
  a retained :class:`~repro.core.estimator.SampleSummary` /
  :class:`~repro.summaries.exact.ExactSummary` carries its own
  :class:`~repro.structures.ranges.SortOrderCache`, so consecutive
  batteries at one version pay the per-axis sorts once and then only
  the sweep (the PR-2 caching machinery, now serving distributed
  state).

Keeping a handful of slots (not one) matters under interleaved
multi-method serving: method A's battery must not evict method B's
freshly sorted snapshot.

Snapshots arriving from a distributed supplier are decoded zero-copy
(``codec.from_bytes(..., copy=False)`` in
:meth:`~repro.distributed.coordinator.DistributedIngest._collect`):
the cached summary's raw arrays are read-only views into the received
frame, which is safe here precisely because the cache never mutates a
snapshot -- it only queries it.

Micro-batching single queries into batteries is the job of
:class:`ServingFrontend`, which answers each flush with one
:meth:`QueryFrontend.query_many` call per method and supplier.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.structures.ranges import Box, QueryPlan, compile_query_plan


def _batch_bucket(size: int) -> int:
    """Power-of-two ceiling bucket for the batch-size histogram."""
    return 1 << max(0, size - 1).bit_length() if size > 1 else size


#: Snapshot-cache counters of one :class:`QueryFrontend`
#: (``serving.<field>{scope=frontend}``).
_CACHE_FIELDS = ("hits", "misses", "evictions", "batteries", "queries")

#: Serving counters of one :class:`ServingFrontend`
#: (``serving.<field>{scope=serving}``).  ``shed`` counts refused
#: submissions, ``shed_tenant`` the fair-share part of them;
#: ``fallbacks`` counts method groups whose batched call failed and were
#: answered one query at a time, ``failed`` the queries resolved with an
#: error.
_SERVING_FIELDS = (
    "submitted", "flushes", "shed", "flushes_size", "flushes_deadline",
    "flushes_forced", "shed_tenant", "max_queue_depth", "fallbacks",
    "failed",
)


def _supplier_version(supplier) -> int:
    """The supplier's state version (stream engines count batches)."""
    version = getattr(supplier, "version", None)
    if version is None:
        version = getattr(supplier, "batches_seen", None)
    if version is None:
        raise TypeError(
            f"{type(supplier).__name__} exposes neither .version nor "
            ".batches_seen; cannot key the snapshot cache"
        )
    return int(version)


class QueryFrontend:
    """LRU-cached range-query serving over a snapshot supplier.

    Parameters
    ----------
    supplier:
        Object with ``snapshot(method) -> summary`` and a ``version``
        (or ``batches_seen``) counter that changes whenever ingested
        state changes.
    slots:
        Maximum ``(method, version)`` snapshot entries retained.
    """

    def __init__(self, supplier, *, slots: int = 8):
        if slots < 1:
            raise ValueError("need at least one cache slot")
        self._supplier = supplier
        self._slots = int(slots)
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self.stats = _obs.CounterSet(
            "serving", {"scope": "frontend"}, _CACHE_FIELDS
        )
        _obs.get_registry().attach(self.stats)

    # ------------------------------------------------------------------
    # Snapshot cache
    # ------------------------------------------------------------------
    def snapshot(self, method: str):
        """The latest folded summary for ``method`` (cached per version)."""
        key = (method, _supplier_version(self._supplier))
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.inc("hits")
            return cached
        self.stats.inc("misses")
        summary = self._supplier.snapshot(method)
        self._cache[key] = summary
        while len(self._cache) > self._slots:
            self._cache.popitem(last=False)
            self.stats.inc("evictions")
        return summary

    def invalidate(self) -> None:
        """Drop every cached snapshot (e.g. after supplier reset)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, method: str, query) -> float:
        """One range-sum estimate against the latest state."""
        snap = self.snapshot(method)
        self.stats.inc("queries")
        if isinstance(query, Box):
            return float(snap.query(query))
        return float(snap.query_multi(query))

    def query_many(self, method: str, queries: Sequence) -> List[float]:
        """A whole battery against the latest state (vectorized path).

        Accepts a raw battery or a pre-compiled
        :class:`~repro.structures.ranges.QueryPlan` (the plan passes
        straight through to the summary's kernel).
        """
        queries = (
            queries if isinstance(queries, QueryPlan) else list(queries)
        )
        snap = self.snapshot(method)
        self.stats.inc("batteries")
        self.stats.inc("queries", len(queries))
        return list(snap.query_many(queries))

    def serve(
        self,
        queries: Sequence,
        methods: Optional[Sequence[str]] = None,
    ) -> Dict[str, List[float]]:
        """One battery across several methods (dashboard shape).

        The battery is compiled into one shared query plan, so the
        bounds stacking is paid once rather than once per method.
        """
        plan = compile_query_plan(queries)
        if methods is None:
            methods = getattr(self._supplier, "methods", None)
            if methods is None:
                raise ValueError(
                    "supplier does not list methods; pass methods="
                )
        return {
            method: self.query_many(method, plan) for method in methods
        }


# ----------------------------------------------------------------------
# Long-lived serving: concurrent submit, deadline flush, admission control
# ----------------------------------------------------------------------

class OverloadError(RuntimeError):
    """Admission control refused a submission (queue full / tenant cap)."""


class ServedAnswer:
    """Thread-safe handle for one query submitted to a :class:`ServingFrontend`.

    Resolved by the frontend's flusher thread; ``done_at`` is stamped
    (``time.monotonic()``) the moment the answer lands, so open-loop
    harnesses can measure service completion without depending on when
    the waiting thread gets scheduled again.
    """

    __slots__ = ("_cond", "_value", "_error", "tenant", "done_at")

    def __init__(self, cond: threading.Condition, tenant: str):
        self._cond = cond
        self._value: Optional[float] = None
        self._error: Optional[BaseException] = None
        self.tenant = tenant
        self.done_at: Optional[float] = None

    def done(self) -> bool:
        return self._value is not None or self._error is not None

    def result(self, timeout: Optional[float] = None) -> float:
        """Wait for the flushed answer (re-raises its kernel error)."""
        with self._cond:
            if not self._cond.wait_for(self.done, timeout):
                raise TimeoutError(
                    f"no answer within {timeout}s (tenant {self.tenant!r})"
                )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    # Flusher-thread side ----------------------------------------------
    def _resolve(self, value: float) -> None:
        with self._cond:
            self._value = float(value)
            self.done_at = time.monotonic()
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = error
            self.done_at = time.monotonic()
            self._cond.notify_all()


class _QueueEntry:
    __slots__ = ("method", "query", "answer", "enqueued_at")

    def __init__(self, method, query, answer, enqueued_at):
        self.method = method
        self.query = query
        self.answer = answer
        self.enqueued_at = enqueued_at


class ServingFrontend:
    """Long-lived multi-tenant serving over one or more snapshot suppliers.

    The library's one micro-batcher: many tenants call :meth:`submit`
    concurrently from their own threads, and one background flusher
    thread answers the accumulated cross-tenant batch with the batched
    kernels, so live single-query traffic still pays per-battery, not
    per-query, kernel costs.  A single caller that batches its own
    queries builds the frontend with ``start=False`` and calls
    :meth:`flush` itself (no thread, no deadline).  Batching changes
    the kernel granularity, not the estimator: answers match
    one-at-a-time :meth:`QueryFrontend.query` calls up to the batched
    kernels' floating-point summation order (<= 1e-9 relative).

    * **Cross-supplier fan-out**: with several suppliers the battery
      is compiled once, answered by every supplier's cached snapshot,
      and the per-query estimates are summed -- valid because the
      range-sum estimators are additive over disjoint data slices
      (each supplier covering its own shard of the stream).
    * **Deadline + size flush**: a batch is flushed when it reaches
      ``batch_size`` queries or when its oldest entry has waited
      ``max_delay_ms`` -- bounding tail latency under light load while
      still amortizing under heavy load.
    * **Admission control**: at most ``max_pending`` queries may be
      queued; beyond that :meth:`submit` sheds with
      :class:`OverloadError` (open-loop overload must shed, not build
      an unbounded queue).  Per-tenant fairness caps any one tenant at
      ``max(1, int(max_pending * tenant_share))`` pending queries, so
      a flooding tenant sheds while the others keep being admitted.

    Each supplier gets its own inner :class:`QueryFrontend` (snapshot
    LRU + sort-order reuse); only the flusher thread touches them, so
    they need no locking of their own.

    **Per-tenant accounting** is always on: every tenant gets a
    served/shed counter pair and a power-of-two log-bucket latency
    histogram (enqueue -> answer-resolved, measured from the stamps
    the open-loop harness already relies on), surfaced through
    ``stats()["tenants"]`` and -- labelled ``tenant=...`` -- through
    any attached metrics registry.  Latencies are recorded once per
    flush via the histogram's vectorized ``observe_many``, so the
    accounting costs per-batch, not per-query, work.

    ``stats()`` and the registry (``serving.<field>{scope=serving}``)
    count submissions, sheds, flushes by reason, the queue-depth
    high-water mark, ``fallbacks`` (method groups answered one query at
    a time after their batched call failed) and ``failed`` (queries
    resolved with an error).

    ``registry`` (default: the process-global one) additionally gates
    the pay-for-what-you-use extras: flush spans, the
    ``serving.batch_size`` histogram and the live queue-depth gauge.
    """

    def __init__(
        self,
        suppliers,
        *,
        slots: int = 8,
        batch_size: int = 64,
        max_delay_ms: float = 2.0,
        max_pending: int = 1024,
        tenant_share: float = 0.25,
        start: bool = True,
        registry=None,
    ):
        if not isinstance(suppliers, (list, tuple)):
            suppliers = [suppliers]
        if not suppliers:
            raise ValueError("need at least one supplier")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not (0.0 < tenant_share <= 1.0):
            raise ValueError("tenant_share must be in (0, 1]")
        self._backends = [
            QueryFrontend(supplier, slots=slots) for supplier in suppliers
        ]
        self._batch_size = int(batch_size)
        self._max_delay = float(max_delay_ms) / 1000.0
        self._max_pending = int(max_pending)
        self._tenant_cap = max(1, int(max_pending * tenant_share))
        self._cond = threading.Condition()
        #: Shared completion condition every ServedAnswer waits on.
        self._completion = threading.Condition()
        self._queue: "deque[_QueueEntry]" = deque()
        self._tenant_pending: Dict[str, int] = {}
        self._flush_lock = threading.Lock()
        self._stats = _obs.CounterSet(
            "serving", {"scope": "serving"}, _SERVING_FIELDS
        )
        #: Flush sizes in power-of-two buckets (bucket 8 counts flushes
        #: of 5..8 queries); written and read under ``_flush_lock``.
        self._batch_hist: Dict[int, int] = {}
        # Always-on per-tenant accounting (keys appear on first use;
        # mutation under self._cond for the counters created in
        # submit(), the histograms are internally locked).
        self._tenant_served: Dict[str, _obs.Counter] = {}
        self._tenant_shed: Dict[str, _obs.Counter] = {}
        self._tenant_lat: Dict[str, _obs.Histogram] = {}
        self._obs = registry if registry is not None else _obs.get_registry()
        self._obs.attach(self._stats)
        self._obs.attach(self)
        self._obs_enabled = self._obs.enabled
        self._batch_size_hist = self._obs.histogram("serving.batch_size")
        self._queue_gauge = self._obs.gauge("serving.queue_depth")
        self._running = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    def _tenant(self, store: Dict, tenant: str, factory):
        """The tenant's metric, created under ``self._cond`` on first use."""
        metric = store.get(tenant)
        if metric is None:
            metric = store[tenant] = factory()
        return metric

    def obs_metrics(self):
        """Registry collector hook: per-tenant metrics."""
        with self._cond:
            served = list(self._tenant_served.items())
            shed = list(self._tenant_shed.items())
            lat = list(self._tenant_lat.items())
        for tenant, counter in served:
            yield "serving.tenant_served", {"tenant": tenant}, counter
        for tenant, counter in shed:
            yield "serving.tenant_shed", {"tenant": tenant}, counter
        for tenant, hist in lat:
            yield "serving.tenant_latency_seconds", {"tenant": tenant}, hist

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the flusher thread (idempotent)."""
        with self._cond:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-flusher", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop the flusher, draining queued queries first (idempotent)."""
        with self._cond:
            stopping = self._running
            self._running = False
            self._cond.notify_all()
        if stopping and self._thread is not None:
            self._thread.join(timeout=10.0)
        self.flush()  # resolve anything still queued (start=False path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------
    def submit(self, method: str, query, tenant: str = "default") -> ServedAnswer:
        """Enqueue one query; returns a :class:`ServedAnswer` immediately.

        Raises :class:`OverloadError` when the pending queue is full or
        the tenant is over its fair share -- callers are expected to
        back off (shed-on-overload keeps the served tail bounded).
        """
        with self._cond:
            if len(self._queue) >= self._max_pending:
                self._stats.inc("shed")
                self._tenant(self._tenant_shed, tenant, _obs.Counter).inc()
                raise OverloadError(
                    f"pending queue full ({self._max_pending} queries)"
                )
            if self._tenant_pending.get(tenant, 0) >= self._tenant_cap:
                self._stats.inc("shed")
                self._stats.inc("shed_tenant")
                self._tenant(self._tenant_shed, tenant, _obs.Counter).inc()
                raise OverloadError(
                    f"tenant {tenant!r} over its fair share "
                    f"({self._tenant_cap} pending queries)"
                )
            answer = ServedAnswer(self._completion, tenant)
            self._queue.append(
                _QueueEntry(method, query, answer, time.monotonic())
            )
            self._tenant_pending[tenant] = (
                self._tenant_pending.get(tenant, 0) + 1
            )
            self._stats.inc("submitted")
            depth = len(self._queue)
            if depth > self._stats.max_queue_depth:
                self._stats.set_max("max_queue_depth", depth)
            if self._obs_enabled:
                self._queue_gauge.set(depth)
            # Wake the flusher when the batch is full -- and on the
            # first entry, so an idle flusher starts this batch's
            # max_delay deadline clock instead of sleeping through it.
            if depth == 1 or depth >= self._batch_size:
                self._cond.notify_all()
        return answer

    def pending(self) -> int:
        """Queries queued but not yet flushed."""
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Flushing (flusher thread, or the caller when not started)
    # ------------------------------------------------------------------
    def _take_locked(self, limit: Optional[int]) -> List[_QueueEntry]:
        count = (
            len(self._queue) if limit is None
            else min(limit, len(self._queue))
        )
        batch = [self._queue.popleft() for _ in range(count)]
        for entry in batch:
            tenant = entry.answer.tenant
            left = self._tenant_pending.get(tenant, 1) - 1
            if left <= 0:
                self._tenant_pending.pop(tenant, None)
            else:
                self._tenant_pending[tenant] = left
        if batch:
            self._cond.notify_all()  # free admission slots
        return batch

    def flush(self) -> int:
        """Drain and answer everything queued right now (synchronous).

        The manual path for ``start=False`` frontends (tests, offline
        replay); counted separately from size/deadline flushes.
        """
        with self._cond:
            batch = self._take_locked(None)
        if not batch:
            return 0
        self._stats.inc("flushes_forced")
        self._answer(batch)
        return len(batch)

    def _run(self) -> None:
        while True:
            batch: List[_QueueEntry] = []
            size_flush = False
            with self._cond:
                if not self._running and not self._queue:
                    break
                if len(self._queue) >= self._batch_size:
                    size_flush = True
                    batch = self._take_locked(self._batch_size)
                elif self._queue:
                    wait = (
                        self._queue[0].enqueued_at + self._max_delay
                        - time.monotonic()
                    )
                    if wait > 0 and self._running:
                        self._cond.wait(wait)
                        continue
                    batch = self._take_locked(None)
                else:
                    self._cond.wait(0.05)
                    continue
            self._stats.inc(
                "flushes_size" if size_flush else "flushes_deadline"
            )
            self._answer(batch)

    def _answer(self, batch: List[_QueueEntry]) -> None:
        """Answer one drained batch: one kernel call per method per backend."""
        with self._flush_lock:
            span = (
                self._obs.span("serving.flush", size=len(batch))
                if self._obs_enabled else _obs.NULL_SPAN
            )
            with span:
                by_method: "OrderedDict[str, List[_QueueEntry]]" = (
                    OrderedDict()
                )
                for entry in batch:
                    by_method.setdefault(entry.method, []).append(entry)
                self._stats.inc("flushes")
                bucket = _batch_bucket(len(batch))
                self._batch_hist[bucket] = (
                    self._batch_hist.get(bucket, 0) + 1
                )
                if self._obs_enabled:
                    self._batch_size_hist.observe(len(batch))
                for method, entries in by_method.items():
                    queries = [entry.query for entry in entries]
                    try:
                        # Compile the battery once; every backend's
                        # kernel consumes the same plan (the serve()
                        # trick, across suppliers instead of methods).
                        plan = (
                            compile_query_plan(queries)
                            if len(self._backends) > 1 else queries
                        )
                        per_backend = [
                            backend.query_many(method, plan)
                            for backend in self._backends
                        ]
                    except Exception:
                        self._stats.inc("fallbacks")
                        self._answer_singly(method, entries)
                        continue
                    for entry, values in zip(entries, zip(*per_backend)):
                        entry.answer._resolve(sum(values))
            self._account_latency(batch)

    def _account_latency(self, batch: List[_QueueEntry]) -> None:
        """Record enqueue->resolve latency per tenant, one pass per flush.

        ``done_at`` is stamped by ``_resolve``/``_fail``, so every
        entry of a flushed batch carries its service time already;
        grouping by tenant and using ``observe_many`` keeps the cost
        per-batch.  Served counts track *answered* queries (failed
        ones still count: the tenant occupied a slot either way).
        """
        by_tenant: Dict[str, List[float]] = {}
        for entry in batch:
            done_at = entry.answer.done_at
            if done_at is None:  # pragma: no cover - answer paths stamp it
                continue
            by_tenant.setdefault(entry.answer.tenant, []).append(
                done_at - entry.enqueued_at
            )
        for tenant, latencies in by_tenant.items():
            with self._cond:
                served = self._tenant(
                    self._tenant_served, tenant, _obs.Counter
                )
                hist = self._tenant(
                    self._tenant_lat, tenant, _obs.Histogram
                )
            served.inc(len(latencies))
            hist.observe_many(latencies)

    def _answer_singly(self, method: str, entries: List[_QueueEntry]) -> None:
        """Fault isolation: pin errors on the queries that actually fail."""
        failed = 0
        for entry in entries:
            try:
                total = 0.0
                for backend in self._backends:
                    total += float(backend.query_many(method, [entry.query])[0])
            except Exception as error:
                entry.answer._fail(error)
                failed += 1
            else:
                entry.answer._resolve(total)
        if failed:
            self._stats.inc("failed", failed)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Merged serving + per-backend cache telemetry, one flat dict.

        Cache counters (hits/misses/evictions/batteries/queries) are
        summed across the per-supplier frontends; serving counters
        (submitted, sheds, flush reasons, fallbacks, failed queries,
        batch histogram, queue depths) come from this service's own
        lifetime.  ``tenants`` maps every tenant seen so far to its
        served/shed counts, shed ratio and latency percentiles
        (power-of-two bucket upper bounds, milliseconds) -- the
        per-tenant accounting the admission-control counters only
        hinted at.
        """
        merged: Dict[str, object] = self._stats.snapshot()
        with self._flush_lock:
            merged["batch_hist"] = dict(sorted(self._batch_hist.items()))
        for key in _CACHE_FIELDS:
            merged[key] = sum(
                getattr(backend.stats, key) for backend in self._backends
            )
        merged["suppliers"] = len(self._backends)
        with self._cond:
            merged["pending"] = len(self._queue)
            tenants = sorted(
                set(self._tenant_served) | set(self._tenant_shed)
            )
            served = {
                t: c.value for t, c in self._tenant_served.items()
            }
            shed = {t: c.value for t, c in self._tenant_shed.items()}
            hists = dict(self._tenant_lat)
        per_tenant: Dict[str, Dict[str, object]] = {}
        for tenant in tenants:
            n_served = served.get(tenant, 0)
            n_shed = shed.get(tenant, 0)
            entry: Dict[str, object] = {
                "served": n_served,
                "shed": n_shed,
                "shed_ratio": (
                    n_shed / (n_served + n_shed)
                    if (n_served + n_shed) else 0.0
                ),
            }
            hist = hists.get(tenant)
            if hist is not None and hist.count:
                entry.update({
                    "p50_ms": hist.percentile(0.50) * 1e3,
                    "p95_ms": hist.percentile(0.95) * 1e3,
                    "p99_ms": hist.percentile(0.99) * 1e3,
                    "mean_ms": hist.total / hist.count * 1e3,
                })
            per_tenant[tenant] = entry
        merged["tenants"] = per_tenant
        return merged
