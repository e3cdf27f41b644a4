"""Telemetry layer: histograms, registry, spans, probes, full stack.

Covers the observability contracts end to end:

* :class:`~repro.obs.Histogram` -- power-of-two bucket boundaries,
  rank-exact percentile extraction, vectorized ``observe_many``
  equivalence, merge associativity, and the bit-exact ``obs-hist``
  wire-codec round trip (same protocol as every summary);
* :class:`~repro.obs.MetricsRegistry` -- named metric identity,
  collector attachment (weakly referenced), snapshot/delta semantics,
  Prometheus exposition, JSONL timeline records, and the
  disabled-registry null-object contract;
* spans -- nesting/parent links, error tagging, ring bounds;
* thread safety -- the atomic-increment-under-GIL pattern of
  :class:`~repro.obs.CounterSet` and its owners;
* :class:`~repro.obs.AccuracyProbe` -- 30-seed agreement with the
  offline discrepancy computation, tau drift tracking;
* the acceptance stack -- one enabled registry observing a
  ``ServingFrontend`` + ``AsyncDispatcher`` + ``StreamEngine`` fleet
  reports wire, dispatch, serving, per-tenant latency and accuracy
  metrics under a single namespace.
"""

import io
import json
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.types import Dataset
from repro.distributed import (
    AsyncDispatcher,
    Coordinator,
    InProcessTransport,
    ServingFrontend,
    TCPTransport,
    distributed_build,
)
from repro.distributed.codec import from_bytes, to_bytes
from repro.distributed.frontend import ServedAnswer, _QueueEntry
from repro.obs import AccuracyProbe, CounterSet, Histogram, MetricsRegistry
from repro.stream import StreamEngine, tumbling
from repro.structures.ranges import Box

DOMAIN = 1 << 12


@pytest.fixture
def registry():
    """An enabled registry installed as the process-global one."""
    reg = MetricsRegistry(enabled=True)
    previous = obs.set_registry(reg)
    yield reg
    obs.set_registry(previous)


def dataset(seed=42, n=2000):
    rng = np.random.default_rng(seed)
    return Dataset.one_dimensional(
        rng.integers(0, DOMAIN, size=n),
        1.0 + rng.pareto(1.4, size=n),
        DOMAIN,
    )


def battery(step=DOMAIN // 8):
    return [Box((lo,), (lo + DOMAIN // 3,))
            for lo in range(0, DOMAIN // 2, step)]


# ----------------------------------------------------------------------
# Histogram: buckets, percentiles, merge, wire codec
# ----------------------------------------------------------------------

class TestHistogram:
    def test_bucket_boundaries(self):
        """Bucket e covers [2^(e-1), 2^e): edges land in the upper bucket."""
        hist = Histogram()
        for value in (0.5, 0.999, 1.0, 1.5, 1.999, 2.0, 4.0):
            hist.observe(value)
        buckets = hist.snapshot_value()["buckets"]
        # 0.5..<1 -> bucket 0; 1..<2 -> bucket 1; 2..<4 -> 2; 4..<8 -> 3
        assert buckets == {"0": 2, "1": 3, "2": 1, "3": 1}

    def test_zero_and_negative_bucket(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(-3.5)
        snap = hist.snapshot_value()
        assert snap["zero"] == 2 and snap["count"] == 2
        assert snap["buckets"] == {}
        assert hist.percentile(0.5) == 0.0

    def test_percentile_rank_exact(self):
        """percentile(q) = upper edge of the bucket holding rank ceil(qn)."""
        hist = Histogram()
        hist.observe_many([1.0] * 50 + [10.0] * 45 + [100.0] * 5)
        # rank 50 -> the 1.0s (bucket [1,2), upper edge 2);
        # rank 95 -> the 10.0s (bucket [8,16), upper edge 16);
        # rank 99 -> the 100.0s (bucket [64,128), upper edge 128).
        assert hist.percentile(0.50) == 2.0
        assert hist.percentile(0.95) == 16.0
        assert hist.percentile(0.99) == 128.0
        assert hist.percentile(1.00) == 128.0

    def test_percentile_bounds_true_quantile(self):
        """The returned edge bounds the true quantile within one octave."""
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-6.0, sigma=2.0, size=5000)
        hist = Histogram()
        hist.observe_many(values)
        for q in (0.5, 0.9, 0.99):
            true = float(np.quantile(values, q, method="inverted_cdf"))
            upper = hist.percentile(q)
            assert true <= upper <= true * 2.0 + 1e-12

    def test_observe_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.lognormal(size=500), [0.0, -1.0, 2.0, 1024.0]
        ])
        one = Histogram()
        for value in values:
            one.observe(value)
        many = Histogram()
        many.observe_many(values)
        a, b = one.snapshot_value(), many.snapshot_value()
        # Bucket counts are integers (exactly equal); the running float
        # total may differ in the last ulp with summation order.
        total_a, total_b = a.pop("total"), b.pop("total")
        assert a == b
        assert total_a == pytest.approx(total_b, rel=1e-12)

    def test_merge_associative_and_commutative(self):
        """Bucket counts agree whatever the merge tree shape."""
        rng = np.random.default_rng(11)
        parts = []
        for _ in range(4):
            hist = Histogram()
            hist.observe_many(rng.lognormal(size=200))
            parts.append(hist)

        def merged(order):
            acc = Histogram()
            for index in order:
                acc.merge(parts[index])
            return acc

        left = merged([0, 1, 2, 3])
        right = Histogram().merge(
            Histogram().merge(parts[3]).merge(parts[2])
        ).merge(Histogram().merge(parts[1]).merge(parts[0]))
        a, b = left.snapshot_value(), right.snapshot_value()
        assert a["buckets"] == b["buckets"]
        assert a["count"] == b["count"]
        assert a["min"] == b["min"] and a["max"] == b["max"]
        assert a["total"] == pytest.approx(b["total"], rel=1e-12)

    def test_wire_codec_round_trip_bit_exact(self):
        """obs-hist ships over the summary codec like any other state."""
        hist = Histogram()
        hist.observe_many([0.125, 3.0, 3.0, 700.0, 0.0])
        clone = from_bytes(to_bytes(hist))
        assert isinstance(clone, Histogram)
        state, clone_state = hist.to_state(), clone.to_state()
        assert sorted(state) == sorted(clone_state)
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, clone_state[key])
            else:
                assert value == clone_state[key]
        assert clone.snapshot_value() == hist.snapshot_value()

    def test_worker_histograms_sum_on_coordinator(self):
        """Shipped worker histograms merge into the exact union."""
        worker_hists, union = [], Histogram()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            values = rng.lognormal(size=100)
            hist = Histogram()
            hist.observe_many(values)
            union.observe_many(values)
            worker_hists.append(to_bytes(hist))  # ship
        folded = Histogram()
        for blob in worker_hists:
            folded.merge(from_bytes(blob))
        a, b = folded.snapshot_value(), union.snapshot_value()
        assert a["buckets"] == b["buckets"] and a["count"] == b["count"]


# ----------------------------------------------------------------------
# Registry: identity, collectors, snapshots, deltas, exports
# ----------------------------------------------------------------------

class TestRegistry:
    def test_named_metric_identity(self, registry):
        a = registry.counter("x.hits", tenant="t0")
        b = registry.counter("x.hits", tenant="t0")
        c = registry.counter("x.hits", tenant="t1")
        assert a is b and a is not c
        a.inc(2)
        snap = registry.snapshot()
        assert snap["x.hits{tenant=t0}"] == 2
        assert snap["x.hits{tenant=t1}"] == 0

    def test_kind_conflict_raises(self, registry):
        registry.counter("a.b")
        with pytest.raises(TypeError):
            registry.histogram("a.b")

    def test_collectors_sum_same_key(self, registry):
        """Two same-name transports' counters sum in the snapshot."""
        first, second = TCPTransport(), TCPTransport()  # attach on init
        first.stats.inc("frames_sent", 3)
        second.stats.inc("frames_sent", 4)
        assert registry.snapshot()["wire.frames_sent{transport=tcp}"] == 7

    def test_collector_weakref_drops_with_owner(self, registry):
        stats = CounterSet("wire", {"transport": "gone"}, ("frames_sent",))
        registry.attach(stats)
        assert "wire.frames_sent{transport=gone}" in registry.snapshot()
        del stats
        assert "wire.frames_sent{transport=gone}" not in registry.snapshot()

    def test_delta_counters_and_histograms(self, registry):
        counter = registry.counter("d.count")
        hist = registry.histogram("d.lat")
        counter.inc(5)
        hist.observe_many([1.0, 1.0])
        before = registry.snapshot()
        counter.inc(2)
        hist.observe_many([100.0, 100.0, 100.0])
        delta = registry.delta(registry.snapshot(), before)
        assert delta["d.count"] == 2
        assert delta["d.lat"]["count"] == 3
        # Window percentiles describe only the new observations.
        assert delta["d.lat"]["p50"] == 128.0

    def test_expose_prometheus_text(self, registry):
        registry.counter("wire.bytes_sent", transport="tcp").inc(9)
        registry.histogram("serving.latency_seconds").observe(0.003)
        text = obs.expose(registry.snapshot())
        assert 'repro_wire_bytes_sent{transport="tcp"} 9' in text
        assert "repro_serving_latency_seconds_count 1" in text
        assert 'le="+Inf"' in text
        # Cumulative bucket for 0.003: upper edge 2^-8 = 0.00390625.
        assert 'le="0.00390625"' in text

    def test_report_timeline_jsonl(self, registry):
        counter = registry.counter("t.events")
        counter.inc(4)
        stream = io.StringIO()
        first = registry.report_timeline(stream, label="win0")
        counter.inc(6)
        second = registry.report_timeline(stream)
        assert first["metrics"]["t.events"] == 4
        assert first["label"] == "win0"
        assert second["metrics"]["t.events"] == 6
        lines = [json.loads(line) for line in
                 stream.getvalue().strip().splitlines()]
        assert len(lines) == 2
        assert lines[1]["metrics"]["t.events"] == 6
        assert lines[0]["t"] <= lines[1]["t"]


class TestDisabledRegistry:
    def test_null_metrics_are_shared_no_ops(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("n.a")
        gauge = reg.gauge("n.b")
        hist = reg.histogram("n.c", tenant="t")
        assert counter is reg.counter("other.name")
        counter.inc(5)
        gauge.set(3.0)
        hist.observe(1.0)
        hist.observe_many([1.0, 2.0])
        assert counter.value == 0 and hist.count == 0
        assert reg.snapshot() == {}

    def test_null_span_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        with reg.span("outer") as span:
            with reg.span("inner"):
                pass
        assert span is obs.NULL_SPAN
        assert len(reg.trace) == 0

    def test_disabled_registry_still_pulls_collectors(self):
        """Functional stats (wire accounting) surface either way."""
        reg = MetricsRegistry(enabled=False)
        stats = CounterSet("wire", {"transport": "pipe"}, ("bytes_sent",))
        reg.attach(stats)
        stats.inc("bytes_sent", 123)
        assert reg.snapshot()["wire.bytes_sent{transport=pipe}"] == 123


# ----------------------------------------------------------------------
# Spans: nesting, parents, ring bounds
# ----------------------------------------------------------------------

class TestSpans:
    def test_parent_links_reconstruct_nesting(self, registry):
        with registry.span("outer") as outer:
            with registry.span("inner", step=1) as inner:
                pass
        spans = registry.trace.spans()
        assert [span["name"] for span in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None
        assert inner_rec["tags"] == {"step": 1}
        assert 0.0 <= inner_rec["duration"] <= outer.duration
        assert inner.span_id == inner_rec["span_id"]

    def test_span_durations_feed_trace_histogram(self, registry):
        with registry.span("unit"):
            pass
        snap = registry.snapshot()
        assert snap["trace.unit_seconds"]["count"] == 1

    def test_error_tagging(self, registry):
        with pytest.raises(ValueError):
            with registry.span("boom"):
                raise ValueError("nope")
        (record,) = registry.trace.spans("boom")
        assert record["error"] == "ValueError"

    def test_ring_is_bounded(self):
        reg = MetricsRegistry(enabled=True, trace_capacity=8)
        for index in range(50):
            with reg.span("tick", i=index):
                pass
        spans = reg.trace.spans()
        assert len(spans) == 8
        assert [span["tags"]["i"] for span in spans] == list(range(42, 50))


# ----------------------------------------------------------------------
# Thread safety: the atomic-increment contract
# ----------------------------------------------------------------------

class TestThreadSafety:
    def _hammer(self, *works, threads=8):
        """Run every work function on ``threads`` threads at once."""
        barrier = threading.Barrier(threads * len(works))

        def run(work):
            barrier.wait()
            work()

        pool = [
            threading.Thread(target=run, args=(work,))
            for work in works for _ in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

    def test_counter_inc_loses_no_updates(self):
        counter = obs.Counter()
        self._hammer(lambda: [counter.inc() for _ in range(5000)])
        assert counter.value == 8 * 5000

    def test_counter_set_inc_loses_no_updates(self):
        """Two fields of one set, each hammered by 8 threads at once."""
        stats = CounterSet("t", None, ("a", "b"))
        self._hammer(
            lambda: [stats.inc("a") for _ in range(5000)],
            lambda: [stats.inc("b", 2) for _ in range(5000)],
        )
        assert stats.a == 8 * 5000
        assert stats.b == 2 * 8 * 5000

    def test_counter_set_set_max_keeps_true_maximum(self):
        stats = CounterSet("t", None, ("depth",))
        values = np.random.default_rng(3).permutation(8 * 5000)
        chunks = iter(np.array_split(values, 8))
        lock = threading.Lock()

        def work():
            with lock:
                chunk = next(chunks)
            for value in chunk.tolist():
                stats.set_max("depth", value)

        self._hammer(work)
        assert stats.depth == 8 * 5000 - 1

    def test_counter_set_reads_and_collects(self):
        stats = CounterSet("wire", {"transport": "x"}, ("frames", "bytes"))
        stats.inc("bytes", 7)
        assert stats.bytes == 7 and stats.frames == 0
        assert stats.snapshot() == {"frames": 0, "bytes": 7}
        assert [(name, labels, metric.snapshot_value())
                for name, labels, metric in stats.obs_metrics()] == [
            ("wire.frames", {"transport": "x"}, 0),
            ("wire.bytes", {"transport": "x"}, 7),
        ]
        with pytest.raises(AttributeError):
            stats.missing
        with pytest.raises(KeyError):
            stats.inc("missing")
        with pytest.raises(AttributeError):  # only inc() may write
            stats.bytes += 1

    def test_dispatch_stats_inc_loses_no_updates(self):
        transport = InProcessTransport()
        transport.start(1)
        dispatcher = AsyncDispatcher(transport)
        try:
            self._hammer(
                lambda: [dispatcher.stats.inc("failed") for _ in range(5000)]
            )
            assert dispatcher.stats.failed == 8 * 5000
        finally:
            dispatcher.stop()
            transport.stop()

    def test_frontend_stats_batch_hist_under_contention(self):
        """Concurrent flushes of 5-query batches lose no histogram count."""

        class Zeros:
            def query_many(self, queries):
                return [0.0] * len(queries)

        class Supplier:
            version = 0

            def snapshot(self, method):
                return Zeros()

        service = ServingFrontend(Supplier(), start=False)

        def work():
            batch = [
                _QueueEntry("m", None,
                            ServedAnswer(service._completion, "t"), 0.0)
                for _ in range(5)
            ]
            for _ in range(5000):
                service._answer(batch)

        self._hammer(work)
        assert service.stats()["batch_hist"] == {8: 8 * 5000}

    def test_histogram_observe_under_contention(self):
        hist = Histogram()
        self._hammer(lambda: [hist.observe(1.5) for _ in range(2000)])
        assert hist.count == 8 * 2000
        assert hist.snapshot_value()["buckets"] == {"1": 8 * 2000}


# ----------------------------------------------------------------------
# AccuracyProbe: agreement with offline discrepancy, tau drift
# ----------------------------------------------------------------------

class TestAccuracyProbe:
    def _engine(self, seed, n=600):
        data = dataset(seed=seed, n=n)
        engine = StreamEngine(data.domain, ["exact", "obliv"], 64,
                              seed=seed)
        engine.process((data.coords, data.weights))
        return engine

    def test_30_seed_agreement_with_offline_discrepancy(self, registry):
        queries = battery()
        for seed in range(30):
            engine = self._engine(seed)
            probe = AccuracyProbe(engine, queries, registry=registry)
            reading = probe.observe()["obliv"]
            # Offline recomputation straight from the snapshots.
            exact = np.asarray(
                engine.snapshot("exact").query_many(queries), dtype=float
            )
            approx = np.asarray(
                engine.snapshot("obliv").query_many(queries), dtype=float
            )
            offline = float(np.max(np.abs(approx - exact)))
            assert reading["discrepancy"] == pytest.approx(offline, rel=1e-9)
            assert reading["tau"] == pytest.approx(
                float(engine.snapshot("obliv").tau)
            )

    def test_stride_and_gauges(self, registry):
        engine = self._engine(1)
        probe = AccuracyProbe(engine, battery(), stride=3,
                              registry=registry)
        readings = [probe.tick() for _ in range(6)]
        assert [r is not None for r in readings] == [
            False, False, True, False, False, True,
        ]
        snap = registry.snapshot()
        assert snap["accuracy.observations"] == 2
        assert "accuracy.discrepancy{method=obliv}" in snap
        assert "accuracy.tau{method=obliv}" in snap

    def test_tau_drift_tracks_changes(self, registry):
        data = dataset(seed=9, n=2000)
        engine = StreamEngine(data.domain, ["exact", "obliv"], 48, seed=9)
        probe = AccuracyProbe(engine, battery(), registry=registry)
        half = data.n // 2
        engine.process((data.coords[:half], data.weights[:half]))
        first = probe.observe()["obliv"]
        assert first["tau_drift"] == 0.0  # first sighting: no history
        engine.process((data.coords[half:], data.weights[half:]))
        second = probe.observe()["obliv"]
        assert second["tau_drift"] == pytest.approx(
            abs(second["tau"] - first["tau"])
        )
        assert second["tau"] > first["tau"]  # more mass, higher threshold

    def test_unknown_reference_rejected(self, registry):
        engine = self._engine(2)
        with pytest.raises(ValueError):
            AccuracyProbe(engine, battery(), reference="nope",
                          registry=registry)


# ----------------------------------------------------------------------
# Per-tenant serving accounting
# ----------------------------------------------------------------------

class TestPerTenantAccounting:
    def test_stats_tenants_served_shed_latency(self, registry):
        data = dataset()
        supplier = _static_supplier(data)
        service = ServingFrontend(
            supplier, batch_size=8, max_pending=8, tenant_share=0.5,
            start=False,
        )
        queries = battery()
        for index, query in enumerate(queries[:4]):
            service.submit("exact", query,
                           tenant="a" if index % 2 else "b")
        shed = 0
        try:
            for _ in range(10):
                service.submit("exact", queries[0], tenant="flood")
        except Exception:
            shed = 1
        service.flush()
        stats = service.stats()
        tenants = stats["tenants"]
        assert shed == 1 and tenants["flood"]["shed"] >= 1
        assert 0.0 < tenants["flood"]["shed_ratio"] <= 1.0
        for tenant in ("a", "b"):
            entry = tenants[tenant]
            assert entry["served"] == 2 and entry["shed"] == 0
            assert entry["shed_ratio"] == 0.0
            assert entry["p50_ms"] > 0.0
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
        # The same histograms surface through the registry, labelled.
        snap = registry.snapshot()
        assert snap["serving.tenant_latency_seconds{tenant=a}"]["count"] == 2
        assert snap["serving.tenant_served{tenant=b}"] == 2
        assert snap["serving.tenant_shed{tenant=flood}"] >= 1
        service.close()


def _static_supplier(data):
    from repro.engine.registry import build

    summaries = {
        "exact": build("exact", data, 200, np.random.default_rng(1)),
        "obliv": build("obliv", data, 200, np.random.default_rng(2)),
    }

    class Supplier:
        version = 0
        methods = list(summaries)

        def snapshot(self, method):
            return summaries[method]

    return Supplier()


# ----------------------------------------------------------------------
# Acceptance: one snapshot over the whole serving stack
# ----------------------------------------------------------------------

class TestFullStackSnapshot:
    def test_single_namespace_snapshot(self, registry):
        data = dataset(n=1500)
        # Distributed build: wire + dispatch + coordinator spans.
        with Coordinator("inprocess", 2) as coordinator:
            distributed_build("exact", data, 200,
                              coordinator=coordinator)
            # Streaming ingest: pane seal + ingest telemetry.
            engine = StreamEngine(
                data.domain, ["exact", "obliv"], 64,
                window=tumbling(4.0), seed=0,
            )
            for start in range(0, data.n, 100):
                stop = min(start + 100, data.n)
                engine.process((
                    data.coords[start:stop], data.weights[start:stop],
                    float(start // 100),
                ))
            # Serving + accuracy.
            service = ServingFrontend(_static_supplier(data),
                                      batch_size=4, start=False)
            for query in battery()[:4]:
                service.submit("exact", query, tenant="t0")
            service.flush()
            probe = AccuracyProbe(engine, battery(), registry=registry)
            probe.observe()
            snap = registry.snapshot()
            service.close()
        prefixes = {key.split(".")[0] for key in snap}
        assert {"wire", "dispatch", "serving", "stream",
                "accuracy", "trace"} <= prefixes
        # Wire and dispatch counters moved during the build.
        assert snap["wire.frames_sent{transport=inprocess}"] > 0
        assert snap["dispatch.completed"] > 0
        # Stream ingest telemetry saw every batch and sealed panes.
        assert snap["stream.batches_ingested"] == engine.batches_seen
        assert snap["stream.items_ingested"] == engine.items_seen
        assert snap["stream.panes_sealed"] > 0
        assert snap["stream.pane_seal_seconds"]["count"] == \
            snap["stream.panes_sealed"]
        # Per-tenant latency + accuracy under the same namespace.
        assert snap["serving.tenant_latency_seconds{tenant=t0}"]["count"] == 4
        assert "accuracy.discrepancy{method=obliv}" in snap
        # Spans from the coordinator and the pane seals in one ring.
        names = {span["name"] for span in registry.trace.spans()}
        assert "coordinator.run_tasks" in names
        assert "stream.pane_seal" in names
        assert "serving.flush" in names
        # The whole snapshot renders as one exposition page.
        text = obs.expose(snap)
        assert "repro_dispatch_completed" in text
        assert "repro_stream_items_ingested" in text

    #: ``wire.*``/``dispatch.*``/``serving.*`` keys of this stack when
    #: every component kept its own stats class.
    PARENT_KEYS = {
        "dispatch.backpressure_waits", "dispatch.completed",
        "dispatch.dispatched", "dispatch.failed", "dispatch.max_queue_depth",
        "dispatch.orphans", "dispatch.queue_depth", "dispatch.rejected",
        "dispatch.reply_latency_seconds", "dispatch.submitted",
        "serving.batch_size",
        "serving.batteries{scope=frontend}",
        "serving.batteries{scope=serving}",
        "serving.evictions{scope=frontend}",
        "serving.evictions{scope=serving}",
        "serving.flushes_deadline", "serving.flushes_forced",
        "serving.flushes_size",
        "serving.flushes{scope=frontend}", "serving.flushes{scope=serving}",
        "serving.hits{scope=frontend}", "serving.hits{scope=serving}",
        "serving.misses{scope=frontend}", "serving.misses{scope=serving}",
        "serving.queries{scope=frontend}", "serving.queries{scope=serving}",
        "serving.queue_depth", "serving.shed_tenant",
        "serving.shed{scope=frontend}", "serving.shed{scope=serving}",
        "serving.submitted{scope=frontend}",
        "serving.submitted{scope=serving}",
        "serving.tenant_latency_seconds{tenant=default}",
        "serving.tenant_served{tenant=default}",
        "wire.bytes_received{transport=inprocess}",
        "wire.bytes_sent{transport=inprocess}",
        "wire.frames_received{transport=inprocess}",
        "wire.frames_sent{transport=inprocess}",
        "wire.shm_bytes{transport=inprocess}",
        "wire.shm_frames{transport=inprocess}",
    }
    #: The flush-reason counters joined the ``scope=serving`` set.
    RENAMED = {
        name: name + "{scope=serving}"
        for name in ("serving.flushes_size", "serving.flushes_deadline",
                     "serving.flushes_forced", "serving.shed_tenant")
    }
    #: Counters no component writes any more: the cache counters of the
    #: service's own set (they live on its per-supplier frontends) and
    #: the submit/flush/shed counters of ``QueryFrontend``.
    DROPPED = {
        f"serving.{name}{{scope=serving}}"
        for name in ("hits", "misses", "evictions", "batteries", "queries")
    } | {
        f"serving.{name}{{scope=frontend}}"
        for name in ("submitted", "flushes", "shed")
    }
    ADDED = {
        f"serving.{name}{{scope=serving}}"
        for name in ("max_queue_depth", "fallbacks", "failed")
    }

    def test_counter_set_registry_keys(self, registry):
        data = dataset(n=500)
        with Coordinator("inprocess", 2) as coordinator:
            distributed_build("exact", data, 100, coordinator=coordinator)
            service = ServingFrontend(_static_supplier(data),
                                      batch_size=4, start=False)
            service.submit("exact", battery()[0])
            service.flush()
            snap = registry.snapshot()
            service.close()
        got = {
            key for key in snap
            if key.split(".")[0] in ("wire", "dispatch", "serving")
        }
        expected = (
            self.PARENT_KEYS - self.DROPPED - set(self.RENAMED)
        ) | set(self.RENAMED.values()) | self.ADDED
        assert got == expected
        assert snap["serving.flushes_forced{scope=serving}"] == 1
        assert snap["serving.max_queue_depth{scope=serving}"] == 1

    def test_dispatcher_reply_latency_recorded(self, registry):
        data = dataset(n=800)
        with Coordinator("inprocess", 2) as coordinator:
            distributed_build("exact", data, 100,
                              coordinator=coordinator)
        hist = registry.snapshot()["dispatch.reply_latency_seconds"]
        assert hist["count"] > 0
        assert hist["p95"] > 0.0


class TestBucketExponentHelper:
    def test_matches_math_frexp(self):
        for value in (1e-9, 0.5, 1.0, 1.5, 2.0, 1000.0):
            exp = obs.metrics.bucket_exponent(value)
            assert math.ldexp(1.0, exp - 1) <= value < math.ldexp(1.0, exp)
