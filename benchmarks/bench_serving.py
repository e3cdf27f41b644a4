"""Async serving tier under load: closed-loop baseline vs open-loop sweeps.

Three measurements against frozen summaries behind the snapshot-
supplier protocol:

1. **Closed-loop single caller**: one thread asks one query and waits
   for its answer before asking the next.  With nobody else filling
   the batch, every query is a battery of one
   (``QueryFrontend.query_many(method, [query])``) -- the serving
   throughput collapses to the per-query kernel path no matter how
   large a batch the service would allow.
2. **Async service, concurrent tenants**: the same queries, same
   ``batch_size``, through a :class:`ServingFrontend` -- several
   tenant threads keep a pipeline of submissions open, the flusher
   thread answers cross-tenant batches with one kernel call per
   method.  The ISSUE gate: >= 5x the closed-loop baseline.
3. **Open-loop offered-rate sweep**: Zipf-skewed multi-tenant traffic
   replayed at fixed offered rates (Poisson arrivals; submissions
   never wait for answers), measuring p50/p95/p99/p999 latency from
   *scheduled* arrival -- so queueing delay counts -- plus shed and
   queue-depth counters.  The sweep's top rate is far past
   saturation; the achieved rate there is the saturation throughput.

A correctness anchor rides along: two ``ServingFrontend`` suppliers
holding disjoint halves of the data must answer exact-method queries
with the *sum* of their range sums, bit-equal to a single full-data
supplier (range-sum additivity across shards).

Smoke mode shrinks sizes and rates so the whole file runs in seconds;
timing assertions are skipped but every record is still emitted for
the regression gate.
"""

import threading
import time

import numpy as np

from conftest import SMOKE, emit, emit_json, perf_assert
from repro import obs
from repro.core.types import Dataset
from repro.datagen.serving import (
    latency_percentiles,
    open_loop_schedule,
    replay_open_loop,
    tenant_traffic,
)
from repro.distributed.frontend import (
    OverloadError,
    QueryFrontend,
    ServingFrontend,
)
from repro.engine.registry import build
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box

DOMAIN_BITS = 20
N_ITEMS = 200_000
SIZE = 3000
BATCH = 256  # same knob as bench_query_serving's frontend section
N_CLOSED = 4000  # closed-loop / async comparison queries
N_TENANT_THREADS = 8
SWEEP_SECONDS = 1.2  # offered-load duration per rate
RATE_FACTORS = (0.25, 0.5, 1.0, 2.0)  # x the measured async throughput
MAX_SWEEP_QUERIES = 60_000
N_OBS = 8000  # instrumentation-overhead comparison queries
OBS_REPEATS = 5  # best-of-N per mode (interleaved, noise-robust)
if SMOKE:
    DOMAIN_BITS = 12
    N_ITEMS = 3000
    SIZE = 200
    BATCH = 64
    N_CLOSED = 300
    N_TENANT_THREADS = 4
    SWEEP_SECONDS = 0.3
    MAX_SWEEP_QUERIES = 400
    N_OBS = 4000
    OBS_REPEATS = 7

#: The ISSUE's sweep families; exact rides along as the fan-out anchor.
METHODS = ("sketch", "qdigest")


class _StaticSupplier:
    """Frozen summaries behind the snapshot-supplier protocol."""

    def __init__(self, summaries):
        self._summaries = summaries
        self.version = 0

    def snapshot(self, method):
        return self._summaries[method]

    @property
    def methods(self):
        return list(self._summaries)


def _battery(rng, size, n_queries):
    lows = rng.integers(0, size, n_queries)
    spans = rng.integers(0, max(1, size // 10), n_queries)
    highs = np.minimum(lows + spans, size - 1)
    return [Box((int(lo),), (int(hi),)) for lo, hi in zip(lows, highs)]


def _closed_loop(frontend, method, queries):
    """Single caller, one outstanding query: a battery of one, repeat."""
    start = time.perf_counter()
    answers = [
        frontend.query_many(method, [query])[0] for query in queries
    ]
    return answers, time.perf_counter() - start


def _async_concurrent(service, method, queries, n_threads):
    """Concurrent tenants, each keeping a pipeline of submissions open."""
    chunks = [queries[i::n_threads] for i in range(n_threads)]
    answers = [None] * n_threads
    errors = []

    def tenant(i):
        try:
            handles = []
            for query in chunks[i]:
                while True:
                    try:
                        handles.append(
                            service.submit(method, query, tenant=f"t{i}")
                        )
                        break
                    except OverloadError:
                        time.sleep(0.0005)
            answers[i] = [h.result(30.0) for h in handles]
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=tenant, args=(i,))
        for i in range(n_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    flat = [None] * len(queries)
    for i, chunk_answers in enumerate(answers):
        flat[i::n_threads] = chunk_answers
    return flat, elapsed


def test_serving(results_dir):
    rng = np.random.default_rng(11)
    size = 1 << DOMAIN_BITS
    domain = ProductDomain([OrderedDomain(size)])
    coords = rng.integers(0, size, size=(N_ITEMS, 1))
    weights = 1.0 + rng.pareto(1.2, N_ITEMS)
    data = Dataset(coords=coords, weights=weights, domain=domain)
    summaries = {
        method: build(method, data, SIZE, np.random.default_rng(17))
        for method in METHODS + ("exact",)
    }
    queries = _battery(rng, size, N_CLOSED)
    tol = 1e-9 * float(weights.sum())

    records = []
    lines = ["== Serving tier: closed loop vs async service =="]

    # ------------------------------------------------------------------
    # Fan-out correctness anchor: disjoint halves sum to the whole.
    # ------------------------------------------------------------------
    half = N_ITEMS // 2
    half_suppliers = [
        _StaticSupplier({
            "exact": build(
                "exact",
                Dataset(coords=coords[sl], weights=weights[sl],
                        domain=domain),
                SIZE,
                np.random.default_rng(17),
            ),
        })
        for sl in (slice(None, half), slice(half, None))
    ]
    with ServingFrontend(
        half_suppliers, batch_size=BATCH, max_delay_ms=2.0
    ) as fanout:
        handles = [
            fanout.submit("exact", query) for query in queries[:200]
        ]
        fanned = [handle.result(30.0) for handle in handles]
    whole = summaries["exact"].query_many(queries[:200])
    np.testing.assert_allclose(fanned, whole, rtol=1e-9, atol=tol)
    lines.append(
        "fan-out anchor: 2-supplier sums match whole-data exact "
        f"({len(fanned)} queries)"
    )

    # ------------------------------------------------------------------
    # Closed loop vs async service at equal batch size.
    # ------------------------------------------------------------------
    async_rates = {}
    for method in METHODS:
        supplier = _StaticSupplier(summaries)
        closed_frontend = QueryFrontend(supplier)
        ref, closed_time = _closed_loop(closed_frontend, method, queries)
        closed_rate = len(queries) / max(closed_time, 1e-12)

        with ServingFrontend(
            _StaticSupplier(summaries),
            batch_size=BATCH,
            max_delay_ms=2.0,
            max_pending=max(1024, 4 * BATCH * N_TENANT_THREADS),
            tenant_share=1.0,
        ) as service:
            answers, async_time = _async_concurrent(
                service, method, queries, N_TENANT_THREADS
            )
            stats = service.stats()
        np.testing.assert_allclose(answers, ref, rtol=1e-9, atol=tol)
        async_rate = len(queries) / max(async_time, 1e-12)
        async_rates[method] = async_rate
        speedup = async_rate / max(closed_rate, 1e-12)
        records.append({
            "kernel": f"serving-async:{method}",
            "mode": "closed-vs-async",
            "n": len(queries),
            "batch_size": BATCH,
            "tenants": N_TENANT_THREADS,
            "domain_bits": DOMAIN_BITS,
            "wall_time_s": async_time,
            "wall_time_scalar_s": closed_time,
            "closed_loop_per_s": closed_rate,
            "throughput_per_s": async_rate,
            "speedup_vs_sync": speedup,
            "flushes": stats["flushes"],
            "max_queue_depth": stats["max_queue_depth"],
        })
        lines.append(
            f"{method:<10} closed-loop {closed_rate:9.0f} q/s -> "
            f"async x{N_TENANT_THREADS} tenants {async_rate:9.0f} q/s "
            f"({speedup:.1f}x, {stats['flushes']} flushes, "
            f"batch_hist {stats['batch_hist']})"
        )
        perf_assert(
            speedup >= 5.0,
            f"{method} async serving speedup {speedup:.1f}x < 5x "
            "over single-caller closed loop",
        )

    # ------------------------------------------------------------------
    # Open-loop offered-rate sweep (Poisson arrivals, Zipf tenants).
    # ------------------------------------------------------------------
    lines.append("== Open-loop sweep: offered rate vs latency ==")
    lines.append(
        f"{'method':<10} {'offered/s':>10} {'achieved/s':>10} "
        f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'shed':>6} {'depth':>6}"
    )
    for method in METHODS:
        base_rate = (
            async_rates[method] if not SMOKE
            else max(400.0, async_rates[method] / 4)
        )
        saturation = 0.0
        for factor in RATE_FACTORS:
            rate = base_rate * factor
            n_queries = min(
                max(50, int(rate * SWEEP_SECONDS)), MAX_SWEEP_QUERIES
            )
            traffic_rng = np.random.default_rng(
                1000 + int(factor * 100)
            )
            traffic = tenant_traffic(
                size,
                n_queries,
                methods=(method,),
                n_tenants=16,
                exponent=1.2,
                rng=traffic_rng,
            )
            offsets = open_loop_schedule(n_queries, rate, traffic_rng)
            with ServingFrontend(
                _StaticSupplier(summaries),
                batch_size=BATCH,
                max_delay_ms=2.0,
                max_pending=8 * BATCH,
                tenant_share=0.5,
            ) as service:
                outcome = replay_open_loop(
                    service.submit,
                    traffic,
                    offsets,
                    shed_errors=(OverloadError,),
                )
                stats = service.stats()
            saturation = max(saturation, outcome.achieved_per_s)
            pct = latency_percentiles(outcome.latencies_ms)
            records.append({
                "kernel": f"serving-open-loop:{method}",
                "mode": "open-loop",
                "rate_factor": factor,
                "offered_per_s": round(rate, 1),
                "batch_size": BATCH,
                "domain_bits": DOMAIN_BITS,
                "n": n_queries,
                "achieved_per_s": outcome.achieved_per_s,
                "shed": outcome.shed,
                "failed": outcome.failed,
                "max_queue_depth": stats["max_queue_depth"],
                "flushes_deadline": stats["flushes_deadline"],
                "flushes_size": stats["flushes_size"],
                **pct,
            })
            lines.append(
                f"{method:<10} {rate:>10.0f} "
                f"{outcome.achieved_per_s:>10.0f} "
                f"{pct['p50_ms']:>8.2f} {pct['p95_ms']:>8.2f} "
                f"{pct['p99_ms']:>8.2f} {outcome.shed:>6d} "
                f"{stats['max_queue_depth']:>6d}"
            )
        records.append({
            "kernel": f"serving-saturation:{method}",
            "mode": "saturation",
            "batch_size": BATCH,
            "domain_bits": DOMAIN_BITS,
            "saturation_per_s": saturation,
        })
        lines.append(
            f"{method:<10} saturation throughput {saturation:,.0f} q/s"
        )

    # ------------------------------------------------------------------
    # Instrumentation overhead: disabled vs enabled telemetry registry
    # on the serving hot path.  The gate (here and in check_regression)
    # is <= 5% -- telemetry must stay pay-for-what-you-use.
    # ------------------------------------------------------------------
    lines.append("== Telemetry overhead: disabled vs enabled registry ==")
    obs_queries = _battery(rng, size, N_OBS)

    def _serving_pass(registry):
        """One single-threaded submit+flush sweep under ``registry``.

        The frontend is constructed *after* the registry swap because
        components capture ``registry.enabled`` at construction; the
        driver thread does its own flushes so the measurement has no
        flusher-thread scheduling noise in it.
        """
        previous = obs.set_registry(registry)
        try:
            service = ServingFrontend(
                _StaticSupplier(summaries),
                batch_size=BATCH,
                max_pending=4 * BATCH,
                tenant_share=1.0,
                start=False,
            )
            try:
                start = time.perf_counter()
                handles = []
                for index, query in enumerate(obs_queries):
                    handles.append(service.submit(
                        "sketch", query, tenant=f"t{index & 3}"
                    ))
                    if service.pending() >= BATCH:
                        service.flush()
                service.flush()
                for handle in handles:
                    handle.result(30.0)
                return time.perf_counter() - start
            finally:
                service.close()
        finally:
            obs.set_registry(previous)

    disabled_reg = obs.MetricsRegistry(enabled=False)
    enabled_reg = obs.MetricsRegistry(enabled=True)
    _serving_pass(disabled_reg)  # warm caches before timing either mode
    _serving_pass(enabled_reg)
    # Interleave the trials so clock drift / background load hits both
    # modes equally, then take the *median of paired ratios*: a noise
    # burst landing on one trial of one mode cannot move the estimate
    # the way it moves a min- or mean-based one.
    ratios = []
    time_disabled = time_enabled = float("inf")
    for _ in range(OBS_REPEATS):
        trial_disabled = _serving_pass(disabled_reg)
        trial_enabled = _serving_pass(enabled_reg)
        ratios.append(trial_enabled / max(trial_disabled, 1e-12))
        time_disabled = min(time_disabled, trial_disabled)
        time_enabled = min(time_enabled, trial_enabled)
    overhead = float(np.median(ratios))
    snap = enabled_reg.snapshot()
    assert snap["serving.batch_size"]["count"] > 0  # it really measured
    records.append({
        "kernel": "obs-overhead:serving",
        "mode": "obs-overhead",
        "n": N_OBS,
        "batch_size": BATCH,
        "domain_bits": DOMAIN_BITS,
        "wall_time_disabled_s": time_disabled,
        "wall_time_enabled_s": time_enabled,
        "overhead_ratio": overhead,
    })
    lines.append(
        f"serving hot path: disabled {time_disabled * 1e3:.1f} ms, "
        f"enabled {time_enabled * 1e3:.1f} ms "
        f"-> overhead x{overhead:.3f} ({N_OBS} queries)"
    )
    perf_assert(
        overhead <= 1.05,
        f"enabled-telemetry overhead x{overhead:.3f} exceeds the 5% "
        "budget on the serving hot path",
    )

    emit(results_dir, "serving", "\n".join(lines))
    emit_json(results_dir, "serving", records)
