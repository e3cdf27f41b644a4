"""``serve-1d``: read-only serving of frozen 1-D summaries.

``aware``, ``obliv``, ``qdigest-stream`` and ``sketch`` are built once
in set-up over a 1-D domain and served through a ``ServingFrontend``.
Multi-tenant traffic (Zipf-skewed tenants, all four methods) is
served in ``CYCLES`` cycles, each of two phases:

* open loop: Poisson arrivals at one fixed operating rate --
  independent users.  The rate never depends on a measured throughput,
  so two versions of the code are offered the same load.  Latency is
  timed from each query's scheduled arrival.  The generator's own
  lateness is measured by wrapping the ``submit`` callable handed to
  ``replay_open_loop``; a phase whose generator fell behind did not
  offer the rate asked for, and the run is marked incorrect.
* full batches: a frontend without its flusher thread is handed
  ``BATCH_SIZE`` queries and flushed on the calling thread, over and
  over -- the tier's capacity at full batches.

The open loop alone cannot show a faster tier: every flush pays the
``sketch`` kernel's fixed ~3 ms, longer than the 2 ms deadline, so the
flusher is always busy, batches grow with the rate, and both answers
per second and CPU per query follow the offered rate.  The full-batch
phase runs no second thread, so its figures are the code's own.  The
snapshot cache always hits.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from perfbench.harness import (
    INTERPRETER, Outcome, RefClock, Tracer, frontend_layer,
    relative_mismatch, seconds_per_unit,
)
from repro.core.types import Dataset
from repro.datagen.serving import open_loop_schedule, replay_open_loop, tenant_traffic
from repro.distributed.frontend import OverloadError, ServingFrontend
from repro.engine import registry
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box, compile_query_plan

METHODS = ("aware", "obliv", "qdigest-stream", "sketch")
#: Set-up builds that share a layer metric with ``build-2d``.
BUILD_LAYERS = {"aware": "twopass", "obliv": "core"}

BATCH_SIZE = 256
MAX_DELAY_MS = 2.0
MAX_PENDING = 4096
N_TENANTS = 8
EXPONENT = 1.2
#: Open-loop / full-batch alternations in one measurement.
CYCLES = 5
#: Share of the measured time spent in the open loop.
OPEN_SHARE = 0.5
#: Distinct full-batch queries, cycled: a whole number of batches.
POOL = 32 * BATCH_SIZE
#: Full batches between two reference timings.
TICK_EVERY = 16


@dataclass(frozen=True)
class Config:
    domain_bits: int = 20
    n_items: int = 300_000
    size: int = 3000
    #: The operating rate (queries/s), well below saturation.
    op_rate: float = 8000.0
    warmup_s: float = 0.3
    #: Boxes per kernel probe: the flush size.
    kernel_battery: int = BATCH_SIZE


FULL = Config()
TINY = Config(
    domain_bits=12, n_items=3000, size=200, op_rate=400.0, warmup_s=0.05,
    kernel_battery=32,
)

LAYER_METRICS = (
    "twopass.build_s.aware", "core.build_s.obliv",
    "range_rel_err.aware", "range_rel_err.obliv",
    "structures.compile_us_per_box",
    *(f"summaries.kernel_qps.{m}" for m in METHODS),
    "frontend.submit_us", "frontend.batch_mean",
    "frontend.flushes_deadline_frac", "frontend.max_queue_depth",
    "frontend.cache_hit_ratio", "frontend.shed_frac", "gen.lag_p99_ms",
)


class _FrozenSupplier:
    """Built summaries behind the snapshot-supplier protocol."""

    version = 0

    def __init__(self, summaries):
        self.summaries = summaries

    def snapshot(self, method):
        return self.summaries[method]


class _TracedAnswer:
    """Answer handle whose ``result`` wait is a span."""

    __slots__ = ("_answer", "_tracer")

    def __init__(self, answer, tracer):
        self._answer = answer
        self._tracer = tracer

    @property
    def done_at(self):
        return self._answer.done_at

    def result(self, timeout=None):
        with self._tracer.span("frontend.result"):
            return self._answer.result(timeout)


def _frontend(ctx: "Context") -> ServingFrontend:
    return ServingFrontend(
        [ctx.supplier], batch_size=BATCH_SIZE,
        max_delay_ms=MAX_DELAY_MS, max_pending=MAX_PENDING,
    )


def _traffic(ctx: "Context", n: int, rng):
    return tenant_traffic(
        ctx.span, n, methods=METHODS, n_tenants=N_TENANTS,
        exponent=EXPONENT, rng=rng,
    )


class Context:
    def __init__(self, cfg: Config, seed: int, workdir: str):
        self.cfg = cfg
        self.seed = seed
        self.span = 1 << cfg.domain_bits
        rng = np.random.default_rng([seed, 0])
        domain = ProductDomain([OrderedDomain(self.span)])
        keys = rng.integers(0, self.span, size=cfg.n_items)
        weights = 1.0 + rng.pareto(1.2, cfg.n_items)
        self.data = Dataset(
            coords=keys.reshape(-1, 1), weights=weights, domain=domain
        )
        self.build_s = {}
        summaries = {}
        for i, method in enumerate(METHODS):
            started = time.perf_counter()
            summaries[method] = registry.build(
                method, self.data, cfg.size, np.random.default_rng([seed, 1, i])
            )
            self.build_s[method] = time.perf_counter() - started
        self.supplier = _FrozenSupplier(summaries)
        # Exact range sums by prefix sums over the key axis.
        mass = np.bincount(keys, weights=weights, minlength=self.span)
        self.prefix = np.concatenate(([0.0], np.cumsum(mass)))
        self.total = float(weights.sum())
        self.pool = _traffic(self, POOL, np.random.default_rng([seed, 4]))
        #: Direct answers of the pool, computed on first use.
        self.pool_want: Optional[np.ndarray] = None
        self.phases = 0
        #: Correctness tally over every phase.
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        pass


def _replay(ctx: Context, seconds: float, tracer) -> dict:
    """Offer the operating rate for ``seconds`` through a fresh frontend."""
    rate = ctx.cfg.op_rate
    rng = np.random.default_rng([ctx.seed, 2, ctx.phases])
    ctx.phases += 1
    n = max(1, int(rate * seconds))
    traffic = _traffic(ctx, n, rng)
    offsets = open_loop_schedule(n, rate, rng)
    lags = np.empty(n)
    sent: List[Tuple[str, Box, Optional[object]]] = []
    frontend = _frontend(ctx)

    def submit(method, query, tenant):
        i = len(sent)
        lags[i] = time.monotonic() - start - offsets[i]
        sent.append((method, query, None))
        with tracer.span("frontend.submit"):
            answer = frontend.submit(method, query, tenant)
        sent[i] = (method, query, answer)
        return _TracedAnswer(answer, tracer) if tracer.enabled else answer

    # Collect now and freeze what exists (summaries, this phase's
    # traffic), so the collector's passes during the phase scan only
    # the objects the phase itself allocates.
    gc.collect()
    gc.freeze()
    try:
        cpu0 = time.process_time()
        caller0 = time.thread_time()
        start = time.monotonic()
        result = replay_open_loop(
            submit, traffic, offsets, shed_errors=(OverloadError,),
            result_timeout=10.0,
        )
        cpu = time.process_time() - cpu0
        caller_cpu = time.thread_time() - caller0
        with tracer.span("frontend.stats"):
            stats = frontend.stats()
    finally:
        frontend.close()
        gc.unfreeze()
    rel_err = _verify(ctx, sent)
    # The generator kept up if its last submission was not late by more
    # than 5% of the schedule (20 ms at least, for short phases): the
    # offered rate is then what was asked.
    last_late = max(0.0, float(lags[-1]))
    return {
        "result": result,
        "cpu_s": cpu,
        "caller_cpu_s": caller_cpu,
        "stats": stats,
        "lag_p99_ms": float(np.percentile(lags, 99) * 1e3),
        "generator_ok": last_late <= max(0.05 * float(offsets[-1]), 0.02),
        "rel_err": rel_err,
    }


def _full_batches(
    ctx: Context, seconds: float, ref: RefClock, wall: list, cpu: list
) -> None:
    """Full batches flushed on the calling thread for ``seconds``.

    Appends the wall and CPU seconds of each batch -- submitting
    ``BATCH_SIZE`` queries of the pool and flushing them -- to ``wall``
    and ``cpu``.  ``ref`` is ticked before every ``TICK_EVERY``-th batch
    of the whole measurement.
    """
    frontend = ServingFrontend(
        [ctx.supplier], batch_size=BATCH_SIZE, max_delay_ms=MAX_DELAY_MS,
        max_pending=MAX_PENDING, start=False,
    )
    answers = []
    gc.collect()
    gc.freeze()
    try:
        deadline = time.perf_counter() + seconds
        while not answers or time.perf_counter() < deadline:
            if len(cpu) % TICK_EVERY == 0:
                ref.tick()
            first = len(answers) % POOL
            cpu0 = time.process_time()
            started = time.perf_counter()
            for query in ctx.pool[first:first + BATCH_SIZE]:
                answers.append(frontend.submit(query.method, query.query, query.tenant))
            frontend.flush()
            wall.append(time.perf_counter() - started)
            cpu.append(time.process_time() - cpu0)
    finally:
        frontend.close()
        gc.unfreeze()
    _verify_pool(ctx, answers)


def measure(ctx: Context, seconds: float, tracer, *, full_batches: bool = True) -> dict:
    """Warm up, then ``CYCLES`` open-loop phases, each followed by a
    full-batch phase unless ``full_batches`` is off."""
    _replay(ctx, ctx.cfg.warmup_s, Tracer())
    share = OPEN_SHARE if full_batches else 1.0
    ops, wall, cpu = [], [], []
    # A full batch is mostly interpreted code (256 submits, the flush's
    # bookkeeping) around NumPy calls on small arrays; large-array
    # speed does not follow it.
    ref = RefClock((INTERPRETER,))
    for _ in range(CYCLES):
        ops.append(_replay(ctx, seconds * share / CYCLES, tracer))
        if full_batches:
            _full_batches(ctx, seconds * (1 - share) / CYCLES, ref, wall, cpu)
    return {
        "ops": ops,
        "batch_wall_s": wall,
        "batch_cpu_s": cpu,
        "scale": ref.scale() if full_batches else None,
        # Spans are recorded on the calling thread, so tracing overhead
        # shows in the caller's CPU per query (the flusher's is untouched).
        "unit_cost": sum(op["caller_cpu_s"] for op in ops)
        / sum(op["result"].offered for op in ops),
    }


def measure_traced(ctx: Context, seconds: float, tracer) -> dict:
    """The open loop only: the layer figures all come from it."""
    return measure(ctx, seconds, tracer, full_batches=False)


def end_to_end(ctx: Context, phase: dict, out: Outcome) -> None:
    ops = phase["ops"]
    # Queries per CPU-second through submit and flush at reference
    # speed, from the median of the batches' CPU times.
    batch_cpu_s = float(np.median(phase["batch_cpu_s"]))
    capacity = BATCH_SIZE / (batch_cpu_s * phase["scale"])
    cpu_us = batch_cpu_s * phase["scale"] / BATCH_SIZE * 1e6
    p50, p90, p99 = np.median([
        np.percentile(op["result"].latencies_ms, [50, 90, 99]) for op in ops
    ], axis=0)
    out.add("throughput_per_s", capacity)
    out.note("serve_full_batch_qps", capacity, "1/s")
    out.note("serve_full_batch_qps_wall", BATCH_SIZE / float(np.median(phase["batch_wall_s"])), "1/s")
    out.note("serve_full_batch_cpu_us_per_q", cpu_us, "us")
    out.note("reference_speed_scale", phase["scale"], "ratio")
    out.note("serve_full_batches", len(phase["batch_wall_s"]), "count")
    out.note("serve_open_cpu_us_per_q", float(np.median([
        op["cpu_s"] / max(op["result"].answered, 1) for op in ops
    ])) * 1e6, "us")
    out.note("serve_p50_ms", p50, "ms")
    out.note("serve_p90_ms", p90, "ms")
    out.note("serve_p99_ms", p99, "ms")
    out.note("serve_samples", sum(op["result"].latencies_ms.size for op in ops), "count")
    out.note("gen.lag_p99_ms", max(op["lag_p99_ms"] for op in ops), "ms")
    if not all(op["generator_ok"] for op in ops):
        out.problems.append(
            f"generator fell behind the {ctx.cfg.op_rate:.0f} q/s operating rate"
        )


def per_layer(ctx: Context, phase: dict, spans: List[dict], out: Outcome) -> None:
    ops = phase["ops"]
    for method, layer in BUILD_LAYERS.items():
        out.add(f"{layer}.build_s.{method}", ctx.build_s[method])
    rng = np.random.default_rng([ctx.seed, 3])
    battery = [t.query for t in _traffic(ctx, ctx.cfg.kernel_battery, rng)]
    out.add(
        "structures.compile_us_per_box",
        seconds_per_unit(lambda: compile_query_plan(battery), len(battery)) * 1e6,
    )
    plan = compile_query_plan(battery)
    for method in METHODS:
        summary = ctx.supplier.summaries[method]
        out.add(
            f"summaries.kernel_qps.{method}",
            1.0 / seconds_per_unit(lambda: summary.query_many(plan), len(plan)),
        )
    frontend_layer([op["stats"] for op in ops], spans, out)
    out.add("gen.lag_p99_ms", max(op["lag_p99_ms"] for op in ops))
    for method in ("aware", "obliv"):
        out.add(
            f"range_rel_err.{method}",
            float(np.median([op["rel_err"][method] for op in ops])),
        )


def _value(answer) -> Optional[float]:
    """The resolved answer, or None when shed, failed or still pending."""
    if answer is None:
        return None
    try:
        return answer.result(0)
    except Exception:
        return None


def _verify(ctx: Context, sent) -> dict:
    """Check one open-loop phase's answers; return each method's range error.

    Every served answer must equal a direct ``query_many`` on the same
    summary; a shed, failed or missing answer counts as failed.  The
    range error is sum |served - exact| / sum exact.  Runs between
    phases, outside any timed window, so the handles of one phase are
    dropped before the next starts.
    """
    rel_err = {}
    for method in METHODS:
        rows = [(box, _value(answer)) for m, box, answer in sent if m == method]
        served = [(box, value) for box, value in rows if value is not None]
        ctx.attempted += len(rows)
        ctx.failed += len(rows) - len(served)
        if not served:
            continue
        boxes = [box for box, _ in served]
        got = np.array([value for _, value in served])
        want = ctx.supplier.summaries[method].query_many(boxes)
        ctx.failed += int(relative_mismatch(got, want, ctx.total).sum())
        lows = np.array([box.lows[0] for box in boxes])
        highs = np.array([box.highs[0] for box in boxes])
        truth = ctx.prefix[highs + 1] - ctx.prefix[lows]
        rel_err[method] = float(np.abs(got - truth).sum() / truth.sum())
    return rel_err


def _verify_pool(ctx: Context, answers) -> None:
    """Check full-batch answers; answer ``i`` is of pool query ``i mod POOL``."""
    if ctx.pool_want is None:
        ctx.pool_want = np.empty(POOL)
        for method in METHODS:
            rows = [i for i, t in enumerate(ctx.pool) if t.method == method]
            ctx.pool_want[rows] = ctx.supplier.summaries[method].query_many(
                [ctx.pool[i].query for i in rows]
            )
    got = np.array([_value(answer) for answer in answers], dtype=float)
    want = ctx.pool_want[np.arange(got.size) % POOL]
    ctx.attempted += got.size
    ctx.failed += int(relative_mismatch(got, want, ctx.total).sum())


def check(ctx: Context, out: Outcome) -> None:
    """Report the tally kept over every phase."""
    out.count(ctx.attempted, ctx.failed, "served answers off a direct query_many")
