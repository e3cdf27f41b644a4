"""``ingest-serve``: a distributed ingest fleet serving fresh reads.

Network-flow micro-batches stream into a ``DistributedIngest`` over the
in-process transport (frames make a full encode/decode round trip, no
extra processes), holding ``obliv`` and ``exact`` over a sliding window.
A log-backend ``CheckpointStore`` persists a checkpoint every so many
batches.  Set-up fills the window, so every timed read sees a full one.
After every batch the ingest loop -- one closed-loop client -- submits
a box battery for both methods through a ``ServingFrontend`` over the
fleet and waits for the answers.  Every
read follows a version bump, so the snapshot cache always misses and
each read pays collect, codec decode and fold.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

from perfbench.harness import (
    Outcome, RefClock, durations, frontend_layer, median_or_zero,
    relative_mismatch, seconds_per_unit,
)
from repro.datagen.network import NetworkConfig, network_domain, stream_network_flows
from repro.datagen.queries import uniform_area_queries
from repro.distributed.coordinator import Coordinator, DistributedIngest
from repro.distributed.frontend import ServingFrontend
from repro.durable import LogCheckpointStore
from repro.stream import MicroBatch, sliding
from repro.structures.ranges import compile_query_plan

METHODS = ("obliv", "exact")
WORKERS = 2
#: Largest share of each axis a read box spans.
BOX_FRACTION = 0.5


@dataclass(frozen=True)
class Config:
    #: Population the batch pool is drawn from; the pool holds
    #: ``n_pairs / batch_items`` batches, replayed in a cycle.
    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(
        n_pairs=400_000, n_sources=40_000, n_dests=30_000,
    ))
    batch_items: int = 2000
    size: int = 1000
    window_batches: float = 40.0
    slide_batches: float = 10.0
    checkpoint_every: int = 50
    n_boxes: int = 64


FULL = Config()
TINY = Config(
    network=NetworkConfig(n_pairs=4_000, n_sources=500, n_dests=400),
    batch_items=200, size=100, window_batches=8.0, slide_batches=2.0,
    checkpoint_every=5, n_boxes=8,
)

LAYER_METRICS = (
    "live_rel_err.obliv", "structures.compile_us_per_box",
    "frontend.submit_us", "frontend.batch_mean",
    "frontend.flushes_deadline_frac", "frontend.max_queue_depth",
    "frontend.cache_hit_ratio", "frontend.shed_frac",
    "coordinator.process_ms", "coordinator.snapshot_ms",
    "coordinator.checkpoint_ms", "transport.bytes_per_item",
    "transport.frames_sent", "durable.bytes_per_item",
    "dispatch.failed", "dispatch.backpressure_waits",
)


class _TracedFleet:
    """The fleet as the frontend's supplier, with ``snapshot`` as a span.

    The frontend calls ``snapshot`` on its flusher thread, so these
    spans form trees of their own beside the ingest loop's.
    """

    def __init__(self, fleet: DistributedIngest, tracer):
        self._fleet = fleet
        self._tracer = tracer

    @property
    def version(self) -> int:
        return self._fleet.version

    def snapshot(self, method: str):
        with self._tracer.span("coordinator.snapshot", method=method):
            return self._fleet.snapshot(method)


def _store_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


class Context:
    def __init__(self, cfg: Config, seed: int, workdir: str):
        self.cfg = cfg
        self.pool = list(stream_network_flows(
            cfg.network, seed=seed, batch_size=cfg.batch_items
        ))
        domain = network_domain(cfg.network)
        self.boxes = [
            q.boxes[0] for q in uniform_area_queries(
                domain, cfg.n_boxes, 1, max_fraction=BOX_FRACTION,
                rng=np.random.default_rng([seed, 1]),
            )
        ]
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.store = LogCheckpointStore(self.store_dir)
        self.coordinator = Coordinator("inprocess", WORKERS)
        self.fleet = DistributedIngest(
            domain, list(METHODS), cfg.size, coordinator=self.coordinator,
            seed=seed, window=sliding(cfg.window_batches, cfg.slide_batches),
            store=self.store,
        )
        self.batches = 0
        #: (batches ingested when read, {method: answers})
        self.reads: List[tuple] = []
        #: Seconds of every checkpoint call and the store's size in
        #: bytes right after it, over every phase of the run.
        self.checkpoint_s: List[float] = []
        self.store_bytes: List[int] = []
        # Fill the window before anything is timed, so every phase reads
        # a full window; the snapshot waits until the workers caught up.
        for _ in range(int(cfg.window_batches + cfg.slide_batches)):
            self.ingest_next()
        self.fleet.snapshot(METHODS[0])

    def ingest_next(self) -> None:
        """Send the next pool batch, stamped with its event time."""
        source = self.pool[self.batches % len(self.pool)]
        self.fleet.process(MicroBatch(
            source.coords, source.weights, timestamp=float(self.batches + 1)
        ))
        self.batches += 1

    def close(self) -> None:
        self.fleet.close()
        self.coordinator.close()
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _answer(handle) -> float:
    """The read's answer; NaN (counted as wrong) when it failed or timed out."""
    try:
        return handle.result(10.0)
    except Exception:
        return float("nan")


def measure(ctx: Context, seconds: float, tracer) -> dict:
    """Ingest, checkpoint and read until ``seconds`` have passed."""
    cfg = ctx.cfg
    transport = ctx.coordinator.transport.stats
    dispatch = ctx.coordinator.dispatcher.stats
    bytes0 = transport.bytes_sent + transport.bytes_received
    frames0 = transport.frames_sent
    failed0, waits0 = dispatch.failed, dispatch.backpressure_waits
    frontend = ServingFrontend(
        [_TracedFleet(ctx.fleet, tracer)], batch_size=256,
        max_delay_ms=2.0, max_pending=4096,
    )
    read_ms: List[float] = []
    loop_s: List[float] = []
    ref = RefClock()
    batches = 0
    cpu = 0.0
    try:
        started = time.perf_counter()
        deadline = started + seconds
        while batches == 0 or time.perf_counter() < deadline:
            ref.tick()
            loop_cpu = time.process_time()
            loop_started = time.perf_counter()
            with tracer.span("coordinator.process"):
                ctx.ingest_next()
            batches += 1
            if ctx.batches % cfg.checkpoint_every == 0:
                checkpoint_started = time.perf_counter()
                with tracer.span("coordinator.checkpoint"):
                    ctx.fleet.checkpoint()
                ctx.checkpoint_s.append(time.perf_counter() - checkpoint_started)
                ctx.store_bytes.append(_store_bytes(ctx.store_dir))
            read_started = time.perf_counter()
            handles = {}
            for method in METHODS:
                handles[method] = []
                for box in ctx.boxes:
                    with tracer.span("frontend.submit"):
                        handles[method].append(
                            frontend.submit(method, box, "reader")
                        )
            answers = {}
            for method, pending in handles.items():
                values = []
                for handle in pending:
                    with tracer.span("frontend.result"):
                        values.append(_answer(handle))
                answers[method] = np.array(values)
            read_ms.append((time.perf_counter() - read_started) * 1e3)
            ctx.reads.append((ctx.batches, answers))
            loop_s.append(time.perf_counter() - loop_started)
            cpu += time.process_time() - loop_cpu
        elapsed = time.perf_counter() - started
        with tracer.span("frontend.stats"):
            stats = frontend.stats()
    finally:
        frontend.close()
    items = batches * cfg.batch_items
    return {
        "items": items,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        # One tick per loop: the run's total CPU over the ticks' total.
        "scale": ref.scale(np.mean),
        "read_ms": np.array(read_ms),
        "stats": stats,
        "bytes_per_item": (transport.bytes_sent + transport.bytes_received - bytes0) / items,
        "frames_sent": transport.frames_sent - frames0,
        "dispatch_failed": dispatch.failed - failed0,
        "backpressure_waits": dispatch.backpressure_waits - waits0,
        # The median batch, so a checkpoint falling in one phase and not
        # the other does not read as tracing overhead.
        "unit_cost": float(np.median(loop_s)),
    }


def end_to_end(ctx: Context, phase: dict, out: Outcome) -> None:
    reads = phase["read_ms"]
    # Items per process CPU-second of the whole loop, reads and
    # checkpoints included, at reference speed.
    items_per_s = phase["items"] / (phase["cpu_s"] * phase["scale"])
    p50, p90 = np.percentile(reads, [50, 90])
    out.add("throughput_per_s", items_per_s)
    out.note("ingest_items_per_s", items_per_s, "1/s")
    out.note("ingest_items_per_s_wall", phase["items"] / phase["elapsed_s"], "1/s")
    out.note("ingest_cpu_us_per_item", phase["cpu_s"] / phase["items"] * 1e6, "us")
    out.note("reference_speed_scale", phase["scale"], "ratio")
    out.note("fresh_read_p50_ms", p50, "ms")
    out.note("fresh_read_p90_ms", p90, "ms")
    out.note("fresh_read_p95_ms", float(np.percentile(reads, 95)), "ms")
    out.note("fresh_reads", reads.size, "count")


def per_layer(ctx: Context, phase: dict, spans: List[dict], out: Outcome) -> None:
    reads = max(phase["read_ms"].size, 1)
    frontend_layer([phase["stats"]], spans, out)
    out.add("coordinator.process_ms", median_or_zero(durations(spans, "coordinator.process")) * 1e3)
    out.add("coordinator.snapshot_ms", durations(spans, "coordinator.snapshot").sum() / reads * 1e3)
    # Checkpoints are rare (one every ``checkpoint_every`` batches), so
    # their figures are medians over every phase of the run, not over
    # the traced half alone; a run without one fails for not reporting
    # them.
    if ctx.checkpoint_s:
        out.add("coordinator.checkpoint_ms", float(np.median(ctx.checkpoint_s)) * 1e3)
        # Store bytes right after a checkpoint per item ingested between
        # two checkpoints.
        out.add(
            "durable.bytes_per_item",
            float(np.median(ctx.store_bytes)) / (ctx.cfg.checkpoint_every * ctx.cfg.batch_items),
        )
    out.add("transport.bytes_per_item", phase["bytes_per_item"])
    out.add("transport.frames_sent", phase["frames_sent"])
    out.add("dispatch.failed", phase["dispatch_failed"])
    out.add("dispatch.backpressure_waits", phase["backpressure_waits"])
    out.add(
        "structures.compile_us_per_box",
        seconds_per_unit(lambda: compile_query_plan(ctx.boxes), len(ctx.boxes)) * 1e6,
    )
    exact = np.concatenate([answers["exact"] for _, answers in ctx.reads])
    obliv = np.concatenate([answers["obliv"] for _, answers in ctx.reads])
    out.add("live_rel_err.obliv", float(np.abs(obliv - exact).sum() / exact.sum()))


def window_oracle(ctx: Context, pool_sums: np.ndarray, batches: int) -> np.ndarray:
    """Exact box sums over what the fleet's window holds after ``batches``.

    Batch ``i`` (0-based, event time ``i + 1``) goes to slice ``i mod
    WORKERS`` (round-robin).  Each slice keeps the panes of width
    ``slide`` whose end lies after its own latest event time minus the
    window width -- the pane-granular sliding-window edge.
    """
    cfg = ctx.cfg
    total = np.zeros(len(ctx.boxes))
    for sl in range(WORKERS):
        seqs = np.arange(sl, batches, WORKERS)
        if seqs.size == 0:
            continue
        now = float(seqs[-1] + 1)
        pane_end = (np.floor((seqs + 1) / cfg.slide_batches) + 1) * cfg.slide_batches
        kept = seqs[pane_end > now - cfg.window_batches]
        total += pool_sums[kept % len(ctx.pool)].sum(axis=0)
    return total


def box_sums(ctx: Context) -> np.ndarray:
    """Exact box sums of every pool batch, one row per batch.

    A window's answer is their sum over the batches the window holds.
    """
    return np.array([
        [
            batch.weights[
                np.all((batch.coords >= box.lows) & (batch.coords <= box.highs), axis=1)
            ].sum()
            for box in ctx.boxes
        ]
        for batch in ctx.pool
    ])


def check(ctx: Context, out: Outcome) -> None:
    """Fleet ``exact`` answers against brute-force window sums.

    Attempted operations are the batches ingested (the set-up's too)
    plus every read answer; a wrong ``exact`` answer is a failed one.
    """
    pool_sums = box_sums(ctx)
    scale = float(pool_sums.sum()) or 1.0
    wrong = 0
    for batches, answers in ctx.reads:
        want = window_oracle(ctx, pool_sums, batches)
        wrong += int(relative_mismatch(answers["exact"], want, scale).sum())
        wrong += int(np.isnan(answers["obliv"]).sum())
    answered = sum(len(a) for _, answers in ctx.reads for a in answers.values())
    out.count(ctx.batches + answered, wrong, "fleet exact answers off the window oracle")
