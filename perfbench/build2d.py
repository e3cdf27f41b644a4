"""``build-2d``: the paper's offline path on 2-D network flows (Figs 2a/3a).

Each round builds ``aware``, ``aware-mm``, ``obliv``, ``varopt`` and
``qdigest`` at one size through ``registry.build`` and answers one
uniform-area battery of multi-range queries with every summary.  Rounds
repeat until the measured time is up.  ``exact``, built in set-up,
answers the battery once per run, outside the timed rounds: its answers
never change, and they are the reference the summaries are judged by.

``wavelet`` and ``sketch`` are left out on purpose: their 2-D builds
cost 31 s / 3 GB (``wavelet``, 20k pairs; ``MemoryError`` at 50k) and
14 s (``sketch``, 196k pairs), far beyond one run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench.harness import (
    NUMPY, Outcome, RefClock, relative_mismatch, seconds_per_unit,
)
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.queries import uniform_area_queries
from repro.engine import registry
from repro.structures.ranges import compile_query_plan

#: Method -> the layer whose code builds it (span and metric prefix).
LAYERS = {
    "aware": "twopass",
    "aware-mm": "aware",
    "obliv": "core",
    "varopt": "core",
    "qdigest": "summaries",
}
METHODS = tuple(LAYERS)
#: Largest share of each axis a query rectangle spans.
MAX_FRACTION = 0.12


@dataclass(frozen=True)
class Config:
    network: NetworkConfig = field(default_factory=lambda: NetworkConfig(
        n_pairs=1_000_000, n_sources=40_000, n_dests=30_000,
    ))
    size: int = 3000
    n_queries: int = 100
    ranges_per_query: int = 25


FULL = Config()
TINY = Config(
    network=NetworkConfig(n_pairs=3_000, n_sources=1_000, n_dests=800),
    size=200, n_queries=6, ranges_per_query=4,
)

#: Per-layer metrics this workload measures (the rest read 0).
LAYER_METRICS = tuple(
    f"{LAYERS[m]}.build_s.{m}" for m in METHODS
) + (
    "range_rel_err.aware", "range_rel_err.obliv",
    "summaries.rel_err.aware-mm", "summaries.rel_err.varopt",
    "summaries.rel_err.qdigest", "structures.compile_us_per_box",
)


class Context:
    def __init__(self, cfg: Config, seed: int, workdir: str):
        self.cfg = cfg
        self.seed = seed
        self.data = generate_network_flows(cfg.network, seed=seed)
        self.queries = uniform_area_queries(
            self.data.domain, cfg.n_queries, cfg.ranges_per_query,
            max_fraction=MAX_FRACTION,
            rng=np.random.default_rng([seed, 1]),
        )
        self.exact = registry.build(
            "exact", self.data, cfg.size, np.random.default_rng(seed)
        )
        self.rounds = 0
        #: Operations over the whole run, for the correctness tally.
        self.operations = 0
        #: Answers of the first round, kept for the accuracy figures.
        self.first: Dict[str, np.ndarray] = {}
        #: ``exact``'s answers, checked against the oracle.
        self.truth: Optional[np.ndarray] = None

    def close(self) -> None:
        pass


def measure(ctx: Context, seconds: float, tracer) -> dict:
    """Build-and-answer rounds until ``seconds`` have passed (at least one)."""
    round_s: List[float] = []
    #: Process CPU seconds of each build, by method.
    build_cpu_s: Dict[str, List[float]] = {m: [] for m in METHODS}
    # The builds are NumPy over large arrays; interpreter speed does
    # not follow theirs.
    ref = RefClock((NUMPY,))
    #: Process CPU per battery answer, one figure per round.
    query_cpu: List[float] = []
    if ctx.truth is None:
        ctx.truth = np.asarray(ctx.exact.query_many(compile_query_plan(ctx.queries)))
        ctx.operations += len(ctx.queries)
    deadline = time.perf_counter() + seconds
    while not round_s or time.perf_counter() < deadline:
        r = ctx.rounds
        started = time.perf_counter()
        summaries = {}
        for i, method in enumerate(METHODS):
            ref.tick()
            rng = np.random.default_rng([ctx.seed, r, i])
            c0 = time.process_time()
            with tracer.span(f"{LAYERS[method]}.build", method=method):
                summaries[method] = registry.build(
                    method, ctx.data, ctx.cfg.size, rng
                )
            build_cpu_s[method].append(time.process_time() - c0)
        ref.tick()
        q0 = time.process_time()
        with tracer.span("structures.compile"):
            plan = compile_query_plan(ctx.queries)
        answers = {}
        for method, summary in summaries.items():
            with tracer.span("summaries.query_many", method=method):
                answers[method] = np.asarray(summary.query_many(plan))
        query_cpu.append((time.process_time() - q0) / (len(plan) * len(summaries)))
        round_s.append(time.perf_counter() - started)
        ctx.operations += len(METHODS) + len(plan) * len(summaries)
        if r == 0:
            ctx.first = answers
        ctx.rounds += 1
    return {
        "round_s": np.array(round_s),
        "build_cpu_s": build_cpu_s,
        "answer_cpu_s": query_cpu,
        "scale": ref.scale(),
        # Overhead comparisons use the median round.
        "unit_cost": float(np.median(round_s)),
    }


def end_to_end(ctx: Context, phase: dict, out: Outcome) -> None:
    rounds = phase["round_s"] * 1e3
    # Items times builds over the CPU seconds of one build of each
    # method, each the median over the rounds, at reference speed;
    # likewise the CPU per answer.
    build_cpu_s = sum(float(np.median(v)) for v in phase["build_cpu_s"].values())
    items_per_s = ctx.data.n * len(METHODS) / (build_cpu_s * phase["scale"])
    cpu_us = float(np.median(phase["answer_cpu_s"])) * phase["scale"] * 1e6
    out.add("throughput_per_s", items_per_s)
    out.note("build_items_per_s", items_per_s, "1/s")
    out.note("build_items_per_s_unscaled", ctx.data.n * len(METHODS) / build_cpu_s, "1/s")
    out.note("reference_speed_scale", phase["scale"], "ratio")
    out.note("rounds", len(rounds), "count")
    out.note("round_p50_ms", float(np.median(rounds)), "ms")
    out.note("round_max_ms", float(np.max(rounds)), "ms")
    out.note("query_cpu_us_per_answer", cpu_us, "us")
    for method in ("aware", "obliv"):
        out.note(f"range_rel_err.{method}", _rel_err(ctx, method), "ratio")


def _rel_err(ctx: Context, method: str) -> float:
    """Sum |est - exact| / sum exact over the battery, first round."""
    return float(np.abs(ctx.first[method] - ctx.truth).sum() / ctx.truth.sum())


def per_layer(ctx: Context, phase: dict, spans: List[dict], out: Outcome) -> None:
    for method in METHODS:
        out.add(
            f"{LAYERS[method]}.build_s.{method}",
            float(np.median(phase["build_cpu_s"][method])) * phase["scale"],
        )
    out.add("range_rel_err.aware", _rel_err(ctx, "aware"))
    out.add("range_rel_err.obliv", _rel_err(ctx, "obliv"))
    for method in ("aware-mm", "varopt", "qdigest"):
        out.add(f"summaries.rel_err.{method}", _rel_err(ctx, method))
    n_boxes = sum(len(q.boxes) for q in ctx.queries)
    out.add(
        "structures.compile_us_per_box",
        seconds_per_unit(lambda: compile_query_plan(ctx.queries), n_boxes) * 1e6,
    )


def oracle(ctx: Context) -> np.ndarray:
    """Battery answers by NumPy mask sums over the raw keys (x-sorted)."""
    coords, weights = ctx.data.coords, ctx.data.weights
    order = np.argsort(coords[:, 0], kind="stable")
    xs, ys, ws = coords[order, 0], coords[order, 1], weights[order]
    out = np.empty(len(ctx.queries))
    for i, query in enumerate(ctx.queries):
        total = 0.0
        for box in query.boxes:
            lo = np.searchsorted(xs, box.lows[0], "left")
            hi = np.searchsorted(xs, box.highs[0], "right")
            y = ys[lo:hi]
            total += ws[lo:hi][(y >= box.lows[1]) & (y <= box.highs[1])].sum()
        out[i] = total
    return out


def check(ctx: Context, out: Outcome) -> None:
    """``exact``'s answers against the mask-sum oracle.

    Attempted operations are the builds plus every battery answer; a
    wrong ``exact`` answer is a failed one.
    """
    scale = float(ctx.data.weights.sum())
    wrong = int(relative_mismatch(ctx.truth, oracle(ctx), scale).sum())
    out.count(ctx.operations, wrong, "exact answers off the mask-sum oracle")
