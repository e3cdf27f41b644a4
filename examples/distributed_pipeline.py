"""End-to-end distributed pipeline: build, ingest, and serve.

Demonstrates the distributed subsystem's four layers working
together:

1. **codec** -- a summary round-trips a wire frame bit-exactly;
2. **workers + coordinator** -- a 4-worker distributed build over the
   multiprocessing transport matches the single-process engine
   answer-for-answer with the same seed;
3. **streaming** -- a worker fleet ingests a live micro-batch feed
   and the coordinator folds worker snapshots into a queryable state;
4. **frontend** -- a query battery served twice: cold (collect + fold
   + sort) vs warm (LRU snapshot cache + cached sort orders);
5. **serving service** -- the long-lived :class:`ServingFrontend`
   answering the same battery submitted one query at a time from
   concurrent tenants, micro-batched by deadline + size flushes, with
   the full cache/batch/admission telemetry printed at the end;

plus the edge pattern: a local windowed StreamEngine shipping sealed
pane summaries upstream through the codec (the ``on_pane_sealed``
hand-off).

Run:  python examples/distributed_pipeline.py
"""

import threading
import time

import numpy as np

from repro import (
    Box,
    DistributedIngest,
    QueryFrontend,
    StreamEngine,
    build_sharded,
    distributed_build,
    tumbling,
)
from repro.distributed import ServingFrontend
from repro.datagen import (
    NetworkConfig,
    generate_network_flows,
    network_domain,
    stream_network_flows,
)
from repro.datagen.queries import uniform_area_queries
from repro.distributed import codec
from repro.engine.builder import fold_merge


def codec_demo(data):
    print("=== 1. Wire codec: bit-exact summary frames ===")
    summary = build_sharded(
        "obliv", data, 1_000, np.random.default_rng(0), num_shards=4
    ).summary
    frame = codec.to_bytes(summary)
    decoded = codec.from_bytes(frame)
    box = Box((0, 0), tuple(size - 1 for size in data.domain.sizes))
    print(f"frame: {len(frame):,} bytes for a {summary.size}-key sample")
    print(f"query(original) == query(decoded): "
          f"{summary.query(box) == decoded.query(box)}\n")


def build_demo(data):
    print("=== 2. Distributed build: 4 workers, multiprocessing ===")
    start = time.perf_counter()
    local = build_sharded(
        "obliv", data, 1_000, np.random.default_rng(7),
        num_shards=4, parallel=False,
    )
    local_secs = time.perf_counter() - start
    start = time.perf_counter()
    dist = distributed_build(
        "obliv", data, 1_000, np.random.default_rng(7),
        num_workers=4, transport="multiprocessing",
    )
    dist_secs = time.perf_counter() - start
    queries = uniform_area_queries(
        data.domain, 100, 3, max_fraction=0.1,
        rng=np.random.default_rng(1),
    )
    identical = (dist.summary.query_many(queries)
                 == local.summary.query_many(queries))
    print(f"local serial    : {local_secs * 1e3:7.1f} ms")
    print(f"4 workers (mp)  : {dist_secs * 1e3:7.1f} ms "
          f"(retries={dist.retries})")
    print(f"same seed => identical answers on a 100-query battery: "
          f"{identical}\n")


def streaming_demo(config):
    print("=== 3+4. Distributed ingest + serving frontend ===")
    domain = network_domain(config)
    with DistributedIngest(
        domain, ["obliv", "exact"], 1_000,
        num_workers=4, transport="multiprocessing", seed=7,
    ) as fleet:
        ingested = fleet.dispatch(
            stream_network_flows(config, seed=7, batch_size=10_000)
        )
        print(f"dispatched {ingested:,} items across 4 workers")
        frontend = QueryFrontend(fleet, slots=8)
        queries = uniform_area_queries(
            domain, 500, 3, max_fraction=0.1,
            rng=np.random.default_rng(5),
        )
        start = time.perf_counter()
        answers = frontend.serve(queries)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        frontend.serve(queries)
        warm = time.perf_counter() - start
        exact = np.asarray(answers["exact"])
        obliv = np.asarray(answers["obliv"])
        scale = max(1.0, float(np.abs(exact).max()))
        err = float(np.abs(obliv - exact).mean()) / scale
        print(f"cold battery (collect+fold+sort): {cold * 1e3:7.1f} ms")
        print(f"warm battery (cached)           : {warm * 1e3:7.1f} ms")
        print(f"obliv vs exact mean rel err     : {err:.4f}")
        print(f"frontend stats                  : "
              f"{frontend.stats.snapshot()}\n")
        serving_demo(fleet, queries)


def serving_demo(fleet, queries):
    print("=== 5. Long-lived serving service: concurrent tenants ===")
    with ServingFrontend(
        fleet, slots=8, batch_size=64, max_delay_ms=2.0
    ) as service:

        def tenant(name, chunk, out):
            handles = [
                service.submit("obliv", query, tenant=name)
                for query in chunk
            ]
            out.extend(handle.result(30.0) for handle in handles)

        answers = [[] for _ in range(4)]
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=tenant, args=(f"t{i}", queries[i::4], answers[i])
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        served = sum(map(len, answers))
        stats = service.stats()
    print(f"{served} queries from 4 tenants in {elapsed * 1e3:7.1f} ms "
          f"({served / elapsed:,.0f} q/s)")
    print(f"flushes: size={stats['flushes_size']} "
          f"deadline={stats['flushes_deadline']} "
          f"shed={stats['shed']} "
          f"max queue depth={stats['max_queue_depth']}")
    print(f"batch-size histogram (pow-2 buckets): {stats['batch_hist']}")
    print(f"cache: hits={stats['hits']} misses={stats['misses']} "
          f"evictions={stats['evictions']}\n")


def pane_handoff_demo(config):
    print("=== Edge pattern: sealed panes shipped through the codec ===")
    domain = network_domain(config)
    shipped = []
    engine = StreamEngine(
        domain, "obliv", 500, window=tumbling(4.0), seed=3,
        on_pane_sealed=lambda index, snaps: shipped.append(
            codec.to_bytes(snaps["obliv"])
        ),
    )
    engine.ingest(
        stream_network_flows(config, seed=3, batch_size=5_000)
    )
    if shipped:
        decoded = [codec.from_bytes(frame) for frame in shipped]
        folded = fold_merge(
            [s for s in decoded if s.size], s=500,
            rng=np.random.default_rng(0),
        )
        print(f"{len(shipped)} sealed panes shipped "
              f"({sum(map(len, shipped)):,} bytes total), "
              f"folded to a {folded.size}-key sample")
        print(f"folded estimate of total traffic: "
              f"{folded.estimate_total():,.0f}")


def main():
    config = NetworkConfig(
        n_pairs=200_000, n_sources=20_000, n_dests=16_000
    )
    data = generate_network_flows(config, seed=42)
    print(f"dataset: {data.n:,} flow keys, "
          f"total bytes {data.total_weight:,.0f}\n")
    codec_demo(data)
    build_demo(data)
    streaming_demo(config)
    pane_handoff_demo(config)


if __name__ == "__main__":
    main()
