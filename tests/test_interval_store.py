"""Flat interval-table store: bit-identity with the reference kernels.

The contract under test is *bit*-identity, not approximate closeness:
the flat :class:`~repro.structures.intervals.IntervalTable` kernels
must produce the same IEEE doubles as the reference per-depth and
sorted-leaf kernels in ``oracles/qdigest_kernels.py`` for every
battery.  The suite sweeps 30 seeds across the streaming q-digest
(fresh, merged, wire round-tripped, post-restore engines) and the
batch q-digest (1-D all three partial modes, 2-D and
merged-overlapping dense paths), plus the mutation-counter cache
invalidation of the streaming digest.
"""

import numpy as np
import pytest

from oracles.qdigest_kernels import (
    qdigest_query_many_1d,
    qdigest_sorted_leaves,
    stream_query_many,
)
from repro.core.types import Dataset
from repro.distributed import codec
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.qdigest_stream import StreamingQDigest

SEEDS = range(30)


def _battery_1d(rng, size, n):
    lows = rng.integers(0, size, n)
    spans = rng.integers(0, max(1, size // 8), n)
    highs = np.minimum(lows + spans, size - 1)
    return [Box((int(lo),), (int(hi),)) for lo, hi in zip(lows, highs)]


def _stream_digest(rng, bits):
    digest = StreamingQDigest(
        bits,
        k=int(rng.integers(4, 64)),
        compress_every=int(rng.integers(8, 300)),
    )
    n = int(rng.integers(50, 4000))
    digest.update(
        rng.integers(0, 1 << bits, n), rng.random(n) + 0.01
    )
    return digest


def _answers(summary, boxes):
    return np.asarray(summary.query_many(boxes))


# ----------------------------------------------------------------------
# Streaming q-digest: flat scan vs reference per-depth kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_flat_matches_retained(seed):
    rng = np.random.default_rng(seed)
    bits = int(rng.integers(4, 18))
    digest = _stream_digest(rng, bits)
    boxes = _battery_1d(rng, 1 << bits, int(rng.integers(1, 500)))
    flat = _answers(digest, boxes)
    retained = np.asarray(stream_query_many(digest, boxes))
    repeat = _answers(digest, boxes)  # compiled-scan replay
    assert (flat == retained).all()
    assert (repeat == retained).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_merged_and_restored_parity(seed):
    rng = np.random.default_rng(1000 + seed)
    bits = int(rng.integers(4, 14))
    a = _stream_digest(rng, bits)
    b = _stream_digest(rng, bits)
    merged = a.merge(b)
    wired = codec.from_bytes(codec.to_bytes(merged))
    boxes = _battery_1d(rng, 1 << bits, int(rng.integers(1, 300)))
    for digest in (merged, wired):
        flat = _answers(digest, boxes)
        retained = np.asarray(stream_query_many(digest, boxes))
        assert (flat == retained).all()
    # The wire round trip preserves the node tree, so the two flat
    # scans agree bit-for-bit as well.
    assert (_answers(merged, boxes) == _answers(wired, boxes)).all()


def test_stream_exhaustive_small_domain():
    """Every (lo, hi) pair of a 4-bit domain: scan, reference, scalar."""
    rng = np.random.default_rng(99)
    digest = StreamingQDigest(4, k=3, compress_every=7)
    digest.update(rng.integers(0, 16, 500), rng.random(500) + 0.1)
    boxes = [
        Box((lo,), (hi,)) for lo in range(16) for hi in range(lo, 16)
    ]
    retained = np.asarray(stream_query_many(digest, boxes))
    assert (_answers(digest, boxes) == retained).all()
    scalar = np.asarray([digest.query(box) for box in boxes])
    np.testing.assert_allclose(
        _answers(digest, boxes), scalar,
        rtol=1e-9, atol=1e-9 * digest.total,
    )


# ----------------------------------------------------------------------
# Batch q-digest: flat 1-D leaf path vs reference; dense paths unchanged
# ----------------------------------------------------------------------
def _dataset_1d(rng, size, n):
    coords = rng.integers(0, size, size=(n, 1))
    weights = 1.0 + rng.pareto(1.1, n)
    domain = ProductDomain([OrderedDomain(size)])
    return Dataset(coords=coords, weights=weights, domain=domain)


@pytest.mark.parametrize("seed", SEEDS)
def test_qdigest_1d_flat_matches_retained(seed):
    rng = np.random.default_rng(3000 + seed)
    size = 1 << int(rng.integers(6, 14))
    data = _dataset_1d(rng, size, int(rng.integers(100, 3000)))
    mode = ("half", "uniform", "lower")[seed % 3]
    digest = QDigestSummary(data, int(rng.integers(8, 200)), partial=mode)
    boxes = _battery_1d(rng, size, int(rng.integers(1, 300)))
    flat = _answers(digest, boxes)
    retained = np.asarray(qdigest_query_many_1d(digest, boxes))
    assert (flat == retained).all()


def test_qdigest_merged_overlapping_uses_dense_path():
    """Merged shards may overlap spatially; neither sorted-leaf kernel
    applies and the dense kernel matches the scalar path."""
    rng = np.random.default_rng(11)
    size = 1 << 10
    a = QDigestSummary(_dataset_1d(rng, size, 800), 50)
    b = QDigestSummary(_dataset_1d(rng, size, 800), 50)
    merged = a.merge(b)
    boxes = _battery_1d(rng, size, 200)
    assert not merged.interval_table().leaves_disjoint()
    assert qdigest_sorted_leaves(merged) is None
    dense = _answers(merged, boxes)
    scalar = np.asarray([merged.query(box) for box in boxes])
    assert (dense == scalar).all()


def test_qdigest_2d_unaffected():
    rng = np.random.default_rng(13)
    size = 64
    coords = rng.integers(0, size, size=(500, 2))
    domain = ProductDomain([OrderedDomain(size), OrderedDomain(size)])
    data = Dataset(coords=coords, weights=np.ones(500), domain=domain)
    digest = QDigestSummary(data, 60)
    boxes = []
    for _ in range(100):
        lo = rng.integers(0, size, 2)
        hi = np.minimum(lo + rng.integers(0, 16, 2), size - 1)
        boxes.append(Box(tuple(int(v) for v in lo),
                         tuple(int(v) for v in hi)))
    dense = _answers(digest, boxes)
    scalar = np.asarray([digest.query(box) for box in boxes])
    assert (dense == scalar).all()


# ----------------------------------------------------------------------
# Engine restore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_restored_engine_flat_parity(seed, tmp_path):
    """A crash-restored engine's digests serve flat answers identical
    to the reference kernel (and to the original engine)."""
    from repro.durable import LogCheckpointStore
    from repro.stream.engine import StreamEngine

    rng = np.random.default_rng(6000 + seed)
    size = 1 << 10
    domain = ProductDomain([OrderedDomain(size)])
    store = LogCheckpointStore(str(tmp_path / "ckpt"))
    engine = StreamEngine(domain, "qdigest-stream", 150,
                          store=store, stream_id="s")
    for _ in range(8):
        n = int(rng.integers(20, 200))
        engine.process((rng.integers(0, size, n), rng.random(n)))
    engine.checkpoint()
    restored = StreamEngine.restore(store, "s")
    boxes = _battery_1d(rng, size, 150)
    orig = engine.query_many_now(boxes)["qdigest-stream"]
    back = restored.query_many_now(boxes)["qdigest-stream"]
    assert orig == back
    digest = restored.snapshot("qdigest-stream")
    flat = _answers(digest, boxes)
    retained = np.asarray(stream_query_many(digest, boxes))
    assert (flat == retained).all()


# ----------------------------------------------------------------------
# Mutation-counter regression (the PR's cache audit)
# ----------------------------------------------------------------------
def test_cache_invalidation_on_every_mutation_path():
    """merge / from_state / snapshot / update all produce digests whose
    cached tables reflect the *current* counts -- querying first and
    mutating after must never serve stale answers."""
    rng = np.random.default_rng(31)
    bits = 8
    box = [Box((10,), (200,))]

    a = StreamingQDigest(bits, k=8, compress_every=10_000)
    a.update(rng.integers(0, 256, 300), np.ones(300))
    before = a.query_many(box)[0]  # populate the cache

    # update() after a cached query: answers move with the counts.
    a.update(rng.integers(0, 256, 300), np.ones(300))
    after_update = a.query_many(box)[0]
    assert after_update != before
    assert stream_query_many(a, box)[0] == after_update

    # merge() result is a fresh digest whose table matches its counts.
    b = StreamingQDigest(bits, k=8, compress_every=10_000)
    b.update(rng.integers(0, 256, 300), np.ones(300))
    b.query_many(box)
    merged = a.merge(b)
    assert merged._mutations > 0
    got = merged.query_many(box)[0]
    assert stream_query_many(merged, box)[0] == got
    scalar = merged.query(box[0])
    np.testing.assert_allclose(got, scalar, rtol=1e-9,
                               atol=1e-9 * merged.total)

    # from_state digests are marked mutated relative to fresh ones.
    wired = StreamingQDigest.from_state(merged.to_state())
    assert wired._mutations > 0
    assert wired.query_many(box)[0] == got

    # snapshot() compresses a copy; its cache keys off its own counts.
    snap = a.snapshot()
    snap_ans = snap.query_many(box)[0]
    assert stream_query_many(snap, box)[0] == snap_ans


def test_direct_counts_mutation_requires_mutated():
    """The invariant the audit pins: rebinding ``_counts`` without
    ``_mutated()`` is what the bump sites prevent.  ``_mutated()``
    must invalidate the flat table memo."""
    rng = np.random.default_rng(37)
    digest = StreamingQDigest(8, k=8, compress_every=10_000)
    digest.update(rng.integers(0, 256, 200), np.ones(200))
    box = [Box((0,), (255,))]
    digest.query_many(box)
    assert "_flat_table" in digest.__dict__
    marker_flat = digest.__dict__["_flat_table"][1]
    digest._mutated()
    digest.query_many(box)
    assert digest.__dict__["_flat_table"][1] is not marker_flat
