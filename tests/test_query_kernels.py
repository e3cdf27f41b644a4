"""The vectorized query-serving kernels match the scalar query path.

Per-method equivalence of ``query``/``query_multi`` loops against the
batched ``query_many`` kernels across >= 30 seeds (bit-exact where the
two paths share float semantics -- the dense q-digest kernel -- and
within 1e-9 relative tolerance otherwise, the documented contract for
kernels that only reorder the floating-point summation).  Also covers
the query-plan compiler (flat + padded layouts, per-object memos),
the batched dyadic decomposition, serving micro-batch parity and
the stream engine's shared-plan battery path.
"""

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.distributed.frontend import QueryFrontend, ServingFrontend
from repro.engine.registry import build
from repro.stream.engine import StreamEngine
from repro.structures.dyadic import (
    dyadic_decompose_interval,
    dyadic_decompose_intervals,
)
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import (
    Box,
    MultiRangeQuery,
    QueryPlan,
    SortOrderCache,
    compile_query_plan,
)
from repro.summaries.qdigest import QDigestSummary

SEEDS = range(30)

#: (method, supported dimensionalities)
METHODS = (
    ("sketch", (1, 2)),
    ("wavelet", (1, 2)),
    ("qdigest", (1, 2)),
    ("qdigest-stream", (1,)),
    ("obliv", (1, 2)),
    ("exact", (1, 2)),
)


def _dataset(rng, dims, size, n=200):
    domain = ProductDomain([OrderedDomain(size) for _ in range(dims)])
    coords = rng.integers(0, size, size=(n, dims))
    weights = 1.0 + rng.pareto(1.3, size=n)
    return Dataset(coords=coords, weights=weights, domain=domain)


def _battery(rng, dims, size, n_queries=12):
    """Mixed battery: single boxes plus one multi-range query."""
    queries = []
    for _ in range(n_queries):
        lows = rng.integers(0, size, dims)
        spans = rng.integers(0, size // 3, dims)
        highs = np.minimum(lows + spans, size - 1)
        queries.append(Box(tuple(int(v) for v in lows),
                           tuple(int(v) for v in highs)))
    third = size // 3
    queries.append(MultiRangeQuery([
        Box((0,) * dims, (third - 1,) * dims),
        Box((2 * third,) * dims, (size - 1,) * dims),
    ]))
    return queries


def _reference(summary, queries):
    return [float(summary.query_multi(query)) for query in queries]


class TestPerMethodEquivalence:
    @pytest.mark.parametrize("method,dims_supported", METHODS)
    def test_query_many_matches_scalar(self, method, dims_supported):
        for seed in SEEDS:
            rng = np.random.default_rng(1000 + seed)
            dims = dims_supported[seed % len(dims_supported)]
            size = 1 << (10 if dims == 1 else 6)
            data = _dataset(rng, dims, size)
            summary = build(method, data, 150, np.random.default_rng(seed))
            queries = _battery(rng, dims, size)
            ref = _reference(summary, queries)
            got = summary.query_many(queries)
            scale = float(data.weights.sum())
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-9 * scale,
                err_msg=f"{method} seed {seed} dims {dims}",
            )
            # Repeated battery (cached plan / sort orders): identical.
            np.testing.assert_array_equal(summary.query_many(queries), got)

    def test_qdigest_dense_kernel_bit_exact(self):
        """The broadcasted q-digest kernel shares the scalar float ops."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = _dataset(rng, 2, 1 << 6, n=400)
            for mode in ("half", "uniform", "lower"):
                digest = QDigestSummary(data, 120, partial=mode)
                queries = _battery(rng, 2, 1 << 6)
                assert digest.query_many(queries) == _reference(
                    digest, queries
                )

    def test_qdigest_merged_overlapping_leaves(self):
        """Merged digests (spatially overlapping leaves) stay correct."""
        rng = np.random.default_rng(5)
        size = 1 << 10
        a = QDigestSummary(_dataset(rng, 1, size), 100)
        b = QDigestSummary(_dataset(rng, 1, size), 100)
        merged = a.merge(b)
        queries = _battery(rng, 1, size)
        # Overlapping leaves: the dense path answers.
        assert not merged.interval_table().leaves_disjoint()
        assert merged.query_many(queries) == _reference(merged, queries)

    def test_wavelet_2d_sparse_straddle_kernel(self):
        """The packed-key 2-D straddle kernel matches scalar queries.

        Pinned across 30 seeds with dense random batteries including
        degenerate (single-cell) and full-domain boxes -- the
        straddle-candidate enumeration must cover every basis function
        a box can touch on both axes.
        """
        size = 1 << 6
        for seed in SEEDS:
            rng = np.random.default_rng(7000 + seed)
            data = _dataset(rng, 2, size, n=400)
            summary = build("wavelet", data, 150, np.random.default_rng(seed))
            queries = _battery(rng, 2, size, n_queries=30)
            queries += [
                Box((0, 0), (size - 1, size - 1)),
                Box((3, 5), (3, 5)),
                Box((0, 0), (0, size - 1)),
                Box((size // 2, 0), (size - 1, size // 2)),
            ]
            ref = _reference(summary, queries)
            got = summary.query_many(queries)
            scale = float(data.weights.sum())
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-9 * scale,
                err_msg=f"wavelet 2-D seed {seed}",
            )
            # The per-(level_x, level_y) lookup is a one-shot memo.
            assert summary._xy_group_lookup() is summary._xy_group_lookup()

    def test_qdigest_stream_interval_table_kernel(self):
        """The sorted interval-table kernel matches scalar range sums.

        Pinned across 30 seeds with varying compression cadences (so
        the per-depth node layout differs) plus span-aligned,
        single-point, and full-domain boxes -- the prefix-sum run and
        the two endpoint-cell probes must partition every overlap.
        """
        from repro.summaries.qdigest_stream import StreamingQDigest

        bits = 12
        size = 1 << bits
        for seed in SEEDS:
            rng = np.random.default_rng(8000 + seed)
            digest = StreamingQDigest(
                bits, k=30, compress_every=101 + 13 * (seed % 5)
            )
            keys = rng.integers(0, size, size=3000)
            weights = 1.0 + rng.pareto(1.3, size=3000)
            digest.insert_many(keys, weights)
            queries = _battery(rng, 1, size, n_queries=30)
            queries += [
                Box((0,), (size - 1,)),
                Box((17,), (17,)),
                Box((size // 4,), (size // 2 - 1,)),  # span-aligned
                Box((size - 1,), (size - 1,)),
            ]
            ref = _reference(digest, queries)
            got = digest.query_many(queries)
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-9 * digest.total,
                err_msg=f"qdigest-stream seed {seed}",
            )
            # Mutating the tree invalidates the cached table.
            table = digest.interval_table()
            assert digest.interval_table() is table
            digest.insert(0, 1.0)
            assert digest.interval_table() is not table

    def test_mismatched_dims_raise(self):
        rng = np.random.default_rng(0)
        data = _dataset(rng, 1, 1 << 8)
        queries_2d = [Box((0, 0), (3, 3))]
        for method in ("sketch", "wavelet", "qdigest"):
            summary = build(method, data, 50, np.random.default_rng(0))
            with pytest.raises(ValueError):
                summary.query_many(queries_2d)


class TestDyadicBatch:
    def test_matches_scalar_decomposition(self):
        rng = np.random.default_rng(3)
        for bits in (1, 3, 9, 16):
            domain = 1 << bits
            lows = rng.integers(0, domain, 300)
            highs = np.minimum(domain - 1, lows + rng.integers(0, domain, 300))
            depths, cells, owners = dyadic_decompose_intervals(
                lows, highs, bits
            )
            for i in (0, 17, 123, 299):
                ref = set(dyadic_decompose_interval(
                    int(lows[i]), int(highs[i]), bits
                ))
                got = set(zip(depths[owners == i].tolist(),
                              cells[owners == i].tolist()))
                assert got == ref

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            dyadic_decompose_intervals([3], [2], 4)
        with pytest.raises(ValueError):
            dyadic_decompose_intervals([0], [16], 4)


class TestQueryPlan:
    def test_flat_and_padded_layouts(self):
        single = Box((1,), (4,))
        multi = MultiRangeQuery([Box((0,), (1,)), Box((5,), (9,))])
        plan = compile_query_plan([single, multi])
        assert plan.num_boxes == 3
        np.testing.assert_array_equal(plan.counts, [1, 2])
        np.testing.assert_array_equal(plan.offsets, [0, 1])
        padded = plan.padded()
        assert padded.shape == (2, 2, 1, 2)
        np.testing.assert_array_equal(padded[0, 0], [[1, 4]])
        # Padding slot is the empty sentinel box lo=0, hi=-1.
        np.testing.assert_array_equal(padded[0, 1], [[0, -1]])
        np.testing.assert_array_equal(padded[1, 0], [[0, 1]])
        np.testing.assert_array_equal(padded[1, 1], [[5, 9]])
        np.testing.assert_array_equal(
            plan.reduce_boxes(np.array([1.0, 2.0, 3.0])), [1.0, 5.0]
        )

    def test_plan_passthrough_and_sequence(self):
        queries = [Box((0,), (3,)), Box((2,), (5,))]
        plan = compile_query_plan(queries)
        assert compile_query_plan(plan) is plan
        assert list(plan) == queries and len(plan) == 2

    def test_per_object_bounds_memo(self):
        multi = MultiRangeQuery([Box((0,), (1,)), Box((5,), (9,))])
        assert multi.stacked_bounds() is multi.stacked_bounds()
        box = Box((1,), (2,))
        assert box.stacked_bounds() is box.stacked_bounds()

    def test_sort_order_cache_plan_slot(self):
        cache = SortOrderCache()
        queries = [Box((0,), (3,))]
        plan = cache.fetch_plan(queries)
        assert cache.fetch_plan(queries) is plan  # same objects: memo hit
        assert cache.fetch_plan([Box((0,), (3,))]) is not plan
        cache.invalidate()
        assert cache.fetch_plan(queries) is not plan

    def test_empty_battery(self):
        plan = compile_query_plan([])
        assert len(plan) == 0 and plan.num_boxes == 0
        assert isinstance(plan, QueryPlan)


class _StaticSupplier:
    def __init__(self, summaries):
        self._summaries = summaries
        self.version = 0

    def snapshot(self, method):
        return self._summaries[method]

    @property
    def methods(self):
        return list(self._summaries)


class TestFrontendMicroBatching:
    """``ServingFrontend(start=False)`` batches one caller's queries."""

    @pytest.fixture
    def served(self):
        rng = np.random.default_rng(9)
        size = 1 << 10
        data = _dataset(rng, 1, size, n=500)
        summaries = {
            method: build(method, data, 120, np.random.default_rng(2))
            for method, _dims in METHODS
        }
        queries = _battery(rng, 1, size, n_queries=40)
        return summaries, queries, float(data.weights.sum())

    @staticmethod
    def _service(summaries, batch_size=1000):
        return ServingFrontend(
            _StaticSupplier(summaries), batch_size=batch_size,
            max_pending=1000, tenant_share=1.0, start=False,
        )

    def test_parity_with_one_at_a_time(self, served):
        summaries, queries, scale = served
        one = QueryFrontend(_StaticSupplier(summaries))
        with self._service(summaries, batch_size=16) as micro:
            for method in summaries:
                direct = [one.query(method, query) for query in queries]
                handles = []
                for index, query in enumerate(queries, 1):
                    handles.append(micro.submit(method, query))
                    if index % 16 == 0:
                        micro.flush()
                micro.flush()
                got = [handle.result() for handle in handles]
                np.testing.assert_allclose(
                    got, direct, rtol=1e-9, atol=1e-9 * scale,
                    err_msg=method,
                )

    def test_interleaved_methods_one_flush(self, served):
        summaries, queries, scale = served
        expected = []
        handles = []
        one = QueryFrontend(_StaticSupplier(summaries))
        with self._service(summaries) as micro:
            for i, query in enumerate(queries):
                method = ("sketch", "wavelet", "qdigest")[i % 3]
                handles.append(micro.submit(method, query))
                expected.append(one.query(method, query))
            assert micro.flush() == len(queries)
            np.testing.assert_allclose(
                [handle.result() for handle in handles], expected,
                rtol=1e-9, atol=1e-9 * scale,
            )
            stats = micro.stats()
        assert stats["flushes"] == 1
        assert stats["submitted"] == len(queries)

    def test_batch_size_validation(self, served):
        summaries, _queries, _scale = served
        with pytest.raises(ValueError):
            self._service(summaries, batch_size=0)

    def test_flush_failure_isolates_groups(self, served):
        """One group's kernel failure must not orphan the others."""
        summaries, queries, _scale = served
        with self._service(summaries) as micro:
            good = micro.submit("exact", queries[0])
            bad = micro.submit("sketch", Box((0, 0), (3, 3)))  # 2-D vs 1-D
            assert micro.flush() == 2  # the error lands on the handle
            assert good.done() and bad.done()
        one = QueryFrontend(_StaticSupplier(summaries))
        assert good.result() == pytest.approx(
            one.query("exact", queries[0]), rel=1e-9
        )
        with pytest.raises(ValueError):
            bad.result()

    def test_bad_query_does_not_poison_same_method_group(self, served):
        """Per-query fallback: co-batched valid queries still answer."""
        summaries, queries, _scale = served
        with self._service(summaries) as micro:
            good = micro.submit("sketch", queries[0])
            bad = micro.submit("sketch", Box((0, 0), (3, 3)))  # 2-D vs 1-D
            assert micro.flush() == 2
        one = QueryFrontend(_StaticSupplier(summaries))
        assert good.result() == pytest.approx(
            one.query("sketch", queries[0]), rel=1e-9
        )
        with pytest.raises(ValueError):
            bad.result()


class TestStreamEngineBattery:
    def test_query_many_now_matches_query_now(self):
        rng = np.random.default_rng(4)
        size = 1 << 10
        domain = ProductDomain([OrderedDomain(size)])
        engine = StreamEngine(
            domain, ["obliv", "exact", "qdigest-stream", "sketch"],
            size=100, seed=7,
        )
        for _ in range(5):
            keys = rng.integers(0, size, size=(200, 1))
            weights = 1.0 + rng.pareto(1.3, 200)
            engine.process((keys, weights))
        queries = _battery(rng, 1, size, n_queries=25)
        batched = engine.query_many_now(queries)
        for i, query in enumerate(queries):
            per_query = engine.query_now(query)
            for method, answers in batched.items():
                assert answers[i] == pytest.approx(
                    per_query[method], rel=1e-9, abs=1e-9
                )
