"""Interface hygiene shared by all summaries.

``len()``/``size`` consistency, iterator/len consistency of query
objects, Sequence-agnostic ``query_many``/``batch_query_sums`` inputs,
the per-snapshot sort-order cache, and the out-of-domain clamp of the
query contract.
"""

import numpy as np
import pytest

from repro.core.estimator import SampleSummary
from repro.core.types import Dataset
from repro.core.varopt import varopt_summary
from repro.engine import registry
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain
from repro.structures.ranges import (
    Box,
    MultiRangeQuery,
    SortOrderCache,
    batch_query_sums,
)
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest import QDigestSummary
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.summaries.sketch import DyadicSketchSummary
from repro.summaries.wavelet import WaveletSummary


def skewed_dataset(n=600, seed=5, dims=2):
    rng = np.random.default_rng(seed)
    size = 1 << 16
    coords = rng.integers(0, size, size=(n, dims))
    weights = 1.0 + rng.pareto(1.4, size=n)
    domain = ProductDomain([OrderedDomain(size) for _ in range(dims)])
    return Dataset(coords=coords, weights=weights, domain=domain)


def all_summaries():
    data = skewed_dataset()
    one_d = skewed_dataset(dims=1)
    digest = StreamingQDigest(16, 20)
    digest.update(one_d.coords, one_d.weights)
    return [
        varopt_summary(data, 80, np.random.default_rng(0)),
        ExactSummary(data),
        QDigestSummary(data, 50),
        WaveletSummary(one_d, 64),
        DyadicSketchSummary(data, 256),
        digest,
    ]


class TestLenSizeConsistency:
    def test_len_equals_size_for_every_summary(self):
        for summary in all_summaries():
            assert len(summary) == summary.size, type(summary).__name__

    def test_multirange_len_iter_consistency(self):
        boxes = [Box((0,), (10,)), Box((20,), (30,)), Box((40,), (41,))]
        query = MultiRangeQuery(boxes)
        assert len(query) == query.num_ranges == 3
        assert list(query) == list(query.boxes)
        assert len(list(iter(query))) == len(query)


class TestSequenceAgnosticQueries:
    def queries(self):
        return (
            Box((0, 0), ((1 << 15) - 1, (1 << 16) - 1)),
            MultiRangeQuery([
                Box((0, 0), ((1 << 14) - 1, (1 << 14) - 1)),
                Box((1 << 15, 1 << 15), ((1 << 16) - 1, (1 << 16) - 1)),
            ]),
        )

    def test_query_many_accepts_tuples_and_generators(self):
        data = skewed_dataset()
        queries = self.queries()
        for summary in (
            varopt_summary(data, 80, np.random.default_rng(0)),
            ExactSummary(data),
            QDigestSummary(data, 50),
        ):
            from_list = summary.query_many(list(queries))
            from_tuple = summary.query_many(queries)
            from_gen = summary.query_many(q for q in queries)
            assert from_tuple == pytest.approx(from_list)
            assert from_gen == pytest.approx(from_list)

    def test_batch_query_sums_accepts_any_sequence(self):
        data = skewed_dataset()
        queries = self.queries()
        from_list = batch_query_sums(list(queries), data.coords, data.weights)
        from_tuple = batch_query_sums(queries, data.coords, data.weights)
        np.testing.assert_allclose(from_tuple, from_list)

    def test_base_query_multi_accepts_bare_box(self):
        data = skewed_dataset()
        digest = QDigestSummary(data, 50)
        box = self.queries()[0]
        assert digest.query_multi(box) == pytest.approx(digest.query(box))


class TestSortOrderCache:
    def test_cached_answers_match_uncached(self):
        data = skewed_dataset()
        queries = list(self.battery(data))
        cache = SortOrderCache()
        uncached = batch_query_sums(queries, data.coords, data.weights)
        first = batch_query_sums(
            queries, data.coords, data.weights, cache=cache, version=1
        )
        again = batch_query_sums(
            queries, data.coords, data.weights, cache=cache, version=1
        )
        np.testing.assert_allclose(first, uncached)
        np.testing.assert_allclose(again, uncached)

    def battery(self, data, n=40, seed=3):
        rng = np.random.default_rng(seed)
        size = data.domain.sizes[0]
        for _ in range(n):
            lo = rng.integers(0, size // 2, size=data.dims)
            hi = lo + rng.integers(1, size // 2, size=data.dims)
            yield Box(tuple(int(v) for v in lo), tuple(int(v) for v in hi))

    def test_version_change_recomputes(self):
        data = skewed_dataset(n=300)
        grown = skewed_dataset(n=600)
        queries = list(self.battery(data))
        cache = SortOrderCache()
        small = batch_query_sums(
            queries, data.coords, data.weights, cache=cache, version=1
        )
        # New snapshot, new version: the cache must not serve v1 orders.
        big = batch_query_sums(
            queries, grown.coords, grown.weights, cache=cache, version=2
        )
        reference = batch_query_sums(queries, grown.coords, grown.weights)
        np.testing.assert_allclose(big, reference)
        assert not np.allclose(big, small)

    def test_invalidate_forces_recompute(self):
        data = skewed_dataset(n=200)
        cache = SortOrderCache()
        queries = list(self.battery(data, n=5))
        batch_query_sums(queries, data.coords, data.weights,
                         cache=cache, version=1)
        cache.invalidate()
        out = batch_query_sums(queries, data.coords, data.weights,
                               cache=cache, version=1)
        reference = batch_query_sums(queries, data.coords, data.weights)
        np.testing.assert_allclose(out, reference)

    def test_exact_summary_version_tracks_updates(self):
        """ExactSummary keys its cache on the update version."""
        store = ExactSummary.empty(dims=1)
        store.update(np.arange(50).reshape(-1, 1), np.ones(50))
        queries = [Box((0,), (24,)), Box((25,), (49,))]
        assert store.query_many(queries) == pytest.approx([25.0, 25.0])
        store.update(np.arange(50).reshape(-1, 1), np.ones(50))
        # The second battery must see the new rows, not stale orders.
        assert store.query_many(queries) == pytest.approx([50.0, 50.0])

    def test_sample_summary_cache_consistency(self):
        data = skewed_dataset()
        sample = varopt_summary(data, 100, np.random.default_rng(1))
        queries = list(self.battery(data))
        first = sample.query_many(queries)
        second = sample.query_many(queries)  # served from cached orders
        reference = [sample.query(q) for q in queries]
        assert first == pytest.approx(reference)
        assert second == pytest.approx(reference)


class TestQueryContractClamp:
    """Boxes past the domain edge answer as their in-domain part and
    boxes wholly outside answer 0.0 (``Summary.query``), on the scalar
    and batched paths of every registered method."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1024, 3000)
        weights = 1.0 + rng.pareto(1.5, 3000)
        return Dataset.one_dimensional(keys, weights, 1024)

    @pytest.mark.parametrize("method", registry.available())
    def test_out_of_domain_boxes_clamp(self, method):
        data = self._data()
        boxes = [
            Box((-10,), (2000,)),  # straddles both edges
            Box((0,), (1023,)),  # its in-domain part
            Box((3000,), (4000,)),  # wholly outside
        ]
        exact = registry.build("exact", data, 100, None)
        summary = registry.build(method, data, 100,
                                 np.random.default_rng(0))
        want = [exact.query(box) for box in boxes]
        assert want[0] == pytest.approx(want[1], rel=1e-12)
        assert want[2] == 0.0
        for got in ([summary.query(box) for box in boxes],
                    summary.query_many(boxes)):
            assert got[0] == pytest.approx(got[1], rel=1e-12)
            assert got[2] == want[2]
