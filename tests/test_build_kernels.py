"""Deterministic equivalence of the vectorized build kernels.

Kernels that consume no randomness (threshold scan, kd routing,
partition cell codes, grid boundary counts, dataset normalization,
sharding) must produce bit-identical results to their scalar
formulations; this suite pins that down (the kd build against the
per-node recursion in ``oracles/scalar_samplers.py``).  The
RNG-consuming chain kernels are validated statistically in
``test_kernel_equivalence.py``.
"""

import numpy as np
import pytest

from repro.aware.kd import build_kd_hierarchy, kd_cell_ids, kd_leaves
from repro.aware.uniform_grid import boundary_cell_count
from repro.core.aggregation import SET_EPS, aggregate_pool
from repro.core.chain import (
    chain_aggregate,
    run_starts,
    segmented_chain_aggregate,
)
from repro.core.ipps import PROB_EPS, ipps_probabilities, ipps_threshold
from repro.core.types import Dataset
from repro.engine.shard import shard_dataset, shard_indices
from repro.structures.hierarchy import BitHierarchy
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain, line_domain
from repro.structures.ranges import Box
from repro.twopass.partitions import (
    DisjointPartition,
    HierarchyAncestorPartition,
    KDPartition,
    OrderPartition,
)

from oracles.scalar_samplers import build_kd_scalar


def _ipps_threshold_scalar(weights, s):
    """The historical scalar k-scan, kept as the reference."""
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    n = w.size
    if s >= n:
        return 0.0
    w_sorted = np.sort(w)[::-1]
    tail_sums = np.concatenate((np.cumsum(w_sorted[::-1])[::-1], [0.0]))
    max_k = int(min(n - 1, np.floor(s)))
    for k in range(0, max_k + 1):
        denom = s - k
        if denom <= 0:
            break
        tau = tail_sums[k] / denom
        upper_ok = k == 0 or w_sorted[k - 1] >= tau * (1 - PROB_EPS)
        lower_ok = w_sorted[k] < tau * (1 + PROB_EPS)
        if upper_ok and lower_ok:
            return float(tau)
    return float(tail_sums[max_k] / (s - max_k))


class TestIppsThresholdVectorized:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_scan(self, seed):
        rng = np.random.default_rng(seed)
        w = 1.0 + rng.pareto(1.2, size=500)
        for s in (1, 3, 17.5, 100, 499, 500, 600):
            assert ipps_threshold(w, s) == _ipps_threshold_scalar(w, s)

    def test_matches_on_edge_shapes(self):
        cases = [
            (np.array([5.0]), 0.5),
            (np.array([1.0, 1.0, 1.0, 1.0]), 2),
            (np.array([10.0, 1.0, 1.0]), 2),
            (np.array([0.0, 3.0, 0.0, 2.0]), 1),
            (np.full(50, 2.0), 49),
        ]
        for w, s in cases:
            assert ipps_threshold(w, s) == _ipps_threshold_scalar(w, s)

    def test_defining_equation(self):
        rng = np.random.default_rng(3)
        w = rng.exponential(2.0, size=400)
        for s in (5, 40, 200):
            p, tau = ipps_probabilities(w, s)
            assert np.isclose(p.sum(), s, rtol=1e-9)


class TestKDRouting:
    def test_cell_ids_match_locate(self):
        rng = np.random.default_rng(11)
        coords = rng.integers(0, 1000, size=(800, 2))
        masses = rng.random(800)
        tree = build_kd_hierarchy(coords, masses, leaf_mass=2.0)
        ids = kd_cell_ids(tree, coords)
        expected = np.array(
            [tree.locate(row).cell_id for row in coords], dtype=np.int64
        )
        np.testing.assert_array_equal(ids, expected)

    def test_cell_ids_for_points_off_the_tree(self):
        # Routing must work for points the tree was not built from.
        rng = np.random.default_rng(12)
        coords = rng.integers(0, 1000, size=(300, 3))
        tree = build_kd_hierarchy(coords, rng.random(300), leaf_mass=3.0)
        probes = rng.integers(-5, 1005, size=(500, 3))
        ids = kd_cell_ids(tree, probes)
        expected = np.array(
            [tree.locate(row).cell_id for row in probes], dtype=np.int64
        )
        np.testing.assert_array_equal(ids, expected)
        assert set(ids.tolist()) <= {
            leaf.cell_id for leaf in kd_leaves(tree)
        }


def _preorder(root):
    """Every node of a kd-tree, parents before children, left first."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return nodes


class TestKDBuildParity:
    """The level-synchronous kd build is bit-identical to the recursion.

    The two-pass and product oracles rely on this: they call the
    production builder and still reproduce the historical RNG stream.
    """

    @pytest.mark.parametrize("leaf_mass", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("split_rule", ["median", "midpoint"])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_every_node_matches_scalar_recursion(
        self, dims, split_rule, leaf_mass
    ):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            # Small sides force duplicate points and constant axes.
            side = int(rng.integers(2, 9))
            n = int(rng.integers(1, 150))
            coords = rng.integers(0, side, size=(n, dims))
            masses = rng.random(n) * float(rng.choice([0.2, 1.0, 3.0]))
            domain = ProductDomain([OrderedDomain(side)] * dims)
            if split_rule == "median" and seed % 2:
                domain = None  # the box-free build
            args = (coords, masses, domain, leaf_mass, split_rule)
            fast = _preorder(build_kd_hierarchy(*args))
            ref = _preorder(build_kd_scalar(*args))
            assert len(fast) == len(ref)
            for a, b in zip(fast, ref):
                assert a.is_leaf == b.is_leaf
                assert (a.axis, a.split_value, a.cell_id) == (
                    b.axis, b.split_value, b.cell_id
                )
                assert a.mass == b.mass  # bitwise, not approximately
                if domain is None:
                    assert a.box is None and b.box is None
                else:
                    assert (a.box.lows, a.box.highs) == (
                        b.box.lows, b.box.highs
                    )
                if a.is_leaf:
                    np.testing.assert_array_equal(a.indices, b.indices)
                else:
                    assert a.indices is None and b.indices is None


class TestPartitionCellCodes:
    def test_order_partition(self):
        rng = np.random.default_rng(0)
        part = OrderPartition(rng.choice(10_000, size=60, replace=False))
        keys = rng.integers(0, 10_000, size=400).reshape(-1, 1)
        codes = part.cell_codes(keys)
        expected = [part.cell_of((int(k),)) for k in keys[:, 0]]
        np.testing.assert_array_equal(codes, expected)

    def test_kd_partition(self):
        rng = np.random.default_rng(1)
        guide = rng.integers(0, 500, size=(120, 2))
        part = KDPartition(guide, rng.random(120))
        coords = rng.integers(0, 500, size=(300, 2))
        codes = part.cell_codes(coords)
        expected = [part.cell_of(tuple(row)) for row in coords]
        np.testing.assert_array_equal(codes, expected)

    def test_ancestor_partition(self):
        rng = np.random.default_rng(2)
        h = BitHierarchy(12)
        part = HierarchyAncestorPartition(
            h, rng.choice(h.num_leaves, size=40, replace=False)
        )
        keys = rng.integers(0, h.num_leaves, size=500).reshape(-1, 1)
        codes = part.cell_codes(keys)
        for key, code in zip(keys[:, 0], codes):
            assert part.decode_cell_code(code) == part.cell_of((int(key),))

    def test_disjoint_partition(self):
        rng = np.random.default_rng(3)
        part = DisjointPartition(rng.integers(0, 50, size=30))
        labels = rng.integers(0, 60, size=300)
        codes = part.cell_codes(labels)
        for label, code in zip(labels, codes):
            assert part.decode_cell_code(code) == part.cell_of(int(label))

    def test_disjoint_partition_with_labeler(self):
        part = DisjointPartition([1, 4, 9], labeler=lambda key: key[0] % 16)
        coords = np.arange(64).reshape(-1, 1)
        codes = part.cell_codes(coords)
        for row, code in zip(coords, codes):
            assert part.decode_cell_code(code) == part.cell_of(tuple(row))

    def test_labeler_receives_native_ints(self):
        # The scalar path hands labelers tuples of Python ints (via
        # Dataset.iter_items); the vectorized router must do the same
        # so int-only labelers (bit_length, JSON keys, ...) work on
        # both paths.
        part = DisjointPartition(
            [1, 2, 3], labeler=lambda key: key[0].bit_length()
        )
        codes = part.cell_codes(np.arange(1, 9).reshape(-1, 1))
        assert codes.shape == (8,)


class TestBoundaryCellCount:
    def test_matches_scalar_classification(self):
        domain_sizes = (64, 64)
        box = Box((10, 3), (40, 59))
        for s in (4, 16, 49, 64):
            h = max(1, int(np.floor(s ** 0.5 + 1e-9)))
            grids = [
                np.linspace(0, size, h + 1, dtype=np.int64)
                for size in domain_sizes
            ]
            total = 0
            for i in range(h):
                for j in range(h):
                    lows = (int(grids[0][i]), int(grids[1][j]))
                    highs = (
                        int(grids[0][i + 1]) - 1,
                        int(grids[1][j + 1]) - 1,
                    )
                    inside = all(
                        box.lows[a] <= lows[a] and highs[a] <= box.highs[a]
                        for a in range(2)
                    )
                    outside = any(
                        highs[a] < box.lows[a] or lows[a] > box.highs[a]
                        for a in range(2)
                    )
                    if not inside and not outside:
                        total += 1
            assert boundary_cell_count(domain_sizes, s, box) == total


class TestDatasetNormalization:
    def test_dtypes_and_contiguity(self):
        from repro.structures.order import OrderedDomain

        data = Dataset(
            coords=np.asarray([[1, 2], [3, 4]], dtype=np.int32,
                              order="F"),
            weights=[1, 2],
            domain=ProductDomain([OrderedDomain(10), OrderedDomain(10)]),
        )
        assert data.coords.dtype == np.int64
        assert data.coords.flags["C_CONTIGUOUS"]
        assert data.weights.dtype == np.float64
        assert data.weights.flags["C_CONTIGUOUS"]

    def test_subset_slice_is_zero_copy(self):
        data = Dataset.one_dimensional(
            np.arange(100), np.ones(100), size=100
        )
        shard = data.subset(slice(10, 60))
        assert shard.n == 50
        assert shard.coords.base is not None  # a view, not a copy
        assert shard.coords.flags["C_CONTIGUOUS"]

    def test_subset_matches_fancy_index(self):
        rng = np.random.default_rng(7)
        data = Dataset.one_dimensional(
            rng.integers(0, 50, size=40), rng.random(40), size=50
        )
        rows = np.array([3, 1, 20, 33])
        shard = data.subset(rows)
        np.testing.assert_array_equal(shard.coords, data.coords[rows])
        np.testing.assert_array_equal(shard.weights, data.weights[rows])


class TestContiguousSharding:
    def test_slices_match_index_partition(self):
        rng = np.random.default_rng(9)
        data = Dataset.one_dimensional(
            rng.integers(0, 1000, size=103), rng.random(103), size=1000
        )
        for k in (1, 2, 5, 8, 103):
            shards = shard_dataset(data, k, strategy="contiguous",
                                   drop_empty=False)
            index_sets = shard_indices(data, k, strategy="contiguous")
            assert len(shards) == len(index_sets)
            for shard, rows in zip(shards, index_sets):
                np.testing.assert_array_equal(
                    shard.coords, data.coords[rows]
                )
                np.testing.assert_array_equal(
                    shard.weights, data.weights[rows]
                )


class TestChainKernelInvariants:
    """Deterministic structural invariants of the chain kernels."""

    def _pool(self, seed, n=300, s=25):
        rng = np.random.default_rng(seed)
        w = 1.0 + rng.pareto(1.3, size=n)
        p, _ = ipps_probabilities(w, s)
        return p, np.flatnonzero((p > 0.0) & (p < 1.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_single_chain_settles_everything(self, seed):
        p, frac = self._pool(seed)
        before = p.sum()
        leftover = chain_aggregate(p, frac, np.random.default_rng(seed))
        settled = np.setdiff1d(frac, [] if leftover is None else [leftover])
        values = p[settled]
        assert np.all((values == 0.0) | (values == 1.0))
        assert np.isclose(p.sum(), before, atol=1e-6)
        if leftover is not None:
            assert 0.0 <= p[leftover] <= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_segmented_conserves_per_segment_mass(self, seed):
        p, frac = self._pool(seed)
        rng = np.random.default_rng(seed + 100)
        labels = rng.integers(0, 7, size=frac.size)
        order = np.argsort(labels, kind="stable")
        pool = frac[order]
        starts = run_starts(labels[order])
        before = [
            p[seg].sum()
            for seg in np.split(pool, starts[1:])
        ]
        segments = np.split(pool, starts[1:])
        segmented_chain_aggregate(p, pool, starts, rng)
        for mass, seg in zip(before, segments):
            assert np.isclose(p[seg].sum(), mass, atol=1e-6)
            fractional = np.sum((p[seg] > SET_EPS) & (p[seg] < 1 - SET_EPS))
            assert fractional <= 1  # at most the segment leftover

    def test_skips_set_entries_like_aggregate_pool(self):
        p = np.array([0.4, 1.0, 0.0, 0.3, 1.0 - 1e-12, 0.2])
        pool = np.arange(6)
        rng = np.random.default_rng(0)
        leftover = chain_aggregate(p, pool, rng)
        # Entries 1, 2 and 4 were already set and must be untouched.
        assert p[1] == 1.0 and p[2] == 0.0 and p[4] == 1.0 - 1e-12
        assert leftover in (0, 3, 5)

    def test_empty_and_singleton_pools(self):
        p = np.array([0.5, 0.25])
        rng = np.random.default_rng(1)
        assert chain_aggregate(p, np.array([], dtype=np.int64), rng) is None
        assert chain_aggregate(p, np.array([1]), rng) == 1
        assert p[1] == 0.25  # untouched

    def test_run_starts(self):
        np.testing.assert_array_equal(
            run_starts(np.array([2, 2, 3, 3, 3, 9])), [0, 2, 5]
        )
        np.testing.assert_array_equal(run_starts(np.array([])), [])
