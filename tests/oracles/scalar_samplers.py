"""Historical scalar samplers (seeded RNG-stream oracles).

Before the chain kernels (:mod:`repro.core.chain`) replaced them, every
sampler resolved its pools with the item-at-a-time
:func:`~repro.core.aggregation.aggregate_pool` loop.  The production
kernels realize the same sampling distribution with a different RNG
consumption order; these loops are the references the equivalence
suites (``tests/test_kernel_equivalence.py``) compare them against, and
the "before" path ``benchmarks/bench_build_kernels.py`` times.

Each function reproduces the historical RNG stream for a fixed seed:

* :func:`varopt_sample`, :func:`order_aware_sample`,
  :func:`disjoint_aware_sample`, :func:`hierarchy_aware_sample`,
  :func:`product_aware_sample` -- the array-level samplers.
* :func:`stream_varopt_summary` -- the reservoir fed item by item.
* :func:`merge` / :func:`downsample` -- the second-stage re-aggregation
  of :class:`~repro.core.estimator.SampleSummary`.
* :func:`two_pass_summary` -- both passes item at a time, with
  :class:`IOAggregator` (paper Algorithm 3) as pass 2.
* :func:`build_kd_scalar` -- the per-node kd recursion, the reference
  the level-synchronous :func:`~repro.aware.kd.build_kd_hierarchy` is
  pinned bit-identical to.  The kd build consumes no randomness, so
  the product and two-pass oracles call the production builder.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.aware.kd import (
    KDNode,
    _presorted_median_cut,
    build_kd_hierarchy,
)
from repro.aware.product_sampler import fold_kd_leftovers
from repro.core.aggregation import (
    SET_EPS,
    aggregate_pool,
    finalize_leftover,
    included_indices,
    is_set,
    pair_aggregate_values,
)
from repro.core.estimator import SampleSummary
from repro.core.ipps import (
    StreamingThreshold,
    ipps_probabilities,
    ipps_threshold,
)
from repro.core.types import Dataset
from repro.core.varopt import StreamVarOpt
from repro.structures.hierarchy import RadixHierarchy
from repro.twopass.two_pass import TwoPassSampler

#: An in-flight record: (key tuple, original weight, current probability).
Record = Tuple[Tuple[int, ...], float, float]


# ----------------------------------------------------------------------
# Array-level samplers
# ----------------------------------------------------------------------
def varopt_sample(
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Offline VarOpt_s with the scalar pair-aggregation loop."""
    w = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(w, s)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if order is None:
        order = rng.permutation(fractional.size)
    leftover = aggregate_pool(p, fractional[order].tolist(), rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau


def order_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """OSSUMMARIZE with one scalar pool walk along the sorted order."""
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    order = np.argsort(keys, kind="stable")
    fractional = [int(i) for i in order if 0.0 < p[i] < 1.0]
    leftover = aggregate_pool(p, fractional, rng)
    finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def disjoint_aware_sample(
    labels: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Per-range scalar pools, then one pool over the range leftovers."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    leftovers = []
    if fractional.size:
        order = np.argsort(labels[fractional], kind="stable")
        idx_sorted = fractional[order]
        lbl_sorted = labels[idx_sorted]
        boundaries = np.flatnonzero(np.diff(lbl_sorted)) + 1
        starts = np.concatenate(([0], boundaries, [idx_sorted.size]))
        for lo, hi in zip(starts[:-1], starts[1:]):
            leftover = aggregate_pool(p, idx_sorted[lo:hi].tolist(), rng)
            if leftover is not None:
                leftovers.append(leftover)
    final = aggregate_pool(p, leftovers, rng)
    finalize_leftover(p, final, rng)
    return included_indices(p), tau, p_initial


def _aggregate_group(
    p: np.ndarray,
    indices: np.ndarray,
    keys_sorted: np.ndarray,
    hierarchy: RadixHierarchy,
    depth: int,
    rng: np.random.Generator,
) -> Optional[int]:
    """Resolve one induced-subtree group, returning its leftover index.

    ``indices`` are positions into the original arrays; ``keys_sorted``
    are their key values (sorted ascending).  ``depth`` is a depth at
    which the whole group is known to share a node.
    """
    if indices.size == 0:
        return None
    if indices.size == 1:
        idx = int(indices[0])
        return None if is_set(float(p[idx])) else idx
    # Contract unary chains: descend to the group's true LCA depth.
    lca = hierarchy.lca_depth(int(keys_sorted[0]), int(keys_sorted[-1]))
    depth = max(depth, lca)
    if depth >= hierarchy.depth:
        # All keys identical (duplicate leaves): aggregate arbitrarily.
        return aggregate_pool(p, indices.tolist(), rng)
    # Split into children at depth+1 (the group is sorted by key, so
    # children are contiguous runs of equal node ids).
    child_ids = hierarchy.node_of(keys_sorted, depth + 1)
    boundaries = np.flatnonzero(np.diff(child_ids)) + 1
    starts = np.concatenate(([0], boundaries, [indices.size]))
    leftovers = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        leftover = _aggregate_group(
            p, indices[lo:hi], keys_sorted[lo:hi], hierarchy, depth + 1, rng
        )
        if leftover is not None:
            leftovers.append(leftover)
    return aggregate_pool(p, leftovers, rng)


def aggregate_hierarchy(
    p: np.ndarray,
    idx_sorted: np.ndarray,
    keys_sorted: np.ndarray,
    hierarchy: RadixHierarchy,
    rng: np.random.Generator,
) -> Optional[int]:
    """Recursive lowest-LCA-first aggregation of a key-sorted pool.

    The recursion is as deep as the hierarchy; the interpreter's limit
    is raised for the call and restored afterwards.
    """
    limit = sys.getrecursionlimit()
    needed = hierarchy.depth + idx_sorted.size + 100
    if needed > limit:
        sys.setrecursionlimit(needed)
    try:
        return _aggregate_group(p, idx_sorted, keys_sorted, hierarchy, 0, rng)
    finally:
        sys.setrecursionlimit(limit)


def hierarchy_aware_sample(
    keys: np.ndarray,
    weights: np.ndarray,
    s: float,
    hierarchy: RadixHierarchy,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Hierarchy-aware VarOpt_s via the recursive subtree walk."""
    keys = np.asarray(keys)
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        order = np.argsort(keys[fractional], kind="stable")
        idx_sorted = fractional[order]
        leftover = aggregate_hierarchy(
            p, idx_sorted, keys[idx_sorted], hierarchy, rng
        )
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


def aggregate_kd(
    node: KDNode,
    p: np.ndarray,
    index_map: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Scalar bottom-up aggregation: leaf pools resolve in walk order.

    ``index_map`` translates the kd-tree's local point indices to
    positions in the probability vector ``p``.
    """
    def leaf_leftover(leaf: KDNode) -> Optional[int]:
        pool = [int(index_map[i]) for i in leaf.indices]
        return aggregate_pool(p, pool, rng)

    return fold_kd_leftovers(node, leaf_leftover, p, rng)


def product_aware_sample(
    coords: np.ndarray,
    weights: np.ndarray,
    s: float,
    rng: np.random.Generator,
    domain=None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Product-aware VarOpt_s via the scalar kd-tree walk."""
    coords = np.atleast_2d(np.asarray(coords))
    weights = np.asarray(weights, dtype=float)
    p, tau = ipps_probabilities(weights, s)
    p_initial = p.copy()
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    if fractional.size:
        tree = build_kd_hierarchy(
            coords[fractional],
            p[fractional],
            domain=domain,
            leaf_mass=leaf_mass,
            split_rule=split_rule,
        )
        leftover = aggregate_kd(tree, p, fractional, rng)
        finalize_leftover(p, leftover, rng)
    return included_indices(p), tau, p_initial


# ----------------------------------------------------------------------
# Reservoir and second-stage re-aggregation
# ----------------------------------------------------------------------
def stream_varopt_summary(
    dataset: Dataset, s: int, rng: np.random.Generator
) -> SampleSummary:
    """One-pass VarOpt, feeding the reservoir one item at a time."""
    sampler = StreamVarOpt(s, rng)
    for key, weight in dataset.iter_items():
        sampler.feed(key, weight)
    return sampler.summary()


def reaggregate(
    coords: np.ndarray,
    adjusted: np.ndarray,
    tau_floor: float,
    s: int,
    rng: Optional[np.random.Generator],
) -> SampleSummary:
    """Second-stage IPPS/VarOpt over adjusted weights, scalar loop."""
    if s < 1:
        raise ValueError("target sample size must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    tau_star = max(tau_floor, ipps_threshold(adjusted, s))
    if tau_star == 0.0:
        return SampleSummary(coords=coords, weights=adjusted, tau=0.0)
    p = np.minimum(1.0, adjusted / tau_star)
    fractional = np.flatnonzero((p > 0.0) & (p < 1.0))
    pool = fractional[rng.permutation(fractional.size)]
    leftover = aggregate_pool(p, pool.tolist(), rng)
    finalize_leftover(p, leftover, rng)
    included = included_indices(p)
    return SampleSummary(
        coords=coords[included],
        weights=adjusted[included],
        tau=tau_star,
    )


def downsample(
    summary: SampleSummary,
    s: int,
    rng: Optional[np.random.Generator] = None,
) -> SampleSummary:
    """:meth:`SampleSummary.downsample` with the scalar loop."""
    if summary.size <= s:
        return SampleSummary(
            coords=summary.coords.copy(),
            weights=summary.weights.copy(),
            tau=summary.tau,
        )
    return reaggregate(
        summary.coords, summary.adjusted_weights, summary.tau, s, rng
    )


def merge(
    left: SampleSummary,
    right: SampleSummary,
    s: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SampleSummary:
    """:meth:`SampleSummary.merge` with the scalar loop."""
    if right.size == 0 or left.size == 0:
        base = left if right.size == 0 else right
        if s is None:
            s = base.size
        return downsample(base, s, rng)
    if s is None:
        s = max(left.size, right.size)
    coords = np.concatenate((left.coords, right.coords), axis=0)
    adjusted = np.concatenate(
        (left.adjusted_weights, right.adjusted_weights)
    )
    return reaggregate(
        coords, adjusted, max(left.tau, right.tau), s, rng
    )


# ----------------------------------------------------------------------
# Two-pass pipeline (paper Section 5), item at a time
# ----------------------------------------------------------------------
class IOAggregator:
    """Streaming pair aggregation guided by a partition (Algorithm 3).

    Each incoming key either enters the sample directly (IPPS
    probability one), becomes its cell's active key, or pair-aggregates
    with the cell's current active key.  Memory is one record per cell
    plus the growing sample.

    Parameters
    ----------
    tau:
        The IPPS threshold for the target sample size (from pass 1).
        ``tau == 0`` means every positive-weight key is sampled exactly.
    cell_of:
        Maps a key tuple to a hashable cell identifier.
    rng:
        Randomness source.
    """

    def __init__(
        self,
        tau: float,
        cell_of: Callable[[Tuple[int, ...]], Hashable],
        rng: np.random.Generator,
    ):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._tau = float(tau)
        self._cell_of = cell_of
        self._rng = rng
        self._active: Dict[Hashable, Record] = {}
        self._sample: List[Tuple[Tuple[int, ...], float]] = []
        self._mass_in = 0.0  # total probability mass fed (for invariants)

    @property
    def tau(self) -> float:
        """The IPPS threshold in use."""
        return self._tau

    @property
    def sample(self) -> List[Tuple[Tuple[int, ...], float]]:
        """Keys already committed to the sample (probability one)."""
        return self._sample

    @property
    def active_count(self) -> int:
        """Number of cells currently holding an active fractional key."""
        return len(self._active)

    def probability_of(self, weight: float) -> float:
        """IPPS inclusion probability of a weight under the threshold."""
        if weight <= 0:
            return 0.0
        if self._tau == 0.0:
            return 1.0
        return min(1.0, weight / self._tau)

    def process(self, key: Tuple[int, ...], weight: float) -> None:
        """Process one stream item (Algorithm 3 body)."""
        p = self.probability_of(weight)
        if p == 0.0:
            return
        self._mass_in += p
        if p >= 1.0 - SET_EPS:
            self._sample.append((key, weight))
            return
        cell = self._cell_of(key)
        resident = self._active.get(cell)
        if resident is None:
            self._active[cell] = (key, weight, p)
            return
        res_key, res_weight, res_p = resident
        new_res_p, new_p = pair_aggregate_values(res_p, p, self._rng)
        del self._active[cell]
        for rec_key, rec_weight, rec_p in (
            (res_key, res_weight, new_res_p),
            (key, weight, new_p),
        ):
            if rec_p >= 1.0 - SET_EPS:
                self._sample.append((rec_key, rec_weight))
            elif rec_p > SET_EPS:
                self._active[cell] = (rec_key, rec_weight, rec_p)

    def active_records(self) -> List[Record]:
        """The surviving active keys (for the final aggregation phase)."""
        return list(self._active.values())

    def conservation_error(self) -> float:
        """|mass in - (committed + active)|: should be ~0 at all times."""
        mass_out = float(len(self._sample)) + sum(
            rec[2] for rec in self._active.values()
        )
        return abs(self._mass_in - mass_out)


def _aggregate_tree_cells(
    root: KDNode,
    cell_to_index: dict,
    p: np.ndarray,
    rng: np.random.Generator,
) -> Optional[int]:
    """Bottom-up aggregation of one record per kd cell (final phase)."""
    def leaf_leftover(leaf: KDNode) -> Optional[int]:
        idx = cell_to_index.get(leaf.cell_id)
        if idx is None or is_set(float(p[idx])):
            return None
        return idx

    return fold_kd_leftovers(root, leaf_leftover, p, rng)


def _finalize(
    records: List[Record],
    partition,
    kind: str,
    dataset: Dataset,
    rng: np.random.Generator,
) -> List[Tuple[Tuple[int, ...], float]]:
    """Aggregate active keys following the structure; return chosen."""
    if not records:
        return []
    p = np.asarray([rec[2] for rec in records], dtype=float)
    if kind == "kd":
        cell_to_index = {
            partition.cell_of(rec[0]): i for i, rec in enumerate(records)
        }
        leftover = _aggregate_tree_cells(partition.tree, cell_to_index, p, rng)
    elif kind == "ancestor":
        keys = np.asarray([rec[0][0] for rec in records])
        order = np.argsort(keys, kind="stable")
        leftover = aggregate_hierarchy(
            p, order, keys[order], dataset.domain.hierarchy(0), rng
        )
    else:  # order / linearized: aggregate along the sorted order
        keys = np.asarray([rec[0][0] for rec in records])
        order = np.argsort(keys, kind="stable")
        leftover = aggregate_pool(p, [int(i) for i in order], rng)
    finalize_leftover(p, leftover, rng)
    return [(records[i][0], records[i][1]) for i in included_indices(p)]


def two_pass_summary(
    dataset: Dataset,
    s: int,
    rng: np.random.Generator,
    s_prime_factor: int = 5,
    partition: str = "auto",
    split_rule: str = "median",
    labeler=None,
) -> SampleSummary:
    """The two-pass sampler with both passes item at a time.

    Argument validation, partition-kind resolution and the partition
    build reuse :class:`~repro.twopass.two_pass.TwoPassSampler` (they
    consume no randomness); the passes themselves are the historical
    scalar ones.
    """
    sampler = TwoPassSampler(
        s, rng, s_prime_factor=s_prime_factor, partition=partition,
        split_rule=split_rule, labeler=labeler,
    )
    # ---- Pass 1: exact threshold + guide sample ------------------------
    threshold = StreamingThreshold(s)
    guide = StreamVarOpt(s * s_prime_factor, rng)
    for key, weight in dataset.iter_items():
        threshold.update(weight)
        guide.feed(key, weight)
    tau = threshold.tau
    if tau == 0.0:
        # The sample size covers every positive-weight key.
        mask = dataset.weights > 0
        return SampleSummary(
            coords=dataset.coords[mask],
            weights=dataset.weights[mask],
            tau=0.0,
        )
    # Keys certain to be sampled (w >= tau_s) are excluded from the
    # partition construction -- S' is guaranteed to contain them all.
    guide_items = [
        (key, weight) for key, weight in guide.sample_items() if weight < tau
    ]
    kind = sampler._resolve_partition_kind(dataset)
    cells = sampler._build_partition(dataset, kind, guide_items, tau)
    # ---- Pass 2: IO-AGGREGATE ------------------------------------------
    aggregator = IOAggregator(tau, cells.cell_of, rng)
    for key, weight in dataset.iter_items():
        aggregator.process(key, weight)
    # ---- Final phase: aggregate the active keys ------------------------
    chosen = list(aggregator.sample)
    chosen.extend(
        _finalize(aggregator.active_records(), cells, kind, dataset, rng)
    )
    if not chosen:
        return SampleSummary(
            coords=np.empty((0, dataset.dims), dtype=np.int64),
            weights=np.empty(0),
            tau=tau,
        )
    coords = np.asarray([key for key, _w in chosen], dtype=np.int64)
    weights = np.asarray([w for _k, w in chosen], dtype=float)
    return SampleSummary(coords=coords, weights=weights, tau=tau)


# ----------------------------------------------------------------------
# kd-hierarchy: the per-node recursion
# ----------------------------------------------------------------------
def _weighted_median_split(
    values: np.ndarray, masses: np.ndarray
) -> Optional[Tuple[int, float]]:
    """Best weighted-median cut of one axis, or ``None`` if constant."""
    order = np.argsort(values, kind="stable")
    return _presorted_median_cut(values[order], masses[order])


def _midpoint_split(
    values: np.ndarray, box_side: Tuple[int, int]
) -> Optional[int]:
    """Dyadic midpoint split of the cell's box side (ablation rule)."""
    lo, hi = box_side
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    if not ((values <= mid).any() and (values > mid).any()):
        return None
    return mid


def _choose_split(coords, masses, indices, depth, dims, box, split_rule):
    """Pick the split axis/value, cycling axes from ``depth % dims``."""
    for offset in range(dims):
        axis = (depth + offset) % dims
        values = coords[indices, axis]
        if split_rule == "midpoint":
            mid = _midpoint_split(values, box.side(axis))
            if mid is not None:
                return axis, mid
            continue
        result = _weighted_median_split(values, masses[indices])
        if result is not None:
            return axis, result[0]
    return None


def build_kd_scalar(
    coords: np.ndarray,
    masses: np.ndarray,
    domain=None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> KDNode:
    """The historical kd build: one ``argsort`` per node and split try.

    Same arguments as :func:`~repro.aware.kd.build_kd_hierarchy`
    (``midpoint`` needs a domain); leaves get consecutive cell ids in
    stack-pop order.
    """
    coords = np.atleast_2d(np.asarray(coords))
    masses = np.asarray(masses, dtype=float)
    dims = coords.shape[1]
    root_box = domain.full_box() if domain is not None else None
    root = KDNode(mass=float(masses.sum()), box=root_box)
    next_cell_id = 0
    stack: List[Tuple[KDNode, np.ndarray, int]] = [
        (root, np.arange(coords.shape[0]), 0)
    ]
    while stack:
        node, indices, depth = stack.pop()
        node.mass = float(masses[indices].sum())
        if node.mass <= leaf_mass or indices.size <= 1:
            node.indices = indices
            node.cell_id = next_cell_id
            next_cell_id += 1
            continue
        split = _choose_split(
            coords, masses, indices, depth, dims, node.box, split_rule
        )
        if split is None:
            # Every axis is constant on this cell: duplicate points.
            node.indices = indices
            node.cell_id = next_cell_id
            next_cell_id += 1
            continue
        axis, split_value = split
        node.axis = axis
        node.split_value = split_value
        left_mask = coords[indices, axis] <= split_value
        left_box = right_box = None
        if node.box is not None:
            lo, hi = node.box.side(axis)
            if lo <= split_value < hi:
                left_box, right_box = node.box.split(axis, split_value)
            else:  # degenerate box side; children inherit the box
                left_box = right_box = node.box
        node.left = KDNode(mass=0.0, box=left_box)
        node.right = KDNode(mass=0.0, box=right_box)
        stack.append((node.left, indices[left_mask], depth + 1))
        stack.append((node.right, indices[~left_mask], depth + 1))
    return root
