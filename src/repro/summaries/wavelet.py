"""Sparse standard Haar wavelet summaries (the ``wavelet`` baseline).

The standard (tensor-product) 2-D Haar transform of Section 6.1: each
input point contributes to ``(log X + 1) * (log Y + 1)`` orthonormal
basis coefficients; after the transform only the ``s`` largest
(normalized) coefficients are retained.  Range sums evaluate each
retained coefficient's basis-function integral over the query box in
O(1), so a query costs O(s).

With an orthonormal basis the "normalized coefficient" of the
literature is the coefficient itself, and keeping all coefficients
reconstructs the data exactly (tested).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.types import Dataset
from repro.structures.ranges import Box
from repro.summaries.base import (
    Summary,
    battery_plans,
    clamp_bounds,
    clamp_box,
)

#: Level code for the (constant) scaling function on an axis.
SCALING_LEVEL = -1


def _axis_bits(size: int) -> int:
    bits = int(size - 1).bit_length() if size > 1 else 1
    if (1 << bits) < size:
        bits += 1
    return bits


def _axis_levels_and_values(
    x: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point (level, index, value) triples of every 1-D basis function.

    Returns three arrays of shape ``(bits + 1, n)``: row 0 is the
    scaling function, row ``l+1`` is wavelet level ``l``
    (``l = 0`` coarsest .. ``bits-1`` finest).
    """
    n = x.shape[0]
    size = 1 << bits
    levels = np.empty((bits + 1, n), dtype=np.int64)
    indices = np.empty((bits + 1, n), dtype=np.int64)
    values = np.empty((bits + 1, n), dtype=float)
    levels[0] = SCALING_LEVEL
    indices[0] = 0
    values[0] = 1.0 / math.sqrt(size)
    for level in range(bits):
        span_shift = bits - level  # support length = 2**span_shift
        amp = math.sqrt((1 << level) / size)
        k = x >> span_shift
        # Sign: + on the left half of the support, - on the right half.
        left_half = ((x >> (span_shift - 1)) & 1) == 0
        levels[level + 1] = level
        indices[level + 1] = k
        values[level + 1] = np.where(left_half, amp, -amp)
    return levels, indices, values


def _basis_interval_sums(
    levels: np.ndarray,
    indices: np.ndarray,
    lo: int,
    hi: int,
    bits: int,
) -> np.ndarray:
    """Vectorized sum of each basis function over the integer interval [lo, hi]."""
    size = 1 << bits
    length = hi - lo + 1
    out = np.zeros(levels.shape[0], dtype=float)
    scaling = levels == SCALING_LEVEL
    out[scaling] = length / math.sqrt(size)
    wav = ~scaling
    if not wav.any():
        return out
    lev = levels[wav]
    idx = indices[wav]
    span = np.left_shift(1, bits - lev)
    half = span >> 1
    support_lo = idx * span
    amp = np.sqrt(np.power(2.0, lev) / size)
    left_overlap = np.maximum(
        0, np.minimum(hi, support_lo + half - 1) - np.maximum(lo, support_lo) + 1
    )
    right_overlap = np.maximum(
        0,
        np.minimum(hi, support_lo + span - 1)
        - np.maximum(lo, support_lo + half)
        + 1,
    )
    out[wav] = (left_overlap - right_overlap) * amp
    return out


def _axis_straddle_candidates(
    level: int, lo: np.ndarray, hi: np.ndarray, bits: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-box candidate cells whose basis function can be nonzero.

    A wavelet's basis sum over ``[lo, hi]`` is zero unless its dyadic
    support contains one of the endpoints, so the only candidates at a
    level are the endpoint cells -- the right one skipped when it
    coincides with the left (interval inside one support).  The
    scaling function always contributes, from its single cell 0.
    Returns ``(cells, valid)`` pairs; ``valid`` is ``None`` for
    unconditional candidates.
    """
    if level == SCALING_LEVEL:
        return [(np.zeros(lo.shape[0], dtype=np.int64), None)]
    shift = bits - level
    k_lo = lo >> shift
    k_hi = hi >> shift
    return [(k_lo, None), (k_hi, k_hi != k_lo)]


def _axis_basis_factors(
    level: int,
    cells: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Basis sums of the functions at ``(level, cells)`` over ``[lo, hi]``."""
    size = 1 << bits
    if level == SCALING_LEVEL:
        return (hi - lo + 1) / math.sqrt(size)
    shift = bits - level
    span = 1 << shift
    half = span >> 1
    amp = math.sqrt((1 << level) / size)
    sup_lo = cells * span
    left_overlap = np.maximum(
        0, np.minimum(hi, sup_lo + half - 1) - np.maximum(lo, sup_lo) + 1
    )
    right_overlap = np.maximum(
        0,
        np.minimum(hi, sup_lo + span - 1) - np.maximum(lo, sup_lo + half) + 1,
    )
    return (left_overlap - right_overlap) * amp


class WaveletSummary(Summary):
    """Top-s sparse Haar wavelet summary of a 1-D or 2-D dataset."""

    def __init__(self, dataset: Dataset, s: int):
        if dataset.dims not in (1, 2):
            raise ValueError("wavelet summary supports 1-D and 2-D data")
        if s < 1:
            raise ValueError("coefficient budget must be >= 1")
        self._dims = dataset.dims
        self._budget = int(s)
        self._bits = tuple(
            _axis_bits(axis_size) for axis_size in dataset.domain.sizes
        )
        coeffs = self._transform(dataset)
        self.coefficients_computed = len(coeffs)  # pre-thresholding count
        self._retain_top(coeffs, s)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _transform(self, dataset: Dataset) -> Dict[tuple, float]:
        if self._dims == 1:
            return self._transform_1d(dataset)
        return self._transform_2d(dataset)

    def _transform_1d(self, dataset: Dataset) -> Dict[tuple, float]:
        x = dataset.coords[:, 0]
        w = dataset.weights
        levels, indices, values = _axis_levels_and_values(x, self._bits[0])
        coeffs: Dict[tuple, float] = {}
        for row in range(levels.shape[0]):
            contrib = w * values[row]
            keys = indices[row]
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=contrib)
            level = int(levels[row, 0])
            for k, c in zip(uniq, sums):
                if c != 0.0:
                    coeffs[(level, int(k))] = float(c)
        return coeffs

    def _transform_2d(self, dataset: Dataset) -> Dict[tuple, float]:
        x = dataset.coords[:, 0]
        y = dataset.coords[:, 1]
        w = dataset.weights
        lx, ix, vx = _axis_levels_and_values(x, self._bits[0])
        ly, iy, vy = _axis_levels_and_values(y, self._bits[1])
        coeffs: Dict[tuple, float] = {}
        for rx in range(lx.shape[0]):
            level_x = int(lx[rx, 0])
            for ry in range(ly.shape[0]):
                level_y = int(ly[ry, 0])
                contrib = w * vx[rx] * vy[ry]
                # Pack the two cell indices into one int64 key: wavelet
                # indices are < 2**(bits-1) and scaling indices are 0,
                # so (ix << bits_y) | iy stays below 2**63 for <=32-bit
                # axes.
                shift = self._bits[1]
                packed = (ix[rx] << np.int64(shift)) | iy[ry]
                uniq, inverse = np.unique(packed, return_inverse=True)
                sums = np.bincount(inverse, weights=contrib)
                mask = (1 << shift) - 1
                for key, c in zip(uniq, sums):
                    if c != 0.0:
                        kx = int(key) >> shift
                        ky = int(key) & mask
                        coeffs[(level_x, kx, level_y, ky)] = float(c)
        return coeffs

    def _axis_range_impact(self, level: int, bits: int) -> float:
        """Worst-case |basis sum over an interval| for one axis.

        For the scaling function this is ``size/sqrt(size)``; for a
        wavelet at level ``l`` it is the amplitude times half the
        support: ``sqrt(size / 2**l) / 2``.  Ranking coefficients by
        coefficient * impact keeps the ones whose omission can hurt a
        range query most -- equivalent to ranking by the raw half-sum
        difference, the "normalized coefficient" appropriate for
        range-sum workloads (massive-domain sparse data makes plain
        orthonormal magnitude keep only finest-level detail, which
        cancels on wide boxes).
        """
        size = 1 << bits
        if level == SCALING_LEVEL:
            return math.sqrt(size)
        return math.sqrt(size / (1 << level)) / 2.0

    def _retain_top(self, coeffs: Dict[tuple, float], s: int) -> None:
        if self._dims == 1:
            def score(item):
                (level, _k), c = item
                return abs(c) * self._axis_range_impact(level, self._bits[0])
        else:
            def score(item):
                (lx, _kx, ly, _ky), c = item
                return (
                    abs(c)
                    * self._axis_range_impact(lx, self._bits[0])
                    * self._axis_range_impact(ly, self._bits[1])
                )
        items = sorted(coeffs.items(), key=score, reverse=True)
        items = items[:s]
        if self._dims == 1:
            self._lx = np.asarray([k[0] for k, _ in items], dtype=np.int64)
            self._ix = np.asarray([k[1] for k, _ in items], dtype=np.int64)
        else:
            self._lx = np.asarray([k[0] for k, _ in items], dtype=np.int64)
            self._ix = np.asarray([k[1] for k, _ in items], dtype=np.int64)
            self._ly = np.asarray([k[2] for k, _ in items], dtype=np.int64)
            self._iy = np.asarray([k[3] for k, _ in items], dtype=np.int64)
        self._c = np.asarray([c for _, c in items], dtype=float)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def _retained_coeffs(self) -> Dict[tuple, float]:
        """The retained coefficients as a key -> value dict."""
        if self._dims == 1:
            return {
                (int(l), int(k)): float(c)
                for l, k, c in zip(self._lx, self._ix, self._c)
            }
        return {
            (int(lx), int(kx), int(ly), int(ky)): float(c)
            for lx, kx, ly, ky, c in zip(
                self._lx, self._ix, self._ly, self._iy, self._c
            )
        }

    def merge(self, other: "WaveletSummary") -> "WaveletSummary":
        """Merge by adding coefficients, then re-thresholding.

        The Haar transform is linear, so the transform of the union of
        two disjoint shards is the sum of the shard transforms.
        Summing the *retained* coefficients and keeping the top
        ``max(budget_a, budget_b)`` is therefore the natural
        (lossy-on-lossy) wavelet merge; coefficients a shard already
        dropped stay dropped, exactly as in streaming wavelet
        maintenance.
        """
        if not isinstance(other, WaveletSummary):
            raise TypeError(
                f"cannot merge WaveletSummary with {type(other).__name__}"
            )
        if self._dims != other._dims or self._bits != other._bits:
            raise ValueError("cannot merge wavelets over different domains")
        combined = self._retained_coeffs()
        for key, value in other._retained_coeffs().items():
            combined[key] = combined.get(key, 0.0) + value
        combined = {k: c for k, c in combined.items() if c != 0.0}
        merged = object.__new__(WaveletSummary)
        merged._dims = self._dims
        merged._bits = self._bits
        merged._budget = max(self._budget, other._budget)
        merged.coefficients_computed = len(combined)
        merged._retain_top(combined, merged._budget)
        return merged

    # ------------------------------------------------------------------
    # Wire codec hooks (repro.distributed.codec)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The retained coefficients as codec-friendly primitives."""
        state = {
            "dims": self._dims,
            "bits": self._bits,
            "budget": self._budget,
            "computed": self.coefficients_computed,
            "lx": self._lx,
            "ix": self._ix,
            "c": self._c,
        }
        if self._dims == 2:
            state["ly"] = self._ly
            state["iy"] = self._iy
        return state

    @classmethod
    def from_state(cls, state: dict) -> "WaveletSummary":
        """Rebuild a wavelet summary from :meth:`to_state` output."""
        summary = object.__new__(cls)
        summary._dims = int(state["dims"])
        summary._bits = tuple(int(b) for b in state["bits"])
        summary._budget = int(state["budget"])
        summary.coefficients_computed = int(state["computed"])
        summary._lx = np.asarray(state["lx"], dtype=np.int64)
        summary._ix = np.asarray(state["ix"], dtype=np.int64)
        summary._c = np.asarray(state["c"], dtype=float)
        if summary._dims == 2:
            summary._ly = np.asarray(state["ly"], dtype=np.int64)
            summary._iy = np.asarray(state["iy"], dtype=np.int64)
        return summary

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of retained coefficients."""
        return self._c.shape[0]

    def query(self, box: Box) -> float:
        """Range-sum estimate from the retained coefficients."""
        box = clamp_box(box, self._bits)
        if box is None or self._c.shape[0] == 0:
            return 0.0
        fx = _basis_interval_sums(
            self._lx, self._ix, box.lows[0], box.highs[0], self._bits[0]
        )
        if self._dims == 1:
            return float((self._c * fx).sum())
        fy = _basis_interval_sums(
            self._ly, self._iy, box.lows[1], box.highs[1], self._bits[1]
        )
        return float((self._c * fx * fy).sum())

    def point_estimate(self, point) -> float:
        """Reconstructed weight of a single key (for exactness tests)."""
        box = Box(tuple(int(v) for v in point), tuple(int(v) for v in point))
        return self.query(box)

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def _x_level_lookup(self):
        """Per-level sorted x-index lookup for the 1-D straddle kernel.

        Returns ``(lookup, scaling_sum)``: ``lookup[level]`` is the
        pair ``(sorted k values, coefficient rows)`` of the retained
        wavelet coefficients at that level, and ``scaling_sum`` the
        summed scaling coefficients.  Retained coefficients never
        change after construction, so the lookup is a one-shot memo
        (built lazily because ``merge``/``from_state`` rebuild
        instances through ``object.__new__``).
        """
        cached = self.__dict__.get("_level_lookup")
        if cached is None:
            lookup = {}
            wav = np.flatnonzero(self._lx != SCALING_LEVEL)
            for level in np.unique(self._lx[wav]):
                rows = wav[self._lx[wav] == level]
                order = np.argsort(self._ix[rows])
                lookup[int(level)] = (self._ix[rows][order], rows[order])
            scaling_sum = float(self._c[self._lx == SCALING_LEVEL].sum())
            cached = self.__dict__["_level_lookup"] = (lookup, scaling_sum)
        return cached

    def query_many(self, queries: Iterable) -> List[float]:
        """Estimates for a whole battery via sparse straddle kernels.

        Both dimensionalities use the sparse *straddle* kernel: a
        wavelet's basis sum over an interval is exactly zero unless
        its (aligned, dyadic) support contains one of the interval
        endpoints, so per level only the (at most two) straddling
        cells per axis can contribute.  1-D resolves the candidates
        with one ``searchsorted`` per level per endpoint; 2-D packs
        both cell indices into one int64 key and probes the at most
        four endpoint-cell combinations per ``(level_x, level_y)``
        group -- ``O(q log s)`` total instead of the ``O(q s)`` dense
        coefficient x query broadcast.  Answers match the scalar
        :meth:`query` up to floating-point summation order.
        """
        plan = battery_plans(self).fetch_plan(queries)
        if len(plan) == 0:
            return []
        if plan.dims != self._dims:
            raise ValueError(
                f"dimensionality mismatch: wavelet is {self._dims}-D, "
                f"queries are {plan.dims}-D"
            )
        if self._c.shape[0] == 0:
            return [0.0] * len(plan)
        bounds, outside = clamp_bounds(plan.bounds, self._bits)
        if self._dims == 1:
            per_box = self._query_boxes_1d(bounds)
        else:
            per_box = self._query_boxes_2d(bounds)
        per_box[outside] = 0.0
        return plan.reduce_boxes(per_box).tolist()

    def _query_boxes_1d(self, bounds: np.ndarray) -> np.ndarray:
        """Sparse per-level straddle kernel over a stack of intervals."""
        lo = bounds[:, 0, 0]
        hi = bounds[:, 0, 1]
        bits = self._bits[0]
        size = 1 << bits
        lookup, scaling_sum = self._x_level_lookup()
        per_box = (hi - lo + 1) / math.sqrt(size) * scaling_sum
        for level, (ks, rows) in lookup.items():
            shift = bits - level
            span = 1 << shift
            half = span >> 1
            amp = math.sqrt((1 << level) / size)
            k_lo = lo >> shift
            k_hi = hi >> shift
            # An endpoint's support cell is the only candidate at this
            # level; the right endpoint is skipped when it shares the
            # left one's cell (the interval lies inside one support).
            for cand, extra in ((k_lo, None), (k_hi, k_hi != k_lo)):
                pos = np.searchsorted(ks, cand)
                pos_c = np.minimum(pos, ks.size - 1)
                hit = ks[pos_c] == cand
                if extra is not None:
                    hit &= extra
                boxes_hit = np.flatnonzero(hit)
                if boxes_hit.size == 0:
                    continue
                coeff = rows[pos_c[boxes_hit]]
                sup_lo = cand[boxes_hit] * span
                box_lo = lo[boxes_hit]
                box_hi = hi[boxes_hit]
                left_overlap = np.maximum(
                    0,
                    np.minimum(box_hi, sup_lo + half - 1)
                    - np.maximum(box_lo, sup_lo) + 1,
                )
                right_overlap = np.maximum(
                    0,
                    np.minimum(box_hi, sup_lo + span - 1)
                    - np.maximum(box_lo, sup_lo + half) + 1,
                )
                per_box[boxes_hit] += (
                    (left_overlap - right_overlap) * amp * self._c[coeff]
                )
        return per_box

    def _xy_group_lookup(self):
        """Packed-key lookup per ``(level_x, level_y)`` group (2-D).

        Returns ``{(lx, ly): (sorted packed keys, coefficient rows)}``
        where a key packs both cell indices as ``(kx << bits_y) | ky``
        -- the same packing the build-time transform uses.  Lazy
        one-shot memo, same rationale as :meth:`_x_level_lookup`.
        """
        cached = self.__dict__.get("_group_lookup")
        if cached is None:
            shift = self._bits[1]
            pairs = np.stack([self._lx, self._ly], axis=1)
            uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
            cached = {}
            for g in range(uniq.shape[0]):
                rows = np.flatnonzero(inverse == g)
                packed = (self._ix[rows] << np.int64(shift)) | self._iy[rows]
                order = np.argsort(packed)
                key = (int(uniq[g, 0]), int(uniq[g, 1]))
                cached[key] = (packed[order], rows[order])
            self.__dict__["_group_lookup"] = cached
        return cached

    def _query_boxes_2d(self, bounds: np.ndarray) -> np.ndarray:
        """Sparse per-group straddle kernel over a stack of 2-D boxes.

        For each retained ``(level_x, level_y)`` group only the (at
        most four) combinations of per-axis endpoint cells can yield a
        nonzero tensor-product basis sum; each combination is one
        packed-key ``searchsorted`` probe into the group's sorted
        coefficients.
        """
        lo_x = bounds[:, 0, 0]
        hi_x = bounds[:, 0, 1]
        lo_y = bounds[:, 1, 0]
        hi_y = bounds[:, 1, 1]
        bits_x, bits_y = self._bits
        per_box = np.zeros(bounds.shape[0], dtype=float)
        for (lx, ly), (keys, rows) in self._xy_group_lookup().items():
            for cx, valid_x in _axis_straddle_candidates(
                lx, lo_x, hi_x, bits_x
            ):
                for cy, valid_y in _axis_straddle_candidates(
                    ly, lo_y, hi_y, bits_y
                ):
                    packed = (cx << np.int64(bits_y)) | cy
                    pos = np.searchsorted(keys, packed)
                    pos_c = np.minimum(pos, keys.size - 1)
                    hit = keys[pos_c] == packed
                    if valid_x is not None:
                        hit &= valid_x
                    if valid_y is not None:
                        hit &= valid_y
                    idx = np.flatnonzero(hit)
                    if idx.size == 0:
                        continue
                    coeff = self._c[rows[pos_c[idx]]]
                    fx = _axis_basis_factors(
                        lx, cx[idx], lo_x[idx], hi_x[idx], bits_x
                    )
                    fy = _axis_basis_factors(
                        ly, cy[idx], lo_y[idx], hi_y[idx], bits_y
                    )
                    per_box[idx] += fx * fy * coeff
        return per_box
