"""Flat interval-encoded store for the q-digest query kernels.

Both q-digest families serve their 1-D batteries from one flat table
of key *intervals*: contiguous NumPy columns ``level``, ``lo``, ``hi``
and ``mass``, one row per materialized node, where ``[lo, hi]`` is the
key range a node covers.  The streaming q-digest encodes its sparse
dyadic forest (:meth:`IntervalTable.from_dyadic_nodes`), the batch
q-digest its disjoint leaf partition (:meth:`IntervalTable.
from_leaves`).

Rows are kept in the canonical order ``(level, lo, pre)``, where
``pre`` is the encoder's input rank: each level is a sorted run, so a
range-sum battery folds per level with one prefix-sum difference per
query (see :meth:`IntervalTable.range_scan`).  Encoding and invariants
are specified in ``INTERVALS.md`` next to this module.

The batched scan kernel avoids per-level binary searches over the
battery: the battery's bounds are sorted once (cached on the
:class:`~repro.structures.ranges.QueryPlan` via ``sorted_1d``), each
level's cell run is located by counting *cells* into the sorted bounds
(``searchsorted`` over the handful of cells, then a ``bincount`` /
``cumsum`` inversion), and the resulting gather positions plus the
straddling-cell contributions are compiled once per (table, battery)
pair -- a repeat battery replays pure gathers and adds.  Answers are
bit-identical to the reference per-depth and sorted-leaf kernels in
``tests/oracles/qdigest_kernels.py`` (pinned in
``tests/test_interval_store.py``).
"""

from __future__ import annotations

import numpy as np


class IntervalTable:
    """A forest of 1-D key intervals as contiguous sorted NumPy columns.

    Parameters
    ----------
    level:
        ``(n,)`` int64 node depths (root = 0).
    lo, hi:
        ``(n,)`` int64 inclusive key bounds per node.
    mass:
        ``(n,)`` float64 node weights.

    Rows are stored in the canonical ``(level, lo, pre)`` order, ``pre``
    being the input rank; all query kernels rely on it.
    """

    __slots__ = (
        "level", "lo", "hi", "mass",
        "level_values", "level_starts", "level_spans",
        "_prefix", "_cells", "_scan_memo", "_leaf_memo",
    )

    def __init__(self, level, lo, hi, mass):
        level = np.asarray(level, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        mass = np.asarray(mass, dtype=float)
        n = level.shape[0]
        if not level.shape == lo.shape == hi.shape == mass.shape == (n,):
            raise ValueError("interval-table columns disagree on length")
        order = np.lexsort((np.arange(n), lo, level))
        self.level = level[order]
        self.lo = lo[order]
        self.hi = hi[order]
        self.mass = mass[order]
        # Per-level layout: levels present (ascending), their row
        # ranges, and -- when every row of a level shares one span --
        # the level's cell width (-1 marks a mixed-span level, which
        # the dyadic scan kernel refuses).
        if n:
            values, starts = np.unique(self.level, return_index=True)
            starts = np.concatenate((starts, [n]))
        else:
            values = np.zeros(0, dtype=np.int64)
            starts = np.zeros(1, dtype=np.int64)
        self.level_values = values
        self.level_starts = starts.astype(np.int64)
        spans = self.hi - self.lo + 1
        level_spans = np.empty(values.shape[0], dtype=np.int64)
        for j in range(values.shape[0]):
            chunk = spans[starts[j]:starts[j + 1]]
            level_spans[j] = chunk[0] if (chunk == chunk[0]).all() else -1
        self.level_spans = level_spans
        self._prefix = None
        self._cells = None
        self._scan_memo = None
        self._leaf_memo = None

    def __len__(self) -> int:
        return self.level.shape[0]

    # ------------------------------------------------------------------
    # Encoders
    # ------------------------------------------------------------------
    @classmethod
    def from_dyadic_nodes(
        cls, bits: int, nodes: np.ndarray, counts: np.ndarray
    ) -> "IntervalTable":
        """Encode a heap-numbered sparse dyadic node set (streaming
        q-digest): node ``v`` at depth ``d = floor(log2 v)`` covers
        ``[(v - 2^d) * 2^(bits-d), ...]``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        # Depth = bit length - 1, via exact integer halving (no float
        # log); same computation as the reference per-depth kernel.
        remaining = nodes.copy()
        depths = np.zeros(nodes.shape[0], dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            big = remaining >= np.int64(1) << shift
            depths[big] += shift
            remaining[big] >>= shift
        spans = np.int64(1) << (np.int64(bits) - depths)
        lo = (nodes - (np.int64(1) << depths)) * spans
        return cls(depths, lo, lo + spans - 1, counts)

    @classmethod
    def from_leaves(
        cls, lows: np.ndarray, highs: np.ndarray, weights: np.ndarray
    ) -> "IntervalTable":
        """Encode a 1-D leaf partition.

        All rows land on level 0, so the canonical sort is a stable
        sort by ``lo`` -- exactly the batch q-digest's historical
        sorted-leaf order.
        """
        lows = np.asarray(lows, dtype=np.int64)
        return cls(np.zeros(lows.shape[0], dtype=np.int64), lows, highs,
                   weights)

    # ------------------------------------------------------------------
    # Range-sum kernels
    # ------------------------------------------------------------------
    def _ensure_prefix(self) -> np.ndarray:
        """Concatenated per-level exclusive prefix sums of ``mass``.

        Level ``j`` (rows ``[s_j, e_j)``) owns prefix positions
        ``[s_j + j, e_j + j]`` -- each level contributes one extra
        leading ``0.0``, so a run inside a level differences to the
        same floats as a standalone per-level ``cumsum`` (bit-identical
        to the reference per-depth kernel's prefixes).
        """
        if self._prefix is None:
            parts = []
            starts = self.level_starts
            for j in range(self.level_values.shape[0]):
                chunk = self.mass[starts[j]:starts[j + 1]]
                parts.append(np.concatenate(([0.0], np.cumsum(chunk))))
            self._prefix = (
                np.concatenate(parts) if parts else np.zeros(1)
            )
        return self._prefix

    def _ensure_cells(self) -> np.ndarray:
        """Per-row cell index ``lo // span(level)``."""
        if self._cells is None:
            spans = self.level_spans[
                np.searchsorted(self.level_values, self.level)
            ]
            self._cells = self.lo // spans
        return self._cells

    def scannable(self) -> bool:
        """Whether the dyadic scan kernel applies: every level a
        uniform-span sorted run."""
        return bool((self.level_spans > 0).all())

    def leaves_disjoint(self) -> bool:
        """Whether rows are pairwise-disjoint sorted intervals."""
        if self.level_values.shape[0] > 1:
            return False
        return len(self) <= 1 or bool((self.hi[:-1] < self.lo[1:]).all())

    def range_scan(self, plan) -> np.ndarray:
        """Battery range sums over the sorted per-level cell runs.

        ``plan`` is a :class:`~repro.structures.ranges.QueryPlan` (or
        any object with ``bounds`` and ``sorted_1d()``); returns the
        per-box sums in ``plan.bounds`` order.  All levels fold (each
        item's weight lives in one node).  Straddling cells contribute
        their overlapped span fraction, exactly like the scalar
        ``range_sum`` path.  The compiled scan -- gather positions and
        straddler contributions -- is memoized per battery, so a
        repeated battery replays pure prefix gathers and adds.
        """
        if not self.scannable():
            raise ValueError("range_scan needs uniform-span levels")
        bounds = plan.bounds
        memo = self._scan_memo
        if memo is None or memo[0] != id(plan):
            lo = bounds[:, 0, 0]
            hi = bounds[:, 0, 1]
            memo = (id(plan), self._compile_scan(lo, hi, plan.sorted_1d()),
                    plan)
            self._scan_memo = memo
        prefix = self._ensure_prefix()
        per_box = np.zeros(bounds.shape[0], dtype=float)
        for pos_lo, pos_hic, lrows, lcontrib, hrows, hcontrib in memo[1]:
            per_box += prefix[pos_hic] - prefix[pos_lo]
            if lrows.size:
                per_box[lrows] += lcontrib
            if hrows.size:
                per_box[hrows] += hcontrib
        return per_box

    def _compile_scan(self, lo, hi, sorted_1d):
        """Compile one battery against the table (see module docstring).

        Per level the contained cell run ``[a, b]`` is located without
        per-query binary searches: the level's few cells are
        positioned among the battery's *sorted* bounds, and the
        positions invert to per-query run indices through a
        ``bincount``/``cumsum`` step function.  The two possible
        straddling cells per query are then the rows adjacent to the
        run -- no further searches.  Produced indices and contributions
        are bit-identical to the reference per-depth kernel.
        """
        order_lo, sorted_lo, order_hi, sorted_hi = sorted_1d
        q = lo.shape[0]
        cells = self._ensure_cells()
        starts = self.level_starts
        compiled = []
        for j in range(self.level_values.shape[0]):
            s = self.level_spans[j]
            base = int(starts[j])
            n_j = int(starts[j + 1]) - base
            cells_j = cells[base:base + n_j]
            # Level j's prefix run starts j slots after its rows.
            pbase = base + j
            # Contained run [a, b] located by counting cells into the
            # sorted battery bounds (t/u are per-cell positions; the
            # bincount/cumsum inverts them to per-query run indices).
            sorted_a = (sorted_lo + s - 1) // s
            sorted_b = (sorted_hi + 1) // s - 1
            t = np.searchsorted(sorted_a, cells_j, side="right")
            u = np.searchsorted(sorted_b, cells_j, side="left")
            f = np.cumsum(np.bincount(t, minlength=q + 1))[:q]
            g = np.cumsum(np.bincount(u, minlength=q + 1))[:q]
            lo_idx = np.empty(q, dtype=np.int64)
            hi_idx = np.empty(q, dtype=np.int64)
            lo_idx[order_lo] = f
            hi_idx[order_hi] = g
            pos_lo = pbase + lo_idx
            pos_hic = pbase + np.maximum(hi_idx, lo_idx)
            # Straddling cells: at most the one holding each endpoint.
            a = (lo + s - 1) // s
            b = (hi + 1) // s - 1
            c_lo = lo // s
            c_hi = hi // s
            lrows, lcontrib = self._straddle(
                lo, hi, s, base, n_j, cells_j, c_lo,
                # Unaligned lo: cell a-1 straddles, just left of the
                # run; aligned narrow (a > b): cell a holds the query.
                np.where(lo % s != 0, lo_idx - 1,
                         np.where(a > b, lo_idx, np.int64(-1))),
            )
            hrows, hcontrib = self._straddle(
                lo, hi, s, base, n_j, cells_j, c_hi,
                np.where(((hi + 1) % s != 0) & (c_hi != c_lo),
                         hi_idx, np.int64(-1)),
            )
            compiled.append(
                (pos_lo, pos_hic, lrows, lcontrib, hrows, hcontrib)
            )
        return compiled

    def _straddle(self, lo, hi, s, base, n_j, cells_j, cand, local_pos):
        """Resolve straddling-cell candidates at local positions.

        ``local_pos`` holds each query's candidate row within the
        level (-1: no candidate); a candidate is real when the row
        exists and its cell equals ``cand``.  Contributions are the
        overlapped span fraction, computed with the exact op order of
        the reference kernel (``mass * overlap / float(span)``).
        """
        valid = (local_pos >= 0) & (local_pos < n_j)
        probe = np.where(valid, local_pos, 0)
        hit = valid & (cells_j[probe] == cand)
        rows = np.flatnonzero(hit)
        if rows.size == 0:
            return rows, np.zeros(0)
        n_lo = cand[rows] * s
        n_hi = n_lo + s - 1
        overlap = np.minimum(hi[rows], n_hi) - np.maximum(lo[rows], n_lo) + 1
        contrib = (
            self.mass[base + local_pos[rows]] * overlap / float(s)
        )
        return rows, contrib

    # ------------------------------------------------------------------
    # Disjoint-leaf kernel (batch q-digest 1-D path)
    # ------------------------------------------------------------------
    def _ensure_leaf_arrays(self):
        """Float leaf views for :meth:`leaf_range_sums` (lazy memo)."""
        if self._leaf_memo is None:
            los = self.lo.astype(float)
            his = self.hi.astype(float)
            volumes = his - los + 1.0
            prefix = np.concatenate(([0.0], np.cumsum(self.mass)))
            self._leaf_memo = (los, his, self.mass, volumes, prefix)
        return self._leaf_memo

    def leaf_range_sums(self, bounds: np.ndarray, mode: str) -> np.ndarray:
        """Prefix-sum range sums over disjoint sorted 1-D leaves.

        The batch q-digest's 1-D kernel: fully-contained leaves are one
        prefix-sum run, and only the two leaves holding the query
        endpoints can be boundary leaves, handled per ``mode``
        (``"half"`` / ``"uniform"`` / ``"lower"``).  Bit-identical to
        the reference sorted-leaf kernel.
        """
        if not self.leaves_disjoint():
            raise ValueError("leaf_range_sums needs disjoint 1-D leaves")
        los, his, weights, volumes, prefix = self._ensure_leaf_arrays()
        q_lo = bounds[:, 0, 0]
        q_hi = bounds[:, 0, 1]
        first = np.searchsorted(los, q_lo, side="left")
        last = np.searchsorted(his, q_hi, side="right")
        per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
        if mode == "lower":
            return per_box
        left = np.searchsorted(los, q_lo, side="right") - 1
        right = np.searchsorted(los, q_hi, side="right") - 1
        for cand, endpoint, extra in (
            (left, q_lo, None),
            (right, q_hi, right != left),
        ):
            clamped = np.maximum(cand, 0)
            boundary = (
                (cand >= 0)
                & (his[clamped] >= endpoint)
                & ~((los[clamped] >= q_lo) & (his[clamped] <= q_hi))
            )
            if extra is not None:
                boundary &= extra
            rows = np.flatnonzero(boundary)
            if rows.size == 0:
                continue
            leaf = clamped[rows]
            if mode == "half":
                per_box[rows] += 0.5 * weights[leaf]
            else:  # uniform
                overlap = (
                    np.minimum(his[leaf], q_hi[rows])
                    - np.maximum(los[leaf], q_lo[rows])
                    + 1.0
                )
                per_box[rows] += overlap / volumes[leaf] * weights[leaf]
        return per_box

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalTable(rows={len(self)}, "
            f"levels={self.level_values.tolist()})"
        )
