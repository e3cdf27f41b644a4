"""Reference q-digest range-sum kernels (bit-exact oracles).

Both kernels answered production batteries before the flat
:class:`~repro.structures.intervals.IntervalTable` scans replaced
them; the scans are required to reproduce their IEEE doubles exactly.

* Streaming q-digest: a per-depth ``searchsorted`` kernel over sorted
  cell tables (:func:`stream_level_tables` + :func:`stream_range_sums`),
  the reference for ``IntervalTable.range_scan``.
* Batch q-digest, 1-D: a prefix-sum kernel over the stably sorted leaf
  partition (:func:`qdigest_sorted_leaves` + :func:`qdigest_range_sums`),
  the reference for ``IntervalTable.leaf_range_sums``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.structures.ranges import compile_query_plan


# ----------------------------------------------------------------------
# Streaming q-digest: per-depth kernel
# ----------------------------------------------------------------------
def stream_level_tables(digest) -> List[Tuple[int, np.ndarray,
                                              np.ndarray, np.ndarray]]:
    """Per-depth sorted cell tables of a :class:`StreamingQDigest`.

    One ``(shift, cells, counts, prefix)`` tuple per materialized
    depth: ``cells`` are the sorted cell indices (``node - 2**depth``)
    at that depth, ``counts`` their weights in cell order, and
    ``prefix`` the exclusive running sum of ``counts`` (so a
    contiguous cell run sums in O(1)).
    """
    nodes = np.fromiter(digest._counts.keys(), dtype=np.int64,
                        count=len(digest._counts))
    counts = np.fromiter(digest._counts.values(), dtype=float,
                         count=len(digest._counts))
    # Depth of heap node v is floor(log2 v): an exact integer binary
    # search on the bit length (no float log).
    remaining = nodes.copy()
    depths = np.zeros(nodes.shape[0], dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = remaining >= np.int64(1) << shift
        depths[big] += shift
        remaining[big] >>= shift
    tables = []
    for depth in np.unique(depths):
        rows = np.flatnonzero(depths == depth)
        cells = nodes[rows] - (np.int64(1) << depth)
        order = np.argsort(cells)
        cell_counts = counts[rows][order]
        prefix = np.concatenate(([0.0], np.cumsum(cell_counts)))
        tables.append(
            (digest._bits - int(depth), cells[order], cell_counts, prefix)
        )
    return tables


def stream_range_sums(tables, bounds: np.ndarray) -> np.ndarray:
    """Per-box range sums over :func:`stream_level_tables` output.

    Per materialized depth a box resolves in O(log nodes): the run of
    cells fully inside the box is one prefix-sum difference between
    two ``searchsorted`` bounds, and only the two endpoint cells can
    straddle, each one more ``searchsorted`` probe contributing its
    overlapped span fraction.
    """
    lo = bounds[:, 0, 0]
    hi = bounds[:, 0, 1]
    per_box = np.zeros(bounds.shape[0], dtype=float)
    for shift, cells, cell_counts, prefix in tables:
        span = np.int64(1) << np.int64(shift)
        # Cells fully inside [lo, hi]: the contiguous run [a, b].
        a = (lo + span - 1) >> shift
        b = ((hi + 1) >> shift) - 1
        lo_idx = np.searchsorted(cells, a, side="left")
        hi_idx = np.searchsorted(cells, b, side="right")
        per_box += prefix[np.maximum(hi_idx, lo_idx)] - prefix[lo_idx]
        # Endpoint cells outside [a, b] straddle a box edge and
        # contribute fractionally; the right endpoint is skipped when
        # it shares the left one's cell.
        c_lo = lo >> shift
        c_hi = hi >> shift
        for cand, partial in (
            (c_lo, (c_lo < a) | (c_lo > b)),
            (c_hi, ((c_hi < a) | (c_hi > b)) & (c_hi != c_lo)),
        ):
            pos = np.searchsorted(cells, cand)
            pos_c = np.minimum(pos, cells.size - 1)
            idx = np.flatnonzero((cells[pos_c] == cand) & partial)
            if idx.size == 0:
                continue
            n_lo = cand[idx] * span
            n_hi = n_lo + span - 1
            overlap = (
                np.minimum(hi[idx], n_hi) - np.maximum(lo[idx], n_lo) + 1
            )
            per_box[idx] += cell_counts[pos_c[idx]] * overlap / float(span)
    return per_box


def stream_query_many(digest, queries) -> List[float]:
    """Reference answers for ``StreamingQDigest.query_many``."""
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return []
    if not digest._counts:
        return [0.0] * len(plan)
    per_box = stream_range_sums(stream_level_tables(digest), plan.bounds)
    return plan.reduce_boxes(per_box).tolist()


# ----------------------------------------------------------------------
# Batch q-digest, 1-D: sorted-leaf kernel
# ----------------------------------------------------------------------
def qdigest_sorted_leaves(digest) -> Optional[Tuple[np.ndarray, ...]]:
    """``(los, his, weights, volumes, prefix)`` of a 1-D
    :class:`QDigestSummary`'s leaves, stably sorted by low endpoint.

    ``None`` when the digest is not 1-D or its leaves overlap (a merge
    of shards), where only the dense kernel applies.
    """
    if digest._dims != 1:
        return None
    order = np.argsort(digest._lows[:, 0], kind="stable")
    los = digest._lows[order, 0]
    his = digest._highs[order, 0]
    if los.size > 1 and not bool((his[:-1] < los[1:]).all()):
        return None
    weights = digest._weights[order]
    volumes = digest._volumes[order]
    prefix = np.concatenate(([0.0], np.cumsum(weights)))
    return los, his, weights, volumes, prefix


def qdigest_range_sums(digest, bounds: np.ndarray, leaves) -> np.ndarray:
    """Per-box range sums over :func:`qdigest_sorted_leaves` output.

    Fully-contained leaves form one contiguous run in the sorted order
    (two ``searchsorted`` calls and a prefix-sum difference); at most
    two leaves -- the ones containing the query endpoints -- can be
    boundary leaves, handled per the digest's ``partial`` mode.
    """
    los, his, weights, volumes, prefix = leaves
    mode = digest._partial
    q_lo = bounds[:, 0, 0]
    q_hi = bounds[:, 0, 1]
    first = np.searchsorted(los, q_lo, side="left")
    last = np.searchsorted(his, q_hi, side="right")
    per_box = np.where(last > first, prefix[last] - prefix[first], 0.0)
    if mode == "lower":
        return per_box
    # Boundary candidates: the leaf containing each endpoint.
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


def qdigest_query_many_1d(digest, queries) -> List[float]:
    """Reference answers for a disjoint 1-D ``QDigestSummary``."""
    leaves = qdigest_sorted_leaves(digest)
    if leaves is None:
        raise ValueError("the sorted-leaf kernel needs disjoint 1-D leaves")
    plan = compile_query_plan(queries)
    if len(plan) == 0:
        return []
    if digest.size == 0:
        return [0.0] * len(plan)
    per_box = qdigest_range_sums(digest, plan.bounds, leaves)
    return plan.reduce_boxes(per_box).tolist()
