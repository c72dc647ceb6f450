"""Magnitude top-k selection utilities.

All masking strategies in the paper reduce to "keep the k largest-magnitude
coordinates" (client-side in STC/GlueFL, server-side in STC/GlueFL mask
updates).  :func:`top_k_indices` returns exactly what
``np.sort(np.argpartition(|x|, d - k)[d - k:])`` returns, on every input —
ties at the k-th magnitude, ``±0``, ``±inf`` and NaN (ordered above every
number, as numpy sorts it) included.  Two paths give that answer in O(d):

* **sparse support** — when ``k <= nnz <= d // 2`` magnitudes are nonzero,
  one partition over the nonzeros finds the k-th magnitude; if exactly
  ``k`` magnitudes reach it, the top-k set is unique and falls out
  already sorted.  This is the server's shape: GlueFL's aggregated unique
  parts (Eq. 6) and the global delta behind the mask shift (Alg. 3 line
  26) are mostly zeros, where ``argpartition`` over all of ``d`` is slow;
* **dense** — everything else (dense client deltas, a tie at the k-th
  magnitude, at least ``k`` NaNs) runs ``argpartition`` + ``sort``, so
  ties keep numpy's partition order.

:func:`index_union` is the one place two sorted index sets are merged into
a sorted union (the round's changed coordinates, mask ∪ kept).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "top_k_indices",
    "top_k_mask",
    "sparsify_top_k",
    "select_top_k",
    "ratio_to_k",
    "index_union",
]

#: same-width unsigned views: a float magnitude is zero iff its bits are
#: (``abs`` clears the sign bit of ``-0.0``), and an integer count is faster
_UINT_VIEW = {4: np.uint32, 8: np.uint64}


def ratio_to_k(ratio: float, d: int) -> int:
    """Number of kept coordinates for a compression ratio ``q`` over ``d``.

    Rounds to nearest and clips to ``[0, d]``; ``q=0`` keeps nothing.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"compression ratio must be in [0, 1], got {ratio}")
    return int(np.clip(round(ratio * d), 0, d))


def top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``|x|`` entries (sorted ascending).

    Returns all indices when ``k >= len(x)`` and an empty array when
    ``k <= 0``.  The result equals ``argpartition`` + ``sort`` on every
    input (see the module docstring).
    """
    d = x.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= d:
        return np.arange(d, dtype=np.int64)
    # the d-sized magnitude buffer is the selection's only big temporary
    mag = np.empty(x.shape, dtype=x.dtype)
    np.abs(x, out=mag)
    view = _UINT_VIEW.get(mag.dtype.itemsize) if mag.dtype.kind == "f" else None
    nnz = np.count_nonzero(mag if view is None else mag.view(view))
    if k <= nnz <= d // 2:
        # NaN != 0, so NaN stays a candidate; a bool flatnonzero is ~7x
        # faster than one over the floats
        cand = np.flatnonzero(mag != 0)
        sub = mag[cand]
        kth = np.partition(sub, nnz - k)[nnz - k]
        # "not below kth" rather than ">= kth": NaN ranks above every number,
        # as in numpy's sort order.  Exactly k such magnitudes (every zero is
        # below kth) means the top-k set is unique, so no tie order applies.
        top = ~(sub < kth)
        if np.count_nonzero(top) == k:
            return cand[top].astype(np.int64, copy=False)
    idx = np.argpartition(mag, d - k)[d - k :]
    return np.sort(idx).astype(np.int64)


def index_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free int64 union of two index sets.

    Same array as ``np.union1d(a, b)``.  Both callers pass sorted sets
    (the mask and the kept coordinates come out of top-k selection), so
    the stable sort of their concatenation is one timsort merge of two
    runs, and dropping adjacent repeats finishes it — linear in the set
    sizes, with nothing allocated over the whole model.
    """
    c = np.concatenate((a, b)).astype(np.int64, copy=False)
    c.sort(kind="stable")
    if len(c) < 2:
        return c
    first = np.empty(len(c), dtype=bool)
    first[0] = True
    np.not_equal(c[1:], c[:-1], out=first[1:])
    return c[first]


def select_top_k(x: np.ndarray, k: int, sharding=None) -> np.ndarray:
    """:func:`top_k_indices`, routed through a bound sharding runtime.

    The one seam strategies use for server-side top-k: with a
    :class:`~repro.sharding.ShardingRuntime` bound, selection runs as
    per-shard partial top-k plus an exact candidate merge (the same index
    set whenever the top-k set is unique, i.e. no tie at the k-th
    magnitude; a tie may resolve to a different, equally valid set); with
    ``None`` it is exactly the unsharded selection.
    """
    if sharding is not None:
        return sharding.top_k_indices(x, k)
    return top_k_indices(x, k)


def top_k_mask(x: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask selecting the ``k`` largest ``|x|`` entries."""
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[top_k_indices(x, k)] = True
    return mask


def sparsify_top_k(x: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of the ``k`` largest ``|x|`` entries."""
    idx = top_k_indices(x, k)
    return idx, x[idx].copy()
