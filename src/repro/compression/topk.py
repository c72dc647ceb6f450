"""Magnitude top-k selection utilities.

All masking strategies in the paper reduce to "keep the k largest-magnitude
coordinates" (client-side in STC/GlueFL, server-side in STC/GlueFL mask
updates).  ``argpartition`` gives O(d) selection; ties are broken
arbitrarily but deterministically (numpy's partition order), which is fine —
the paper's algorithms are insensitive to tie order.
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
]


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
    ``k <= 0``.
    """
    d = x.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= d:
        return np.arange(d, dtype=np.int64)
    # the d-sized magnitude buffer is the selection's only big temporary
    mag = np.empty(x.shape, dtype=x.dtype)
    np.abs(x, out=mag)
    idx = np.argpartition(mag, d - k)[d - k :]
    return np.sort(idx).astype(np.int64)


def select_top_k(x: np.ndarray, k: int, sharding=None) -> np.ndarray:
    """:func:`top_k_indices`, routed through a bound sharding runtime.

    The one seam strategies use for server-side top-k: with a
    :class:`~repro.sharding.ShardingRuntime` bound, selection runs as
    per-shard partial top-k plus an exact candidate merge (identical
    index set whenever the k-th magnitude is untied — the same arbitrary
    tie-breaking contract ``argpartition`` already has); with ``None`` it
    is exactly the unsharded selection.
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
