"""Aggregation weights (Eq. 2 / Eq. 3 / Fig. 5) and BN-buffer aggregation.

FedAvg (Eq. 2) re-weights sampled updates by ``(N / K) · p_i``.  Sticky
sampling over-represents sticky clients, so GlueFL applies inverse-propensity
weights (Eq. 3): ``ν_s = (S / C) · p_i`` for sticky participants and
``ν_r = ((N − S) / (K − C)) · p_i`` for the rest — Theorem 1 shows this
makes the update unbiased.  ``equal_weights`` is the biased ``1/K`` variant
used as the "GlueFL (Equal)" baseline of Fig. 5.

Batch-norm running statistics bypass all of this: Appendix D aggregates
their deltas as an unweighted mean over participants.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "fedavg_weights",
    "sticky_weights",
    "equal_weights",
    "horvitz_thompson_weights",
    "staleness_discounted_weights",
    "aggregate_buffer_deltas",
    "apply_update",
]


def apply_update(params, delta, sharding=None) -> np.ndarray:
    """Return ``params + delta``, shard-by-shard when a runtime is bound.

    The sharded add runs each contiguous coordinate range through
    :func:`repro.sharding.kernels.shard_elementwise_add` — the same
    element-wise IEEE add in the same order, so the result is
    bit-identical to the plain expression.  ``sharding=None`` (the
    default, ``RunConfig.shard_count`` unset) is exactly the seed path.
    """
    if sharding is not None:
        return sharding.elementwise_add(params, delta)
    return params + delta


def fedavg_weights(
    p: np.ndarray, participant_ids: np.ndarray, num_clients: int
) -> np.ndarray:
    """Eq. 2 weights ``(N / K) · p_i`` for uniformly-sampled participants."""
    participant_ids = np.asarray(participant_ids)
    k = len(participant_ids)
    if k == 0:
        return np.empty(0, dtype=np.float64)
    return (num_clients / k) * p[participant_ids]


def sticky_weights(
    p: np.ndarray,
    sticky_ids: np.ndarray,
    nonsticky_ids: np.ndarray,
    group_size: int,
    num_clients: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 3 inverse-propensity weights ``(ν_s, ν_r)`` for the two buckets.

    Uses the *actual* participant counts as C and K−C, which keeps the
    estimate self-normalizing when over-commitment or dropout makes the
    realized counts differ from the nominal configuration.
    """
    sticky_ids = np.asarray(sticky_ids)
    nonsticky_ids = np.asarray(nonsticky_ids)
    c = len(sticky_ids)
    r = len(nonsticky_ids)
    nu_s = (group_size / c) * p[sticky_ids] if c else np.empty(0, dtype=np.float64)
    nu_r = (
        ((num_clients - group_size) / r) * p[nonsticky_ids]
        if r
        else np.empty(0, dtype=np.float64)
    )
    return nu_s, nu_r


def equal_weights(participant_ids: np.ndarray) -> np.ndarray:
    """Biased ``1/K`` weights (the Fig. 5 "GlueFL (Equal)" ablation)."""
    k = len(participant_ids)
    if k == 0:
        return np.empty(0, dtype=np.float64)
    return np.full(k, 1.0 / k, dtype=np.float64)


def horvitz_thompson_weights(
    p: np.ndarray, participant_ids: np.ndarray, inclusion_probs: np.ndarray
) -> np.ndarray:
    """General unbiased correction ``ν_i = p_i / π_i`` for unequal-probability
    sampling (Horvitz & Thompson, 1952).

    ``inclusion_probs`` are the participants' marginal probabilities π_i of
    being drawn; the estimator ``Σ_{i∈S} ν_i Δ_i`` has expectation
    ``Σ_i p_i Δ_i`` for *any* positive π.  Eq. 2 is the special case
    ``π = K/N``; norm-aware sampling (Chen et al., 2020) plugs in its
    water-filled norm-proportional π.
    """
    participant_ids = np.asarray(participant_ids)
    if len(participant_ids) == 0:
        return np.empty(0, dtype=np.float64)
    pi = np.asarray(inclusion_probs, dtype=np.float64)
    if len(pi) != len(participant_ids):
        raise ValueError("one inclusion probability per participant required")
    if (pi <= 0).any():
        raise ValueError("inclusion probabilities must be positive")
    return p[participant_ids] / pi


def staleness_discounted_weights(
    staleness: np.ndarray, alpha: float
) -> np.ndarray:
    """FedBuff-style normalized weights ``s(τ) = (1 + τ)^(−α)``.

    ``staleness`` counts global updates applied between a client's dispatch
    and its arrival; ``alpha = 0`` degenerates to an unweighted mean over
    the buffer.  Used by the async/buffered scheduler.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    s = (1.0 + np.asarray(staleness, dtype=np.float64)) ** (-alpha)
    if len(s) == 0:
        return s
    return s / s.sum()


def aggregate_buffer_deltas(buffer_deltas: Sequence[np.ndarray]) -> np.ndarray:
    """Appendix D: unweighted mean of non-trainable (BN statistic) deltas,
    accumulated in the delta dtype."""
    if not buffer_deltas:
        raise ValueError("no buffer deltas to aggregate")
    acc = np.zeros(buffer_deltas[0].shape, dtype=buffer_deltas[0].dtype)
    for delta in buffer_deltas:
        acc += delta
    return acc / len(buffer_deltas)
