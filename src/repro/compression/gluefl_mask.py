"""GlueFL mask shifting (Algorithm 3 + §3.3 optimizations).

The server maintains a **shared mask** ``M_t`` covering a ``q_shr`` fraction
of coordinates.  Each round:

* clients upload (a) values at every ``M_t`` position (server knows the
  positions, so this part is values-only on the wire) and (b) the top
  ``q − q_shr`` fraction of their remaining coordinates as a sparse payload
  (Alg. 3 lines 16–17);
* the server aggregates the shared part densely on ``M_t`` (Eq. 5), takes
  the top ``q − q_shr`` of the aggregated unique part (Eq. 6), applies both,
  and shifts the mask: ``M_{t+1} = top_{q_shr}(Δ̃_t)`` (line 26).

Because ``M_{t+1}`` is drawn from the support of ``Δ̃_t``, consecutive
global updates overlap in at least a ``q_shr`` fraction of coordinates —
the key property that keeps re-sampled clients' downloads small.

Two §3.3 refinements are included:

* **shared-mask regeneration** every ``regen_interval`` rounds: the round
  runs with an empty shared mask (clients send a full top-q) and the mask
  is rebuilt from that round's update, letting newly-unstable coordinates
  enter the mask;
* **re-scaled error compensation** (Eq. 7) via
  :class:`~repro.compression.error_comp.ResidualStore`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import (
    AggregateResult,
    ClientPayload,
    CompressionStrategy,
    weighted_dense_sum,
)
from repro.compression.error_comp import ErrorCompMode, ResidualStore
from repro.compression.topk import ratio_to_k, select_top_k, top_k_indices
from repro.network.encoding import bitmap_bytes, sparse_bytes, values_bytes

__all__ = ["GlueFLMaskStrategy"]


class GlueFLMaskStrategy(CompressionStrategy):
    """Shared-mask + unique-top-k compression with gradual mask shifting.

    Parameters
    ----------
    q:
        Total compression ratio (paper: 0.2 for ShuffleNet, 0.3 otherwise).
    q_shr:
        Shared-mask ratio, ``q_shr < q`` (paper: 0.16 / 0.24).
    regen_interval:
        Regenerate the shared mask every ``I`` rounds; ``None`` disables
        regeneration (the ``I = ∞`` ablation of Fig. 10).
    error_comp:
        ``REC`` (default), ``EC``, or ``NONE`` — the Fig. 11 ablation.
    """

    name = "gluefl"
    # the shared-mask part is server-chosen (data-independent for the
    # uploading client), but the unique top-(q − q_shr) part — and the
    # whole upload on regeneration rounds — is the client's own top-k
    data_dependent_selection = True

    def __init__(
        self,
        q: float,
        q_shr: float,
        regen_interval: Optional[int] = 10,
        error_comp: ErrorCompMode = ErrorCompMode.REC,
    ):
        super().__init__()
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if not 0.0 <= q_shr < q:
            raise ValueError(f"q_shr must be in [0, q), got q_shr={q_shr}, q={q}")
        if regen_interval is not None and regen_interval <= 0:
            raise ValueError("regen_interval must be positive or None")
        self.q = q
        self.q_shr = q_shr
        self.regen_interval = regen_interval
        self.residuals = ResidualStore(error_comp)
        self.mask_idx: np.ndarray = np.empty(0, dtype=np.int64)
        self._regen_round = True  # round 1 has no mask yet
        self._regen_pending = False  # a scheduled regen missed its round
        self._k_total: int = 0
        self._k_shr: int = 0

    def setup(self, d: int, rng: np.random.Generator, dtype=np.float64) -> None:
        super().setup(d, rng, dtype=dtype)
        self._k_total = ratio_to_k(self.q, d)
        self._k_shr = ratio_to_k(self.q_shr, d)
        if self._k_total == 0:
            raise ValueError(f"q={self.q} keeps zero of {d} coordinates")
        self.mask_idx = np.empty(0, dtype=np.int64)
        self._regen_round = True
        self._regen_pending = False

    def bind_sharding(self, runtime) -> None:
        super().bind_sharding(runtime)
        if runtime is not None:
            # residual memory follows the same partition as the rest of
            # the server state (chunk-for-chunk, bit-identical reassembly)
            self.residuals.partition(runtime.spec)

    # -- round state ----------------------------------------------------------
    def begin_round(self, round_idx: int) -> None:
        regen_due = (
            self.regen_interval is not None
            and round_idx > 1
            and round_idx % self.regen_interval == 0
        )
        self._regen_round = (
            regen_due or self._regen_pending or len(self.mask_idx) == 0
        )

    @property
    def is_regen_round(self) -> bool:
        return self._regen_round

    def _effective_mask(self) -> np.ndarray:
        """Shared-mask positions in effect this round (empty when regenerating)."""
        if self._regen_round:
            return np.empty(0, dtype=np.int64)
        return self.mask_idx

    def _k_unique(self) -> int:
        return self._k_total - len(self._effective_mask())

    def downstream_extra_bytes(self) -> int:
        # shared-mask bitmap broadcast with every sync (Alg. 3 line 7)
        return bitmap_bytes(self.d)

    def nominal_upstream_bytes(self) -> int:
        self._check_setup()
        mask = self._effective_mask()
        return values_bytes(len(mask)) + sparse_bytes(self._k_unique(), self.d)

    # -- client side -------------------------------------------------------------
    def client_compress(
        self, client_id: int, delta: np.ndarray, weight: float
    ) -> ClientPayload:
        self._check_setup()
        self._check_delta(delta)
        mask = self._effective_mask()
        # compensate() returns a caller-owned vector, so it doubles as the
        # scratch buffer: zeroing the sent coordinates in place turns it
        # first into the "rest" vector (top-k candidates outside the mask)
        # and then into the residual — no per-client d-sized copy or
        # zeros(d) allocation on this path.
        accumulated = self.residuals.compensate(client_id, delta, weight)

        shr_vals = accumulated[mask]  # fancy indexing copies
        accumulated[mask] = 0.0
        k_uni = self._k_unique()
        uni_idx = select_top_k(accumulated, k_uni, self.sharding)
        uni_vals = accumulated[uni_idx].copy()
        accumulated[uni_idx] = 0.0  # what remains is exactly the residual
        self.residuals.record(client_id, accumulated, weight)

        upstream = values_bytes(len(mask)) + sparse_bytes(k_uni, self.d)
        return ClientPayload(
            upstream_bytes=upstream,
            data={"shr_vals": shr_vals, "idx": uni_idx, "vals": uni_vals},
        )

    # -- server side -----------------------------------------------------------------
    def aggregate(
        self, payloads: Sequence[Tuple[int, float, ClientPayload]]
    ) -> AggregateResult:
        self._check_setup()
        mask = self._effective_mask()

        if self.sharding is not None:
            # bit-identical sharded kernels (see repro.sharding.runtime):
            # Eq. 5 over aligned per-shard mask slices, Eq. 6's scatter
            # into the runtime-owned (optionally memmapped) accumulator,
            # and exact merged top-k
            shr_acc = self.sharding.masked_weighted_sum(
                payloads, mask, key="shr_vals", dtype=self.dtype
            )
            uni_acc = self.sharding.sparse_weighted_sum(
                payloads, dtype=self.dtype
            )
            keep = self.sharding.top_k_indices(uni_acc, self._k_unique())
        else:
            # Eq. 5: aggregation on the shared mask.  The server knows the
            # mask positions, so the weighted sum runs on contiguous
            # length-|M| vectors; nothing dense is materialized per payload.
            shr_acc = np.zeros((len(mask),), dtype=self.dtype)
            for _, weight, payload in payloads:
                shr_acc += weight * payload.data["shr_vals"]

            # Eq. 6: top-(q - q_shr) of the aggregated unique parts
            uni_acc = weighted_dense_sum(payloads, self.d, dtype=self.dtype)
            keep = top_k_indices(uni_acc, self._k_unique())
        # global_delta is built fresh — it must not alias the shared-mask
        # accumulator (mask and keep are disjoint, but end_round and
        # callers treat global_delta as an independently-owned vector)
        global_delta = np.zeros(self.d, dtype=self.dtype)
        if len(mask):
            global_delta[mask] = shr_acc
        global_delta[keep] += uni_acc[keep]

        changed = np.union1d(mask, keep).astype(np.int64)
        return AggregateResult(global_delta=global_delta, changed_idx=changed)

    def end_round(self, agg: AggregateResult, round_idx: int) -> None:
        # Alg. 3 line 26 / §3.3 regeneration: next mask from this update
        self._check_setup()
        self._regen_pending = False
        if self._k_shr > 0:
            self.mask_idx = select_top_k(
                agg.global_delta, self._k_shr, self.sharding
            )

    def abort_round(self, round_idx: int) -> None:
        """An opened round aggregated nothing: keep the regen schedule honest.

        If the aborted round was a regeneration round, the regeneration has
        not actually happened — re-arm it so the next round that *does*
        aggregate runs as a regen round instead of silently skipping a
        whole ``regen_interval``.
        """
        if self._regen_round:
            self._regen_pending = True
