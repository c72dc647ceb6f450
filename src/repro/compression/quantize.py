"""Uniform / stochastic quantization (the paper's footnote-1 extension).

STC pairs sparsification with ternary quantization, and the paper notes
quantization is orthogonal: it shrinks both directions equally and does not
change any downstream-bandwidth conclusion.  We provide QSGD-style uniform
quantizers that can be applied to any value payload, plus a helper that
reports the quantized wire cost, so users can layer quantization onto the
masking strategies.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["uniform_quantize", "stochastic_quantize", "quantized_values_bytes"]

#: Fewest bits a symmetric quantizer can bill honestly: its levels
#: ``{-L..L}·s/L`` always include 0, so ``bits=1`` (``L = 1``) would emit
#: the ternary set ``{-s, 0, +s}`` — log2(3) bits per value — while
#: billing one.
MIN_BITS = 2


def _check_bits(bits: int, max_bits: int = 32) -> None:
    if bits < MIN_BITS or bits > max_bits:
        raise ValueError(
            f"bits must be in [{MIN_BITS}, {max_bits}], got {bits} "
            "(bits=1 would emit the ternary level set {-s, 0, +s} but bill "
            "1 bit per value)"
        )


def quantized_values_bytes(k: int, bits: int) -> int:
    """Wire size of ``k`` values quantized to ``bits`` each plus one scale."""
    _check_bits(bits)
    if k == 0:
        return 0
    return math.ceil(k * bits / 8) + 4  # + float32 scale


def uniform_quantize(
    values: np.ndarray, bits: int
) -> Tuple[np.ndarray, int]:
    """Deterministic uniform quantization to ``2**bits`` symmetric levels.

    Returns the dequantized values and their wire size.
    """
    _check_bits(bits)
    k = len(values)
    if k == 0:
        return values.copy(), 0
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros_like(values), quantized_values_bytes(k, bits)
    levels = 2 ** (bits - 1) - 1
    q = np.round(values / scale * levels)
    deq = q / levels * scale
    return deq, quantized_values_bytes(k, bits)


def stochastic_quantize(
    values: np.ndarray, bits: int, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, int]:
    """QSGD-style unbiased stochastic quantization.

    Each value is rounded up or down to the neighbouring level with
    probability proportional to its position between them, so
    ``E[deq] = values`` — the property that keeps SGD convergence intact.
    """
    _check_bits(bits)
    gen = rng if rng is not None else np.random.default_rng(0)
    k = len(values)
    if k == 0:
        return values.copy(), 0
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros_like(values), quantized_values_bytes(k, bits)
    levels = 2 ** (bits - 1) - 1
    scaled = values / scale * levels
    floor = np.floor(scaled)
    frac = scaled - floor
    q = floor + (gen.random(k) < frac)
    deq = q / levels * scale
    return deq, quantized_values_bytes(k, bits)
