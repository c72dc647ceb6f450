import numpy as np
import pytest

from repro.compression.quantize import (
    quantized_values_bytes,
    stochastic_quantize,
    uniform_quantize,
)


def test_uniform_quantize_error_bound(rng):
    values = rng.normal(size=1000)
    deq, _ = uniform_quantize(values, bits=8)
    scale = np.abs(values).max()
    step = scale / (2**7 - 1)
    assert np.abs(deq - values).max() <= step / 2 + 1e-12


def test_uniform_quantize_high_bits_nearly_exact(rng):
    values = rng.normal(size=100)
    deq, _ = uniform_quantize(values, bits=32)
    np.testing.assert_allclose(deq, values, rtol=1e-6)


def test_stochastic_quantize_unbiased(rng):
    values = np.array([0.3])
    draws = np.array(
        [stochastic_quantize(values, 2, np.random.default_rng(s))[0][0]
         for s in range(4000)]
    )
    assert draws.mean() == pytest.approx(0.3, abs=0.02)


def test_quantized_bytes_smaller_than_float32():
    assert quantized_values_bytes(1000, 8) < 4000
    assert quantized_values_bytes(0, 8) == 0


def test_zero_vector_roundtrip():
    deq, nbytes = uniform_quantize(np.zeros(10), 4)
    np.testing.assert_array_equal(deq, 0.0)
    assert nbytes == quantized_values_bytes(10, 4)


def test_bits_validation(rng):
    with pytest.raises(ValueError):
        uniform_quantize(np.ones(3), 0)
    with pytest.raises(ValueError):
        stochastic_quantize(np.ones(3), 64)
    with pytest.raises(ValueError):
        quantized_values_bytes(10, 33)
    # 1 bit would emit the ternary set {-s, 0, +s} while billing 1 bit/value
    values = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(ValueError, match="ternary"):
        uniform_quantize(values, 1)
    with pytest.raises(ValueError, match="ternary"):
        stochastic_quantize(values, 1, rng)
    with pytest.raises(ValueError, match="ternary"):
        quantized_values_bytes(101, 1)


def test_empty_values():
    deq, nbytes = uniform_quantize(np.zeros(0), 8)
    assert len(deq) == 0 and nbytes == 0
