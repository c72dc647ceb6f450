import numpy as np
import pytest

from repro.compression.topk import (
    index_union,
    ratio_to_k,
    sparsify_top_k,
    top_k_indices,
    top_k_mask,
)


def test_top_k_selects_largest_magnitudes():
    x = np.array([0.1, -5.0, 2.0, -0.5, 3.0])
    idx = top_k_indices(x, 2)
    np.testing.assert_array_equal(idx, [1, 4])


def test_top_k_edge_cases():
    x = np.arange(5.0)
    assert len(top_k_indices(x, 0)) == 0
    np.testing.assert_array_equal(top_k_indices(x, 5), np.arange(5))
    np.testing.assert_array_equal(top_k_indices(x, 99), np.arange(5))


def test_top_k_mask_consistent_with_indices(rng):
    x = rng.normal(size=100)
    mask = top_k_mask(x, 30)
    assert mask.sum() == 30
    np.testing.assert_array_equal(np.flatnonzero(mask), top_k_indices(x, 30))


def test_sparsify_values_match(rng):
    x = rng.normal(size=50)
    idx, vals = sparsify_top_k(x, 10)
    np.testing.assert_array_equal(vals, x[idx])
    # everything kept is >= everything dropped (in magnitude)
    dropped = np.setdiff1d(np.arange(50), idx)
    assert np.abs(x[idx]).min() >= np.abs(x[dropped]).max() - 1e-12


def test_sparsify_returns_copies(rng):
    x = rng.normal(size=20)
    idx, vals = sparsify_top_k(x, 5)
    vals[:] = 0
    assert np.abs(x[idx]).sum() > 0


def test_ratio_to_k():
    assert ratio_to_k(0.2, 100) == 20
    assert ratio_to_k(0.0, 100) == 0
    assert ratio_to_k(1.0, 100) == 100
    assert ratio_to_k(0.205, 10) == 2  # rounds


def test_ratio_to_k_validation():
    with pytest.raises(ValueError):
        ratio_to_k(1.5, 10)
    with pytest.raises(ValueError):
        ratio_to_k(-0.1, 10)


# -- differential: top_k_indices == argpartition + sort, on every input --------


def _reference_top_k(x, k):
    """The dense argpartition + sort selection, kept verbatim as the oracle."""
    d = x.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= d:
        return np.arange(d, dtype=np.int64)
    mag = np.empty(x.shape, dtype=x.dtype)
    np.abs(x, out=mag)
    idx = np.argpartition(mag, d - k)[d - k :]
    return np.sort(idx).astype(np.int64)


def _draw(kind, d, rng):
    x = rng.normal(size=d)
    zero = rng.random(d) < 0.8
    if kind == "sparse":
        x[zero] = 0.0
    elif kind == "grid_dense":
        x = np.round(x * 2) / 2  # coarse grid: ties at the k-th magnitude
    elif kind == "grid_sparse":
        x = np.round(x * 2) / 2
        x[zero] = 0.0
    elif kind == "signed_zero":
        x[zero] = np.where(rng.random(d) < 0.5, 0.0, -0.0)[zero]
    elif kind == "nan_dense":
        x[rng.choice(d, size=3, replace=False)] = np.nan
    elif kind == "nan_sparse":
        x[zero] = 0.0
        x[rng.choice(np.flatnonzero(~zero), size=3, replace=False)] = np.nan
    elif kind == "nan_many":  # more NaNs than the small k values
        x[zero] = 0.0
        x[rng.choice(np.flatnonzero(~zero), size=12, replace=False)] = np.nan
    elif kind == "inf":
        x[zero] = 0.0
        nz = np.flatnonzero(~zero)
        x[rng.choice(nz, size=4, replace=False)] = [np.inf, -np.inf, np.inf, -np.inf]
    return x


KINDS = [
    "dense", "sparse", "grid_dense", "grid_sparse", "signed_zero",
    "nan_dense", "nan_sparse", "nan_many", "inf",
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", KINDS)
def test_top_k_matches_argpartition_reference(kind, dtype):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(60, 400))
        x = _draw(kind, d, rng).astype(dtype)
        nnz = int(np.count_nonzero(x))
        ks = {0, 1, nnz - 1, nnz, nnz + 1, d - 1, d, d + 1,
              nnz // 2, int(rng.integers(1, d))}
        for k in sorted(ks):
            got = top_k_indices(x, k)
            want = _reference_top_k(x, k)
            assert got.dtype == np.int64, (kind, k)
            assert np.array_equal(got, want), (kind, seed, k)
            assert (np.diff(got) > 0).all(), (kind, seed, k)


def test_top_k_nan_outranks_a_tied_kth_magnitude():
    """NaN sorts above every number: with one NaN and two tied 1.0s the
    top-2 is the NaN plus one 1.0, never both 1.0s."""
    for dtype in (np.float32, np.float64):
        x = np.array([0.0, 1.0, -1.0, np.nan, 0.0, 0.0, 0.0, 0.0], dtype=dtype)
        got = top_k_indices(x, 2)
        np.testing.assert_array_equal(got, _reference_top_k(x, 2))
        assert 3 in got


def test_sparse_support_skips_the_full_argpartition(monkeypatch):
    """The server shape (mostly zeros, untied k-th magnitude) never calls
    argpartition over all of d."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=10_000)
    x[rng.random(10_000) < 0.8] = 0.0
    want = _reference_top_k(x, 1_600)

    def no_argpartition(*_a, **_kw):
        raise AssertionError("dense fallback taken")

    monkeypatch.setattr(np, "argpartition", no_argpartition)
    np.testing.assert_array_equal(top_k_indices(x, 1_600), want)


# -- index_union == np.union1d --------------------------------------------------


def test_index_union_matches_union1d():
    empty = np.empty(0, dtype=np.int64)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(50, 5_000))
        a = np.sort(rng.choice(d, size=d // 5, replace=False)).astype(np.int64)
        b = np.sort(rng.choice(d, size=d // 7, replace=False)).astype(np.int64)
        # keep can land on mask positions (k_uni above the nonzeros outside
        # the mask), so the two sets may share indices
        overlap = np.union1d(b[: len(b) // 2], a[: len(a) // 2])
        for left, right in [(a, b), (a, overlap), (empty, b), (a, empty),
                            (empty, empty), (a, a), (a[:1], empty)]:
            got = index_union(left, right)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.union1d(left, right))
