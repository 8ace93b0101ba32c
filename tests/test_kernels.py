"""The signed log-space kernels against linear float64 oracles."""

import numpy as np

from pcsq import kernels


def _random_signed(rng, shape, zero_fraction=0.1):
    lm = rng.uniform(-5, 5, size=shape)
    sg = rng.choice([-1.0, 1.0], size=shape)
    zero = rng.random(shape) < zero_fraction
    lm[zero] = -np.inf
    sg[zero] = 0.0
    return lm, sg


def _linear(lm, sg):
    return sg * np.exp(lm)


def _assert_matches_oracle(out, want, scale, rtol=1e-12):
    """Each entry within rtol of its term scale (the sum of |terms|); an
    entry whose terms are all zero must come back as an exact zero."""
    got = _linear(*out)
    assert np.all(np.abs(got - want) <= rtol * scale)
    empty = scale == 0.0
    assert np.all(np.isneginf(out[0][empty])) and np.all(out[1][empty] == 0.0)


def test_matmul_matches_linear_oracle(rng):
    for _ in range(25):
        m, k, s = rng.integers(1, 20, size=3)
        w = rng.normal(size=(s, k))
        lm, sg = _random_signed(rng, (m, k))
        x = _linear(lm, sg)
        out = kernels.slse_matmul(w, lm, sg)
        _assert_matches_oracle(out, x @ w.T, np.abs(x) @ np.abs(w).T)


def test_pair_accum_matches_linear_oracle(rng):
    for _ in range(25):
        m, s, k = rng.integers(1, 16, size=3)
        a_lm, a_sg = _random_signed(rng, (m, s))
        b_lm, b_sg = _random_signed(rng, (m, k))
        a, b = _linear(a_lm, a_sg), _linear(b_lm, b_sg)
        # chunk=3 makes the running maximum rescale across chunks
        out = kernels.slse_pair_accum(a_lm, a_sg, b_lm, b_sg, chunk=3)
        _assert_matches_oracle(out, a.T @ b, np.abs(a).T @ np.abs(b))


def test_pair_accum_exact_cancellation_is_signed_zero():
    # a = [[1], [1]], b = [[1], [-1]]: a.T @ b = 1 - 1 = 0 exactly
    zeros = np.zeros((2, 1))
    out_lm, out_sg = kernels.slse_pair_accum(
        zeros, np.ones((2, 1)), zeros, np.array([[1.0], [-1.0]])
    )
    assert np.isneginf(out_lm).all() and (out_sg == 0.0).all()


def test_all_zero_rows_stay_zero():
    w = np.ones((3, 4))
    lm = np.full((2, 4), -np.inf)
    sg = np.zeros((2, 4))
    out_lm, out_sg = kernels.slse_matmul(w, lm, sg)
    assert np.all(np.isneginf(out_lm))
    assert np.all(out_sg == 0.0)
