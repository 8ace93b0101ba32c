"""The signed log-space kernels against linear float64 oracles."""

import ctypes
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

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


PAIR_ACCUM_KERNELS = {
    "gemm": kernels.slse_pair_accum,
    # chunk=3 makes the running maximum rescale across chunks
    "exact-chunk3": functools.partial(kernels._slse_pair_accum_exact, chunk=3),
}


@pytest.mark.parametrize("kernel", list(PAIR_ACCUM_KERNELS))
def test_pair_accum_matches_linear_oracle(rng, kernel):
    for _ in range(25):
        m, s, k = rng.integers(1, 16, size=3)
        a_lm, a_sg = _random_signed(rng, (m, s))
        b_lm, b_sg = _random_signed(rng, (m, k))
        a, b = _linear(a_lm, a_sg), _linear(b_lm, b_sg)
        out = PAIR_ACCUM_KERNELS[kernel](a_lm, a_sg, b_lm, b_sg)
        _assert_matches_oracle(out, a.T @ b, np.abs(a).T @ np.abs(b))


@pytest.mark.parametrize("kernel", list(PAIR_ACCUM_KERNELS))
def test_pair_accum_nan_input_comes_back_nan(rng, kernel):
    m, s, k = 6, 4, 3
    a_lm, a_sg = _random_signed(rng, (m, s), zero_fraction=0.0)
    b_lm, b_sg = _random_signed(rng, (m, k), zero_fraction=0.0)
    a, b = _linear(a_lm, a_sg), _linear(b_lm, b_sg)
    a_lm[4, 1] = np.nan  # a live entry, in the second chunk of exact-chunk3
    out_lm, out_sg = PAIR_ACCUM_KERNELS[kernel](a_lm, a_sg, b_lm, b_sg)
    # the NaN feeds every entry of unit 1 and no other
    assert np.isnan(out_lm[1]).all()
    others = np.arange(s) != 1
    _assert_matches_oracle(
        (out_lm[others], out_sg[others]), (a.T @ b)[others], (np.abs(a).T @ np.abs(b))[others]
    )


def test_pair_accum_wide_exponent_range_matches_exact(rng):
    # rows sit 800 nats apart, beyond what one shared shift keeps normal;
    # columns 0-1 of b are live only in the low rows, so their entries
    # consist solely of terms far below the global maximum
    m, s, k = 12, 5, 4
    a_lm, a_sg = _random_signed(rng, (m, s), zero_fraction=0.0)
    b_lm, b_sg = _random_signed(rng, (m, k), zero_fraction=0.0)
    low = np.arange(m) % 2 == 1
    a_lm += np.where(low, -400.0, 400.0)[:, None]
    b_lm += np.where(low, -400.0, 400.0)[:, None]
    b_lm[~low, :2] = -np.inf
    b_sg[~low, :2] = 0.0
    got_lm, got_sg = kernels.slse_pair_accum(a_lm, a_sg, b_lm, b_sg)
    want_lm, want_sg = kernels._slse_pair_accum_exact(a_lm, a_sg, b_lm, b_sg)
    assert np.all(np.isfinite(want_lm))
    np.testing.assert_array_equal(got_sg, want_sg)
    np.testing.assert_allclose(got_lm, want_lm, rtol=1e-12)


def test_pair_accum_zero_rows_among_live_rows(rng):
    m, s, k = 9, 4, 3
    a_lm, a_sg = _random_signed(rng, (m, s))
    b_lm, b_sg = _random_signed(rng, (m, k))
    a_lm[[0, 4]], a_sg[[0, 4]] = -np.inf, 0.0
    b_lm[[4, 8]], b_sg[[4, 8]] = -np.inf, 0.0
    # unit 1 of a and unit 2 of b are zero in every row
    a_lm[:, 1], a_sg[:, 1] = -np.inf, 0.0
    b_lm[:, 2], b_sg[:, 2] = -np.inf, 0.0
    a, b = _linear(a_lm, a_sg), _linear(b_lm, b_sg)
    out = kernels.slse_pair_accum(a_lm, a_sg, b_lm, b_sg)
    scale = np.abs(a).T @ np.abs(b)
    assert (scale == 0.0).sum() == k + s - 1
    _assert_matches_oracle(out, a.T @ b, scale)


def test_pair_accum_exact_cancellation_is_signed_zero():
    # a = [[1], [1]], b = [[1], [-1]]: a.T @ b = 1 - 1 = 0 exactly
    zeros = np.zeros((2, 1))
    out_lm, out_sg = kernels.slse_pair_accum(
        zeros, np.ones((2, 1)), zeros, np.array([[1.0], [-1.0]])
    )
    assert np.isneginf(out_lm).all() and (out_sg == 0.0).all()


def test_weighted_colsum_matches_linear_oracle(rng):
    m, k = 50, 6
    a_lm, a_sg = _random_signed(rng, (m, k), zero_fraction=0.3)
    b_lm, b_sg = _random_signed(rng, (m, k))
    a_lm[:, 4], a_sg[:, 4] = -np.inf, 0.0  # a column with no live term
    a, b = _linear(a_lm, a_sg), _linear(b_lm, b_sg)
    weights = [rng.normal(size=(m, k)), rng.uniform(-2, 2, size=(m, k))]
    outs = kernels.slse_weighted_colsum(a_lm, a_sg, b_lm, b_sg, weights)
    assert len(outs) == len(weights)
    for out, w in zip(outs, weights):
        _assert_matches_oracle(out, (a * b * w).sum(axis=0), np.abs(a * b * w).sum(axis=0))
        assert np.isneginf(out[0][4]) and out[1][4] == 0.0


def test_all_zero_rows_stay_zero():
    w = np.ones((3, 4))
    lm = np.full((2, 4), -np.inf)
    sg = np.zeros((2, 4))
    out_lm, out_sg = kernels.slse_matmul(w, lm, sg)
    assert np.all(np.isneginf(out_lm))
    assert np.all(out_sg == 0.0)
    out_lm, out_sg = kernels.slse_pair_accum(lm, sg, np.zeros((2, 3)), np.ones((2, 3)))
    assert out_lm.shape == (4, 3)
    assert np.all(np.isneginf(out_lm)) and np.all(out_sg == 0.0)


def test_band_accum_nan_adjoint_spoils_only_its_entries(rng):
    # a NaN fails the guard, so the exact kernel runs on the dense matrix; it
    # reaches only the entries of its unit at the columns live in its row
    m, s, width = 9, 3, 6
    a_lm, a_sg = _random_signed(rng, (m, s), zero_fraction=0.0)
    first = rng.integers(0, width - 1, size=m)
    band = rng.uniform(0.1, 1.0, size=(m, 2))
    phi = np.zeros((m, width))
    np.put_along_axis(phi, first[:, None] + np.arange(2), band, axis=1)
    a = _linear(a_lm, a_sg)
    a_lm[4, 1] = np.nan
    out_lm, out_sg = kernels.slse_band_accum(a_lm, a_sg, first, band, width)
    spoiled = np.zeros((s, width), dtype=bool)
    spoiled[1, first[4] : first[4] + 2] = True
    assert np.isnan(out_lm[spoiled]).all() and not np.isnan(out_lm[~spoiled]).any()
    _assert_matches_oracle(
        (out_lm[~spoiled], out_sg[~spoiled]), (a.T @ phi)[~spoiled], (np.abs(a).T @ phi)[~spoiled]
    )


class _Libc:
    """A C library stub that records its ``mallopt`` calls, or has none."""

    def __init__(self, has_mallopt, accepts=1):
        self.calls = []
        if has_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or accepts


def _unloadable(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "plat,has_mallopt,loads",
    [("linux", False, True), ("linux", True, False), ("darwin", True, True), ("win32", True, True)],
)
def test_allocator_policy_is_a_no_op_without_glibc_mallopt(monkeypatch, plat, has_mallopt, loads):
    libc = _Libc(has_mallopt)
    monkeypatch.setattr(sys, "platform", plat)
    monkeypatch.setattr(ctypes, "CDLL", (lambda name: libc) if loads else _unloadable)
    kernels._keep_freed_pages()
    assert libc.calls == []


@pytest.mark.parametrize("accepts", [1, 0], ids=["accepted", "refused"])
def test_allocator_policy_sets_the_trim_threshold_only_after_the_mmap_one(monkeypatch, accepts):
    # a trim threshold alone would switch off glibc's dynamic mmap threshold
    # and send every temporary above 128 KiB to mmap; a 32-bit glibc refuses
    # a 32 MiB mmap threshold
    libc = _Libc(True, accepts)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    kernels._keep_freed_pages()
    mmap = (kernels._M_MMAP_THRESHOLD, 32 << 20)
    assert libc.calls == ([mmap, (kernels._M_TRIM_THRESHOLD, 64 << 20)] if accepts else [mmap])


@pytest.mark.parametrize("stub", ["no-mallopt", "not-linux"])
def test_importing_pcsq_never_raises_without_glibc_mallopt(stub):
    patch = {
        "no-mallopt": "ctypes.CDLL = lambda name: object()",
        "not-linux": "sys.platform = 'darwin'",
    }[stub]
    code = f"import ctypes, sys\nimport numpy\n{patch}\nimport pcsq\n"
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
