"""Hot numeric kernels: the sign-aware sums behind every sum layer.

The operations below dominate circuit evaluation and backprop:

* ``slse_matmul`` -- the sign-aware log-sum-exp matmul used by every sum
  layer (and, with the transposed matrix, by its input adjoint).
* ``slse_batched_matmul`` -- the same sum over the columns of a stack of
  matrices, which squared sum layers use on their (K, K) blocks instead
  of transposed copies.
* ``slse_pair_accum`` -- sign-aware accumulation of outer products over a
  shared leading axis, used for weight gradients.
* ``slse_band_accum`` -- the same accumulation against a banded basis
  matrix given by its nonzero band, used for linear input families'
  coefficient gradients.
* ``slse_weighted_colsum`` -- sign-aware column sums of an elementwise
  product against plain weights, used for input-family gradients.

All scale each input row by its largest magnitude, exponentiate once per
input entry and hand the sum to one dense BLAS matmul (in
``slse_weighted_colsum``, which scales columns, one ``einsum`` per weight
array; in ``slse_band_accum``, one ``bincount`` over the band).
``slse_matmul`` sums one row at a time, so its row maximum is the shift.
``slse_pair_accum`` sums across rows, so it also factors out one global
shift G, the largest row-pair maximum; this is the log-einsum-exp trick
of EinsumNetworks (Peharz et al., ICML 2020).  Its scaled terms are at
most 1 in magnitude, and a guard checks in O(M (S + K)) that the
smallest live one is at least exp(-700), so every term is a normal
float.  ``slse_band_accum``, whose band values are at most 1, shifts by
the largest live adjoint alone and keeps the guard.  Inputs that span a
wider exponent range than that take the per-entry kernel, which factors
a separate maximum out of each output entry.  Either way exact zeros stay zero, exact cancellations give sign 0
and log-magnitude -inf, and no term overflows.

The kernels rely on the slog invariant (sign == 0 exactly where the
log-magnitude is -inf; see :mod:`pcsq.slog`) instead of masking zeros:
the plain row maximum is the maximum over live entries, exp(-inf - alpha)
is 0, and 0 * sign stays 0.  A row with no live entry would be shifted
by -inf and form -inf - (-inf) = NaN, so its shift is set to 0; its
terms are then exp(-inf) * 0 = 0, its sums 0, and its outputs
log|0| + 0 = -inf with sign 0.  Each pass writes into arrays the kernel
owns (``out=``), so the only full-size arrays ``slse_matmul`` allocates
are the scaled terms, the matmul result (reused for the log-magnitude)
and the sign.

Importing this module (and so pcsq) sets one process-wide allocator
policy where the C library is glibc: arrays up to 32 MiB (glibc's largest
mmap threshold) come from the heap, and the heap keeps up to 64 MiB of
freed pages at its top (twice that threshold, glibc's own ratio) instead
of handing them back to the OS.  A pass allocates 0.5-2 MB temporaries
per layer; by default glibc unmaps or trims them as they are freed, and
the next layer touches them again as fresh pages, one minor fault per
4 KiB page: about 2,500 faults per 4096-row log-density call on an
8-variable K = 16 squared Gaussian model, about 30% of the call's time
on a 2-core VM.  With the policy a warm pass faults on no page.  Peak
resident memory was measured unchanged on the benchmark workloads, since
the pages kept are the ones the next pass reuses.  The policy changes no
arithmetic.  An application that embeds pcsq and wants glibc's defaults
back can call ``mallopt`` itself after the import; on any other platform
the policy does nothing.
"""

from __future__ import annotations

import ctypes
import sys

import numpy as np

# glibc's mallopt parameter numbers (<malloc.h>)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit platforms
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_pages():
    """Serve arrays up to ``_MMAP_THRESHOLD`` bytes from the heap and keep
    freed heap pages up to twice that, through glibc's ``mallopt``; do
    nothing off Linux or where the C library has no ``mallopt``.

    The trim threshold is set only once the mmap threshold is: either
    call switches off glibc's dynamic mmap threshold, and a trim threshold
    alone leaves every temporary above 128 KiB to ``mmap`` (more faults,
    not fewer).
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_keep_freed_pages()


def backend_name():
    return "numpy"


def available_backends():
    return ["numpy"]


def _scale_rows(log_mag, sign, axis=-1, out=None):
    """Return each row's shift alpha (its maximum over ``axis``, 0 for a
    row with no live entry) and the terms sign * exp(log_mag - alpha) in
    ``out``, by default a new C-contiguous array, so the inputs may be
    strided views."""
    alpha = np.max(log_mag, axis=axis, keepdims=True)
    alpha[alpha == -np.inf] = 0.0
    if out is None:
        out = np.empty(log_mag.shape)
    scaled = np.subtract(log_mag, alpha, out=out)
    np.exp(scaled, out=scaled)
    scaled *= sign
    return alpha, scaled


def _restore_shift(raw, alpha, out_log):
    """Turn the linear sums ``raw`` into (log|raw| + alpha, sign(raw)),
    writing the log-magnitude to ``out_log`` (which may be ``raw``)."""
    out_sign = np.sign(raw, out=np.empty_like(out_log))
    np.abs(raw, out=out_log)
    np.log(out_log, out=out_log)
    out_log += alpha
    return out_log, out_sign


def slse_matmul(weights, log_mag, sign):
    """Sign-aware log-sum-exp matmul.

    Computes y = W @ x for x given as (log|x|, sign(x)) row batches, where
    each row's maximum is factored out before exponentiation.  Rows that
    are entirely zero stay zero; exact cancellations produce sign 0 and
    log-magnitude -inf.

    Parameters are a real (S, K) matrix and two (M, K) arrays; returns two
    (M, S) arrays.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        alpha, scaled = _scale_rows(log_mag, sign)
        raw = scaled @ weights.T
        return _restore_shift(raw, alpha, raw)


def slse_batched_matmul(weights, log_mag, sign):
    """``slse_matmul`` on the columns of a stack of matrices: y[b] = W @ x[b].

    Takes a real (S, K) matrix and two (B, K, J) arrays, which may be
    strided views, and returns two C-contiguous (B, S, J) arrays.  Each
    column x[b, :, j] is one row of ``slse_matmul``: the columns are
    gathered while they are scaled and the result is scattered back while
    its logarithm is taken, so the arithmetic, and every bit of the
    result, is that of ``slse_matmul`` on transposed copies, without the
    copies.  A squared sum layer contracts both axes of its (K, K) blocks
    with this and ``slse_matmul``.
    """
    b, k, j = log_mag.shape
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        alpha, scaled = _scale_rows(log_mag.transpose(0, 2, 1), sign.transpose(0, 2, 1))
        raw = scaled.reshape(b * j, k) @ weights.T
        raw = raw.reshape(b, j, weights.shape[0]).transpose(0, 2, 1)
        return _restore_shift(raw, alpha.transpose(0, 2, 1), np.empty(raw.shape))


# smallest scaled exponent slse_pair_accum admits: exp(-700) ~ 1e-304 is
# still a normal float64, so no live term underflows or loses precision
_MIN_SCALED_EXPONENT = -700.0


def slse_pair_accum(a_log, a_sign, b_log, b_sign):
    """Sign-aware sum of outer products over the shared leading axis.

    out[s, k] = sum_m a[m, s] * b[m, k], computed stably in log-space.
    Used to accumulate sum-layer weight gradients over a batch.

    Row m is scaled by its live maxima la[m] and lb[m], and all rows share
    the shift G = max_m (la + lb):

        A[m, s] = sign_a * exp(a_log - la + (la + lb - G))
        B[m, k] = sign_b * exp(b_log - lb)
        out = G + log|A.T @ B|

    so M (S + K) exponentials and one GEMM replace the M S K exponentials
    of a per-entry shift.  When the smallest live term would fall below
    exp(-700), the whole call runs the per-entry kernel instead.  Takes
    (M, S) and (M, K) arrays; returns two (S, K) arrays.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        la = np.max(a_log, axis=1, initial=-np.inf)
        lb = np.max(b_log, axis=1, initial=-np.inf)
        pair = la + lb  # -inf where row m has no live term
        g = np.max(pair, initial=-np.inf)
        if g == -np.inf:  # every term is zero
            shape = (a_log.shape[1], b_log.shape[1])
            return np.full(shape, -np.inf), np.zeros(shape)
        # the smallest live term of row m is exp(min a_log + min b_log - G);
        # a NaN or infinite input fails this test and takes the exact kernel
        a_min = np.min(np.where(a_sign != 0.0, a_log, np.inf), axis=1, initial=np.inf)
        b_min = np.min(np.where(b_sign != 0.0, b_log, np.inf), axis=1, initial=np.inf)
        live = pair > -np.inf
        if not np.min(a_min[live] + b_min[live]) - g >= _MIN_SCALED_EXPONENT:
            return _slse_pair_accum_exact(a_log, a_sign, b_log, b_sign)
        shift = (pair - g)[:, None]  # -inf on dead rows, whose terms become 0
        la[la == -np.inf] = 0.0
        lb[lb == -np.inf] = 0.0
        a_hat = np.subtract(a_log, la[:, None])
        a_hat += shift
        np.exp(a_hat, out=a_hat)
        a_hat *= a_sign
        b_hat = np.subtract(b_log, lb[:, None])
        np.exp(b_hat, out=b_hat)
        b_hat *= b_sign
        raw = a_hat.T @ b_hat
        return _restore_shift(raw, g, raw)


def slse_band_accum(a_log, a_sign, first, band, width):
    """``slse_pair_accum`` against a banded non-negative matrix phi that is
    given by its nonzero band: row m of phi is 0 except phi[m, first[m] + r]
    = band[m, r].  Used for the coefficient gradients of a linear input
    family, whose basis values at a point are a band of at most 1 each
    (B-spline values, or the 1 of a one-hot state).

    out[s, j] = sum_m a[m, s] * phi[m, j] takes one shift G, the largest
    live a_log, and scatters the terms sign_a * exp(a_log - G) * band, each
    at most 1 in magnitude, into their columns with one ``np.bincount``:
    M S exponentials and M S R products, where the dense form takes
    M (S + width) exponentials and a GEMM over every column.  The guard of
    ``slse_pair_accum`` applies: when the smallest live term would fall
    below exp(-700), the call runs the per-entry kernel on the dense phi.
    Takes (M, S) arrays, M integers and an (M, R) array; returns two
    (S, width) arrays.
    """
    m, s = a_log.shape
    r = band.shape[1]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        g = np.max(a_log, initial=-np.inf)
        if g == -np.inf:  # every term is zero
            return np.full((s, width), -np.inf), np.zeros((s, width))
        # a NaN or infinite input fails this test and takes the exact kernel
        a_min = np.min(a_log, where=a_sign != 0.0, initial=np.inf)
        b_min = np.min(band, where=band > 0.0, initial=np.inf)
        if not a_min + np.log(b_min) - g >= _MIN_SCALED_EXPONENT:
            phi = np.zeros((m, width))
            np.put_along_axis(phi, first[:, None] + np.arange(r), band, axis=1)
            return _slse_pair_accum_exact(a_log, a_sign, np.log(phi), np.sign(phi))
        # rows run along the last axis of every (R, S, M) array below
        a_hat = np.subtract(a_log.T, g, out=np.empty((s, m)))
        np.exp(a_hat, out=a_hat)
        a_hat *= a_sign.T
        terms = np.ascontiguousarray(band.T)[:, None, :] * a_hat
        # term (r, s, m) adds to out[s, first[m] + r]; bincount sums each
        # output entry's terms in order
        offsets = np.arange(r)[:, None, None] + (np.arange(s) * width)[:, None]
        raw = np.bincount((first + offsets).reshape(-1), terms.reshape(-1), minlength=s * width)
        raw = raw.reshape(s, width)
        return _restore_shift(raw, g, raw)


def slse_weighted_colsum(a_log, a_sign, b_log, b_sign, weights):
    """Sign-aware column sums against plain weights.

    For each plain (B, K) array w in ``weights``, out[k] = sum_b a[b, k] *
    b[b, k] * w[b, k], with a and b given as (log|.|, sign(.)) pairs of
    (B, K) arrays.  Used to sum input-family gradients over a batch.

    Column k of a * b is shifted once by its live maximum and exponentiated
    once; each weight array then takes a plain sum down the columns, and
    the shift is restored on the (K,) results: the log-einsum-exp trick of
    ``slse_pair_accum`` with one shift per output entry.  It needs no
    range guard: a term more than 708 nats below its column's largest
    |a b| turns subnormal and one more than 745 nats below turns 0, an
    absolute error below exp(-708) times that largest |a b|.  Returns one
    (log|out|, sign(out)) pair of (K,) arrays per weight array.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        lm = np.add(a_log, b_log)
        alpha, scaled = _scale_rows(lm, a_sign, axis=0, out=lm)
        scaled *= b_sign
        alpha = alpha[0]
        out = []
        for w in weights:
            raw = np.einsum("bk,bk->k", scaled, w)
            out.append(_restore_shift(raw, alpha, raw))
        return out


def _slse_pair_accum_exact(a_log, a_sign, b_log, b_sign, chunk=4096):
    """Per-entry form of ``slse_pair_accum``: every output entry factors out
    the largest magnitude among its own terms, accumulating chunks of rows
    under a running maximum.  Accurate over any exponent range, but costs
    M S K exponentials; ``slse_pair_accum`` and ``slse_band_accum`` fall
    back to it, and the tests use it as the oracle.
    """
    s, k = a_log.shape[1], b_log.shape[1]
    alpha = np.full((s, k), -np.inf)
    acc = np.zeros((s, k))
    m = a_log.shape[0]
    for start in range(0, m, chunk):
        al = a_log[start : start + chunk]
        bl = b_log[start : start + chunk]
        sg = a_sign[start : start + chunk, :, None] * b_sign[start : start + chunk, None, :]
        with np.errstate(invalid="ignore"):
            lm = al[:, :, None] + bl[:, None, :]
            lm = np.where(sg != 0.0, lm, -np.inf)
            c_alpha = np.max(lm, axis=0)
            new_alpha = np.maximum(alpha, c_alpha)
            rescale = np.where(np.isfinite(alpha), np.exp(alpha - new_alpha), 0.0)
            part = np.where(sg != 0.0, sg * np.exp(lm - new_alpha[None]), 0.0).sum(axis=0)
        acc = acc * rescale + part
        alpha = new_alpha
    # only an entry without live terms is zero; NaN input comes back as NaN
    empty = alpha == -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        out_log = np.where(empty, -np.inf, alpha + np.log(np.abs(acc)))
    out_sign = np.where(empty, 0.0, np.sign(acc))
    return out_log, out_sign
