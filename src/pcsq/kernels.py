"""Hot numeric kernels: the sign-aware sums behind every sum layer.

The two operations below dominate circuit evaluation and backprop:

* ``slse_matmul`` -- the sign-aware log-sum-exp matmul used by every sum
  layer (and, with the transposed matrix, by its input adjoint).
* ``slse_pair_accum`` -- sign-aware accumulation of outer products over a
  shared leading axis, used for weight gradients.

Both are vectorized numpy.  Each factors the largest magnitude out of the
terms it sums before exponentiating, so exact zeros stay zero, exact
cancellations give sign 0, and no term overflows.
"""

from __future__ import annotations

import numpy as np


def backend_name():
    return "numpy"


def available_backends():
    return ["numpy"]


def slse_matmul(weights, log_mag, sign):
    """Sign-aware log-sum-exp matmul.

    Computes y = W @ x for x given as (log|x|, sign(x)) row batches, where
    the max over each row's non-zero entries is factored out before
    exponentiation.  Rows that are entirely zero stay zero; exact
    cancellations produce sign 0 and log-magnitude -inf.

    Parameters are a real (S, K) matrix and two (M, K) arrays; returns two
    (M, S) arrays.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        alpha = np.max(np.where(sign != 0.0, log_mag, -np.inf), axis=1)
        shifted = log_mag - alpha[:, None]
        scaled = np.where(sign != 0.0, sign * np.exp(shifted), 0.0)
        raw = scaled @ weights.T
        out_log = alpha[:, None] + np.log(np.abs(raw))
    out_sign = np.sign(raw)
    return out_log, out_sign


def slse_pair_accum(a_log, a_sign, b_log, b_sign, chunk=4096):
    """Sign-aware sum of outer products over the shared leading axis.

    out[s, k] = sum_m a[m, s] * b[m, k], computed stably in log-space.
    Used to accumulate sum-layer weight gradients over a batch.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        out_log = np.where(np.isfinite(alpha), alpha + np.log(np.abs(acc)), -np.inf)
    out_sign = np.where(np.isfinite(alpha), np.sign(acc), 0.0)
    return out_log, out_sign
