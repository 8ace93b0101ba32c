"""Signed log-space values and the evaluation rules over them.

A value y is carried as (log|y|, sign(y)) with sign in {-1, 0, +1} and the
convention that sign == 0 exactly when log-magnitude == -inf.  Keeping an
explicit zero matters: subtractive circuits cancel exactly (e.g. indicator
inputs), and -inf - (-inf) must never be formed.

The rules and the kernels in :mod:`pcsq.kernels` rely on this invariant
rather than masking zeros: a product adds log-magnitudes and multiplies
signs, and a zero factor gives -inf + x = -inf with sign 0 by itself, so
no ``np.where`` pass is needed; ``to_linear`` is sign * exp(log|y|),
which is 0 * 0 on zeros (-0.0 where the sign entry is -0.0, as a
product of 0 and -1 leaves it).  The invariant holds for finite and -inf
log-magnitudes; a product of a zero and an infinite magnitude is NaN,
which the engine's per-layer NaN check reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcsq import kernels
from pcsq.errors import NumericError, PcsqError


@dataclass
class SignedLogTensor:
    """log-magnitude plus sign arrays of identical shape."""

    log_magnitude: np.ndarray
    sign: np.ndarray

    @property
    def shape(self):
        return self.log_magnitude.shape

    @classmethod
    def from_linear(cls, values):
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(values))
        return cls(log_mag, np.sign(values))

    @classmethod
    def zeros(cls, shape):
        return cls(np.full(shape, -np.inf), np.zeros(shape))

    def to_linear(self):
        with np.errstate(over="ignore"):
            return self.sign * np.exp(self.log_magnitude)

    def copy(self):
        return SignedLogTensor(self.log_magnitude.copy(), self.sign.copy())

    def reshape(self, *shape):
        return SignedLogTensor(
            self.log_magnitude.reshape(*shape), self.sign.reshape(*shape)
        )

    def invariant_violations(self):
        """Return a list of strings describing broken representation invariants."""
        problems = []
        if self.log_magnitude.shape != self.sign.shape:
            problems.append("shape mismatch between log_magnitude and sign")
            return problems
        zero_sign = self.sign == 0.0
        neg_inf = np.isneginf(self.log_magnitude)
        if not np.array_equal(zero_sign, neg_inf):
            problems.append("sign == 0 must hold exactly where log_magnitude == -inf")
        if not np.all(np.isin(self.sign[~np.isnan(self.sign)], (-1.0, 0.0, 1.0))):
            problems.append("sign entries outside {-1, 0, +1}")
        return problems


def signed_logsumexp(weights, x: SignedLogTensor) -> SignedLogTensor:
    """Evaluate y = W @ x with the sign-aware log-sum-exp rule.

    ``weights`` is a real (S, K) matrix; ``x`` has shape (..., K).  The
    per-row maximum over non-zero entries is factored out, the signed
    residuals are combined in linear space, and the shift is restored.
    All-zero rows yield all-zero outputs; exact cancellation yields
    (-inf, 0) entries.

    Raises :class:`PcsqError` on NaN input.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise PcsqError("weights must be a 2-d matrix")
    k = weights.shape[1]
    if x.shape[-1] != k:
        raise PcsqError(f"width mismatch: weights expect {k}, input has {x.shape[-1]}")
    if np.isnan(x.log_magnitude).any() or np.isnan(weights).any():
        raise NumericError("NaN in signed_logsumexp inputs")
    lead = x.shape[:-1]
    lm = np.ascontiguousarray(x.log_magnitude.reshape(-1, k))
    sg = np.ascontiguousarray(x.sign.reshape(-1, k))
    out_lm, out_sg = kernels.slse_matmul(weights, lm, sg)
    s = weights.shape[0]
    return SignedLogTensor(out_lm.reshape(*lead, s), out_sg.reshape(*lead, s))


def signed_product(xs, kind="hadamard"):
    """Combine factor layers in log-space.

    Hadamard: elementwise, log-magnitudes add and signs multiply; all
    factors must share their trailing width.  Kronecker: the trailing axes
    combine by an outer sum of log-magnitudes (and outer product of signs),
    producing width = product of factor widths.  A zero factor zeroes the
    corresponding product entries in either mode.
    """
    if not xs:
        raise PcsqError("signed_product requires at least one factor")
    if kind == "hadamard":
        width = xs[0].shape[-1]
        for x in xs[1:]:
            if x.shape[-1] != width:
                raise PcsqError("hadamard factors must share output width")
        if len(xs) == 1:
            return xs[0].copy()
        lm = xs[0].log_magnitude + xs[1].log_magnitude
        sg = xs[0].sign * xs[1].sign
        for x in xs[2:]:
            lm = lm + x.log_magnitude
            sg = sg * x.sign
        return SignedLogTensor(lm, sg)
    if kind == "kronecker":
        out = xs[0]
        for x in xs[1:]:
            out = _kron_pair(out, x)
        return out
    raise PcsqError(f"unknown product kind {kind!r}")


def _kron_pair(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    ka, kb = a.shape[-1], b.shape[-1]
    lead = a.shape[:-1]
    sg = a.sign[..., :, None] * b.sign[..., None, :]
    lm = a.log_magnitude[..., :, None] + b.log_magnitude[..., None, :]
    return SignedLogTensor(lm.reshape(*lead, ka * kb), sg.reshape(*lead, ka * kb))


def signed_outer(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    """Outer product along the trailing axis, flattened row-major."""
    return _kron_pair(a, b)


def signed_sum(x: SignedLogTensor, axis=-1) -> SignedLogTensor:
    """Sign-aware reduction: sum entries along ``axis`` in linear space."""
    lm = np.moveaxis(x.log_magnitude, axis, -1)
    sg = np.moveaxis(x.sign, axis, -1)
    k = lm.shape[-1]
    lead = lm.shape[:-1]
    ones = np.ones((1, k))
    out_lm, out_sg = kernels.slse_matmul(
        ones, np.ascontiguousarray(lm.reshape(-1, k)), np.ascontiguousarray(sg.reshape(-1, k))
    )
    return SignedLogTensor(out_lm.reshape(lead), out_sg.reshape(lead))


def signed_mul(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    """Elementwise product with broadcasting."""
    return SignedLogTensor(a.log_magnitude + b.log_magnitude, a.sign * b.sign)


def signed_scale(x: SignedLogTensor, factor) -> SignedLogTensor:
    """Multiply by a plain real array (elementwise, broadcasting)."""
    factor = np.asarray(factor, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_factor = np.log(np.abs(factor))
    return SignedLogTensor(x.log_magnitude + log_factor, x.sign * np.sign(factor))
