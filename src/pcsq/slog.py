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
Non-negative terms under non-negative weights need no signs; their one
rule is :func:`log_weighted_sum`.

A :class:`ScaledTensor` carries the same numbers as plain float64 values
with one log-scale per row, the layout of EinsumNetworks (Peharz et al.,
ICML 2020): a sum over a row is then a plain GEMM.  It holds only while
every live value that matters is a normal float, so its two rules,
:func:`renormalized` and :func:`row_weights`, raise
:class:`OutOfScaledRange` where a row or a row weight falls below
exp(-700), ``slse_pair_accum``'s bound; the caller then reruns in signed
log-space.  A NaN never trips them, so it reaches the caller's NaN checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pcsq import kernels
from pcsq.errors import NumericError, PcsqError

# smallest live row maximum or row weight a ScaledTensor admits: the
# exp(-700) ~ 1e-304 of kernels.slse_pair_accum, still a normal float64
_MIN_LOG_SCALE = kernels._MIN_SCALED_EXPONENT
_MIN_ROW_MAX = math.exp(_MIN_LOG_SCALE)


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


def log_weighted_sum(weights, logs):
    """log sum_i w_i exp(logs_i) over the last axis, and each term's share.

    Weights and terms are non-negative; a zero term's log is -inf.  A row
    with no live term sums to -inf, and its shares are 0.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf: a zero weight or a zero total
        shifted = logs + np.log(weights)
        top = np.max(shifted, axis=-1, keepdims=True)
        top[top == -np.inf] = 0.0
        terms = np.exp(shifted - top)
        total = np.sum(terms, axis=-1, keepdims=True)
        log_total = (top + np.log(total))[..., 0]
    shares = np.divide(terms, total, out=np.zeros_like(terms), where=total > 0.0)
    return log_total, shares


def signed_product(xs, kind="hadamard", squared=False):
    """Combine factor layers in log-space; leading (batch) axes broadcast.

    Hadamard: elementwise, log-magnitudes add and signs multiply; all
    factors must share their trailing width.  Kronecker: the trailing axes
    combine by an outer sum of log-magnitudes (and outer product of signs),
    producing width = product of factor widths.  A zero factor zeroes the
    corresponding product entries in either mode.  ``squared`` Kronecker
    factors are two squared layers, whose rows hold flattened (ka, ka) and
    (kb, kb) matrices; each output row is their matrix Kronecker product,
    flattened row-major, which is the interleaved unit order
    (a1 b1) x (a2 b2) of the squared product layer.
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
    if kind == "kronecker" and squared:
        return _kron_squared(*xs)
    if kind == "kronecker":
        out = xs[0]
        for x in xs[1:]:
            out = _kron_pair(out, x)
        return out
    raise PcsqError(f"unknown product kind {kind!r}")


def _kron_pair(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    ka, kb = a.shape[-1], b.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    sg = a.sign[..., :, None] * b.sign[..., None, :]
    lm = a.log_magnitude[..., :, None] + b.log_magnitude[..., None, :]
    return SignedLogTensor(lm.reshape(*lead, ka * kb), sg.reshape(*lead, ka * kb))


def _kron_squared(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    ka, kb = math.isqrt(a.shape[-1]), math.isqrt(b.shape[-1])
    na, nb = a.shape[0], b.shape[0]
    lm = a.log_magnitude.reshape(na, ka, 1, ka, 1) + b.log_magnitude.reshape(nb, 1, kb, 1, kb)
    sg = a.sign.reshape(na, ka, 1, ka, 1) * b.sign.reshape(nb, 1, kb, 1, kb)
    shape = (lm.shape[0], (ka * kb) ** 2)
    return SignedLogTensor(lm.reshape(shape), sg.reshape(shape))


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


class OutOfScaledRange(ArithmeticError):
    """A scaled-linear value left the range of normal floats; the pass that
    raised it reruns in signed log-space."""


@dataclass
class ScaledTensor:
    """Row b is values[b] * exp(log_scale[b]): a (rows, width) array and a
    (rows, 1) column, or a stack of them along leading axes, (C, rows,
    width) and (C, rows, 1) for a stacked circuit's C components
    (:mod:`pcsq.engine`).  A live row has a finite scale; a zero row has
    values 0 and scale -inf.  Rules that sum renormalize each live row to
    largest |value| 1; products of rows are left as they fall.  The rules
    of unsquared layers keep each slice's values column-major, where a
    per-row maximum is an elementwise maximum across contiguous columns
    rather than a short reduction per row (about 4x faster on 1024 x 64
    values, 2-core x86 VM)."""

    values: np.ndarray
    log_scale: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def from_slog(cls, x: SignedLogTensor):
        """Exponentiate each row once against its largest log-magnitude.
        The values are computed in x's log-magnitude array where it is
        writeable and column-major (as Gaussian and value-table inputs
        return it); a read-only array is copied and never written."""
        t = x.log_magnitude.swapaxes(-1, -2)  # (..., width, rows): rows column-major
        if not (t.flags.c_contiguous and t.flags.writeable):
            t = t.copy()
        top = np.max(t, axis=-2, keepdims=True)  # -inf on a zero row
        with np.errstate(invalid="ignore"):
            t -= np.where(top == -np.inf, 0.0, top)
        np.exp(t, out=t)
        t *= x.sign.swapaxes(-1, -2)
        return cls(t.swapaxes(-1, -2), top.swapaxes(-1, -2))

    def to_slog(self) -> SignedLogTensor:
        with np.errstate(divide="ignore"):
            return SignedLogTensor(np.log(np.abs(self.values)) + self.log_scale, np.sign(self.values))

    def reshape(self, *shape):
        """A one-row tensor as one block under its one scale: the (..., K)
        or (..., K, K) adjoint an integral VJP takes, whose scale keeps the
        leading axes and broadcasts over the block."""
        values = self.values.reshape(*shape)
        lead = self.log_scale.shape[:-2]
        return ScaledTensor(values, self.log_scale.reshape(lead + (1,) * (values.ndim - len(lead))))

    def to_linear(self):
        with np.errstate(over="ignore"):
            return self.values * np.exp(self.log_scale)

    def checked(self):
        """This tensor, after the guard of :func:`renormalized`."""
        _row_max(self.values, self.log_scale)
        return self


def _row_max(values, log_scale):
    """Each row's largest |value|.  Raises OutOfScaledRange where a live
    row's is below exp(-700), an exact zero included."""
    top = np.max(values, axis=-1, keepdims=True)
    np.maximum(top, -np.min(values, axis=-1, keepdims=True), out=top)
    if np.any((log_scale > -np.inf) & (top < _MIN_ROW_MAX)):
        raise OutOfScaledRange
    return top


def renormalized(raw, log_scale) -> ScaledTensor:
    """``raw`` rows times exp(``log_scale``), rescaled in place so that each
    live row's largest |value| is 1; guarded by :func:`_row_max`."""
    top = _row_max(raw, log_scale)
    top[log_scale == -np.inf] = 1.0  # a zero row stays 0 with scale -inf
    raw /= top
    return ScaledTensor(raw, log_scale + np.log(top))


def row_weights(log_scale):
    """(e^C, r) for the largest live row scale C of the (..., rows, 1)
    ``log_scale`` and the row weights r = exp(log_scale - C), so that a
    batch sum of rows t_b exp(log_scale_b) is e^C sum_b r_b t_b; with
    leading axes, each (rows, 1) slice has its own C, and e^C is
    (..., 1, 1).  A slice with no live row gets e^C = 0 and r = 0.
    Raises OutOfScaledRange where a live row's weight is below
    exp(-700)."""
    top = np.max(log_scale, axis=-2, keepdims=True, initial=-np.inf)
    shift = log_scale - np.where(top == -np.inf, 0.0, top)
    if np.any((shift < _MIN_LOG_SCALE) & (log_scale > -np.inf)):
        raise OutOfScaledRange
    with np.errstate(over="ignore"):
        return np.exp(top), np.exp(shift)
