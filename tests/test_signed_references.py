"""The mask-free signed-log kernels against the masked forms they replaced.

The kernels rely on the slog invariant (sign == 0 exactly where the
log-magnitude is -inf) instead of masking dead entries, and the squared
sum layers contract their (K, K) blocks on batched views instead of
transposed copies.  Neither change may alter a value or the sign bit of
a zero (``to_linear`` aside, see below), so the masked, copying forms are
kept here verbatim as references and compared with exact equality.
"""

import numpy as np
import pytest

from pcsq import engine, kernels
from pcsq.slog import SignedLogTensor, signed_mul, signed_outer, signed_product, signed_scale

# --- references: the masked forms, as they were -----------------------------


def _ref_slse_matmul(weights, log_mag, sign):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        alpha = np.max(np.where(sign != 0.0, log_mag, -np.inf), axis=1)
        shifted = log_mag - alpha[:, None]
        scaled = np.where(sign != 0.0, sign * np.exp(shifted), 0.0)
        raw = scaled @ weights.T
        out_log = alpha[:, None] + np.log(np.abs(raw))
    out_sign = np.sign(raw)
    return out_log, out_sign


def _ref_slse_pair_accum(a_log, a_sign, b_log, b_sign):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        a_live, b_live = a_sign != 0.0, b_sign != 0.0
        la = np.max(np.where(a_live, a_log, -np.inf), axis=1, initial=-np.inf)
        lb = np.max(np.where(b_live, b_log, -np.inf), axis=1, initial=-np.inf)
        pair = la + lb
        g = np.max(pair, initial=-np.inf)
        if g == -np.inf:
            shape = (a_log.shape[1], b_log.shape[1])
            return np.full(shape, -np.inf), np.zeros(shape)
        a_min = np.min(np.where(a_live, a_log, np.inf), axis=1, initial=np.inf)
        b_min = np.min(np.where(b_live, b_log, np.inf), axis=1, initial=np.inf)
        live = pair > -np.inf
        if not np.min(a_min[live] + b_min[live]) - g >= -700.0:
            return kernels._slse_pair_accum_exact(a_log, a_sign, b_log, b_sign)
        shift = (pair - g)[:, None]
        a_hat = np.where(a_live, a_sign * np.exp(a_log - la[:, None] + shift), 0.0)
        b_hat = np.where(b_live, b_sign * np.exp(b_log - lb[:, None]), 0.0)
        raw = a_hat.T @ b_hat
        out_log = g + np.log(np.abs(raw))
    return out_log, np.sign(raw)


def _ref_logsumexp(weights, x):
    k = weights.shape[1]
    lead = x.shape[:-1]
    lm = np.ascontiguousarray(x.log_magnitude.reshape(-1, k))
    sg = np.ascontiguousarray(x.sign.reshape(-1, k))
    out_lm, out_sg = _ref_slse_matmul(weights, lm, sg)
    s = weights.shape[0]
    return SignedLogTensor(out_lm.reshape(*lead, s), out_sg.reshape(*lead, s))


def _ref_hadamard(xs):
    lm = xs[0].log_magnitude.copy()
    sg = xs[0].sign.copy()
    for x in xs[1:]:
        sg = sg * x.sign
        lm = np.where(sg == 0.0, -np.inf, lm + x.log_magnitude)
    return SignedLogTensor(lm, sg)


def _ref_kron_pair(a, b):
    ka, kb = a.shape[-1], b.shape[-1]
    lead = a.shape[:-1]
    sg = a.sign[..., :, None] * b.sign[..., None, :]
    with np.errstate(invalid="ignore"):
        lm = a.log_magnitude[..., :, None] + b.log_magnitude[..., None, :]
    lm = np.where(sg == 0.0, -np.inf, lm)
    return SignedLogTensor(lm.reshape(*lead, ka * kb), sg.reshape(*lead, ka * kb))


def _ref_signed_mul(a, b):
    sg = a.sign * b.sign
    with np.errstate(invalid="ignore"):
        lm = a.log_magnitude + b.log_magnitude
    lm = np.where(sg == 0.0, -np.inf, lm)
    return SignedLogTensor(lm, sg)


def _ref_signed_scale(x, factor):
    factor = np.asarray(factor, dtype=np.float64)
    sg = x.sign * np.sign(factor)
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = x.log_magnitude + np.log(np.abs(factor))
    lm = np.where(sg == 0.0, -np.inf, lm)
    return SignedLogTensor(lm, sg)


def _ref_to_linear(x):
    with np.errstate(over="ignore"):
        out = x.sign * np.exp(x.log_magnitude)
    return np.where(x.sign == 0.0, 0.0, out)


def _ref_forward_sum_squared(weights, u):
    b = u.shape[0]
    k = weights.shape[1]
    s = weights.shape[0]
    u3_lm = u.log_magnitude.reshape(b, k, k)
    u3_sg = u.sign.reshape(b, k, k)
    rows = SignedLogTensor(
        np.ascontiguousarray(u3_lm.transpose(0, 2, 1)).reshape(b * k, k),
        np.ascontiguousarray(u3_sg.transpose(0, 2, 1)).reshape(b * k, k),
    )
    v = _ref_logsumexp(weights, rows)
    v = SignedLogTensor(
        np.ascontiguousarray(v.log_magnitude.reshape(b, k, s).transpose(0, 2, 1)),
        np.ascontiguousarray(v.sign.reshape(b, k, s).transpose(0, 2, 1)),
    )
    y = _ref_logsumexp(
        weights,
        SignedLogTensor(v.log_magnitude.reshape(b * s, k), v.sign.reshape(b * s, k)),
    )
    return SignedLogTensor(y.log_magnitude.reshape(b, s * s), y.sign.reshape(b, s * s)), v


def _ref_backward_sum_squared(weights, u, adj, v):
    b = u.shape[0]
    s, k = weights.shape
    g_lm = adj.log_magnitude.reshape(b, s, s)
    g_sg = adj.sign.reshape(b, s, s)
    wt = np.ascontiguousarray(weights.T)
    rows = SignedLogTensor(
        np.ascontiguousarray(g_lm.transpose(0, 2, 1)).reshape(b * s, s),
        np.ascontiguousarray(g_sg.transpose(0, 2, 1)).reshape(b * s, s),
    )
    t1 = _ref_logsumexp(wt, rows)
    t1 = SignedLogTensor(
        np.ascontiguousarray(t1.log_magnitude.reshape(b, s, k).transpose(0, 2, 1)).reshape(b * k, s),
        np.ascontiguousarray(t1.sign.reshape(b, s, k).transpose(0, 2, 1)).reshape(b * k, s),
    )
    du = _ref_logsumexp(wt, t1)
    adj_in = SignedLogTensor(du.log_magnitude.reshape(b, k * k), du.sign.reshape(b, k * k))
    # weight gradient: the rows of every A_b and A_b^T against those of V_b
    # and W X_b^T, in one pair accumulation
    xwt = _ref_logsumexp(
        weights, SignedLogTensor(u.log_magnitude.reshape(b * k, k), u.sign.reshape(b * k, k))
    )
    wxt_lm = np.ascontiguousarray(xwt.log_magnitude.reshape(b, k, s).transpose(0, 2, 1))
    wxt_sg = np.ascontiguousarray(xwt.sign.reshape(b, k, s).transpose(0, 2, 1))
    gt_lm = np.ascontiguousarray(g_lm.transpose(0, 2, 1))
    gt_sg = np.ascontiguousarray(g_sg.transpose(0, 2, 1))
    lm, sg = _ref_slse_pair_accum(
        np.concatenate([g_lm.reshape(b * s, s), gt_lm.reshape(b * s, s)]),
        np.concatenate([g_sg.reshape(b * s, s), gt_sg.reshape(b * s, s)]),
        np.concatenate([v.log_magnitude.reshape(b * s, k), wxt_lm.reshape(b * s, k)]),
        np.concatenate([v.sign.reshape(b * s, k), wxt_sg.reshape(b * s, k)]),
    )
    grad_eff = _ref_to_linear(SignedLogTensor(lm, sg))
    return grad_eff, adj_in


# --- inputs ------------------------------------------------------------------

# each case maps (rng, shape) to (log-magnitude, sign) satisfying the invariant
CASES = ["mixed", "all-dead-rows", "single-live-rows", "cancelling", "spread-400", "dense"]


def _signed(rng, shape, case):
    rows, width = shape[0], int(np.prod(shape[1:]))
    lm = rng.uniform(-5.0, 5.0, size=(rows, width))
    sg = rng.choice([-1.0, 1.0], size=(rows, width))
    dead = rng.random((rows, width)) < (0.0 if case == "dense" else 0.2)
    if case == "all-dead-rows":
        dead[rng.random(rows) < 0.5] = True
        dead[0] = True
    elif case == "single-live-rows":
        dead[:] = True
        dead[np.arange(rows), rng.integers(0, width, size=rows)] = False
    elif case == "cancelling":
        # unit magnitudes: with +-1 weights, even-length sums cancel exactly
        lm = np.zeros((rows, width))
    elif case == "spread-400":
        lm += rng.uniform(-400.0, 400.0, size=(rows, 1))
        lm += rng.choice([-400.0, 0.0, 400.0], size=(rows, width))
    lm[dead] = -np.inf
    sg[dead] = 0.0
    return lm.reshape(shape), sg.reshape(shape)


def _weights(rng, shape, case):
    if case == "cancelling":
        return rng.choice([-1.0, 1.0], size=shape)
    return rng.normal(size=shape)


def _tensor(rng, shape, case):
    return SignedLogTensor(*_signed(rng, shape, case))


def _assert_same(got, want):
    got = (got.log_magnitude, got.sign) if isinstance(got, SignedLogTensor) else got
    want = (want.log_magnitude, want.sign) if isinstance(want, SignedLogTensor) else want
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(w))  # -0.0 vs +0.0


WIDTHS = [1, 2, 3, 8, 17]


# --- kernels -----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_slse_matmul_equals_masked_form(rng, case):
    for k in WIDTHS:
        for s in (1, 4, 9):
            w = _weights(rng, (s, k), case)
            lm, sg = _signed(rng, (37, k), case)
            got = kernels.slse_matmul(w, lm, sg)
            _assert_same(got, _ref_slse_matmul(w, lm, sg))
            if case == "cancelling" and k == 8:
                assert ((got[1] == 0.0) & (sg != 0.0).any(axis=1)[:, None]).any()


@pytest.mark.parametrize("case", CASES)
def test_batched_matmul_equals_transposed_rows(rng, case):
    # y[b] = W @ x[b] by columns equals the row kernel on x[b] transposed
    for k in WIDTHS:
        for j in (1, 5, k):
            w = _weights(rng, (6, k), case)
            lm, sg = _signed(rng, (11, k, j), case)
            rows_lm = np.ascontiguousarray(lm.transpose(0, 2, 1)).reshape(-1, k)
            rows_sg = np.ascontiguousarray(sg.transpose(0, 2, 1)).reshape(-1, k)
            want_lm, want_sg = _ref_slse_matmul(w, rows_lm, rows_sg)
            got_lm, got_sg = kernels.slse_batched_matmul(w, lm, sg)
            _assert_same(
                (got_lm.transpose(0, 2, 1), got_sg.transpose(0, 2, 1)),
                (want_lm.reshape(11, j, 6), want_sg.reshape(11, j, 6)),
            )


@pytest.mark.parametrize("case", CASES)
def test_slse_pair_accum_equals_masked_form(rng, case):
    for s in WIDTHS:
        for k in (1, 4, 9):
            a = _signed(rng, (40, s), case)
            b = _signed(rng, (40, k), case)
            _assert_same(kernels.slse_pair_accum(*a, *b), _ref_slse_pair_accum(*a, *b))


# --- elementwise signed operations ---------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_elementwise_ops_equal_masked_forms(rng, case):
    for k in WIDTHS:
        xs = [_tensor(rng, (23, k), case) for _ in range(3)]
        for n in (1, 2, 3):
            _assert_same(signed_product(xs[:n], kind="hadamard"), _ref_hadamard(xs[:n]))
        _assert_same(signed_outer(xs[0], xs[1]), _ref_kron_pair(xs[0], xs[1]))
        _assert_same(
            signed_product(xs, kind="kronecker"),
            _ref_kron_pair(_ref_kron_pair(xs[0], xs[1]), xs[2]),
        )
        _assert_same(signed_mul(xs[0], xs[1]), _ref_signed_mul(xs[0], xs[1]))
        column = SignedLogTensor(xs[2].log_magnitude[:, :1], xs[2].sign[:, :1])
        _assert_same(signed_mul(xs[0], column), _ref_signed_mul(xs[0], column))
        factor = _weights(rng, (k,), case)
        factor[0] = 0.0
        _assert_same(signed_scale(xs[0], factor), _ref_signed_scale(xs[0], factor))
        # a dead entry whose sign is -0.0 (a product of 0 and -1) now comes
        # out as -0.0 where the masked form gave +0.0: equal values, so
        # to_linear is compared by value only
        product = signed_mul(xs[0], xs[1])
        for x in (xs[0], product):
            np.testing.assert_array_equal(x.to_linear(), _ref_to_linear(x))


# --- squared sum layers ----------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_squared_sum_layer_equals_transposed_copies(rng, case):
    for k in WIDTHS:
        for s in (1, 3, k):
            w = _weights(rng, (s, k), case)
            u = _tensor(rng, (13, k * k), case)
            saved = {}
            y = engine._sum(w, u, True, save_to=saved, layer_id=0)
            want_y, want_v = _ref_forward_sum_squared(w, u)
            _assert_same(y, want_y)
            _assert_same(saved[0], want_v)
            adj = _tensor(rng, (13, s * s), case)
            # rows 800 nats apart overflow the linear weight gradient to
            # +-inf (and inf - inf to NaN) on both sides alike
            with np.errstate(over="ignore", invalid="ignore"):
                grad, adj_in = engine._backward_sum_squared(w, u, adj, saved[0])
                want_grad, want_adj_in = _ref_backward_sum_squared(w, u, adj, want_v)
            _assert_same(adj_in, want_adj_in)
            _assert_same((grad,), (want_grad,))
