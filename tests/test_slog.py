"""Signed log-space arithmetic against plain linear-space oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq.errors import PcsqError
from pcsq.slog import (
    OutOfScaledRange,
    ScaledTensor,
    SignedLogTensor,
    log_weighted_sum,
    renormalized,
    row_weights,
    signed_logsumexp,
    signed_product,
    signed_scale,
    signed_sum,
)


class TestSignedLogsumexp:
    def test_identity_matrix(self):
        out = signed_logsumexp(np.array([[1.0]]), SignedLogTensor.from_linear([2.0]))
        assert out.to_linear()[0] == pytest.approx(2.0)
        assert out.sign[0] == 1.0

    def test_exact_cancellation(self):
        x = SignedLogTensor.from_linear([3.0, 3.0])
        out = signed_logsumexp(np.array([[1.0, -1.0]]), x)
        assert out.sign[0] == 0.0
        assert np.isneginf(out.log_magnitude[0])

    def test_weighted_subtraction(self):
        # linear-space oracle: 2*5 - 1*3 = 7
        x = SignedLogTensor.from_linear([5.0, 3.0])
        out = signed_logsumexp(np.array([[2.0, -1.0]]), x)
        assert out.to_linear()[0] == pytest.approx(7.0, rel=1e-14)

    def test_matches_linear_space_in_bulk(self, rng):
        # magnitudes spanning [1e-3, 1e3], mixed signs, planted zeros
        for _ in range(200):
            s, k = rng.integers(1, 8, size=2)
            w = rng.normal(size=(s, k)) * rng.choice([0.01, 1.0, 100.0])
            vals = rng.uniform(1e-3, 1e3, size=(3, k)) * rng.choice([-1, 1], size=(3, k))
            vals[rng.random((3, k)) < 0.15] = 0.0
            x = SignedLogTensor.from_linear(vals)
            got = signed_logsumexp(w, x).to_linear()
            want = vals @ w.T
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_all_zero_input_gives_zero(self):
        x = SignedLogTensor.zeros((4,))
        out = signed_logsumexp(np.ones((2, 4)), x)
        assert np.all(out.sign == 0.0)

    def test_nan_rejected(self):
        x = SignedLogTensor(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(PcsqError, match="NaN"):
            signed_logsumexp(np.ones((1, 1)), x)

    def test_width_mismatch(self):
        with pytest.raises(PcsqError, match="width"):
            signed_logsumexp(np.ones((1, 2)), SignedLogTensor.from_linear([1.0]))


class TestLogWeightedSum:
    def test_matches_linear_space(self, rng):
        # a zero weight, a zero term (log -inf) and terms over ~40 nats
        w = np.array([0.5, 0.0, 2.0, 1.5])
        terms = rng.uniform(0.1, 3.0, size=(6, 4)) * np.exp(rng.uniform(-20, 20, size=(6, 1)))
        terms[2, 3] = 0.0
        with np.errstate(divide="ignore"):
            logs = np.log(terms)
        log_total, shares = log_weighted_sum(w, logs)
        want = terms @ w
        assert log_total.shape == (6,) and shares.shape == (6, 4)
        np.testing.assert_allclose(log_total, np.log(want), rtol=1e-14)
        np.testing.assert_allclose(shares, terms * w / want[:, None], rtol=1e-13)
        assert np.all(shares[:, 1] == 0.0) and shares[2, 3] == 0.0
        # a 1-d input is one row: the mixture Z and sampling case
        log_z, z_shares = log_weighted_sum(w, logs[0])
        assert log_z.shape == () and z_shares.shape == (4,)
        assert log_z == log_total[0]
        np.testing.assert_array_equal(z_shares, shares[0])

    def test_row_with_no_live_term_sums_to_minus_inf_without_warning(self):
        logs = np.array([[-np.inf, -np.inf], [0.5, -1.0]])
        # the suite turns RuntimeWarnings into errors; raise here outside it too
        with np.errstate(all="raise"):
            log_total, shares = log_weighted_sum(np.array([1.0, 3.0]), logs)
            zero_weights = log_weighted_sum(np.zeros(2), logs)
            zero_z = log_weighted_sum(np.zeros(3), np.zeros(3))
        assert log_total[0] == -np.inf and np.all(shares[0] == 0.0)
        assert np.isfinite(log_total[1])
        for total, parts in (zero_weights, zero_z):
            assert np.all(total == -np.inf) and np.all(parts == 0.0)

    def test_one_term_of_weight_one_returns_its_logs(self, rng):
        logs = rng.normal(scale=300.0, size=(40, 1))
        logs[5, 0] = -np.inf
        log_total, shares = log_weighted_sum(np.ones(1), logs)
        np.testing.assert_array_equal(log_total, logs[:, 0])
        want = np.ones((40, 1))
        want[5, 0] = 0.0
        np.testing.assert_array_equal(shares, want)

    @pytest.mark.parametrize("k", [1, 2, 7, 64, 1000])
    def test_shares_sum_to_one_within_rounding(self, rng, k):
        # the total's k-term sum (k - 1 roundings), one division per share and
        # the shares' own sum (k - 1 more): first order, (2k - 1) u (Higham, ch. 3)
        u = np.finfo(np.float64).eps / 2
        w = rng.uniform(0.0, 2.0, size=k)
        logs = rng.normal(scale=5.0, size=(200, k))
        _, shares = log_weighted_sum(w, logs)
        assert np.all(np.abs(shares.sum(axis=1) - 1.0) <= 2 * k * u)


class TestSignedProduct:
    def test_hadamard(self):
        a = SignedLogTensor.from_linear([2.0])
        b = SignedLogTensor.from_linear([-3.0])
        out = signed_product([a, b])
        assert out.to_linear()[0] == pytest.approx(-6.0)

    def test_zero_absorbs(self, rng):
        a = SignedLogTensor.from_linear(rng.normal(size=5))
        z = SignedLogTensor.zeros((5,))
        out = signed_product([a, z])
        assert np.all(out.sign == 0.0)
        assert np.all(np.isneginf(out.log_magnitude))

    def test_kronecker_pairwise(self):
        a = SignedLogTensor.from_linear([2.0, -1.0])
        b = SignedLogTensor.from_linear([3.0, 5.0])
        out = signed_product([a, b], kind="kronecker")
        np.testing.assert_allclose(out.to_linear(), [6.0, 10.0, -3.0, -5.0], rtol=1e-14)

    def test_hadamard_width_mismatch(self):
        with pytest.raises(PcsqError, match="width"):
            signed_product(
                [SignedLogTensor.from_linear([1.0]), SignedLogTensor.from_linear([1.0, 2.0])]
            )


class TestHelpers:
    def test_signed_sum_matches_linear(self, rng):
        vals = rng.normal(size=(6, 5))
        vals[rng.random((6, 5)) < 0.2] = 0.0
        x = SignedLogTensor.from_linear(vals)
        np.testing.assert_allclose(signed_sum(x, axis=0).to_linear(), vals.sum(axis=0), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(signed_sum(x, axis=1).to_linear(), vals.sum(axis=1), rtol=1e-12, atol=1e-13)

    def test_signed_scale(self, rng):
        vals = rng.normal(size=7)
        factor = rng.normal(size=7)
        factor[2] = 0.0
        x = SignedLogTensor.from_linear(vals)
        np.testing.assert_allclose(signed_scale(x, factor).to_linear(), vals * factor, rtol=1e-14, atol=0)

    def test_invariants_detect_mismatch(self):
        bad = SignedLogTensor(np.array([-np.inf]), np.array([1.0]))
        assert bad.invariant_violations()
        good = SignedLogTensor.from_linear(np.array([0.0, 1.0, -2.0]))
        assert good.invariant_violations() == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
    ),
)
def test_round_trip_and_logsumexp_property(values, weights):
    vals = np.array(values)
    x = SignedLogTensor.from_linear(vals)
    assert x.invariant_violations() == []
    # exp(log(.)) loses |log x| ulps; 1e-12 covers the whole f64 range
    np.testing.assert_allclose(x.to_linear(), vals, rtol=1e-12)
    w = np.resize(np.array(weights), (1, vals.size))
    got = signed_logsumexp(w, x).to_linear()[0]
    want = float(vals @ w[0])
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_scaled_rules_keep_zero_rows_and_trip_below_exp_minus_700():
    # rows: a live row, a zero row, a live row that cancelled to 0, a NaN row
    log_scale = np.array([[3.0], [-np.inf], [1.0], [0.0]])
    raw = np.array([[2.0, -4.0], [0.0, 0.0], [0.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(OutOfScaledRange):
        renormalized(raw.copy(), log_scale)
    keep = [0, 1, 3]
    out = renormalized(raw[keep], log_scale[keep])  # a NaN is never a trip
    np.testing.assert_array_equal(out.values[:2], [[0.5, -1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(out.log_scale[:2], [[3.0 + np.log(4.0)], [-np.inf]])
    assert np.isnan(out.values[2]).all()
    np.testing.assert_array_equal(
        out.to_slog().log_magnitude[:2], [[3.0 + np.log(2.0), 3.0 + np.log(4.0)], [-np.inf] * 2]
    )
    tiny = np.array([[1e-300, 0.0]])
    renormalized(tiny.copy(), np.array([[0.0]]))  # exp(-700) ~ 9.9e-305
    with pytest.raises(OutOfScaledRange):
        renormalized(tiny * 1e-5, np.array([[0.0]]))

    scale, r = row_weights(np.array([[2.0], [-np.inf], [2.0 - 699.0]]))
    assert scale == np.exp(2.0)
    np.testing.assert_array_equal(r, [[1.0], [0.0], [np.exp(-699.0)]])
    with pytest.raises(OutOfScaledRange):
        row_weights(np.array([[2.0], [2.0 - 701.0]]))
    assert row_weights(np.array([[-np.inf]]))[0] == 0.0
    assert np.isnan(row_weights(np.array([[np.nan], [0.0]]))[1]).all()


def test_scaled_values_from_signed_log_rows():
    x = SignedLogTensor(
        np.array([[0.0, -800.0, 2.0], [-np.inf] * 3]), np.array([[1.0, -1.0, -1.0], [0.0] * 3])
    )
    t = ScaledTensor.from_slog(x)
    np.testing.assert_array_equal(t.log_scale, [[2.0], [-np.inf]])
    np.testing.assert_array_equal(t.values, [[np.exp(-2.0), -0.0, -1.0], [0.0] * 3])
    assert t.values.flags.f_contiguous


def test_scaled_values_overwrite_only_a_writeable_column_major_array():
    # a read-only array (a cached integral) is copied and left as it was;
    # a writeable column-major one is exponentiated in place, and a
    # row-major one is copied, so values stay column-major either way
    log_mag = np.asfortranarray([[0.0, -1.0], [3.0, 1.0]])
    log_mag.setflags(write=False)
    x = SignedLogTensor(log_mag, np.ones((2, 2)))
    t = ScaledTensor.from_slog(x)
    assert not np.shares_memory(t.values, log_mag)
    np.testing.assert_array_equal(log_mag, [[0.0, -1.0], [3.0, 1.0]])
    owned = SignedLogTensor(log_mag.copy(order="F"), x.sign)
    u = ScaledTensor.from_slog(owned)
    assert np.shares_memory(u.values, owned.log_magnitude)
    row_major = SignedLogTensor(log_mag.copy(order="C"), x.sign)
    v = ScaledTensor.from_slog(row_major)
    assert not np.shares_memory(v.values, row_major.log_magnitude)
    np.testing.assert_array_equal(row_major.log_magnitude, log_mag)
    for w in (t, u, v):
        assert w.values.flags.f_contiguous
    for w in (u, v):
        np.testing.assert_array_equal(w.values, t.values)
        np.testing.assert_array_equal(w.log_scale, t.log_scale)
