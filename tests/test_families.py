"""Input families: pointwise evaluation and exact product integrals, each
checked against an independent quadrature or enumeration oracle."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from pcsq import families, kernels
from pcsq.circuits import ParameterStore
from pcsq.errors import DomainError
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    RbfKernelFamily,
    SplineFamily,
    family_from_dict,
)
from pcsq.slog import ScaledTensor, SignedLogTensor, signed_mul, signed_scale, signed_sum
from pcsq.splines import BSplineBasis


def _make(family, seed=0, scale=0.7):
    store = ParameterStore()
    family.register(store, "t.")
    rng = np.random.default_rng(seed)
    store.values[:] = rng.normal(size=store.values.size) * scale
    store.bump()
    return store


class TestPointEvaluation:
    def test_symmetric_binomial(self):
        fam = BinomialFamily(1, trials=2)
        store = _make(fam)
        store.set_free(fam.blocks["logit_p"], [0.0])  # p = 1/2
        out, _ = fam.log_eval(store, np.array([1.0]))
        assert out.to_linear()[0, 0] == pytest.approx(0.5)

    def test_standard_gaussian_at_zero(self):
        fam = GaussianFamily(1)
        store = _make(fam)
        store.set_free(fam.blocks["mean"], [0.0])
        store.set_free(fam.blocks["std"], [0.0])  # exp(0) = 1
        out, _ = fam.log_eval(store, np.array([0.0]))
        assert out.log_magnitude[0, 0] == pytest.approx(math.log(1 / math.sqrt(2 * math.pi)))

    def test_gaussian_eval_keeps_the_out_of_place_bits(self):
        # log_eval runs its elementwise steps in place, in the order of the
        # expression kept here as the reference
        fam = GaussianFamily(5)
        store = _make(fam, seed=3)
        x = np.random.default_rng(4).normal(scale=3.0, size=257)
        mean, std = fam._params(store)
        z = (x[:, None] - mean[None, :]) / std[None, :]
        lm = -0.5 * z * z - np.log(std)[None, :] - 0.5 * families._LOG_2PI
        out, got_z = fam.log_eval(store, x)
        np.testing.assert_array_equal(got_z, z)
        np.testing.assert_array_equal(out.log_magnitude, lm)
        np.testing.assert_array_equal(out.sign, np.ones_like(lm))

    def test_spline_partition_of_unity_value(self):
        basis = BSplineBasis.uniform(2, 4, (0.0, 1.0))
        fam = SplineFamily(1, basis)
        store = _make(fam)
        store.set_free(fam.blocks["coeffs"], np.ones((1, basis.num_bases)))
        xs = np.linspace(0.05, 0.95, 11)
        out, _ = fam.log_eval(store, xs)
        np.testing.assert_allclose(out.to_linear()[:, 0], 1.0, atol=1e-12)
        # quadrature oracle: the constant-1 function integrates to the width
        vec = fam.integral_vector(store)
        assert vec.to_linear()[0] == pytest.approx(1.0, rel=1e-12)

    def test_embedding_signs(self):
        fam = EmbeddingFamily(2, 3)
        store = _make(fam)
        store.set_free(fam.blocks["values"], [[1.0, -2.0, 0.0], [0.5, 0.5, 0.5]])
        out, _ = fam.log_eval(store, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out.to_linear()[:, 0], [1.0, -2.0, 0.0])
        assert out.sign[2, 0] == 0.0

    @pytest.mark.parametrize("cls", [CategoricalFamily, EmbeddingFamily])
    def test_table_tape_feature_is_the_state(self, cls):
        # a taped pass keeps one state per row for a table layer, not its
        # (rows, states) one-hot design
        fam = cls(2, 300)
        store = _make(fam)
        x = np.array([0.0, 299.0, 7.0])
        f, states = fam.log_eval(store, x)
        np.testing.assert_array_equal(states, [0, 299, 7])
        np.testing.assert_allclose(f.to_linear(), fam.value_table(store)[:, [0, 299, 7]].T, rtol=1e-14)

    def test_spline_outside_domain_errors(self):
        fam = SplineFamily(1, BSplineBasis.uniform(2, 4, (0.0, 1.0)))
        store = _make(fam)
        with pytest.raises(DomainError):
            fam.log_eval(store, np.array([1.5]))

    def test_discrete_domain_errors(self):
        fam = CategoricalFamily(1, 3)
        store = _make(fam)
        with pytest.raises(DomainError):
            fam.log_eval(store, np.array([3.0]))

    @pytest.mark.parametrize(
        "make",
        [lambda: CategoricalFamily(2, 3), lambda: EmbeddingFamily(2, 3), lambda: BinomialFamily(2, 2)],
        ids=["categorical", "embedding", "binomial"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, -1.0])
    def test_bad_discrete_value_is_named(self, make, bad):
        # checked before any cast: casting NaN or inf to int warns first
        fam = make()
        store = _make(fam)
        with pytest.raises(DomainError, match=re.escape(f"value {bad!r} is not a state in [0, 3)")):
            fam.log_eval(store, np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize(
        "make",
        [lambda: GaussianFamily(2), lambda: RbfKernelFamily([[0.0], [1.0]], 0.5)],
        ids=["gaussian", "rbf"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_continuous_value_is_named(self, make, bad):
        fam = make()
        store = _make(fam)
        with pytest.raises(DomainError, match=re.escape(f"value {bad!r} is not finite")):
            fam.log_eval(store, np.array([0.0, bad, 1.0]))

    def test_binomial_matches_the_lgamma_formula(self):
        fam = BinomialFamily(3, trials=255)
        store = _make(fam, seed=5)
        p = fam._p(store)
        n = fam.trials
        k = np.arange(n + 1.0)[::-1]
        comb = np.array(
            [math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1) for c in k]
        )
        want = comb[:, None] + k[:, None] * np.log(p) + (n - k)[:, None] * np.log1p(-p)
        f, _ = fam.log_eval(store, k)
        np.testing.assert_array_equal(f.log_magnitude, want)


class TestProductIntegrals:
    def test_gaussian_pair_closed_form(self):
        fam = GaussianFamily(2)
        store = _make(fam)
        store.set_free(fam.blocks["mean"], [0.0, 0.0])
        store.set_free(fam.blocks["std"], [0.0, 0.0])
        mat = fam.integral_matrix(store).to_linear()
        assert mat[0, 0] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
        # quadrature oracle
        val, _ = integrate.quad(lambda t: stats.norm.pdf(t) ** 2, -np.inf, np.inf)
        assert mat[0, 1] == pytest.approx(val, rel=1e-9)

    def test_gaussian_random_pairs_vs_quadrature(self, rng):
        fam = GaussianFamily(3)
        store = _make(fam, seed=5)
        mean = store.effective(fam.blocks["mean"])
        std = store.effective(fam.blocks["std"])
        mat = fam.integral_matrix(store).to_linear()
        for i in range(3):
            for j in range(3):
                val, _ = integrate.quad(
                    lambda t: stats.norm.pdf(t, mean[i], std[i]) * stats.norm.pdf(t, mean[j], std[j]),
                    -np.inf,
                    np.inf,
                )
                assert mat[i, j] == pytest.approx(val, rel=1e-8)

    def test_uniform_categorical_pair(self):
        fam = CategoricalFamily(2, 2)
        store = _make(fam)
        store.set_free(fam.blocks["probs"], np.zeros((2, 2)))  # softmax -> (0.5, 0.5)
        mat = fam.integral_matrix(store).to_linear()
        np.testing.assert_allclose(mat, 0.5)

    def test_categorical_matches_enumeration(self, rng):
        fam = CategoricalFamily(3, 5)
        store = _make(fam, seed=9)
        table = store.effective(fam.blocks["probs"])
        mat = fam.integral_matrix(store).to_linear()
        np.testing.assert_allclose(mat, table @ table.T, rtol=1e-12)

    def test_binomial_matches_enumeration(self):
        fam = BinomialFamily(2, trials=4)
        store = _make(fam, seed=3)
        mat = fam.integral_matrix(store).to_linear()
        counts = np.arange(5)
        pmf = np.exp(fam._log_pmf(store, counts)).T
        np.testing.assert_allclose(mat, pmf @ pmf.T, rtol=1e-12)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=1e-12)

    def test_spline_pairs_vs_adaptive_simpson(self, rng):
        basis = BSplineBasis.uniform(2, 8, (-1.0, 2.0))
        fam = SplineFamily(2, basis)
        store = _make(fam, seed=7)
        coeffs = store.effective(fam.blocks["coeffs"])
        mat = fam.integral_matrix(store).to_linear()

        def f(t, unit):
            return float((basis.design_matrix(np.atleast_1d(t)) @ coeffs[unit])[0])

        for i in range(2):
            for j in range(2):
                edges = np.unique(basis.knots)
                total = sum(
                    integrate.quad(lambda t: f(t, i) * f(t, j), lo, hi, limit=60)[0]
                    for lo, hi in zip(edges[:-1], edges[1:])
                )
                assert mat[i, j] == pytest.approx(total, rel=1e-10, abs=1e-13)

    def test_rbf_pair_closed_form(self, rng):
        anchors = rng.normal(size=(3, 2))
        fam = RbfKernelFamily(anchors, bandwidth=0.9)
        store = ParameterStore()
        mat = fam.integral_matrix(store).to_linear()

        def product(i, j):
            def f(y, x):
                ka = math.exp(-((x - anchors[i, 0]) ** 2 + (y - anchors[i, 1]) ** 2) / (2 * 0.81))
                kb = math.exp(-((x - anchors[j, 0]) ** 2 + (y - anchors[j, 1]) ** 2) / (2 * 0.81))
                return ka * kb

            val, _ = integrate.dblquad(f, -np.inf, np.inf, -np.inf, np.inf)
            return val

        assert mat[0, 1] == pytest.approx(product(0, 1), rel=1e-7)
        assert mat[2, 2] == pytest.approx(product(2, 2), rel=1e-7)


def _gaussian_shaped_case(kind):
    """A 3-unit family with Gaussian-shaped units and a scalar oracle f(t, i)."""
    if kind == "gaussian":
        fam = GaussianFamily(3)
        store = _make(fam, seed=5)
        mean = store.effective(fam.blocks["mean"])
        std = store.effective(fam.blocks["std"])
        return fam, store, lambda t, i: stats.norm.pdf(t, mean[i], std[i])
    anchors = np.array([[-0.8], [0.1], [1.3]])
    fam = RbfKernelFamily(anchors, bandwidth=0.6)
    return fam, ParameterStore(), lambda t, i: math.exp(-((t - anchors[i, 0]) ** 2) / 0.72)


class TestPartialIntegrals:
    """Integrals from the domain's lower end up to t, against adaptive
    quadrature; at the upper end they are the full integrals."""

    @pytest.mark.parametrize("kind", ["gaussian", "rbf"])
    def test_gaussian_shaped_vs_quadrature(self, kind):
        fam, store, f = _gaussian_shaped_case(kind)
        ts = np.array([-2.5, -0.4, 0.0, 0.7, 2.2])
        vec = fam.partial_integral_vector(store, ts).to_linear()
        mat = fam.partial_integral_matrix(store, ts).to_linear()
        assert vec.shape == (5, 3) and mat.shape == (5, 3, 3)
        quad = lambda g, t: integrate.quad(g, -np.inf, t, epsabs=1e-15, epsrel=1e-12)[0]
        for n, t in enumerate(ts):
            for i in range(3):
                assert vec[n, i] == pytest.approx(quad(lambda s: f(s, i), t), rel=1e-10, abs=1e-15)
                for j in range(3):
                    want = quad(lambda s: f(s, i) * f(s, j), t)
                    assert mat[n, i, j] == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_spline_span_by_span_vs_quadrature(self):
        basis = BSplineBasis.uniform(2, 5, (-1.0, 2.0))
        fam = SplineFamily(3, basis)
        store = _make(fam, seed=7)
        coeffs = store.effective(fam.blocks["coeffs"])
        edges = np.unique(basis.knots)
        # every knot, and a point inside every span
        ts = np.concatenate([edges, edges[:-1] + 0.37 * np.diff(edges)])
        vec = fam.partial_integral_vector(store, ts).to_linear()
        mat = fam.partial_integral_matrix(store, ts).to_linear()

        def f(s, i):
            return float((basis.design_matrix(np.atleast_1d(s)) @ coeffs[i])[0])

        def quad(g, t):
            pieces = [(lo, min(hi, t)) for lo, hi in zip(edges[:-1], edges[1:]) if lo < t]
            return sum(
                integrate.quad(g, lo, hi, epsabs=1e-15, epsrel=1e-13)[0] for lo, hi in pieces
            )

        for n, t in enumerate(ts):
            for i in range(3):
                assert vec[n, i] == pytest.approx(quad(lambda s: f(s, i), t), rel=1e-10, abs=1e-13)
                for j in range(3):
                    want = quad(lambda s: f(s, i) * f(s, j), t)
                    assert mat[n, i, j] == pytest.approx(want, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("kind", ["gaussian", "rbf", "spline"])
    def test_upper_end_is_full_integral(self, kind):
        if kind == "spline":
            fam = SplineFamily(3, BSplineBasis.uniform(2, 5, (-1.0, 2.0)))
            store = _make(fam, seed=7)
        else:
            fam, store, _ = _gaussian_shaped_case(kind)
        _, hi = fam.sample_bracket(store)
        vec = fam.partial_integral_vector(store, [hi]).to_linear()[0]
        mat = fam.partial_integral_matrix(store, [hi]).to_linear()[0]
        np.testing.assert_allclose(vec, fam.integral_vector(store).to_linear(), rtol=1e-12, atol=0)
        np.testing.assert_allclose(mat, fam.integral_matrix(store).to_linear(), rtol=1e-12, atol=0)


class TestIntegralMatrixProperties:
    @pytest.mark.parametrize("maker", [
        lambda: GaussianFamily(4),
        lambda: CategoricalFamily(4, 6),
        lambda: EmbeddingFamily(4, 6),
        lambda: BinomialFamily(4, 9),
        lambda: SplineFamily(4, BSplineBasis.uniform(2, 10, (0.0, 1.0))),
    ])
    def test_symmetric_positive_semidefinite(self, maker, rng):
        fam = maker()
        store = _make(fam, seed=int(rng.integers(1000)))
        mat = fam.integral_matrix(store).to_linear()
        np.testing.assert_allclose(mat, mat.T, rtol=1e-12, atol=1e-12)
        eigvals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        assert eigvals.min() >= -1e-10 * max(1.0, eigvals.max())

    def test_single_unit_matrix_is_self_integral(self):
        fam = GaussianFamily(1)
        store = _make(fam)
        mat = fam.integral_matrix(store).to_linear()
        assert mat.shape == (1, 1)
        std = store.effective(fam.blocks["std"])[0]
        assert mat[0, 0] == pytest.approx(1.0 / (2 * std * math.sqrt(math.pi)), rel=1e-12)

    def test_identical_units_give_constant_matrix(self):
        fam = GaussianFamily(3)
        store = _make(fam)
        store.set_free(fam.blocks["mean"], [0.3, 0.3, 0.3])
        store.set_free(fam.blocks["std"], [-0.1, -0.1, -0.1])
        mat = fam.integral_matrix(store).to_linear()
        assert np.ptp(mat) < 1e-15

    def test_product_integral_entry_accessor(self, rng):
        fam = CategoricalFamily(3, 4)
        store = _make(fam, seed=6)
        mat = fam.integral_matrix(store).to_linear()
        for i in range(3):
            for j in range(3):
                got = fam.product_integral(store, i, j).to_linear()
                assert got == pytest.approx(mat[i, j], rel=1e-15)
        with pytest.raises(Exception):
            fam.product_integral(store, 0, 3)


class TestMonotonicModes:
    def test_monotonic_spline_nonnegative_everywhere(self, rng):
        basis = BSplineBasis.uniform(2, 8, (0.0, 1.0))
        fam = SplineFamily(3, basis, monotonic=True)
        store = _make(fam, seed=2)
        xs = rng.uniform(0.0, 1.0, size=500)
        assert np.all(fam.log_eval(store, xs)[0].sign >= 0.0)

    def test_categorical_rows_normalized(self, rng):
        fam = CategoricalFamily(3, 7)
        store = _make(fam, seed=4)
        table = store.effective(fam.blocks["probs"])
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(table > 0)


def test_serialization_round_trip(rng):
    basis = BSplineBasis.uniform(2, 5, (0.0, 1.0))
    for fam in (
        GaussianFamily(2),
        CategoricalFamily(2, 4),
        EmbeddingFamily(2, 4),
        BinomialFamily(2, 6),
        SplineFamily(2, basis, monotonic=True),
        RbfKernelFamily(rng.normal(size=(3, 2)), 1.1),
    ):
        store = ParameterStore()
        fam.register(store, "x.")
        doc = fam.to_dict()
        again = family_from_dict(doc)
        assert again.to_dict() == doc
        assert again.units == fam.units
        assert again.num_states == fam.num_states


def _random_adjoint(rng, rows, units, spread=3.0):
    lm = rng.normal(size=(rows, units)) * spread
    return SignedLogTensor(lm, np.sign(rng.normal(size=(rows, units))))


def _signed_log_sums(adj, f, factors):
    """The oracle: every term adj * f * g in signed log-space, summed down
    each column with its own shift."""
    t = signed_mul(adj, f)
    return [signed_sum(signed_scale(t, g), axis=0).to_linear() for g in factors]


def _assert_close_to_signed_log_sums(adj, f, factors, rtol=1e-12):
    """Each one-pass sum against the oracle: within rtol of the column's
    term scale sum_b |adj f g|, with equal signs."""
    got = families._weighted_batch_sum(adj, f, *factors)
    want = _signed_log_sums(adj, f, factors)
    live = SignedLogTensor(adj.log_magnitude, np.abs(adj.sign))
    unit = SignedLogTensor(f.log_magnitude, np.abs(f.sign))
    scales = _signed_log_sums(live, unit, [np.abs(g) for g in factors])
    assert len(got) == len(factors)
    for g, w, scale in zip(got, want, scales):
        assert np.all(np.abs(g - w) <= rtol * scale), np.max(np.abs(g - w) / scale)
        np.testing.assert_array_equal(np.sign(g), np.sign(w))
    return got


class TestWeightedBatchSum:
    """``_weighted_batch_sum``, the one-pass sum of the Gaussian and
    Binomial input VJPs, against per-term signed log-space sums."""

    @pytest.mark.parametrize("rows,units", [(1, 1), (7, 3), (256, 64)])
    def test_random_inputs(self, rng, rows, units):
        adj = _random_adjoint(rng, rows, units)
        f = SignedLogTensor(-0.5 * rng.normal(size=(rows, units)) ** 2, np.ones((rows, units)))
        factors = [rng.normal(size=(rows, units)), rng.uniform(-3, 3, size=(rows, units))]
        _assert_close_to_signed_log_sums(adj, f, factors)
        _assert_close_to_signed_log_sums(adj, f, factors[:1])

    def test_zero_adjoints_and_an_all_zero_column(self, rng):
        adj = _random_adjoint(rng, 40, 5)
        dead = rng.random((40, 5)) < 0.3
        dead[:, 2] = True
        adj.log_magnitude[dead] = -np.inf
        adj.sign[dead] = 0.0
        f = SignedLogTensor(rng.normal(size=(40, 5)), np.sign(rng.normal(size=(40, 5))))
        factors = [rng.normal(size=(40, 5)), rng.normal(size=(40, 5))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = families._weighted_batch_sum(adj, f, *factors)
        for g in got:
            assert g[2] == 0.0
        _assert_close_to_signed_log_sums(adj, f, factors)

    def test_wide_exponent_range(self, rng):
        # column 1 holds a live entry 720 nats below the rest, whose term
        # underflows once the column is shifted by its maximum; the live
        # entries of column 3 sit 800 nats apart, around +400 and -400
        adj = _random_adjoint(rng, 30, 4, spread=1.0)
        adj.log_magnitude[7, 1] = -720.0
        adj.log_magnitude[:15, 3] += 400.0
        adj.log_magnitude[15:, 3] -= 400.0
        f = SignedLogTensor(np.zeros((30, 4)), np.ones((30, 4)))
        got = _assert_close_to_signed_log_sums(adj, f, [rng.normal(size=(30, 4))])
        assert np.all(np.isfinite(got[0])) and np.all(got[0] != 0.0)

    def test_nan_factor_spoils_only_its_column(self, rng):
        adj = _random_adjoint(rng, 6, 3)
        f = SignedLogTensor(np.zeros((6, 3)), np.ones((6, 3)))
        factor = rng.normal(size=(6, 3))
        factor[3, 0] = np.nan
        (got,) = families._weighted_batch_sum(adj, f, factor)
        assert np.isnan(got[0])
        np.testing.assert_allclose(got[1:], (adj.to_linear() * factor)[:, 1:].sum(axis=0))

    def test_near_cancelling_column(self, rng):
        # column 0 sums 1 - (1 - 1e-9) + tiny terms: far below its term scale
        magnitude = np.array([[1.0, 2.0], [1.0 - 1e-9, 0.5], [1e-3, 1.0]])
        adj = SignedLogTensor(np.log(magnitude), np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]]))
        f = SignedLogTensor(np.zeros((3, 2)), np.ones((3, 2)))
        factor = np.array([[1.0, 1.0], [1.0, 1.0], [1e-6, 1.0]])
        got = _assert_close_to_signed_log_sums(adj, f, [factor])
        assert got[0][0] == pytest.approx(1e-9 + 1e-9, rel=1e-6)


# --- linear families: the band path against the dense design ---------------

_U = 2.0**-53  # unit roundoff of float64


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of a
    recursive sum of n terms (Accuracy and Stability of Numerical
    Algorithms, ch. 3)."""
    return n * _U / (1.0 - n * _U)


def _linear_case(case, rng):
    """(family, store, x, dense design) for one linear family; every block is
    an identity block, so a VJP stores the gradient of the effective values
    as it is (the categorical softmax only chains it on)."""
    kind, size = case
    if kind == "spline":
        # irregular knots; x includes every interior knot and both ends
        basis = BSplineBasis(size, [0.1, 0.25, 0.5, 0.55, 0.8], (0.0, 1.0))
        fam = SplineFamily(4, basis)
        x = np.concatenate([rng.uniform(0.0, 1.0, 40), basis.interior, [0.0, 1.0, 1.0]])
        design = basis.design_matrix(x)
    else:
        fam = (CategoricalFamily if kind == "categorical" else EmbeddingFamily)(4, size)
        fam.reparam = "identity"
        x = np.concatenate([rng.integers(0, size, 40), [0, size - 1]]).astype(np.float64)
        design = np.eye(size)[x.astype(np.int64)]
    store = _make(fam, seed=int(rng.integers(1 << 30)), scale=1.0)
    return fam, store, x, design


def _adjoint(rng, rows, units, spread=5.0):
    """A signed-log adjoint with log-magnitudes in [-spread, spread], 10% zero
    entries and rows 3 and 7 exactly zero."""
    lm = rng.uniform(-spread, spread, size=(rows, units))
    sg = rng.choice([-1.0, 1.0], size=(rows, units))
    dead = rng.random((rows, units)) < 0.1
    dead[[3, 7]] = True
    lm[dead], sg[dead] = -np.inf, 0.0
    return SignedLogTensor(lm, sg)


def _exact_reference(adj, design):
    with np.errstate(divide="ignore"):
        d_lm = np.log(design)
    out = kernels._slse_pair_accum_exact(adj.log_magnitude, adj.sign, d_lm, np.sign(design))
    return SignedLogTensor(*out).to_linear()


LINEAR_CASES = [("spline", order) for order in range(4)] + [
    (kind, states) for kind in ("categorical", "embedding") for states in (2, 300)
]


@pytest.mark.parametrize("case", LINEAR_CASES, ids=lambda c: f"{c[0]}{c[1]}")
class TestLinearFamilyBand:
    def test_band_scatters_to_the_dense_design(self, case, rng):
        fam, store, x, design = _linear_case(case, rng)
        _, features = fam.log_eval(store, x)
        first, band = fam.basis.live_band(features)
        assert band.shape == (x.size, fam.basis.order + 1 if case[0] == "spline" else 1)
        dense = np.zeros_like(design)
        np.put_along_axis(dense, first[:, None] + np.arange(band.shape[1]), band, axis=1)
        np.testing.assert_array_equal(dense, design)

    def test_values_match_the_dense_design(self, case, rng):
        fam, store, x, design = _linear_case(case, rng)
        f, features = fam.log_eval(store, x)
        coeffs = fam._coeffs(store)
        want = design @ coeffs.T
        scale = design @ np.abs(coeffs).T
        # the band sums R live terms and the dense product at most B; each is
        # within gamma of the term scale.  The signed-log round trip of
        # log_eval adds a relative (|log v| + 2) u, with |v| <= scale
        width = fam.basis.live_band(features)[1].shape[1]
        with np.errstate(divide="ignore"):
            round_trip = (3.0 + np.abs(np.log(scale))) * _U
        tol = (_gamma(width) + _gamma(design.shape[1]) + round_trip) * scale
        assert np.all(np.abs(f.to_linear() - want) <= tol)

    def test_vjp_matches_the_exact_kernel_on_the_dense_design(self, case, rng):
        fam, store, x, design = _linear_case(case, rng)
        f, features = fam.log_eval(store, x)
        adj = _adjoint(rng, x.size, fam.units)
        store.zero_grad()
        fam.log_eval_vjp(store, adj, f, features)
        got = store.grad_view(fam.blocks[fam.block_name])
        want = _exact_reference(adj, design)
        a = adj.to_linear()
        scale = np.abs(a).T @ design
        # each kernel: exponent arguments within lam of 0 round by lam u, so
        # its terms and its restored output carry (4 lam + 5) u relative
        # error, and the sum of at most M terms gamma_M; both kernels err
        with np.errstate(divide="ignore"):
            live = np.log(design[design > 0.0])
        lam = np.max(np.abs(adj.log_magnitude[adj.sign != 0.0])) + np.max(-live)
        lam += math.log(x.size) + 1.0
        tol = 2.0 * (_gamma(x.size) + (4.0 * lam + 5.0) * _U) * scale
        assert np.all(np.abs(got - want) <= tol)
        assert np.all(got[scale == 0.0] == 0.0)

    def test_wide_adjoint_takes_the_exact_kernel(self, case, rng, monkeypatch):
        # rows 800 nats apart: one shift would push the low rows' terms below
        # exp(-700), so the call runs the per-entry kernel on the dense design
        fam, store, x, design = _linear_case(case, rng)
        f, features = fam.log_eval(store, x)
        adj = _adjoint(rng, x.size, fam.units)
        adj.log_magnitude[::2] += 400.0
        adj.log_magnitude[1::2] -= 400.0
        calls = []
        exact = kernels._slse_pair_accum_exact

        def counted(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(kernels, "_slse_pair_accum_exact", counted)
        store.zero_grad()
        fam.log_eval_vjp(store, adj, f, features)
        assert calls == [1]
        got = store.grad_view(fam.blocks[fam.block_name])
        monkeypatch.undo()
        np.testing.assert_array_equal(got, _exact_reference(adj, design))

    def test_zero_adjoint_gives_a_zero_gradient(self, case, rng):
        fam, store, x, _ = _linear_case(case, rng)
        f, features = fam.log_eval(store, x)
        zero = SignedLogTensor.zeros((x.size, fam.units))
        store.zero_grad()
        fam.log_eval_vjp(store, zero, f, features)
        assert np.all(store.gradients == 0.0)


_POSITIVE = {
    "gaussian": (lambda: GaussianFamily(3), lambda rng, n: rng.normal(size=n)),
    "rbf": (
        lambda: RbfKernelFamily(np.array([[-0.8], [0.1], [1.3]]), bandwidth=0.6),
        lambda rng, n: rng.normal(size=n),
    ),
    "binomial": (
        lambda: BinomialFamily(3, trials=5),
        lambda rng, n: rng.integers(0, 6, size=n).astype(float),
    ),
}


@pytest.mark.parametrize("kind", sorted(_POSITIVE))
def test_positive_values_share_one_read_only_sign(kind, rng):
    # Gaussian, RBF and Binomial values are all positive, so log_eval's
    # sign, and the closed-form integral matrix's, is one +1 broadcast to
    # the values' shape: it allocates nothing and refuses writes
    make, draw = _POSITIVE[kind]
    fam = make()
    store = _make(fam)
    f, _ = fam.log_eval(store, draw(rng, 9))
    signs = [f.sign]
    if kind != "binomial":  # a Binomial integral matrix is a table product
        signs.append(fam.integral_matrix(store).sign)
    for sign in signs:
        assert np.all(sign == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            sign[0, 0] = 1.0


@pytest.mark.parametrize("kind", sorted(_POSITIVE))
def test_a_broadcast_sign_moves_no_density_or_marginal_bit(kind, rng, monkeypatch):
    # squared densities and marginals are bit-equal to passes whose input
    # layers return a materialized sign (and C-ordered log-magnitudes)
    from pcsq import inference
    from pcsq.circuits import from_region_graph
    from pcsq.learning import init_parameters
    from pcsq.regions import build_binary_tree
    from pcsq.squaring import square

    make, draw = _POSITIVE[kind]
    x = np.stack([draw(rng, 20) for _ in range(4)], axis=1)

    def outputs():
        c = from_region_graph(build_binary_tree(4, 2), 3, "hadamard", lambda s, k: make())
        sq = init_parameters(square(c), "uniform(0,1)", seed=3)
        marg = inference.marginal_batch(sq, x, {1, 2})
        return inference.log_density(sq, x), marg.log_magnitude, marg.sign

    got = outputs()
    cls = type(make())
    log_eval, integral_matrix = cls.log_eval, cls.integral_matrix

    def materialized(t):
        return SignedLogTensor(np.ascontiguousarray(t.log_magnitude), np.ones(t.shape))

    def log_eval_materialized(self, store, values):
        f, features = log_eval(self, store, values)
        return materialized(f), features

    monkeypatch.setattr(cls, "log_eval", log_eval_materialized)
    monkeypatch.setattr(cls, "integral_matrix", lambda self, store: materialized(integral_matrix(self, store)))
    for g, w in zip(got, outputs()):
        np.testing.assert_array_equal(g, w)


_INTEGRAL_FAMILIES = {
    "gaussian": lambda: GaussianFamily(4),
    "binomial": lambda: BinomialFamily(4, trials=5),
    "spline": lambda: SplineFamily(4, BSplineBasis(2, [0.1, 0.25, 0.5, 0.55, 0.8], (0.0, 1.0))),
    "categorical": lambda: CategoricalFamily(4, 5),
    "embedding": lambda: EmbeddingFamily(4, 5),
}


@pytest.mark.parametrize("kind", sorted(_INTEGRAL_FAMILIES))
def test_scaled_integral_vjps_agree_with_the_signed_log_ones(kind, rng):
    # a partition-function sweep hands an integral VJP one block under one
    # log-scale; on a non-symmetric adjoint (a squared circuit's is
    # symmetric) both slots of the matrix must still count
    fam = _INTEGRAL_FAMILIES[kind]()
    fam.reparam = "identity"  # a softmax row's integral has gradient 0
    store = _make(fam, seed=int(rng.integers(1 << 30)))
    for shape, vjp in (((4,), fam.integral_vector_vjp), ((4, 4), fam.integral_matrix_vjp)):
        adj = SignedLogTensor(rng.uniform(-3.0, 3.0, size=shape), rng.choice([-1.0, 1.0], size=shape))
        top = np.max(adj.log_magnitude)
        block = ScaledTensor(adj.sign * np.exp(adj.log_magnitude - top), np.array(top))
        store.zero_grad()
        vjp(store, adj)
        want = store.gradients.copy()
        store.zero_grad()
        vjp(store, block)
        got = store.gradients
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want), initial=0.0)
