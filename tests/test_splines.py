"""B-spline bases: local de Boor values and exact product integrals, checked
against scipy and adaptive quadrature oracles."""

import numpy as np
import pytest
from scipy import integrate, interpolate

from pcsq.errors import ConfigError, DomainError
from pcsq.splines import BSplineBasis


def test_basis_count_matches_convention():
    # quadratic basis over 4 interior knots spans 4 + 2 + 1 = 7 functions
    basis = BSplineBasis.uniform(2, 4, (0.0, 1.0))
    assert basis.num_bases == 7
    np.testing.assert_allclose(basis.interior, [0.2, 0.4, 0.6, 0.8])


def test_partition_of_unity_and_nonnegativity(rng):
    for order in (0, 1, 2, 3):
        basis = BSplineBasis.uniform(order, 6, (-2.0, 3.0))
        x = rng.uniform(-2.0, 3.0, size=300)
        design = basis.design_matrix(x)
        assert np.all(design >= 0.0)
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)


def test_matches_scipy_design(rng):
    # random points plus every knot and both bounds, for orders 0-3 over
    # uniform and non-uniform interior knots
    interiors = (np.linspace(0.0, 4.0, 10)[1:-1], [0.05, 0.3, 1.7, 1.75, 3.2, 3.99])
    for order in (0, 1, 2, 3):
        for interior in interiors:
            basis = BSplineBasis(order, interior, (0.0, 4.0))
            x = np.concatenate([rng.uniform(0.0, 4.0, size=200), np.unique(basis.knots)])
            mine = basis.design_matrix(x)
            theirs = interpolate.BSpline.design_matrix(x, basis.knots, order).toarray()
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12)


def _dense_cox_de_boor(basis, x):
    """The textbook recursion over every knot column and degree."""
    t, k = basis.knots, basis.order
    n_cols = len(t) - 1
    values = np.zeros((x.size, n_cols))
    for j in range(n_cols):
        if t[j] < t[j + 1]:
            values[:, j] = (t[j] <= x) & (x < t[j + 1])
    values[x == basis.bounds[1], np.nonzero(np.diff(t) > 0)[0][-1]] = 1.0
    for d in range(1, k + 1):
        nxt = np.zeros((x.size, n_cols - d))
        for j in range(n_cols - d):
            left = right = 0.0
            if t[j + d] > t[j]:
                left = (x - t[j]) / (t[j + d] - t[j]) * values[:, j]
            if t[j + d + 1] > t[j + 1]:
                right = (t[j + d + 1] - x) / (t[j + d + 1] - t[j + 1]) * values[:, j + 1]
            nxt[:, j] = left + right
        values = nxt
    return values


def test_banded_evaluation_equals_dense_recursion(rng):
    # the local recursion does the dense one's arithmetic on the nonzero
    # band only, so the two agree bit for bit
    for order in (0, 1, 2, 3):
        for interior in (np.linspace(-1.0, 2.0, 7)[1:-1], [-0.9, -0.85, 0.4, 1.99], []):
            basis = BSplineBasis(order, interior, (-1.0, 2.0))
            x = np.concatenate([rng.uniform(-1.0, 2.0, size=300), np.unique(basis.knots)])
            np.testing.assert_array_equal(basis.design_matrix(x), _dense_cox_de_boor(basis, x))


def test_endpoint_membership():
    basis = BSplineBasis.uniform(2, 4, (0.0, 1.0))
    design = basis.design_matrix(np.array([0.0, 1.0]))
    np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-14)
    with pytest.raises(DomainError):
        basis.design_matrix(np.array([1.0 + 1e-9]))
    with pytest.raises(DomainError):
        basis.design_matrix(np.array([-1e-9]))


def test_nan_is_outside_the_domain():
    basis = BSplineBasis.uniform(2, 4, (0.0, 1.0))
    with pytest.raises(DomainError, match=r"value nan outside .*first bad index 1"):
        basis.design_matrix(np.array([0.5, np.nan]))


def test_basis_integrals_against_quadrature():
    basis = BSplineBasis.uniform(2, 5, (0.0, 2.0))
    exact = basis.basis_integrals()
    for j in range(basis.num_bases):
        val, _ = integrate.quad(
            lambda t, j=j: basis.design_matrix(np.array([t]))[0, j], 0.0, 2.0, limit=200
        )
        assert exact[j] == pytest.approx(val, rel=1e-9, abs=1e-12)


def test_gram_against_adaptive_simpson(rng):
    basis = BSplineBasis.uniform(2, 6, (-1.0, 1.0))
    gram = basis.gram_matrix()
    assert np.allclose(gram, gram.T)
    pairs = [(0, 0), (1, 3), (2, 2), (4, 7), (basis.num_bases - 1, basis.num_bases - 1)]
    for a, b in pairs:
        def product(t):
            row = basis.design_matrix(np.atleast_1d(t))
            return row[:, a] * row[:, b]

        # adaptive Simpson via scipy's quadrature on each knot span
        edges = np.unique(basis.knots)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(lambda t: float(product(t)[0]), lo, hi, limit=100)
            total += val
        assert gram[a, b] == pytest.approx(total, rel=1e-10, abs=1e-14)


def test_hat_function_self_integral():
    # order-1 basis: interior hat of height 1 and support width 2h integrates
    # its square to 2h/3
    basis = BSplineBasis.uniform(1, 9, (0.0, 1.0))
    h = 0.1
    gram = basis.gram_matrix()
    interior = 4
    assert gram[interior, interior] == pytest.approx(2 * h / 3, rel=1e-12)


def test_bad_configurations_rejected():
    with pytest.raises(ConfigError):
        BSplineBasis(2, [0.5, 0.4], (0.0, 1.0))  # not increasing
    with pytest.raises(ConfigError):
        BSplineBasis(2, [0.0, 0.5], (0.0, 1.0))  # touches the boundary
    with pytest.raises(ConfigError):
        BSplineBasis(2, [], (1.0, 1.0))  # empty interval
