"""Exact sampling: frequencies, joint TV distance, continuous moments."""

import numpy as np
import pytest
from scipy import integrate, stats

from pcsq.circuits import from_region_graph
from pcsq.families import CategoricalFamily, EmbeddingFamily, GaussianFamily
from pcsq.inference import log_density, marginal_batch, partition_function, sample
from pcsq.regions import build_linear_tree, linear_tree_from_order
from pcsq.squaring import square

from conftest import enumerate_assignments


def test_uniform_categorical_frequencies():
    m = 5
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, m))
    c.store.set_free(c.input_layers()[0].family.blocks["probs"], np.zeros((1, m)))
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0]])
    sq = square(c)
    n = 100_000
    draws = sample(sq, n, seed=7)[:, 0]
    counts = np.bincount(draws.astype(int), minlength=m)
    p = 1.0 / m
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 4 * sigma)


def test_two_variable_joint_tv_distance(rng):
    rg = build_linear_tree(2, 3)
    c = from_region_graph(rg, 3, "hadamard", lambda s, k: EmbeddingFamily(k, 4))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    sq = square(c)
    grid = enumerate_assignments(2, m=4)
    pmf = np.exp(log_density(sq, grid))
    n = 100_000
    draws = sample(sq, n, seed=11)
    idx = (draws[:, 0] * 4 + draws[:, 1]).astype(int)
    freq = np.bincount(idx, minlength=16) / n
    tv = 0.5 * np.abs(freq - pmf).sum()
    assert tv < 0.01


def test_continuous_gaussian_unit_mean():
    # single squared Gaussian: density proportional to N(x; mu, s)^2, again a
    # Gaussian with the same mean, so the sample mean has a closed-form target
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 1, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.set_free(c.input_layers()[0].family.blocks["mean"], [0.8])
    c.store.set_free(c.input_layers()[0].family.blocks["std"], [np.log(1.3)])
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0]])
    sq = square(c)
    z = partition_function(sq).to_linear()

    # quadrature oracle for the first two moments of the normalized density
    dens = lambda t: stats.norm.pdf(t, 0.8, 1.3) ** 2 / z
    mean, _ = integrate.quad(lambda t: t * dens(t), -np.inf, np.inf)
    var, _ = integrate.quad(lambda t: (t - mean) ** 2 * dens(t), -np.inf, np.inf)
    n = 2000
    draws = sample(sq, n, seed=5)[:, 0]
    assert abs(draws.mean() - mean) < 4 * np.sqrt(var / n)


def test_chi_square_goodness_of_fit(rng):
    rg = build_linear_tree(2, 1)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3))
    c.store.values[:] = rng.normal(size=c.store.values.size) + 0.5
    c.store.bump()
    sq = square(c)
    grid = enumerate_assignments(2, m=3)
    pmf = np.exp(log_density(sq, grid))
    n = 50_000
    draws = sample(sq, n, seed=2)
    idx = (draws[:, 0] * 3 + draws[:, 1]).astype(int)
    counts = np.bincount(idx, minlength=9)
    stat = ((counts - n * pmf) ** 2 / (n * pmf)).sum()
    p_value = stats.chi2.sf(stat, df=8)
    assert p_value > 0.001


def _bimodal_gaussian():
    # subtractive two-Gaussian model: its squared density is bimodal
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.set_free(c.input_layers()[0].family.blocks["mean"], [-1.2, 1.2])
    c.store.set_free(c.input_layers()[0].family.blocks["std"], [0.0, 0.0])
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -1.0]])
    return c, square(c)


def test_continuous_multimodal_ks(rng):
    # the inverse-CDF sampler must reproduce the bimodal distribution function
    c, sq = _bimodal_gaussian()
    z = partition_function(sq).to_linear()

    def cdf(ts):
        out = []
        for t in np.atleast_1d(ts):
            val, _ = integrate.quad(
                lambda s: (stats.norm.pdf(s, -1.2, 1.0) - stats.norm.pdf(s, 1.2, 1.0)) ** 2 / z,
                -np.inf,
                t,
                limit=200,
            )
            out.append(val)
        return np.array(out)

    draws = sample(sq, 400, seed=21)[:, 0]
    result = stats.kstest(draws, cdf)
    assert result.pvalue > 0.01, result


def test_continuous_cdf_inverted_to_1e9():
    # each draw must sit where the exact CDF reaches the draw's uniform, to
    # the sampler's 1e-9 stopping rule plus the quadrature oracle's own error
    c, sq = _bimodal_gaussian()
    z = partition_function(sq).to_linear()
    lo, _ = c.input_layers()[0].family.sample_bracket(c.store)
    n = 300  # more than one 256-row chunk
    draws = sample(sq, n, seed=21)[:, 0]
    uniforms = np.random.default_rng(21).random(n)
    dens = lambda s: (stats.norm.pdf(s, -1.2, 1.0) - stats.norm.pdf(s, 1.2, 1.0)) ** 2 / z
    cdf = np.array(
        [integrate.quad(dens, lo, t, epsabs=1e-14, epsrel=1e-13, limit=200)[0] for t in draws]
    )
    assert np.max(np.abs(cdf - uniforms)) <= 1.1e-9


def test_mixed_model_beyond_one_chunk_matches_per_row_oracle():
    # a continuous variable before a discrete one: 300 rows split into two
    # continuous chunks, and their 300 distinct prefixes into two discrete
    # ones; unit k peaks at x0 = 2k - 2 and favours state k, so variable 1's
    # conditional moves with the prefix
    rg = linear_tree_from_order([0, 1])
    factory = lambda s, k: GaussianFamily(k) if s[0] == 0 else CategoricalFamily(k, 4)
    c = from_region_graph(rg, 3, "hadamard", factory)
    gauss, cat = sorted(c.input_layers(), key=lambda layer: layer.scope[0])
    c.store.set_free(gauss.family.blocks["mean"], [-2.0, 0.0, 2.0])
    c.store.set_free(gauss.family.blocks["std"], [0.0, 0.0, 0.0])
    c.store.set_free(cat.family.blocks["probs"], 2.0 * np.eye(3, 4) + [0.0, 0.0, 0.0, 1.0])
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -0.5, 1.0]])
    sq = square(c)
    n = 300
    draws = sample(sq, n, seed=8)
    assert np.unique(draws[:, 0]).size == n
    assert np.all(np.bincount(draws[:, 1].astype(int), minlength=4) > 10)
    uniforms = np.random.default_rng(8).random(2 * n)[n:]  # after variable 0's
    for i in range(n):
        x = np.tile(draws[i], (4, 1))
        x[:, 1] = np.arange(4)
        vals = marginal_batch(sq, x, ())
        pmf = np.where(vals.sign > 0.0, np.exp(vals.log_magnitude - vals.log_magnitude.max()), 0.0)
        state = np.searchsorted(np.cumsum(pmf / pmf.sum()), uniforms[i], side="right")
        assert draws[i, 1] == state, i


def test_sampling_determinism(rng):
    rg = build_linear_tree(2, 1)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: CategoricalFamily(k, 4))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    sq = square(c)
    a = sample(sq, 200, seed=9)
    b = sample(sq, 200, seed=9)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample(sq, 200, seed=10))
