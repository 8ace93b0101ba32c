"""Exact sampling: frequencies, joint TV distance, continuous moments."""

import numpy as np
import pytest
from scipy import integrate, stats

from pcsq import engine
from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    SplineFamily,
)
from pcsq.inference import log_density, marginal_batch, partition_function, sample
from pcsq.learning import init_parameters
from pcsq.reductions import PsdModel, psd_to_circuit
from pcsq.regions import build_linear_tree, linear_tree_from_order
from pcsq.splines import BSplineBasis
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


def _chi_square_p_value(rng, factory):
    # draws over two 3-state variables against the exact squared PMF
    rg = build_linear_tree(2, 1)
    c = from_region_graph(rg, 2, "hadamard", factory)
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
    return stats.chi2.sf(stat, df=8)


def test_chi_square_goodness_of_fit(rng):
    assert _chi_square_p_value(rng, lambda s, k: EmbeddingFamily(k, 3)) > 0.001


def test_binomial_chi_square_goodness_of_fit(rng):
    # sampled through the Binomial value table over {0, 1, 2}
    assert _chi_square_p_value(rng, lambda s, k: BinomialFamily(k, 2)) > 0.001


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


def _plain_gaussian_mixture():
    # an unsquared (monotonic) circuit: the sampler integrates its plain
    # input layer up to each midpoint
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    fam = c.input_layers()[0].family
    c.store.set_free(fam.blocks["mean"], [-1.0, 2.0])
    c.store.set_free(fam.blocks["std"], [0.0, np.log(0.5)])
    c.store.set_free(c.layer(c.output_layer).param_block, [[0.3, 0.7]])
    return c


def _squared_spline_pair():
    basis = BSplineBasis.uniform(2, 6, (-2.0, 2.0))
    rg = linear_tree_from_order([0, 1])
    c = from_region_graph(rg, 3, "hadamard", lambda s, k: SplineFamily(k, basis))
    c.store.values[:] = np.random.default_rng(3).normal(size=c.store.values.size)
    c.store.bump()
    return square(c)


def _squared_rbf_component():
    # one squared 1-d kernel component of a PSD-model reduction
    anchors = np.array([[-1.0], [0.2], [1.1], [2.0]])
    m = np.random.default_rng(4).normal(size=(4, 4))
    return psd_to_circuit(PsdModel(anchors, 0.7, m @ m.T)).components[0]


# model builder, draws, seed
CDF_CASES = {
    "bimodal-gaussian": (lambda: _bimodal_gaussian()[1], 300, 21),  # beyond one 256-row chunk
    "plain-gaussian-mixture": (_plain_gaussian_mixture, 64, 3),
    "squared-spline-2d": (_squared_spline_pair, 48, 5),
    "squared-rbf-component": (_squared_rbf_component, 64, 6),
}


@pytest.mark.parametrize("case", list(CDF_CASES))
def test_continuous_cdf_inverted_to_1e9(case):
    # each draw must sit where its exact conditional CDF reaches the draw's
    # uniform, to the sampler's 1e-9 stopping rule plus the oracle's own
    # error; the oracle integrates pointwise conditional densities (later
    # variables marginalized) with adaptive quadrature, knot span by span
    build, n, seed = CDF_CASES[case]
    model = build()
    draws = sample(model, n, seed=seed)
    d = draws.shape[1]
    uniforms = np.random.default_rng(seed).random(d * n).reshape(d, n)  # column by column
    graph = getattr(model, "source", model)
    for v in range(d):
        fam = next(layer.family for layer in graph.input_layers() if v in layer.scope)
        lo, hi = fam.sample_bracket(model.store)
        breaks = np.unique(fam.basis.knots) if isinstance(fam, SplineFamily) else []

        def cdf_integral(density, t):
            edges = [lo, *(e for e in breaks if lo < e < t), t]
            return sum(
                integrate.quad(density, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:])
            )

        masses = {}  # per distinct prefix
        for i in range(n):
            x = draws[i : i + 1].copy()

            def density(s):
                x[0, v] = s
                return float(marginal_batch(model, x, range(v + 1, d)).to_linear()[0])

            prefix = tuple(draws[i, :v])
            if prefix not in masses:
                masses[prefix] = cdf_integral(density, hi)
            cdf = cdf_integral(density, draws[i, v]) / masses[prefix]
            assert abs(cdf - uniforms[v, i]) <= 1.1e-9, (v, i)


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


@pytest.mark.parametrize("case", ["squared-spline-2d", "mixed-continuous-discrete"])
def test_one_forward_pass_per_variable_per_chunk(monkeypatch, case):
    # 300 rows make two 256-row chunks for each continuous column, and 300
    # distinct prefixes two chunks for the discrete one; bisection and PMF
    # enumeration run no circuit pass.  With nothing before variable 0,
    # its pass has only constant layers: one row each, and its root is the
    # root of a Z pass that keeps its outputs, bit for bit
    if case == "squared-spline-2d":
        sq = _squared_spline_pair()
    else:
        rg = linear_tree_from_order([0, 1])
        factory = lambda s, k: GaussianFamily(k) if s[0] == 0 else CategoricalFamily(k, 4)
        c = from_region_graph(rg, 3, "hadamard", factory)
        c.store.values[:] = np.random.default_rng(6).normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
    z = partition_function(sq)  # cached before counting
    passes = []
    original = engine.forward

    def counted(circuit, x=None, marginalized=frozenset(), **kwargs):
        result = original(circuit, x, marginalized, **kwargs)
        passes.append((frozenset(marginalized), result))
        return result

    monkeypatch.setattr(engine, "forward", counted)
    sample(sq, 300, seed=4)
    assert [sorted(m) for m, _ in passes] == [[0, 1], [0, 1], [1], [1]]
    kept_z = original(sq.circuit, None, range(sq.circuit.variable_count), keep_outputs=True).root
    assert kept_z.shape == (1,)
    for _, result in passes[:2]:
        constant = [out for i, out in enumerate(result.outputs) if i != result.output_layer]
        assert all(out.shape[0] == 1 for out in constant)
        np.testing.assert_array_equal(result.root.log_magnitude, kept_z.log_magnitude[0])
        np.testing.assert_array_equal(result.root.sign, kept_z.sign[0])
        # the cached Z comes from the scaled pass, which rounds on its own
        np.testing.assert_allclose(result.root.log_magnitude, z.log_magnitude, rtol=1e-13)


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


@pytest.mark.parametrize("n", [2.5, 2.0, "3"])
def test_non_integer_draw_count_is_config_error(n):
    rg = linear_tree_from_order([0])
    c = square(from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, 2)))
    mixture = psd_to_circuit(PsdModel(np.zeros((1, 1)), 1.0, np.eye(1)))
    for model in (c, mixture):
        with pytest.raises(ConfigError, match="must be an integer"):
            sample(model, n)


def test_numpy_integer_draw_count_is_accepted():
    rg = linear_tree_from_order([0])
    c = square(from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, 2)))
    init_parameters(c, "uniform(0,1)", 0)
    np.testing.assert_array_equal(sample(c, np.int64(4), seed=1), sample(c, 4, seed=1))
