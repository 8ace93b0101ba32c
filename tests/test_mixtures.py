"""Monotonic mixtures of circuits: evaluation, normalization, training."""

import numpy as np
import pytest

from pcsq.circuits import from_region_graph
from pcsq.data import Column, Dataset
from pcsq.errors import ConfigError, DegenerateModelError, NumericError
from pcsq.families import CategoricalFamily, EmbeddingFamily
from pcsq import engine, inference
from pcsq.inference import Query, marginalize, partition_function, sample
from pcsq.learning import TrainConfig, init_parameters, train
from pcsq.mixtures import CircuitMixture
from pcsq.regions import build_linear_tree
from pcsq.squaring import square

from conftest import enumerate_assignments


def _component(rng, seed, d=3, m=2):
    rg = build_linear_tree(d, seed)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, m))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    return square(c)


def test_mixture_value_matches_manual_combination(rng):
    comps = [_component(rng, s) for s in range(3)]
    weights = np.array([0.2, 0.5, 0.3])
    mix = CircuitMixture.from_components(comps, weights=weights, learnable=False)
    grid = enumerate_assignments(3)
    manual = np.zeros(len(grid))
    for w, comp in zip(weights, comps):
        from pcsq.inference import evaluate

        manual += w * evaluate(comp, grid).to_linear()
    np.testing.assert_allclose(np.exp(mix.log_value(grid)), manual, rtol=1e-10)


def test_mixture_partition_is_weighted_sum(rng):
    comps = [_component(rng, s) for s in range(2)]
    mix = CircuitMixture.from_components(comps, weights=[0.7, 0.3], learnable=False)
    want = 0.7 * partition_function(comps[0]).to_linear() + 0.3 * partition_function(
        comps[1]
    ).to_linear()
    assert np.exp(mix.partition()) == pytest.approx(want, rel=1e-12)


def test_mixture_density_normalizes(rng):
    comps = [_component(rng, s) for s in range(2)]
    mix = CircuitMixture.from_components(comps, learnable=True)
    grid = enumerate_assignments(3)
    assert np.exp(mix.log_density(grid)).sum() == pytest.approx(1.0, abs=1e-10)


def test_mixture_requires_matching_components(rng):
    a = _component(rng, 0, d=3)
    b = _component(rng, 1, d=4)
    with pytest.raises(ConfigError):
        CircuitMixture.from_components([a, b])


def test_mixture_training_improves_likelihood(rng):
    rows = np.concatenate(
        [rng.integers(0, 2, size=(300, 3)), np.tile([[1, 0, 1]], (300, 1))]
    ).astype(float)
    rng.shuffle(rows)
    ds = Dataset(
        [Column(f"x{j}", "discrete", 2) for j in range(3)],
        rows,
        {
            "train": np.arange(480),
            "val": np.arange(480, 540),
            "test": np.arange(540, 600),
        },
    )
    comps = [_component(rng, s) for s in range(2)]
    mix = CircuitMixture.from_components(comps, learnable=True)
    init_parameters(mix, "uniform(0,1)", seed=0)
    before = mix.log_likelihood(ds.split("val"))
    train(mix, ds, TrainConfig(batch_size=96, learning_rate=0.05, max_epochs=8, patience=8, seed=0))
    after = mix.log_likelihood(ds.split("val"))
    assert after > before


def test_inference_queries_delegate_to_the_mixture(rng):
    comps = [_component(rng, s, d=2) for s in range(2)]
    mix = CircuitMixture.from_components(comps, weights=[0.4, 0.6], learnable=False)
    grid = enumerate_assignments(2)
    np.testing.assert_array_equal(inference.log_density(mix, grid), mix.log_density(grid))
    assert inference.log_likelihood(mix, grid) == mix.log_likelihood(grid)
    np.testing.assert_array_equal(inference.sample(mix, 50, seed=3), mix.sample(50, seed=3))


@pytest.mark.parametrize("marginalized", [{0}, {1, 3}, {0, 1, 2, 3}])
def test_mixture_marginal_is_the_weighted_sum_of_component_marginals(marginalized):
    # squared categorical components with non-negative parameters, so no sum
    # cancels and both float64 routes stay within a few ulps per layer
    comps = []
    for seed in range(2):
        c = from_region_graph(
            build_linear_tree(4, seed), 2, "hadamard", lambda s, k: CategoricalFamily(k, 3)
        )
        comps.append(square(c))
        init_parameters(comps[-1], "uniform(0,1)", seed)
    weights = np.array([0.3, 0.7])
    mix = CircuitMixture.from_components(comps, weights=weights, learnable=False)
    x = enumerate_assignments(4, 3)
    got = inference.marginal_batch(mix, x, marginalized)
    assert got.shape == (len(x),)
    parts = [inference.marginal_batch(c, x, marginalized).to_linear() for c in comps]
    linear = [
        engine.forward(c.circuit, x, marginalized=frozenset(marginalized), space="linear").root
        for c in comps
    ]
    np.testing.assert_allclose(got.to_linear(), weights @ np.stack(parts), rtol=1e-12)
    np.testing.assert_allclose(got.to_linear(), weights @ np.stack(linear), rtol=1e-12)
    if len(marginalized) == 4:
        np.testing.assert_allclose(got.to_linear(), np.exp(mix.partition()), rtol=1e-12)


@pytest.mark.parametrize(
    "weights, learnable, index",
    [
        ([-1.0, 2.0], True, 0),  # log of a negative weight is NaN
        ([1.0, 0.0], True, 1),  # log 0 = -inf, a free value no step can move
        ([1.0, np.inf], True, 1),
        ([0.5, -0.5], False, 1),
        ([np.nan, 1.0], False, 0),
        ([1.0, np.inf], False, 1),
    ],
)
def test_unrepresentable_weights_are_config_errors(rng, weights, learnable, index):
    comps = [_component(rng, s) for s in range(2)]
    with pytest.raises(ConfigError, match=f"mixture weight {index} is"):
        CircuitMixture.from_components(comps, weights=weights, learnable=learnable)


def test_fixed_zero_weight_drops_its_component(rng):
    comps = [_component(rng, s) for s in range(2)]
    mix = CircuitMixture.from_components(comps, weights=[0.0, 1.0], learnable=False)
    x = enumerate_assignments(3)
    np.testing.assert_array_equal(mix.log_value(x), inference.log_value(comps[1], x))
    assert mix.partition() == float(partition_function(comps[1]).log_magnitude)
    nothing = CircuitMixture.from_components(comps, weights=[0.0, 0.0], learnable=False)
    for query in (nothing.partition, lambda: nothing.sample(5)):
        with pytest.raises(DegenerateModelError, match="normalizer is zero"):
            query()


def test_marginalize_is_the_one_row_marginal_batch_of_a_mixture(rng):
    comps = [_component(rng, s) for s in range(2)]
    mix = CircuitMixture.from_components(comps, weights=[0.4, 0.6], learnable=False)
    want = inference.marginal_batch(mix, np.array([[1.0, 0.0, 0.0]]), {1, 2})
    got = marginalize(mix, Query(evidence={0: 1.0}, marginalized={1, 2}))
    assert got.shape == ()
    assert got.log_magnitude == want.log_magnitude[0] and got.sign == want.sign[0]
    query = Query(evidence={0: 1.0}, marginalized={1, 2}, require_normalized=True)
    normalized = marginalize(mix, query)
    assert normalized.log_magnitude == want.log_magnitude[0] - mix.partition()
    total = marginalize(mix, Query(marginalized={0, 1, 2}, require_normalized=True))
    assert total.log_magnitude == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError, match="unconstrained"):
        marginalize(mix, Query(evidence={0: 1.0}))
    with pytest.raises(ConfigError, match="overlap"):
        marginalize(mix, Query(evidence={0: 1.0}, marginalized={0, 1, 2}))


def test_mixture_log_likelihood_of_zero_rows_is_config_error(rng):
    mix = CircuitMixture.from_components([_component(rng, s) for s in range(2)])
    with pytest.raises(ConfigError, match="zero rows"):
        mix.log_likelihood(np.zeros((0, 3)))


@pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
def test_log_density_names_a_row_where_the_model_is_zero(rng, mixture):
    # state 1 of variable 0 has an all-zero embedding column in both
    # components, so every component is 0 on rows with x0 = 1
    comps = []
    for seed in (0, 1):
        rg = build_linear_tree(2, seed)
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.values[:] = np.abs(rng.normal(size=c.store.values.size)) + 0.1
        block = next(l for l in c.input_layers() if l.scope == (0,)).family.blocks["values"]
        table = c.store.free(block).copy()
        table[:, 1] = 0.0
        c.store.set_free(block, table)
        comps.append(square(c))
    model = CircuitMixture.from_components(comps) if mixture else comps[0]
    x = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="row 2"):
        inference.log_density(model, x)
    assert np.all(np.isfinite(inference.log_density(model, x[[0, 1, 3]])))


def test_mixture_sampling_matches_density(rng):
    comps = [_component(rng, s, d=2) for s in range(2)]
    mix = CircuitMixture.from_components(comps, weights=[0.4, 0.6], learnable=False)
    draws = mix.sample(30_000, seed=4)
    grid = enumerate_assignments(2)
    pmf = np.exp(mix.log_density(grid))
    idx = (draws[:, 0] * 2 + draws[:, 1]).astype(int)
    freq = np.bincount(idx, minlength=4) / draws.shape[0]
    assert 0.5 * np.abs(freq - pmf).sum() < 0.02


@pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
@pytest.mark.parametrize("n", [-3, -1, 0])
def test_draw_counts(rng, n, mixture):
    comps = [_component(rng, s, d=2) for s in range(2)]
    model = CircuitMixture.from_components(comps) if mixture else comps[0]
    draw = model.sample if mixture else lambda k, seed: sample(model, k, seed=seed)
    if n < 0:
        with pytest.raises(ConfigError):
            draw(n, seed=1)
    else:
        assert draw(n, seed=1).shape == (0, 2)
