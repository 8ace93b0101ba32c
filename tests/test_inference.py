"""Evaluation, partition function, marginalization, and log-likelihood,
against enumeration and quadrature oracles."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from pcsq import engine, inference
from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError, DegenerateModelError, NumericError, UnsupportedStructureError
from pcsq.families import CategoricalFamily, EmbeddingFamily, GaussianFamily, SplineFamily
from pcsq.inference import (
    Query,
    evaluate,
    log_density,
    log_likelihood,
    marginal_batch,
    marginalize,
    partition_function,
    z_eval_count,
)
from pcsq.learning import init_parameters
from pcsq.reductions import PsdModel, psd_to_circuit
from pcsq.regions import build_binary_tree, build_linear_tree, linear_tree_from_order
from pcsq.splines import BSplineBasis
from pcsq.squaring import square

from conftest import enumerate_assignments, random_discrete_circuit


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _uniform_categorical_model(m=4):
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, m))
    c.store.set_free(c.input_layers()[0].family.blocks["probs"], np.zeros((1, m)))
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0]])
    return square(c)


class TestEvaluate:
    def test_uniform_squared_value(self):
        sq = _uniform_categorical_model(4)
        out = evaluate(sq, np.array([[2.0]]))
        assert out.to_linear()[0] == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_shallow_mixture_matches_direct_square(self, rng):
        # K=3 shallow subtractive mixture vs a direct linear-space oracle
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 3, "hadamard", lambda s, k: EmbeddingFamily(k, 5))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        table = c.store.effective(c.input_layers()[0].family.blocks["values"])
        w = c.store.effective(c.layer(c.output_layer).param_block)[0]
        for state in range(5):
            want = float(w @ table[:, state]) ** 2
            got = evaluate(sq, np.array([[float(state)]])).to_linear()[0]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_squared_sign_never_negative(self, rng):
        for _ in range(10):
            c, d = random_discrete_circuit(rng)
            sq = square(c)
            out = evaluate(sq, enumerate_assignments(d))
            assert np.all(out.sign >= 0.0)

    def test_monotonic_configuration_nonnegative_everywhere(self, rng):
        # exp reparameterization plus non-negative families keeps outputs >= 0
        rg = build_linear_tree(4, 7)
        c = from_region_graph(
            rg, 3, "hadamard", lambda s, k: GaussianFamily(k), sum_reparam="exp"
        )
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        out = evaluate(c, rng.normal(size=(200, 4)))
        assert np.all(out.sign >= 0.0)


class TestPartitionFunction:
    def test_uniform_categorical_z(self):
        for m in (2, 5, 8):
            sq = _uniform_categorical_model(m)
            z = partition_function(sq)
            assert z.to_linear() == pytest.approx(1.0 / m, rel=1e-12)

    def test_matches_enumeration_on_random_circuits(self, rng):
        for _ in range(10):
            c, d = random_discrete_circuit(rng, max_vars=10)
            sq = square(c)
            base = engine.forward(c, enumerate_assignments(d), space="linear").root
            z = partition_function(sq)
            assert z.to_linear() == pytest.approx(float((base**2).sum()), rel=1e-10)

    def test_cancelling_components_degenerate(self):
        # two identical standard Gaussians with weights (1, -1): c == 0
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
        c.store.set_free(c.input_layers()[0].family.blocks["mean"], [0.0, 0.0])
        c.store.set_free(c.input_layers()[0].family.blocks["std"], [0.0, 0.0])
        c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -1.0]])
        with pytest.raises(DegenerateModelError):
            partition_function(square(c))

    def test_cached_per_parameter_version(self, rng):
        c, _ = random_discrete_circuit(rng)
        sq = square(c)
        before = z_eval_count(sq)
        partition_function(sq)
        partition_function(sq)
        assert z_eval_count(sq) == before + 1
        c.store.values[0] += 0.1
        c.store.bump()
        partition_function(sq)
        assert z_eval_count(sq) == before + 2

    def test_a_taped_pass_leaves_the_cache_to_untaped_ones(self):
        # a taped pass carries scaled values, which round differently here
        # (log Z ...734 untaped, ...735 taped), so it neither fills nor
        # reads the cache: an untaped read stays the signed log-space value
        c = from_region_graph(
            build_binary_tree(4, 10), 3, "hadamard", lambda s, k: GaussianFamily(k), sum_reparam="exp"
        )
        init_parameters(c, "uniform(0,1)", seed=20)
        want = partition_function(c)
        c.store.bump()
        before = z_eval_count(c)
        partition_function(c, want_tape=True)
        got = partition_function(c)
        assert z_eval_count(c) == before + 2
        assert got.log_magnitude == want.log_magnitude and got.sign == want.sign


class TestMarginalize:
    def test_all_variables_gives_z(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        z = partition_function(sq)
        m = marginalize(sq, Query(marginalized=set(range(d))))
        assert m.log_magnitude == pytest.approx(z.log_magnitude, rel=1e-14)

    def test_no_marginals_is_evaluation(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        x = {v: float(v % 2) for v in range(d)}
        m = marginalize(sq, Query(evidence=x))
        direct = evaluate(sq, np.array([[x[v] for v in range(d)]]))
        assert m.to_linear() == pytest.approx(direct.to_linear()[0], rel=1e-12)

    def test_sum_over_states_matches_coarser_marginal(self, rng):
        for _ in range(10):
            c, d = random_discrete_circuit(rng, max_vars=8)
            sq = square(c)
            coarse = marginalize(sq, Query(marginalized=set(range(d)))).to_linear()
            total = sum(
                marginalize(
                    sq, Query(evidence={0: float(s)}, marginalized=set(range(1, d)))
                ).to_linear()
                for s in range(2)
            )
            assert total == pytest.approx(coarse, rel=1e-10)

    def test_continuous_marginal_vs_quadrature(self, rng):
        rg = linear_tree_from_order([0, 1])
        basis = BSplineBasis.uniform(2, 8, (0.0, 1.0))
        c = from_region_graph(rg, 3, "hadamard", lambda s, k: SplineFamily(k, basis))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        for x1 in np.linspace(0.05, 0.95, 7):
            got = marginalize(sq, Query(evidence={0: x1}, marginalized={1})).to_linear()
            dens = lambda t: float(evaluate(sq, np.array([[x1, t]])).to_linear()[0])
            want, _ = integrate.quad(dens, 0.0, 1.0, limit=200)
            assert got == pytest.approx(want, rel=1e-6)

    def test_normalized_marginal(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        q = Query(evidence={v: 0.0 for v in range(d)}, require_normalized=True)
        got = marginalize(sq, q).to_linear()
        z = partition_function(sq).to_linear()
        raw = evaluate(sq, np.zeros((1, d))).to_linear()[0]
        assert got == pytest.approx(raw / z, rel=1e-12)

    def test_query_validation(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        with pytest.raises(ConfigError):
            marginalize(sq, Query(evidence={0: 1.0}, marginalized={0}))
        with pytest.raises(ConfigError):
            marginalize(sq, Query(evidence={0: 1.0}))  # others unconstrained
        with pytest.raises(ConfigError):
            marginalize(sq, Query(marginalized=set(range(d + 5))))

    @pytest.mark.parametrize(
        "query",
        [Query(evidence={0.0: 1.0}), Query(evidence={0: 1.0}, marginalized={1.0})],
        ids=["float-evidence-key", "float-marginalized"],
    )
    def test_non_integer_variables_are_config_errors(self, query):
        # 0.0 == 0 passes the range check; x[0, 0.0] raised IndexError, and
        # a marginalized 1.0 was taken for variable 1
        rg = linear_tree_from_order([0, 1])
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, 2))
        with pytest.raises(ConfigError, match="query variables must be integers"):
            marginalize(c, query)

    def test_non_integer_marginalized_batch_variable_is_config_error(self, rng):
        # 1.5 matched no input layer's scope, so it was silently ignored
        c, d = random_discrete_circuit(rng)
        with pytest.raises(ConfigError, match=re.escape("must be integers, got [1.5]")):
            marginal_batch(square(c), np.zeros((2, d)), {1.5})

    def test_numpy_integer_variables_are_accepted(self, rng):
        c, d = random_discrete_circuit(rng)
        query = Query(evidence={np.int64(0): 1.0}, marginalized=set(np.arange(1, d)))
        want = marginalize(c, Query(evidence={0: 1.0}, marginalized=set(range(1, d))))
        got = marginalize(c, query)
        assert (got.log_magnitude, got.sign) == (want.log_magnitude, want.sign)

    @pytest.mark.parametrize("marg", [{99}, {-1}, {0, 99, -1}])
    def test_batch_rejects_variables_outside_the_model(self, rng, marg):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        bad = sorted(v for v in marg if not 0 <= v < d)
        with pytest.raises(ConfigError, match=re.escape(f"marginalized variables {bad} outside")):
            marginal_batch(sq, np.zeros((2, d)), marg)

    @pytest.mark.parametrize(
        "product, family",
        [
            ("hadamard", lambda s, k: GaussianFamily(k)),
            ("kronecker", lambda s, k: CategoricalFamily(k, 3)),
        ],
        ids=["hadamard-gaussian", "kronecker-categorical"],
    )
    def test_every_subset_matches_the_linear_oracle(self, rng, product, family):
        # constant layers (scope inside the marginalized set) run as one row,
        # the linear oracle at full batch width.  Non-negative parameters, as
        # the benchmark initializes them: with signed ones both routes lose
        # up to ~1e-10 to cancellation, at batch 1 or not
        d = 8
        c = from_region_graph(build_binary_tree(d, 3), 2, product, family)
        sq = square(c)
        init_parameters(sq, "uniform(0,1)", 5)
        states = c.states_per_variable()[0]
        if states is None:
            x = rng.normal(size=(5, d))
        else:
            x = rng.integers(0, states, size=(5, d)).astype(float)
        for mask in range(1 << d):
            marg = frozenset(v for v in range(d) if mask >> v & 1)
            got = marginal_batch(sq, x, marg).to_linear()
            want = engine.forward(sq.circuit, x, marginalized=marg, space="linear").root
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            outputs = engine.forward(sq.circuit, x, marginalized=marg, keep_outputs=True).outputs
            for layer, out in zip(sq.circuit.layers, outputs):
                constant = set(layer.scope) <= marg and layer.layer_id != sq.circuit.output_layer
                assert out.shape[0] == (1 if constant else 5), (sorted(marg), layer.layer_id)

    def test_empty_batch(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        assert marginal_batch(sq, np.zeros((0, d)), {d - 1}).shape == (0,)

    def test_a_long_batch_runs_in_chunks_of_rows(self):
        # a squared pass holds rows x K^2 per live layer output, so 3 chunks
        # of rows evaluated in turn peak as one chunk does, whichever
        # variables are marginalized, and give one pass's values
        c = from_region_graph(build_binary_tree(8, 0), 16, "hadamard", lambda s, k: GaussianFamily(k))
        sq = init_parameters(square(c), "uniform(0,1)", seed=0)
        rows = inference._CHUNK
        x = np.random.default_rng(0).normal(size=(3 * rows - 5, 8))
        for marg in ({0}, {0, 1, 2}, {0, 5}):
            got = marginal_batch(sq, x, marg)
            want = engine.forward(sq.circuit, x, marginalized=marg).root
            np.testing.assert_allclose(got.log_magnitude, want.log_magnitude, rtol=1e-13)
            np.testing.assert_array_equal(got.sign, want.sign)
            one = _peak(lambda: marginal_batch(sq, x[:rows], marg))
            assert _peak(lambda: marginal_batch(sq, x, marg)) < 1.25 * one, sorted(marg)


class TestPlainCircuitMarginalization:
    def test_monotonic_marginal_matches_enumeration(self, rng):
        # marginalization of a plain (unsquared) monotonic circuit uses
        # per-unit integral vectors at the input layers
        rg = build_linear_tree(3, 4)
        c = from_region_graph(
            rg, 2, "hadamard", lambda s, k: CategoricalFamily(k, 3), sum_reparam="exp"
        )
        c.store.values[:] = rng.normal(size=c.store.values.size) * 0.4
        c.store.bump()
        grid = enumerate_assignments(3, m=3)
        vals = evaluate(c, grid).to_linear()
        z = partition_function(c).to_linear()
        assert z == pytest.approx(vals.sum(), rel=1e-12)
        got = marginalize(c, Query(evidence={1: 2.0}, marginalized={0, 2})).to_linear()
        want = vals[grid[:, 1] == 2.0].sum()
        assert got == pytest.approx(want, rel=1e-12)

    def test_uniform_grid_mean_ll(self):
        # 2-variable uniform categorical over a 32x32 grid: -log(1024)
        rg = build_linear_tree(2, 0)
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, 32))
        for layer in c.input_layers():
            c.store.set_free(layer.family.blocks["probs"], np.zeros((1, 32)))
        for layer in c.sum_layers():
            c.store.set_free(layer.param_block, np.ones(c.store.free(layer.param_block).shape))
        sq = square(c)
        x = np.array([[0.0, 0.0], [31.0, 5.0], [16.0, 16.0]])
        assert log_likelihood(sq, x) == pytest.approx(-np.log(1024.0), rel=1e-12)


class TestNormalization:
    def test_discrete_density_sums_to_one(self, rng):
        for _ in range(5):
            c, d = random_discrete_circuit(rng, max_vars=8)
            sq = square(c)
            grid = enumerate_assignments(d)
            dens = np.exp(log_density(sq, grid))
            assert dens.sum() == pytest.approx(1.0, abs=1e-9)


class TestLogLikelihood:
    def test_uniform_model_ll(self):
        sq = _uniform_categorical_model(4)
        x = np.array([[0.0], [1.0], [3.0]])
        assert log_likelihood(sq, x) == pytest.approx(-np.log(4.0), rel=1e-12)

    def test_zero_rows_rejected(self):
        # the mean of no rows is undefined, not nan
        sq = _uniform_categorical_model(4)
        with pytest.raises(ConfigError, match="zero rows"):
            log_likelihood(sq, np.zeros((0, 1)))

    def test_composition_identity(self, rng):
        c, d = random_discrete_circuit(rng)
        sq = square(c)
        x = enumerate_assignments(d)[:5]
        manual = evaluate(sq, x).log_magnitude - float(partition_function(sq).log_magnitude)
        np.testing.assert_allclose(log_density(sq, x), manual, rtol=1e-10, atol=1e-12)

    def test_monotonic_squared_path_equals_direct(self, rng):
        # all-positive circuit: normalizing c^2 or c gives the same density
        # when the squared path squares both numerator and normalizer
        rg = build_linear_tree(3, 2)
        c = from_region_graph(
            rg, 2, "hadamard", lambda s, k: CategoricalFamily(k, 3), sum_reparam="exp"
        )
        c.store.values[:] = rng.normal(size=c.store.values.size) * 0.3
        c.store.bump()
        sq = square(c)
        grid = enumerate_assignments(3, m=3)
        direct = np.exp(log_density(c, grid))
        squared = np.exp(log_density(sq, grid))
        # both are normalized distributions over the grid
        assert direct.sum() == pytest.approx(1.0, abs=1e-10)
        assert squared.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_value_row_reported(self):
        # c cancels exactly at state 0 only; the failing row index surfaces
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 2.0], [1.0, 5.0]])
        c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -1.0]])
        sq = square(c)
        with pytest.raises(NumericError, match="row 1"):
            log_likelihood(sq, np.array([[1.0], [0.0]]))
        # a plain circuit with Z = 1 that is negative at state 0
        c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 2.0], [3.0, 1.0]])
        c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -0.5]])
        with pytest.raises(NumericError, match="negative at row 1"):
            log_likelihood(c, np.array([[1.0], [0.0]]))


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_far_tail_gaussian_evidence_gives_minus_inf(squared):
    # 1e200 is finite, so it passes the domain check; its z * z overflows,
    # and under the suite's warning filter the overflow raised
    rg = build_binary_tree(2, 0)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    init_parameters(c, "uniform(0,1)", 0)
    model = square(c) if squared else c
    x = np.array([[1e200, 0.0], [0.3, -0.2]])
    logs = inference.log_value(model, x)
    assert logs[0] == -np.inf
    assert logs[1] == inference.log_value(model, x[1:])[0]


def test_marginalizing_one_variable_of_a_two_dimensional_input_layer_is_refused():
    # the kernel units of a 2-d PSD model form one input layer over (0, 1):
    # its integral covers both variables, so marginalizing one is refused
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    mixture = psd_to_circuit(PsdModel(rng.normal(size=(3, 2)), 1.0, m @ m.T))
    (layer,) = mixture.components[0].circuit.input_layers()
    assert layer.scope == (0, 1)
    x = rng.normal(size=(4, 2))
    with pytest.raises(
        UnsupportedStructureError, match=f"input layer {layer.layer_id} is only partially marginalized"
    ):
        marginal_batch(mixture, x, {0})


def test_far_tail_rbf_evidence_gives_minus_inf():
    rng = np.random.default_rng(0)
    psd = PsdModel(rng.normal(size=(3, 2)), 1.0, np.eye(3))
    mixture = psd_to_circuit(psd)
    x = np.array([[1e200, 0.0], [0.1, 0.2]])
    logs = mixture.log_value(x)
    assert logs[0] == -np.inf and np.isfinite(logs[1])
    assert inference.log_value(mixture.components[0], x)[0] == -np.inf
