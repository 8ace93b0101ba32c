"""Forward/backward engine: gradients against central finite differences,
numeric-error policy, and the tape contract."""

import platform
import tracemalloc

import numpy as np
import pytest

from pcsq import engine
from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError, NumericError
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    SplineFamily,
)
from pcsq.inference import log_density, log_value, partition_function
from pcsq.learning import init_parameters
from pcsq.regions import build_binary_tree, build_linear_tree, linear_tree_from_order
from pcsq.splines import BSplineBasis
from pcsq.squaring import square


def _objective(c, sq, x):
    """mean over rows of 2 log|c(x)| minus log Z of the squared circuit."""
    root = engine.forward(c, x).root
    z = engine.forward(
        sq.circuit, None, marginalized=frozenset(range(c.variable_count))
    ).root
    return 2.0 * float(np.mean(root.log_magnitude)) - float(z.log_magnitude[0])


def _autodiff(c, sq, x):
    c.store.zero_grad()
    b = x.shape[0]
    res = engine.forward(c, x, want_tape=True)
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(b, 2.0 / b)))
    zres = engine.forward(
        sq.circuit, None, marginalized=frozenset(range(c.variable_count)), want_tape=True
    )
    engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.array([-1.0])))
    return c.store.gradients.copy()


def _finite_differences(c, sq, x, h=1e-6):
    grad = np.zeros_like(c.store.values)
    for i in range(c.store.values.size):
        keep = c.store.values[i]
        c.store.values[i] = keep + h
        c.store.bump()
        up = _objective(c, sq, x)
        c.store.values[i] = keep - h
        c.store.bump()
        down = _objective(c, sq, x)
        c.store.values[i] = keep
        c.store.bump()
        grad[i] = (up - down) / (2 * h)
    return grad


_CASES = {
    "gaussian-bt-hadamard": lambda: from_region_graph(
        build_binary_tree(4, seed=2), 3, "hadamard", lambda s, k: GaussianFamily(k)
    ),
    "gaussian-lt-kronecker": lambda: from_region_graph(
        build_linear_tree(3, 5), 2, "kronecker", lambda s, k: GaussianFamily(k)
    ),
    "spline": lambda: from_region_graph(
        linear_tree_from_order([0, 1]),
        4,
        "hadamard",
        lambda s, k: SplineFamily(k, BSplineBasis.uniform(2, 6, (-3.0, 3.0))),
    ),
    "categorical-softmax": lambda: from_region_graph(
        build_linear_tree(3, 1), 2, "hadamard", lambda s, k: CategoricalFamily(k, 4)
    ),
    "embedding": lambda: from_region_graph(
        build_linear_tree(3, 1), 2, "hadamard", lambda s, k: EmbeddingFamily(k, 3)
    ),
    "binomial": lambda: from_region_graph(
        build_binary_tree(3, 1), 2, "hadamard", lambda s, k: BinomialFamily(k, 5)
    ),
    "monotonic-exp-weights": lambda: from_region_graph(
        build_binary_tree(3, 4),
        2,
        "hadamard",
        lambda s, k: GaussianFamily(k),
        sum_reparam="exp",
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_gradients_match_finite_differences(name, rng):
    c = _CASES[name]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    sq = square(c)
    states = c.states_per_variable()
    if states[0] is None:
        x = rng.normal(size=(5, c.variable_count)).clip(-2.9, 2.9)
    else:
        x = np.column_stack(
            [rng.integers(0, states[v], size=5) for v in range(c.variable_count)]
        ).astype(float)
    auto = _autodiff(c, sq, x)
    numeric = _finite_differences(c, sq, x)
    err = np.abs(auto - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert err.max() < 1e-4, f"{name}: max rel err {err.max():.2e}"


def test_plain_objective_gradients_with_splines(rng):
    # monotonic path: log c(x) - log Z(c), exercising the integral-vector
    # VJP of spline inputs and the exp chain on coefficients
    basis = BSplineBasis.uniform(2, 6, (-2.0, 2.0))
    c = from_region_graph(
        linear_tree_from_order([0, 1]),
        3,
        "hadamard",
        lambda s, k: SplineFamily(k, basis, monotonic=True),
        sum_reparam="exp",
    )
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.4
    c.store.bump()
    x = rng.uniform(-1.9, 1.9, size=(4, 2))

    def objective():
        root = engine.forward(c, x).root
        z = engine.forward(c, None, marginalized=frozenset({0, 1})).root
        return float(np.mean(root.log_magnitude)) - float(z.log_magnitude[0])

    c.store.zero_grad()
    res = engine.forward(c, x, want_tape=True)
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(4, 0.25)))
    zres = engine.forward(c, None, marginalized=frozenset({0, 1}), want_tape=True)
    engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.array([-1.0])))
    auto = c.store.gradients.copy()

    h = 1e-6
    for i in range(c.store.values.size):
        keep = c.store.values[i]
        c.store.values[i] = keep + h
        c.store.bump()
        up = objective()
        c.store.values[i] = keep - h
        c.store.bump()
        down = objective()
        c.store.values[i] = keep
        c.store.bump()
        fd = (up - down) / (2 * h)
        assert auto[i] == pytest.approx(fd, rel=2e-4, abs=1e-8)


def test_shallow_squared_weight_gradient_analytic(rng):
    # one-variable model c(x) = w * f(x) with fixed f: d(2log|c|)/dw = 2/w
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 1, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
    c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 1.0]])
    block = c.layer(c.output_layer).param_block
    c.store.set_free(block, [[0.7]])
    c.store.zero_grad()
    res = engine.forward(c, np.array([[0.0]]), want_tape=True)
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.array([2.0])))
    assert c.store.grad_view(block)[0, 0] == pytest.approx(2.0 / 0.7, rel=1e-12)


def test_softmax_head_gradient_rows_sum_to_zero(rng):
    rg = build_linear_tree(2, 0)
    c = from_region_graph(
        rg, 3, "hadamard", lambda s, k: GaussianFamily(k), sum_reparam="softmax_row"
    )
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.4
    c.store.bump()
    c.store.zero_grad()
    x = rng.normal(size=(4, 2))
    res = engine.forward(c, x, want_tape=True)
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(4, 0.25)))
    for layer in c.sum_layers():
        np.testing.assert_allclose(
            c.store.grad_view(layer.param_block).sum(axis=-1), 0.0, atol=1e-12
        )


def test_gradient_at_exact_zero_raises(rng):
    rg = linear_tree_from_order([0])
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
    c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 0.0], [1.0, 0.0]])
    c.store.set_free(c.layer(c.output_layer).param_block, [[1.0, -1.0]])
    res = engine.forward(c, np.array([[0.0]]), want_tape=True)  # exact cancellation
    with pytest.raises(NumericError, match="row 0"):
        engine.log_grad_seed(res.root, np.array([1.0]))


def test_nan_parameters_rejected(rng):
    rg = linear_tree_from_order([0, 1])
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.values[0] = np.nan
    c.store.bump()
    with pytest.raises(Exception, match="NaN"):
        engine.forward(c, np.zeros((1, 2)))


def _taped_pass(c, squared, rng):
    """A taped data pass of ``c``, or the one-row partition-function pass of
    its square (a squared circuit's only taped pass), with a log-gradient
    seed for its root."""
    if squared:
        _, res = partition_function(square(c), want_tape=True)
        return res, engine.log_grad_seed(res.root, np.array([-1.0]))
    res = engine.forward(c, rng.normal(size=(5, c.variable_count)), want_tape=True)
    return res, engine.log_grad_seed(res.root, np.full(5, 0.2))


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_nan_in_weight_gradient_input_raises(rng, squared):
    # a NaN in the root sum layer's recorded input reaches only that
    # layer's weight gradient; backward must report it, not zero it
    rg = build_binary_tree(4, 0)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    res, seed = _taped_pass(c, squared, rng)
    graph = res.tape.circuit
    u = res.tape.outputs[graph.layer(graph.output_layer).inputs[0]]
    row = 0 if squared else 2
    assert u.sign[row, 1] != 0.0
    u.log_magnitude[row, 1] = np.nan
    with pytest.raises(NumericError, match="NaN in accumulated gradients"):
        engine.backward(res.tape, seed)


def test_data_pass_of_a_squared_circuit_is_not_taped(rng):
    # a squared circuit trains through its source (log c^2 = 2 log|c|), so
    # its own K^2-wide data pass is never taped
    c = _CASES["gaussian-bt-hadamard"]()
    x = rng.normal(size=(5, c.variable_count))
    with pytest.raises(ConfigError, match="unsquared"):
        engine.forward(square(c).circuit, x, want_tape=True)


def test_linear_and_slog_spaces_agree(rng):
    for _ in range(20):
        from conftest import random_discrete_circuit

        c, d = random_discrete_circuit(rng)
        x = rng.integers(0, 2, size=(16, d)).astype(float)
        lin = engine.forward(c, x, space="linear").root
        slog = engine.forward(c, x).root
        np.testing.assert_allclose(slog.to_linear(), lin, rtol=1e-12, atol=1e-250)


def test_marginalized_batch_broadcasts(rng):
    rg = build_linear_tree(3, 0)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: CategoricalFamily(k, 3))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    sq = square(c)
    x = np.zeros((4, 3))
    x[:, 0] = np.arange(4) % 3
    out = engine.forward(sq.circuit, x, marginalized=frozenset({1, 2})).root
    assert out.shape == (4,)
    single = engine.forward(sq.circuit, x[1:2], marginalized=frozenset({1, 2})).root
    assert out.log_magnitude[1] == pytest.approx(single.log_magnitude[0], rel=1e-14)


@pytest.mark.parametrize(
    "marginalized, rows",
    [(frozenset({0}), 1), (frozenset({0, 1}), 3)],
    ids=["partial", "everything-at-three-rows"],
)
def test_taped_pass_is_a_data_or_one_row_partition_pass(rng, marginalized, rows):
    # backward accumulates the weight gradients of constant layers over
    # their one row, so a tape is refused where the pass mixes batch widths
    rg = build_linear_tree(2, 0)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    x = rng.normal(size=(rows, 2))
    untaped = engine.forward(c, x, marginalized=marginalized).root.to_linear()
    lin = engine.forward(c, x, marginalized=marginalized, space="linear").root
    np.testing.assert_allclose(untaped, lin, rtol=1e-12)
    with pytest.raises(ConfigError):
        engine.forward(c, x, marginalized=marginalized, want_tape=True)


def _random_model(rng, product, family, squared, d):
    rg = build_binary_tree(d, int(rng.integers(1 << 30)))
    c = from_region_graph(rg, 2, product, family)
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    return square(c).circuit if squared else c


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
@pytest.mark.parametrize("product", ["hadamard", "kronecker"])
def test_root_is_linear_in_the_path_adjoint(rng, product, squared):
    # root = sum_i A_i g_i for the output g of the variable's input layer,
    # under evidence and with the variable and those after it marginalized;
    # the adjoint has one row where the path meets only constant layers
    d = 4
    graph = _random_model(rng, product, lambda s, k: EmbeddingFamily(k, 3), squared, d)
    x = rng.integers(0, 3, size=(6, d)).astype(float)
    for v in range(d):
        for marginalized in (frozenset(), frozenset(range(v, d))):
            result = engine.forward(graph, x, marginalized=marginalized, keep_outputs=True)
            layer, adj = engine.path_adjoint(graph, result.outputs, v)
            assert layer.scope == (v,)
            g = result.outputs[layer.layer_id]
            assert adj.shape[0] == (1 if marginalized and v == 0 else 6)
            terms = adj.to_linear() * g.to_linear()
            want = result.root.to_linear()
            # a dot product is accurate relative to the sum of its terms' magnitudes
            err = np.abs(np.sum(terms, axis=-1) - want)
            assert np.all(err <= 1e-12 * np.sum(np.abs(terms), axis=-1)), (v, marginalized)


def test_zero_row_batches(rng):
    graph = _random_model(rng, "hadamard", lambda s, k: GaussianFamily(k), True, 4)
    empty = np.zeros((0, 4))
    assert engine.forward(graph, empty).root.shape == (0,)
    assert engine.forward(graph, empty, marginalized={1, 2}).root.shape == (0,)
    assert engine.forward(graph, empty, marginalized=range(4)).root.shape == (0,)
    assert engine.forward(graph, empty, marginalized={1}, space="linear").root.shape == (0,)


def test_gaussian_vjp_reuses_taped_values(rng, monkeypatch):
    # the tape keeps each input layer's f(x) and z-scores, so the backward
    # pass evaluates no Gaussian again
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    x = rng.normal(size=(5, c.variable_count))
    res = engine.forward(c, x, want_tape=True)

    def evaluated(*args, **kwargs):
        raise AssertionError("backward evaluated an input layer again")

    monkeypatch.setattr(GaussianFamily, "log_eval", evaluated)
    c.store.zero_grad()
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(5, 0.2)))
    grads = c.store.gradients
    assert np.all(np.isfinite(grads)) and np.any(grads != 0.0)


def _non_root(result):
    return [out for i, out in enumerate(result.outputs) if i != result.output_layer]


@pytest.mark.parametrize("marginalized", [frozenset(), frozenset({1, 2})], ids=["data", "marg"])
def test_untaped_pass_holds_only_the_root(rng, marginalized):
    # each layer output is released once its one reader has run
    graph = _random_model(rng, "kronecker", lambda s, k: GaussianFamily(k), True, 4)
    x = rng.normal(size=(6, 4))
    res = engine.forward(graph, x, marginalized=marginalized)
    assert all(out is None for out in _non_root(res))
    kept = engine.forward(graph, x, marginalized=marginalized, keep_outputs=True)
    assert all(out is not None for out in kept.outputs)
    np.testing.assert_array_equal(res.root.log_magnitude, kept.root.log_magnitude)
    np.testing.assert_array_equal(res.root.sign, kept.root.sign)


def test_untaped_pass_peak_is_below_its_layer_outputs():
    # a pass holding every layer output would peak above their summed bytes
    c = from_region_graph(build_binary_tree(8, 0), 16, "hadamard", lambda s, k: GaussianFamily(k))
    model = square(c)
    init_parameters(model, "uniform(0,1)", 0)
    x = np.random.default_rng(0).normal(size=(2048, 8))
    kept = engine.forward(c, x, keep_outputs=True).outputs
    total = sum(out.log_magnitude.nbytes + out.sign.nbytes for out in kept)
    log_value(model, x[:1])  # caches outside the measurement
    tracemalloc.start()
    try:
        log_value(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total / 2, (peak, total)


@pytest.mark.parametrize("squared", [False, True], ids=["plain", "squared"])
def test_backward_releases_the_tape(rng, squared):
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    res, seed = _taped_pass(c, squared, rng)
    assert all(out is not None for out in res.tape.outputs) and res.tape.saved
    c.store.zero_grad()
    engine.backward(res.tape, seed)
    assert all(out is None for out in _non_root(res)) and res.tape.saved == {}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc's")
def test_a_warm_signed_log_pass_refaults_no_heap_pages(rng):
    # importing pcsq keeps freed heap pages, so a pass reuses the pages the
    # previous pass freed instead of faulting them in afresh (about 2,500
    # minor faults per call under glibc's default policy)
    resource = pytest.importorskip("resource")
    rg = build_binary_tree(8, seed=0)
    model = square(from_region_graph(rg, 16, "hadamard", lambda s, u: GaussianFamily(u)))
    init_parameters(model, "uniform(0,1)", 0)
    x = rng.normal(size=(4096, 8))
    for _ in range(2):
        log_density(model, x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        log_density(model, x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
