"""Forward/backward engine: gradients against central finite differences,
numeric-error policy, and the tape contract."""

import platform
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from pcsq import engine
from pcsq.circuits import SUM, from_region_graph
from pcsq.errors import ConfigError, NumericError
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    SplineFamily,
)
from pcsq.inference import (
    log_density,
    log_likelihood,
    log_value,
    marginal_batch,
    partition_function,
)
from pcsq.learning import init_parameters
from pcsq.regions import build_binary_tree, build_linear_tree, linear_tree_from_order
from pcsq.slog import OutOfScaledRange
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
    # layer's weight gradient; backward must report it, not zero it, and a
    # scaled tape (a data pass or the partition-function pass) must not
    # rerun in signed log-space over it
    rg = build_binary_tree(4, 0)
    c = from_region_graph(rg, 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    res, seed = _taped_pass(c, squared, rng)
    graph = res.tape.circuit
    u = res.tape.outputs[graph.layer(graph.output_layer).inputs[0]]
    row = 0 if squared else 2  # a partition-function pass has one row
    assert u.values[row, 1] != 0.0
    u.values[row, 1] = np.nan
    with pytest.raises(NumericError, match="NaN in accumulated gradients"):
        engine.backward(res.tape, seed)


def _signed_log_only(*args):
    raise OutOfScaledRange


def _watch_trips(monkeypatch, name):
    """The calls of engine.<name> that raise OutOfScaledRange, as a list
    that fills while the test runs."""
    trips = []
    scaled = getattr(engine, name)

    def watched(*args):
        try:
            return scaled(*args)
        except OutOfScaledRange:
            trips.append(args)
            raise

    monkeypatch.setattr(engine, name, watched)
    return trips


def _one_taped_pass(c, x, coeff, seed=None):
    """Root log-values and store gradients of one taped data pass of ``c``,
    seeded with ``coeff`` or, if given, with ``seed``."""
    c.store.zero_grad()
    res = engine.forward(c, x, want_tape=True)
    if seed is None:
        seed = engine.log_grad_seed(res.root, coeff)
    engine.backward(res.tape, seed)
    return res.root.log_magnitude, c.store.gradients.copy()


def test_a_data_pass_out_of_scaled_range_reruns_in_signed_log_space(monkeypatch):
    # c(x) = 0.5 f0(x0) g0(x1) + 0.5 f1(x0) g1(x1) with means (0, 100) and
    # (100, 0), std 1: at x = (0, 0) each product is one density at its mean
    # times one 100 stds out, so the scaled product row underflows to 0 and
    # the root sum's renormalization trips
    c = from_region_graph(linear_tree_from_order([0, 1]), 2, "hadamard", lambda s, k: GaussianFamily(k))
    first, second = c.input_layers()
    c.store.set_free(first.family.blocks["mean"], [0.0, 100.0])
    c.store.set_free(second.family.blocks["mean"], [100.0, 0.0])
    c.store.set_free(c.layer(c.output_layer).param_block, [[0.5, 0.5]])
    x = np.zeros((1, 2))
    trips = _watch_trips(monkeypatch, "_forward_scaled")
    root, got = _one_taped_pass(c, x, np.array([2.0]))
    assert len(trips) == 1
    assert root[0] == pytest.approx(-5001.84, abs=0.005)
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    want_root, want = _one_taped_pass(c, x, np.array([2.0]))
    np.testing.assert_array_equal(root, want_root)
    assert np.any(want != 0.0)
    np.testing.assert_array_equal(got, want)  # counted once, nothing from the attempt


def test_a_backward_sweep_out_of_scaled_range_reruns_in_signed_log_space(rng, monkeypatch):
    # two equal rows whose seeds differ by a factor 1e-305: the root's
    # weight-gradient row weights span more than 700 nats, so the scaled
    # sweep trips after the forward pass took the scaled path; none of its
    # gradients may reach the store
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    x = np.repeat(rng.normal(size=(1, c.variable_count)), 2, axis=0)
    res = engine.forward(c, x, want_tape=True)
    assert res.tape.evidence is not None  # the scaled forward pass held
    seed = engine.log_grad_seed(res.root, np.array([1.0, 1e-305]))
    trips = _watch_trips(monkeypatch, "_backward_scaled")
    _, got = _one_taped_pass(c, x, None, seed)
    assert len(trips) == 1
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    _, want = _one_taped_pass(c, x, None, seed)
    assert np.any(want != 0.0)
    np.testing.assert_array_equal(got, want)


def _one_taped_z_pass(sq):
    """log Z and store gradients of one taped partition-function pass of
    the squared circuit ``sq``, seeded as a training step seeds it."""
    sq.store.zero_grad()
    z, res = partition_function(sq, want_tape=True)
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.array([-1.0])))
    return z.log_magnitude, sq.store.gradients.copy()


def _tiny_root_weights():
    """A squared 4-variable K = 2 Gaussian circuit whose root weights are
    scaled by 1e-200: the root's W X W^T is about 1e-400 X, which
    underflows to 0 in the scaled pass, so its renormalization trips; in
    signed log-space log Z is -926.56, while a plain linear pass gives
    Z = 0."""
    c = from_region_graph(build_binary_tree(4, 0), 2, "hadamard", lambda s, k: GaussianFamily(k))
    sq = init_parameters(square(c), "uniform(0,1)", seed=1)
    block = c.layer(c.output_layer).param_block
    c.store.set_free(block, c.store.free(block) * 1e-200)
    assert engine.forward(sq.circuit, None, range(4), space="linear").root[0] == 0.0
    return sq


def test_a_partition_function_pass_out_of_scaled_range_reruns_in_signed_log_space(monkeypatch):
    sq = _tiny_root_weights()
    trips = _watch_trips(monkeypatch, "_forward_scaled")
    log_z, got = _one_taped_z_pass(sq)
    assert len(trips) == 1
    assert log_z == pytest.approx(-926.56, abs=0.005)
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    want_log_z, want = _one_taped_z_pass(sq)
    assert log_z == want_log_z
    assert np.any(want != 0.0)
    np.testing.assert_array_equal(got, want)


def test_untaped_passes_out_of_scaled_range_rerun_in_signed_log_space(monkeypatch):
    # the untaped Z pass trips once and gives the signed log-space bits,
    # which log_density then reads from the cache (its data pass, on the
    # source, does not trip); a marginal of the squared circuit trips too
    sq = _tiny_root_weights()
    x = np.random.default_rng(0).normal(size=(5, 4))
    trips = _watch_trips(monkeypatch, "_forward_scaled")
    log_z = partition_function(sq)
    assert len(trips) == 1
    assert float(log_z.log_magnitude) == pytest.approx(-926.56, abs=0.005)
    density = log_density(sq, x)
    logs = log_value(sq, x)
    assert len(trips) == 1
    marginal = marginal_batch(sq, x, {1, 2})
    assert len(trips) == 2
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    sq.store.bump()
    want_z = partition_function(sq)
    assert (log_z.log_magnitude, log_z.sign) == (want_z.log_magnitude, want_z.sign)
    np.testing.assert_array_equal(density, logs - want_z.log_magnitude)
    want = marginal_batch(sq, x, {1, 2})
    np.testing.assert_array_equal(marginal.log_magnitude, want.log_magnitude)
    np.testing.assert_array_equal(marginal.sign, want.sign)


def test_a_marginal_row_that_cancels_exactly_is_an_exact_zero(monkeypatch):
    # c = 0.5 f0(x0) g0(x1) - 0.5 f1(x0) g1(x1), f0 and f1 unit Gaussians
    # with means -1 and 1, each g integrating to 1: with x1 marginalized the
    # row x0 = 0 cancels exactly, which trips the scaled pass, and the
    # signed log-space rerun returns it as (-inf, 0)
    c = from_region_graph(linear_tree_from_order([0, 1]), 2, "hadamard", lambda s, k: GaussianFamily(k))
    first = c.input_layers()[0]
    assert first.scope == (0,)
    c.store.set_free(first.family.blocks["mean"], [-1.0, 1.0])
    c.store.set_free(c.layer(c.output_layer).param_block, [[0.5, -0.5]])
    trips = _watch_trips(monkeypatch, "_forward_scaled")
    got = marginal_batch(c, np.array([[0.0, 0.0], [0.5, 0.0]]), {1})
    assert len(trips) == 1
    assert (got.log_magnitude[0], got.sign[0]) == (-np.inf, 0.0)
    assert np.isfinite(got.log_magnitude[1]) and got.sign[1] == -1.0


def test_a_marginal_whose_evidence_squares_below_the_scaled_range_stays_scaled(monkeypatch):
    # x0 and x1 meet at the bottom of the chain (2, 3, 0, 1), with tables
    # f(0) = (1, 1e-200) and g(0) = (1e-200, 1): the Hadamard product of the
    # evidence is (1e-200, 1e-200), which the sum above it renormalizes at
    # width K, while its square (f g)(f g)^T, 1e-400 in every entry,
    # underflows to 0 and trips that sum's guard.  With x2 and x3
    # marginalized the square is formed only where the chain meets x3
    c = from_region_graph(
        linear_tree_from_order([2, 3, 0, 1]), 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2)
    )
    sq = init_parameters(square(c), "uniform(0,1)", seed=3)
    tables = {layer.scope: layer.family.blocks["values"] for layer in c.input_layers()}
    c.store.set_free(tables[(0,)], [[1.0, 0.5], [1e-200, 0.5]])
    c.store.set_free(tables[(1,)], [[1e-200, 0.5], [1.0, 0.5]])
    c.store.bump()
    x = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    trips = _watch_trips(monkeypatch, "_forward_scaled")
    got = marginal_batch(sq, x, {2, 3})
    assert trips == []
    assert got.log_magnitude[0] < -700.0 and np.all(got.sign == 1.0)
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    want = marginal_batch(sq, x, {2, 3})
    np.testing.assert_array_equal(got.sign, want.sign)
    # the values underflow in linear space: relative error as a log difference
    assert np.max(np.abs(got.log_magnitude - want.log_magnitude)) <= 1e-12


def _layer_shapes(monkeypatch):
    """The shape of each layer's output as the forward rules return it, by
    layer id, filled while the test runs (a later pass overwrites)."""
    shapes = {}

    def watch(name, layer_id):
        rule = getattr(engine, name)

        def watched(*args):
            out = rule(*args)
            shapes[layer_id(args)] = out.shape
            return out

        monkeypatch.setattr(engine, name, watched)

    watch("_input", lambda args: args[1].layer_id)
    watch("_sum", lambda args: args[4])  # the walk passes the layer id
    watch("_product", lambda args: args[0].layer_id)
    return shapes


@pytest.mark.parametrize("product", ["hadamard", "kronecker"])
@pytest.mark.parametrize("tree", ["bt", "lt"])
def test_evidence_only_layers_of_a_squared_marginal_run_at_source_width(
    rng, monkeypatch, tree, product
):
    # a squared layer whose scope is all evidence holds s s^T for the output
    # s of its source layer: a pass that marginalizes something carries s at
    # width K and widens it where a reader's scope is partly marginalized; a
    # layer whose scope is all marginalized is one row, and Z passes and
    # full-evidence passes keep K^2 at every layer
    d, rows = 5, 3
    rg = build_binary_tree(d, 2) if tree == "bt" else build_linear_tree(d, 2)
    c = from_region_graph(rg, 3, product, lambda s, k: GaussianFamily(k))
    sq = init_parameters(square(c), "normal(0,1)", seed=4)
    graph, root = sq.circuit, sq.circuit.output_layer
    x = rng.normal(size=(rows, d))
    shapes = _layer_shapes(monkeypatch)

    def expected(marginalized, batch):
        want = {}
        for layer in graph.layers:
            narrow = marginalized and marginalized.isdisjoint(layer.scope)
            width = c.layer(layer.layer_id).output_width if narrow else layer.output_width
            want[layer.layer_id] = (1 if set(layer.scope) <= marginalized else batch, width)
        return want

    def kept(marginalized, evidence):
        outputs = engine.forward(graph, evidence, marginalized, keep_outputs=True).outputs
        return {i: out.shape for i, out in enumerate(outputs) if i != root}

    conditionals = [frozenset(range(v, d)) for v in range(1, d)]  # the sampler's
    for marginalized in [frozenset({0}), frozenset({1, 3}), frozenset()] + conditionals:
        want = expected(marginalized, rows)
        assert any(w[1] == 3 for w in want.values()) == bool(marginalized)
        shapes.clear()
        marginal_batch(sq, x, marginalized)
        assert shapes == want, sorted(marginalized)
        assert kept(marginalized, x) == {i: w for i, w in want.items() if i != root}
    everything = frozenset(range(d))
    want = expected(everything, 1)
    assert all(w == (1, layer.output_width) for w, layer in zip(want.values(), graph.layers))
    shapes.clear()
    partition_function(sq)
    assert shapes == want
    assert kept(everything, None) == {i: w for i, w in want.items() if i != root}


@pytest.mark.parametrize("product", ["hadamard", "kronecker"])
@pytest.mark.parametrize("family", ["gaussian", "categorical"])
def test_taped_and_untaped_partition_functions_agree_bitwise(family, product):
    if family == "gaussian":
        factory = lambda s, k: GaussianFamily(k)
    else:
        factory = lambda s, k: CategoricalFamily(k, 3)
    c = from_region_graph(build_binary_tree(4, 1), 3, product, factory)
    sq = init_parameters(square(c), "normal(0,1)", seed=2)
    taped, _ = partition_function(sq, want_tape=True)
    untaped = partition_function(sq)  # a taped pass leaves the cache empty
    assert (taped.log_magnitude, taped.sign) == (untaped.log_magnitude, untaped.sign)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("query", ["validation", "marginal"])
def test_an_untaped_scaled_pass_peaks_no_higher_than_a_signed_log_pass(monkeypatch, query):
    # a 1024-row validation pass and a 256-row marginal of a d = 8, K = 16
    # squared Gaussian circuit; input values are exponentiated in the
    # arrays log_eval returned rather than in copies
    c = from_region_graph(build_binary_tree(8, 3), 16, "hadamard", lambda s, k: GaussianFamily(k))
    model = init_parameters(square(c), "uniform(0,1)", seed=3)
    x = np.random.default_rng(3).normal(size=(1024, 8))
    if query == "validation":
        run = lambda: log_likelihood(model, x)
    else:
        run = lambda: marginal_batch(model, x[:256], {0, 3})
    run()  # caches outside the measurements
    scaled = _peak(run)
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    assert scaled <= _peak(run)


def test_untaped_passes_leave_the_cached_integrals_unwritten(rng):
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    sq = square(c)
    x = rng.normal(size=(3, c.variable_count))
    everything = range(c.variable_count)
    for graph in (c, sq.circuit):
        engine.forward(graph, None, everything)  # fills the cache
        cache = graph._integral_cache
        before = {key: entry[1].copy() for key, entry in cache.items()}
        engine.forward(graph, None, everything)
        engine.forward(graph, x, {0, 2})
        assert cache.keys() == before.keys()
        for key, (_, value) in cache.items():
            assert not value.log_magnitude.flags.writeable
            np.testing.assert_array_equal(value.log_magnitude, before[key].log_magnitude)
            np.testing.assert_array_equal(value.sign, before[key].sign)


def test_a_partition_function_sweep_that_trips_reruns_the_z_pass(rng, monkeypatch):
    # a guard that trips in the scaled sweep of a Z tape reruns the Z pass,
    # with every variable marginalized, and its sweep in signed log-space
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    sq = square(c)
    _, res = partition_function(sq, want_tape=True)
    assert res.tape.evidence is not None  # the scaled forward pass held
    monkeypatch.setattr(engine, "_backward_scaled", _signed_log_only)
    sq.store.zero_grad()
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.array([-1.0])))
    got = sq.store.gradients.copy()
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    _, want = _one_taped_z_pass(sq)
    assert np.any(want != 0.0)
    np.testing.assert_array_equal(got, want)


def test_a_sweep_that_fails_partway_leaves_the_store_unchanged(rng, monkeypatch):
    # a NaN in one recorded factor of the root's product reaches the other
    # factor's adjoint, so the signed log-space sum layer below raises after
    # the root's weight gradient was computed; none of it may reach the store
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    c = from_region_graph(build_binary_tree(4, 0), 2, "hadamard", lambda s, k: GaussianFamily(k))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    c.store.zero_grad()
    res = engine.forward(c, rng.normal(size=(3, 4)), want_tape=True)
    assert res.tape.evidence is None  # a signed log-space tape
    first, second = c.layer(c.layer(c.output_layer).inputs[0]).inputs
    assert c.layer(second).kind == SUM
    res.tape.outputs[first].log_magnitude[0, 1] = np.nan
    with pytest.raises(NumericError):
        engine.backward(res.tape, engine.log_grad_seed(res.root, np.ones(3)))
    assert np.all(c.store.gradients == 0.0)


def test_an_empty_batch_gives_zero_gradients(rng):
    # a taped data pass over no rows, and a Z pass seeded with a zero
    # coefficient (a mixture component whose share is 0), both on the
    # scaled path, leave every gradient 0
    c = _CASES["gaussian-bt-hadamard"]()
    c.store.values[:] = rng.normal(size=c.store.values.size) * 0.6 + 0.3
    c.store.bump()
    c.store.zero_grad()
    res = engine.forward(c, np.zeros((0, c.variable_count)), want_tape=True)
    assert res.root.shape == (0,) and res.tape.evidence is not None
    engine.backward(res.tape, engine.log_grad_seed(res.root, np.zeros(0)))
    _, zres = partition_function(square(c), want_tape=True)
    assert zres.tape.evidence is not None
    engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.zeros(1)))
    assert np.all(c.store.gradients == 0.0)


def test_data_pass_of_a_squared_circuit_is_not_taped(rng):
    # a squared circuit trains through its source (log c^2 = 2 log|c|), so
    # its own K^2-wide data pass is never taped
    c = _CASES["gaussian-bt-hadamard"]()
    x = rng.normal(size=(5, c.variable_count))
    with pytest.raises(ConfigError, match="unsquared"):
        engine.forward(square(c).circuit, x, want_tape=True)


def test_an_unknown_space_is_refused(rng):
    c = _CASES["gaussian-bt-hadamard"]()
    with pytest.raises(ConfigError, match="bogus"):
        engine.forward(c, rng.normal(size=(2, c.variable_count)), space="bogus")


def test_a_linear_pass_is_not_taped(rng):
    c = _CASES["gaussian-bt-hadamard"]()
    with pytest.raises(ConfigError, match="linear"):
        engine.forward(c, rng.normal(size=(2, c.variable_count)), space="linear", want_tape=True)


@pytest.mark.parametrize("shape", [(1, 3, 4), (2, 4, 4)])
def test_evidence_of_more_than_two_dimensions_is_refused(rng, shape):
    c = from_region_graph(build_binary_tree(4, 0), 2, "hadamard", lambda s, k: GaussianFamily(k))
    model = init_parameters(square(c), "uniform(0,1)", seed=0)
    with pytest.raises(NumericError, match=re.escape(str(shape))):
        log_density(model, rng.normal(size=shape))


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


def test_adjoints_run_their_layers_forward_rules(rng, monkeypatch):
    # a sum layer's input adjoint is _sum on W^T, in a scaled Z sweep over
    # squared sums too, and a Hadamard adjoint is _product on the output
    # adjoint and the other factor, scaled in the sweep and in signed
    # log-space along path_adjoint's path
    d = 4
    c = from_region_graph(build_binary_tree(d, 1), 3, "hadamard", lambda s, k: GaussianFamily(k))
    sq = init_parameters(square(c), "normal(0,1)", seed=2)
    graph = sq.circuit
    calls = []
    sum_rule, product_rule = engine._sum, engine._product

    def spy_sum(weights, x, squared, *args):
        calls.append(("sum", type(x).__name__, squared))
        return sum_rule(weights, x, squared, *args)

    def spy_product(layer, a, b):
        calls.append(("product", type(a).__name__, layer.squared))
        return product_rule(layer, a, b)

    _, zres = partition_function(sq, want_tape=True)
    seed = engine.log_grad_seed(zres.root, -np.ones(zres.root.shape))
    monkeypatch.setattr(engine, "_sum", spy_sum)
    monkeypatch.setattr(engine, "_product", spy_product)
    engine.backward(zres.tape, seed)
    # once per sum layer, and once per factor of every product layer
    kinds = [layer.kind for layer in graph.layers]
    sums, products = kinds.count(SUM), kinds.count("hadamard")
    assert sorted(calls) == sorted(
        [("sum", "ScaledTensor", True)] * sums + [("product", "ScaledTensor", True)] * 2 * products
    )
    x = rng.normal(size=(5, d))
    for v in range(d):
        outputs = engine.forward(graph, x, frozenset(range(v, d)), keep_outputs=True).outputs
        path, layer = [], graph.layer(graph.output_layer)
        while layer.kind != "input":
            path.append(layer)
            layer = graph.layer(next(j for j in layer.inputs if v in graph.layer(j).scope))
        calls.clear()
        engine.path_adjoint(graph, outputs, v)
        want = [
            ("sum" if layer.kind == SUM else "product", "SignedLogTensor", True) for layer in path
        ]
        assert calls == want, v


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
    # each layer output is released once its one reader has run; releasing
    # changes no bit of the scaled pass, and the signed log-space pass that
    # keeps its outputs for path_adjoint rounds differently
    graph = _random_model(rng, "kronecker", lambda s, k: GaussianFamily(k), True, 4)
    x = rng.normal(size=(6, 4))
    res = engine.forward(graph, x, marginalized=marginalized)
    assert all(out is None for out in _non_root(res))
    scaled = engine._forward_scaled(graph, x, marginalized, 6, want_tape=True)
    assert all(out is not None for out in scaled.outputs)
    np.testing.assert_array_equal(res.root.log_magnitude, scaled.root.log_magnitude)
    np.testing.assert_array_equal(res.root.sign, scaled.root.sign)
    kept = engine.forward(graph, x, marginalized=marginalized, keep_outputs=True)
    assert all(out is not None for out in kept.outputs)
    np.testing.assert_allclose(res.root.log_magnitude, kept.root.log_magnitude, rtol=1e-13)
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


def _memory(array):
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("marginalized", [frozenset(), frozenset({0})], ids=["data", "marg"])
def test_an_untaped_scaled_pass_frees_outputs_once_read(monkeypatch, marginalized):
    # a weak reference to the memory of each sum layer's output: when a later
    # sum layer renormalizes, nothing may hold an output whose reader has run
    c = from_region_graph(build_binary_tree(4, 0), 2, "kronecker", lambda s, k: GaussianFamily(k))
    graph = init_parameters(square(c), "uniform(0,1)", seed=0).circuit
    sums = [layer for layer in graph.layers if layer.kind == SUM]
    reader = {j: layer.layer_id for layer in graph.layers for j in layer.inputs}
    refs, freed = {}, []
    renormalized = engine.renormalized

    def watched(raw, log_scale):
        layer = sums[len(refs)]
        freed.extend(ref() is None for j, ref in refs.items() if reader[j] < layer.layer_id)
        out = renormalized(raw, log_scale)
        refs[layer.layer_id] = weakref.ref(_memory(out.values))
        return out

    monkeypatch.setattr(engine, "renormalized", watched)
    engine.forward(graph, np.random.default_rng(0).normal(size=(8, 4)), marginalized)
    assert len(refs) == len(sums)  # every sum layer ran on the scaled path
    assert freed and all(freed)


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
