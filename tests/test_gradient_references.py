"""The one gradient routine against the per-kind routines it replaced.

``learning._accumulate_gradients`` trains a single circuit as the
one-component case of a mixture, and runs one taped data pass per
component.  Its responsibilities are then exactly 1 for a single circuit
and its seeds equal the old ``2/b``, ``1/b`` and ``-1``, so the store
gradients must not move by a bit: the old squared, plain and mixture
branches are kept here as references and compared with exact equality.
The mixture branch follows the routine in two respects: it takes its
log-values from its taped data passes, whose scaled values round
differently from an untaped pass, and its weights' free gradient is
r - rho.  Mixture gradients, which no other test checks, are also held
against central finite differences (acceptance criterion 8's method),
and the scaled taped passes against the signed log-space ones.  The
mixtures above mix a binary and a linear tree, so they take the
per-component loop; a mixture whose components share one layer tree
runs one stacked pass instead, and its step is held against the loop's.
"""

import numpy as np
import pytest

from pcsq import engine, inference, learning
from pcsq.circuits import StackedCircuit, TensorizedCircuit, from_region_graph
from pcsq.errors import ConfigError, NumericError
from pcsq.families import (
    BinomialFamily,
    CategoricalFamily,
    EmbeddingFamily,
    GaussianFamily,
    RbfKernelFamily,
    SplineFamily,
)
from pcsq.learning import _accumulate_gradients, _stores, init_parameters
from pcsq.mixtures import CircuitMixture
from pcsq.regions import build_binary_tree, build_linear_tree
from pcsq.slog import OutOfScaledRange, log_weighted_sum
from pcsq.splines import BSplineBasis
from pcsq.squaring import SquaredCircuit, square

# --- references: the per-kind routines, as they were -------------------------


def _ref_accumulate_gradients(model, x):
    b = x.shape[0]
    if isinstance(model, SquaredCircuit):
        res = engine.forward(model.source, x, want_tape=True)
        engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(b, 2.0 / b)))
        _, zres = inference.partition_function(model, want_tape=True)
        engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.array([-1.0])))
    elif isinstance(model, TensorizedCircuit):
        res = engine.forward(model, x, want_tape=True)
        if np.any(res.root.sign <= 0.0):
            row = int(np.argmax(res.root.sign <= 0.0))
            raise NumericError(f"model value not positive at batch row {row}")
        engine.backward(res.tape, engine.log_grad_seed(res.root, np.full(b, 1.0 / b)))
        _, zres = inference.partition_function(model, want_tape=True)
        engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.array([-1.0])))
    elif isinstance(model, CircuitMixture):
        _ref_accumulate_mixture_gradients(model, x)
    else:
        raise ConfigError(f"cannot train a {type(model).__name__}")


def _ref_component_log_values(model, results):
    cols = []
    for c, res in zip(model.components, results):
        if isinstance(c, SquaredCircuit):
            cols.append(2.0 * res.root.log_magnitude)
        else:
            val = res.root
            if np.any(val.sign < 0.0):
                raise NumericError("monotonic mixture component produced a negative value")
            cols.append(val.log_magnitude)
    return np.stack(cols, axis=-1)


def _ref_accumulate_mixture_gradients(model, x):
    b = x.shape[0]
    lam = model.weights()
    # the log-values come from the taped data passes, as in the routine: a
    # taped pass carries scaled values, so its roots may differ in the last
    # bits from an untaped pass's
    graphs = [c.source if isinstance(c, SquaredCircuit) else c for c in model.components]
    results = [engine.forward(graph, x, want_tape=True) for graph in graphs]
    logs = _ref_component_log_values(model, results)  # (b, k)
    with np.errstate(divide="ignore"):
        shifted = logs + np.log(lam)[None, :]
    shifted -= shifted.max(axis=1, keepdims=True)
    resp = np.exp(shifted)
    resp /= resp.sum(axis=1, keepdims=True)

    # one taped Z per component serves both rho and the Z backward pass
    zs = [inference.partition_function(comp, want_tape=True) for comp in model.components]
    logz = np.array([float(z.log_magnitude) for z, _ in zs])
    with np.errstate(divide="ignore"):
        zsh = logz + np.log(lam)
    zsh -= zsh.max()
    rho = np.exp(zsh)
    rho /= rho.sum()

    scale = 2.0 if isinstance(model.components[0], SquaredCircuit) else 1.0
    for i, res in enumerate(results):
        coeff = scale * resp[:, i] / b
        engine.backward(res.tape, engine.log_grad_seed(res.root, coeff))
        zres = zs[i][1]
        engine.backward(zres.tape, engine.log_grad_seed(zres.root, np.array([-rho[i]])))
    # the weights are exp(theta): d/dtheta is r - rho, with no /lam * lam
    model.store.grad_view(model.weight_block)[:] += resp.mean(axis=0) - rho


# --- models -------------------------------------------------------------------

FAMILIES = ["spline", "gaussian", "categorical"]
KINDS = ["squared-mixture", "monotonic-mixture", "squared", "monotonic"]


def _inputs(family, monotonic, rng, d=4, b=12):
    if family == "spline":
        basis = BSplineBasis.uniform(2, 6, (-3.0, 3.0))
        return (
            lambda s, k: SplineFamily(k, basis, monotonic=monotonic),
            rng.uniform(-2.9, 2.9, size=(b, d)),
        )
    if family == "gaussian":
        return lambda s, k: GaussianFamily(k), rng.normal(size=(b, d))
    if family == "binomial":
        return lambda s, k: BinomialFamily(k, 5), rng.integers(0, 6, size=(b, d)).astype(float)
    table = EmbeddingFamily if family == "embedding" else CategoricalFamily
    return lambda s, k: table(k, 4), rng.integers(0, 4, size=(b, d)).astype(float)


def _model(kind, family, rng, d=4, product="hadamard"):
    monotonic = kind.startswith("monotonic")
    factory, x = _inputs(family, monotonic, rng, d)
    comps = []
    for i in range(2 if kind.endswith("mixture") else 1):
        build = build_binary_tree if i == 0 else build_linear_tree
        c = from_region_graph(
            build(d, 10 + i), 3, product, factory, sum_reparam="exp" if monotonic else "identity"
        )
        init_parameters(c, "uniform(0,1)" if monotonic else "normal(0.3,0.5)", seed=20 + i)
        comps.append(c if monotonic else square(c))
    if len(comps) == 1:
        return comps[0], x
    mix = CircuitMixture.from_components(comps, learnable=True)
    mix.store.set_free(mix.weight_block, rng.normal(size=2))
    return mix, x


def _gradients(model, accumulate, x):
    stores = _stores(model)
    for s in stores:
        s.zero_grad()
    accumulate(model, x)
    return [s.gradients.copy() for s in stores]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS)
def test_store_gradients_equal_the_per_kind_routines(kind, family, rng):
    model, x = _model(kind, family, rng)
    want = _gradients(model, _ref_accumulate_gradients, x)
    got = _gradients(model, _accumulate_gradients, x)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.any(g != 0.0)
        np.testing.assert_array_equal(g, w)


def _signed_log_only(*args):
    raise OutOfScaledRange


def _taped_log_zs(model):
    comps = model.components if isinstance(model, CircuitMixture) else [model]
    return np.array([float(inference.partition_function(c, want_tape=True)[0].log_magnitude) for c in comps])


@pytest.mark.parametrize(
    "family,product",
    [
        pytest.param(f, p, id=f if p == "hadamard" else f"{f}-{p}")
        for f, p in [(f, "hadamard") for f in FAMILIES]
        + [("gaussian", "kronecker"), ("embedding", "hadamard"), ("embedding", "kronecker")]
        + [("binomial", "hadamard"), ("binomial", "kronecker")]
    ],
)
@pytest.mark.parametrize("kind", KINDS)
def test_scaled_gradients_agree_with_the_signed_log_path(kind, family, product, rng, monkeypatch):
    # taped data and partition-function passes carry scaled values; forcing
    # every one of them onto the signed log-space path moves each store's
    # gradients, and log Z, by rounding only (a squared Kronecker layer's
    # interleaved product and its adjoint included)
    model, x = _model(kind, family, rng, product=product)
    got = _gradients(model, _accumulate_gradients, x)
    got_log_zs = _taped_log_zs(model)
    monkeypatch.setattr(engine, "_forward_scaled", _signed_log_only)
    want = _gradients(model, _accumulate_gradients, x)
    want_log_zs = _taped_log_zs(model)
    for g, w in zip(got, want):
        assert np.any(w != 0.0)
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    np.testing.assert_allclose(got_log_zs, want_log_zs, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", ["squared-mixture", "monotonic-mixture"])
def test_mixture_weight_gradient_is_the_share_gap(kind):
    # the weights are exp(theta), so the free gradient is r - rho exactly,
    # with no division by the weights and multiplication back; r and rho
    # come from taped passes, as in the routine, since a taped pass carries
    # scaled values and may round differently from an untaped one
    for draw in range(10):
        rng = np.random.default_rng(draw)
        model, x = _model(kind, "gaussian", rng)
        lam = model.weights()
        logs = np.stack(
            [inference.log_value(c, x, want_tape=True)[0] for c in model.components], axis=-1
        )
        resp = log_weighted_sum(lam, logs)[1]
        rho = log_weighted_sum(lam, _taped_log_zs(model))[1]
        _gradients(model, _accumulate_gradients, x)
        np.testing.assert_array_equal(model.store.grad_view(model.weight_block), resp.mean(0) - rho)


def test_one_data_pass_and_one_fresh_z_per_component(rng, monkeypatch):
    model, x = _model("squared-mixture", "gaussian", rng)
    passes = {"data": 0, "z": 0}
    original = engine.forward

    def counted(circuit, x=None, marginalized=frozenset(), **kwargs):
        if not marginalized and not kwargs.get("below"):
            passes["data"] += 1
        elif len(marginalized) == circuit.variable_count:
            passes["z"] += 1
        return original(circuit, x, marginalized, **kwargs)

    monkeypatch.setattr(engine, "forward", counted)
    before = [inference.z_eval_count(c) for c in model.components]
    _gradients(model, _accumulate_gradients, x)
    assert passes == {"data": 2, "z": 2}
    assert [inference.z_eval_count(c) - n for c, n in zip(model.components, before)] == [1, 1]


# --- mixtures whose components share one layer tree --------------------------


def _matching_mixture(kind, family, rng, seeds, d=4, build=build_binary_tree, product="hadamard"):
    """A mixture of one component per region-graph seed, each drawn with its
    own parameters; with equal seeds, or seeds that only reorder factors,
    the components' layers pair up."""
    monotonic = kind == "monotonic"
    factory, x = _inputs(family, monotonic, rng, d)
    comps = []
    for i, seed in enumerate(seeds):
        c = from_region_graph(
            build(d, seed), 3, product, factory, sum_reparam="exp" if monotonic else "identity"
        )
        init_parameters(c, "uniform(0,1)" if monotonic else "normal(0.3,0.5)", seed=20 + i)
        comps.append(c if monotonic else square(c))
    mix = CircuitMixture.from_components(comps, learnable=True)
    mix.store.set_free(mix.weight_block, rng.normal(size=len(comps)))
    return mix, x


def _per_component(monkeypatch):
    """Make every mixture take the per-component loop."""
    monkeypatch.setattr(learning, "_stacked", lambda mixture: None)


def _step(model, x):
    for s in _stores(model):
        s.zero_grad()
    ll = _accumulate_gradients(model, x)
    return ll, [s.gradients.copy() for s in _stores(model)]


# (region-graph builder, variables, component seeds): equal binary trees, and
# 2-variable linear trees whose Hadamard factors come in the other order for
# seeds 3 and 4 than for seed 2
STACKED_TREES = {
    "bt-C2": (build_binary_tree, 4, [10, 10]),
    "bt-C3": (build_binary_tree, 4, [10, 10, 10]),
    "lt-swapped-C2": (build_linear_tree, 2, [2, 3]),
    "lt-swapped-C3": (build_linear_tree, 2, [2, 3, 4]),
}


@pytest.mark.parametrize(
    "tree,product",
    [(t, "hadamard") for t in STACKED_TREES] + [("bt-C2", "kronecker"), ("bt-C3", "kronecker")],
)
@pytest.mark.parametrize("kind", ["squared", "monotonic"])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_stacked_step_agrees_with_the_per_component_step(family, kind, tree, product, monkeypatch):
    build, d, seeds = STACKED_TREES[tree]
    model, x = _matching_mixture(kind, family, np.random.default_rng(7), seeds, d, build, product)
    assert learning._stacked(model) is not None
    ll, got = _step(model, x)
    _per_component(monkeypatch)
    want_ll, want = _step(model, x)
    assert ll == pytest.approx(want_ll, rel=1e-13, abs=0.0)
    assert len(got) == len(seeds) + 1  # the mixture weights, then each component
    for g, w in zip(got, want):
        assert np.any(w != 0.0)
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_a_stacked_step_runs_one_data_pass_and_one_z_pass(rng, monkeypatch):
    model, x = _matching_mixture("squared", "gaussian", rng, [10, 10, 10])
    passes = {"data": 0, "z": 0}
    original = engine.forward

    def counted(circuit, x=None, marginalized=frozenset(), **kwargs):
        assert isinstance(circuit, StackedCircuit)
        passes["z" if marginalized else "data"] += 1
        return original(circuit, x, marginalized, **kwargs)

    monkeypatch.setattr(engine, "forward", counted)
    before = [inference.z_eval_count(c) for c in model.components]
    _step(model, x)
    assert passes == {"data": 1, "z": 1}
    assert [inference.z_eval_count(c) - n for c, n in zip(model.components, before)] == [1, 1, 1]


@pytest.mark.parametrize("tiny", [[0], [0, 1]], ids=["one-tiny-component", "two-tiny-components"])
def test_a_stacked_step_out_of_scaled_range_reruns_per_component(tiny, monkeypatch):
    # a component whose root weights are scaled by 1e-200 has a squared Z
    # pass that underflows in scaled values: the stacked attempt is
    # abandoned, and the loop reruns that component's Z pass in signed
    # log-space.  Next to a component of ordinary size, a tiny one has
    # responsibilities and Z share 0, so neither it nor the weights get a
    # gradient
    comps = []
    for seed in (1, 2):
        c = from_region_graph(build_binary_tree(4, 0), 2, "hadamard", lambda s, k: GaussianFamily(k))
        comps.append(init_parameters(square(c), "uniform(0,1)", seed=seed))
    for i in tiny:
        source = comps[i].source
        block = source.layer(source.output_layer).param_block
        source.store.set_free(block, source.store.free(block) * 1e-200)
    model = CircuitMixture.from_components(comps, learnable=True)
    x = np.random.default_rng(0).normal(size=(8, 4))
    abandoned = []
    scaled = engine._forward_scaled

    def watched(circuit, *args):
        try:
            return scaled(circuit, *args)
        except OutOfScaledRange:
            abandoned.append(isinstance(circuit, StackedCircuit))
            raise

    monkeypatch.setattr(engine, "_forward_scaled", watched)
    before = [inference.z_eval_count(c) for c in comps]
    ll, got = _step(model, x)
    assert abandoned == [True] + [False] * len(tiny)  # the stack's Z pass, then each tiny one's
    assert [inference.z_eval_count(c) - n for c, n in zip(comps, before)] == [1, 1]
    _per_component(monkeypatch)
    want_ll, want = _step(model, x)
    assert ll == want_ll
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.any(w != 0.0) == (len(tiny) == 2 or (i > 0 and i - 1 not in tiny))
        np.testing.assert_array_equal(g, w)


def _family_mixture(factories, seeds=(10, 10), build=build_binary_tree, product="hadamard", k=3):
    comps = [
        from_region_graph(build(4, seed), k, product, factory)
        for seed, factory in zip(seeds, factories)
    ]
    return CircuitMixture.from_components([square(c) for c in comps])


def _spline(knots):
    return lambda s, k: SplineFamily(k, BSplineBasis.uniform(2, knots, (-3.0, 3.0)))


def _gaussian(s, k):
    return GaussianFamily(k)


@pytest.mark.parametrize(
    "path,model",
    [
        ("stack", lambda: _family_mixture([_gaussian] * 2)),
        ("stack", lambda: _family_mixture([_gaussian] * 2, product="kronecker")),
        ("stack", lambda: _family_mixture([_spline(6)] * 3, seeds=(4, 4, 4))),
        ("stack", lambda: _family_mixture([_gaussian] * 2, seeds=(2, 3), build=build_linear_tree)),
        ("loop", lambda: _family_mixture([_gaussian], seeds=(10,))),
        ("loop", lambda: _family_mixture([_gaussian] * 2, seeds=(10, 11))),
        ("loop", lambda: _family_mixture([_gaussian] * 2, seeds=(2, 3), build=build_linear_tree, product="kronecker")),
        ("loop", lambda: _family_mixture([_spline(6), _spline(7)])),
        ("loop", lambda: _family_mixture([_gaussian, lambda s, k: CategoricalFamily(k, 4)])),
        ("loop", lambda: _family_mixture([lambda s, k: BinomialFamily(k, 5)] * 2)),
        ("loop", lambda: _family_mixture([lambda s, k: RbfKernelFamily([[0.0], [1.0], [2.0]], 1.0)] * 2, k=3)),
    ],
    ids=[
        "equal-trees",
        "equal-kronecker-trees",
        "three-spline-components",
        "swapped-hadamard-factors",
        "one-component",
        "different-trees",
        "swapped-kronecker-factors",
        "different-knots",
        "different-families",
        "binomial-without-stacked-methods",
        "rbf-without-stacked-methods",
    ],
)
def test_each_mixture_takes_the_stack_or_the_loop(path, model):
    mixture = model()
    stack = learning._stacked(mixture)
    assert (stack is not None) == (path == "stack")
    if stack is not None:
        assert stack.circuit.components == mixture.components


@pytest.mark.parametrize("kind", ["squared-mixture", "monotonic-mixture"])
def test_mixture_gradients_match_finite_differences(kind, rng):
    model, x = _model(kind, "categorical", rng, d=3)
    auto = _gradients(model, _accumulate_gradients, x)  # mixture.weights first
    h = 1e-6
    for store, grads in zip(_stores(model), auto):
        for i in range(store.values.size):
            keep = store.values[i]
            store.values[i] = keep + h
            store.bump()
            up = inference.log_likelihood(model, x)
            store.values[i] = keep - h
            store.bump()
            down = inference.log_likelihood(model, x)
            store.values[i] = keep
            store.bump()
            fd = (up - down) / (2 * h)
            rel = abs(grads[i] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, f"{kind} parameter {i}: autodiff {grads[i]}, fd {fd}"


@pytest.mark.parametrize("squared", [True, False], ids=["squared", "monotonic"])
def test_row_where_every_component_is_zero_is_named(squared, rng):
    # state 1 of variable 0 has an all-zero embedding column in every component
    comps = []
    for seed in (0, 1):
        c = from_region_graph(
            build_linear_tree(2, seed),
            2,
            "hadamard",
            lambda s, k: EmbeddingFamily(k, 2),
            sum_reparam="identity" if squared else "exp",
        )
        c.store.values[:] = np.abs(rng.normal(size=c.store.values.size)) + 0.1
        block = next(l for l in c.input_layers() if l.scope == (0,)).family.blocks["values"]
        table = c.store.free(block).copy()
        table[:, 1] = 0.0
        c.store.set_free(block, table)
        comps.append(square(c) if squared else c)
    mix = CircuitMixture.from_components(comps)
    x = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="row 2"):
        _accumulate_gradients(mix, x)
    with pytest.raises(NumericError, match="row 2"):
        _accumulate_gradients(comps[0], x)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["squared", "monotonic"])
def test_a_circuit_trains_as_its_one_component_mixture(kind, family, rng):
    circuit, x = _model(kind, family, rng)
    other, _ = _model(kind, family, rng)
    init_parameters(other, "uniform(0.5,1)", seed=99)
    one = CircuitMixture.from_components([circuit], weights=[1.0], learnable=False)
    # a fixed zero weight leaves its component responsibility 0 and share 0
    dropped = CircuitMixture.from_components([other, circuit], weights=[0.0, 1.0], learnable=False)
    runs = []
    for model in (circuit, one, dropped):
        for s in _stores(model):
            s.zero_grad()
        ll = _accumulate_gradients(model, x)
        runs.append((ll, circuit.store.gradients.copy()))
    for ll, grads in runs[1:]:
        assert ll == runs[0][0]
        np.testing.assert_array_equal(grads, runs[0][1])
    np.testing.assert_array_equal(dropped.store.gradients, [0.0, 0.0])
