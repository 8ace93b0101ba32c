"""Every layer output of ``engine.forward`` keeps the slog invariant.

The signed log-space kernels do not mask dead entries: they rely on
sign == 0 holding exactly where the log-magnitude is -inf, so that exp
returns 0 and + returns -inf on zeros.  This property test checks the
invariant on every layer of plain and squared circuits with Gaussian,
spline and discrete inputs, including inputs that are exactly zero, under
evidence, marginal, partition-function and cumulative (``below``) queries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq import engine
from pcsq.circuits import from_region_graph
from pcsq.families import CategoricalFamily, EmbeddingFamily, GaussianFamily, SplineFamily
from pcsq.regions import build_binary_tree, build_linear_tree
from pcsq.splines import BSplineBasis
from pcsq.squaring import square

_BASIS = BSplineBasis.uniform(2, 5, (-2.0, 2.0))

FAMILIES = {
    "gaussian": lambda k: GaussianFamily(k),
    "spline": lambda k: SplineFamily(k, _BASIS),
    "categorical": lambda k: CategoricalFamily(k, 3),
    "embedding": lambda k: EmbeddingFamily(k, 3),
}
# families whose unit k - 1 is zeroed, so it evaluates and integrates to 0
ZEROED = {"spline": "coeffs", "embedding": "values"}


def _circuit(rng, family, product, squared):
    d = int(rng.integers(1, 5))
    rg = (build_binary_tree if rng.random() < 0.5 else build_linear_tree)(d, int(rng.integers(1 << 30)))
    k = int(rng.integers(1, 4))
    c = from_region_graph(rg, k, product, lambda scope, units: FAMILIES[family](units))
    c.store.values[:] = rng.normal(size=c.store.values.size)
    c.store.bump()
    if family in ZEROED:
        for layer in c.input_layers():
            block = layer.family.blocks[ZEROED[family]]
            table = c.store.free(block).copy()
            table[-1] = 0.0
            table[rng.random(table.shape) < 0.3] = 0.0
            c.store.set_free(block, table)
    return (square(c).circuit if squared else c), d


def _evidence(rng, family, n, d):
    if family == "gaussian":
        return rng.normal(scale=3.0, size=(n, d))
    if family == "spline":
        # interior points, knots and both bounds
        pool = np.concatenate([rng.uniform(-2.0, 2.0, size=n), np.unique(_BASIS.knots)])
        return rng.choice(pool, size=(n, d))
    return rng.integers(0, 3, size=(n, d)).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    product=st.sampled_from(["hadamard", "kronecker"]),
    squared=st.booleans(),
    query=st.sampled_from(["data", "marginalized", "z", "below"]),
)
def test_every_layer_output_keeps_the_invariant(seed, family, product, squared, query):
    rng = np.random.default_rng(seed)
    circuit, d = _circuit(rng, family, product, squared)
    x = _evidence(rng, family, 9, d)
    variables = np.arange(d)
    marginalized, below = frozenset(), frozenset()
    if query == "z":
        marginalized = frozenset(range(d))
    elif query == "marginalized":
        marginalized = frozenset(int(v) for v in variables[rng.random(d) < 0.5])
    elif query == "below" and family in ("gaussian", "spline"):
        v = int(rng.integers(d))
        below = frozenset({v})
        marginalized = frozenset(int(u) for u in variables[variables > v])
    result = engine.forward(circuit, x, marginalized=marginalized, below=below)
    for layer, out in zip(circuit.layers, result.outputs):
        assert out.invariant_violations() == [], f"layer {layer.layer_id} ({layer.kind})"
    if family in ZEROED:
        # the zeroed unit reaches the input layers' outputs as exact zeros
        inputs = [result.outputs[layer.layer_id] for layer in circuit.input_layers()]
        assert any((out.sign == 0.0).any() for out in inputs)
