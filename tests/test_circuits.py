"""Circuit construction, structural properties, and size accounting."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq.circuits import (
    HADAMARD,
    INPUT,
    KRONECKER,
    SUM,
    Layer,
    ParameterStore,
    TensorizedCircuit,
    check_property,
    circuit_size,
    from_region_graph,
)
from pcsq.errors import ConfigError, PcsqError, UnsupportedStructureError
from pcsq.families import BinomialFamily, CategoricalFamily, EmbeddingFamily, GaussianFamily
from pcsq.reductions import (
    Graph,
    MpsFactorization,
    PsdModel,
    mps_to_circuit,
    psd_to_circuit,
    udisj_circuit,
)
from pcsq.regions import RegionGraph, build_binary_tree, build_linear_tree, linear_tree_from_order
from pcsq.squaring import square

from conftest import random_deterministic_circuit, random_discrete_circuit


def _gaussian(scope, units):
    return GaussianFamily(units)


class TestFromRegionGraph:
    def test_linear_tree_three_vars_topology(self):
        rg = linear_tree_from_order([0, 1, 2])
        c = from_region_graph(rg, 2, "hadamard", _gaussian)
        kinds = [l.kind for l in c.layers]
        assert kinds.count("input") == 3
        assert kinds.count("hadamard") == 2
        assert kinds.count("sum") == 2  # one per partition, width 1 at the root
        assert c.layer(c.output_layer).output_width == 1

    def test_deep_linear_tree_builds_squares_and_evaluates(self):
        # one product+sum pair per level: 600 levels used to overflow
        # Python's recursion limit while the circuit was built
        from pcsq.inference import log_density
        from pcsq.learning import init_parameters

        c = from_region_graph(build_linear_tree(600, 0), 1, "hadamard", _gaussian)
        assert len(c.layers) == 3 * 600 - 2
        model = init_parameters(square(c), "uniform(0.5,1)", seed=0)
        assert np.isfinite(log_density(model, np.zeros((1, 600)))).all()

    def test_single_variable_circuit(self):
        rg = build_linear_tree(1, 0)
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: CategoricalFamily(k, 4))
        kinds = [l.kind for l in c.layers]
        assert kinds == ["input", "sum"]
        assert c.store.blocks[c.layer(c.output_layer).param_block].shape == (1, 1)

    def test_binary_tree_four_vars_parameter_count(self):
        # sum parameters: two 3x3 partition sums plus the 1x3 root sum = 21
        rg = build_binary_tree(4, seed=0)
        c = from_region_graph(rg, 3, "hadamard", _gaussian)
        sum_params = sum(
            c.store.blocks[l.param_block].size for l in c.sum_layers()
        )
        assert sum_params == 3 * 3 * 2 + 1 * 3
        input_params = sum(
            c.store.blocks[b].size
            for b in c.store.blocks
            if not b.endswith("weight")
        )
        assert input_params == 4 * (3 + 3)  # mean and log-std per unit

    def test_kronecker_widths(self):
        rg = build_binary_tree(4, seed=1)
        c = from_region_graph(rg, 2, "kronecker", _gaussian)
        for layer in c.layers:
            if layer.kind == "kronecker":
                widths = [c.layer(j).output_width for j in layer.inputs]
                assert layer.output_width == widths[0] * widths[1]

    def test_structural_guarantees(self, rng):
        for _ in range(10):
            c, _ = random_discrete_circuit(rng)
            assert check_property(c, "smooth")
            assert check_property(c, "decomposable")
            assert check_property(c, "structured_decomposable")

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigError):
            from_region_graph(build_linear_tree(2, 0), 0, "hadamard", _gaussian)

    def test_invalid_region_graph_rejected(self):
        # a valid tree over the variables 1 and 2: variable 0 has no input layer
        rg = RegionGraph((1, 2), (RegionGraph((1,)), RegionGraph((2,))))
        with pytest.raises(ConfigError, match="invalid region graph"):
            from_region_graph(rg, 2, "hadamard", _gaussian)

    def test_seeded_layers_and_blocks_are_pinned(self):
        # layers and blocks follow the region tree depth first, left child
        # first; model documents and trained parameters depend on this order
        c = from_region_graph(build_binary_tree(5, 2), 2, "kronecker", _gaussian)
        assert [(l.kind, l.scope, l.inputs, l.param_block) for l in c.layers] == [
            ("input", (2,), [], None),
            ("input", (3,), [], None),
            ("kronecker", (2, 3), [0, 1], None),
            ("sum", (2, 3), [2], "L3.weight"),
            ("input", (4,), [], None),
            ("kronecker", (2, 3, 4), [3, 4], None),
            ("sum", (2, 3, 4), [5], "L6.weight"),
            ("input", (0,), [], None),
            ("input", (1,), [], None),
            ("kronecker", (0, 1), [7, 8], None),
            ("sum", (0, 1), [9], "L10.weight"),
            ("kronecker", (0, 1, 2, 3, 4), [6, 10], None),
            ("sum", (0, 1, 2, 3, 4), [11], "L12.weight"),
        ]
        blocks = sorted(c.store.blocks.values(), key=lambda b: b.offset)
        assert [(b.name, b.offset, b.shape) for b in blocks] == [
            ("L0.mean", 0, (2,)),
            ("L0.std", 2, (2,)),
            ("L1.mean", 4, (2,)),
            ("L1.std", 6, (2,)),
            ("L3.weight", 8, (2, 4)),
            ("L4.mean", 16, (2,)),
            ("L4.std", 18, (2,)),
            ("L6.weight", 20, (2, 4)),
            ("L7.mean", 28, (2,)),
            ("L7.std", 30, (2,)),
            ("L8.mean", 32, (2,)),
            ("L8.std", 34, (2,)),
            ("L10.weight", 36, (2, 4)),
            ("L12.weight", 44, (1, 4)),
        ]


def _product_circuit(factors):
    """``factors`` one-variable input layers read by one Hadamard layer
    under a 1 x 2 sum head; valid only for two factors."""
    store = ParameterStore()
    layers = [
        Layer(v, INPUT, (v,), 2, family=GaussianFamily(2).register(store, f"L{v}."))
        for v in range(factors)
    ]
    scope = tuple(range(factors))
    layers.append(Layer(factors, HADAMARD, scope, 2, inputs=list(range(factors))))
    head = store.add_block("head", (1, 2))
    layers.append(Layer(factors + 1, SUM, scope, 1, inputs=[factors], param_block=head))
    return TensorizedCircuit(layers, store)


class TestBinaryTreeOfLayers:
    def _circuit(self):
        return from_region_graph(build_binary_tree(4, seed=0), 2, "hadamard", _gaussian)

    def test_layer_read_twice_rejected(self):
        # the second reader is dead: nothing reads it and it is not the output
        c = self._circuit()
        j = c.layer(c.layer(c.output_layer).inputs[0]).inputs[0]
        root_block = c.layer(c.output_layer).param_block
        c.layers.append(
            Layer(len(c.layers), SUM, c.layer(j).scope, 1, inputs=[j], param_block=root_block)
        )
        with pytest.raises(PcsqError, match=f"layer {j} is read by 2 layers"):
            c.assert_valid()

    def test_unread_layer_rejected(self):
        # the output is the last layer, so a new root goes above the dead one
        c = self._circuit()
        root, dead = c.output_layer, len(c.layers)
        c.layers.append(Layer(dead, INPUT, (0,), 2, family=c.layer(0).family))
        block = c.store.add_block("new_root", (1, 1))
        c.layers.append(Layer(dead + 1, SUM, c.layer(root).scope, 1, [root], block))
        with pytest.raises(PcsqError, match=f"layer {dead} is read by 0 layers"):
            c.assert_valid()

    @pytest.mark.parametrize("factors", [1, 3], ids=["one-input", "three-inputs"])
    def test_product_layer_takes_two_inputs(self, factors):
        _product_circuit(2).assert_valid()
        with pytest.raises(PcsqError, match=f"product layer {factors} takes two inputs"):
            _product_circuit(factors).assert_valid()


class TestValidatorRules:
    def test_unknown_layer_kind_rejected(self):
        c = from_region_graph(build_binary_tree(4, seed=1), 2, "kronecker", _gaussian)
        i = next(l.layer_id for l in c.layers if l.kind == KRONECKER)
        c.layer(i).kind = "foo"
        with pytest.raises(PcsqError, match=f"layer {i} has unknown kind 'foo'"):
            c.assert_valid()
        assert not check_property(c, "smooth")

    def test_input_layer_with_empty_scope_rejected(self):
        c = _product_circuit(2)
        c.layer(1).scope = ()
        c.layer(2).scope = c.layer(3).scope = (0,)
        with pytest.raises(PcsqError, match="input layer 1 has an empty scope"):
            c.assert_valid()
        # the product's scope (0,) is its first factor's, so the product does
        # not strictly shrink the scope: the old predicates accept the
        # circuit, and check_property no longer does
        assert _ref_is_structured_decomposable(c)
        assert not check_property(c, "structured_decomposable")

    def test_output_wider_than_one_rejected(self):
        c = _product_circuit(2)
        c.layer(3).output_width = 2
        c.layer(3).param_block = c.store.add_block("wide head", (2, 2))
        with pytest.raises(PcsqError, match="output layer 3 has width 2, not 1"):
            c.assert_valid()

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("family width", "input layer 0's family does not match its width"),
            ("family block shape", "input layer 0's block 'mean' is not a (2,) identity block"),
            ("family block reparam", "input layer 0's block 'std' is not a (2,) exp block"),
            ("sum block shape", "sum layer 3's block 'odd' does not map its input's width"),
        ],
        ids=["family-width", "family-block-shape", "family-block-reparam", "sum-block-shape"],
    )
    def test_misshapen_block_reference_rejected(self, defect, message):
        c = _product_circuit(2)
        if defect == "family width":
            c.layer(0).family.units = 3
        elif defect == "family block shape":
            c.layer(0).family.blocks["mean"] = c.store.add_block("odd", (3,))
        elif defect == "family block reparam":
            c.store.blocks[c.layer(0).family.blocks["std"]].reparam = "identity"
        else:
            c.layer(3).param_block = c.store.add_block("odd", (1, 3))
        with pytest.raises(PcsqError, match=re.escape(message)):
            c.assert_valid()


# the N-ary DAG predicates check_property used before assert_valid decided
# structure; kept as reference oracles


def _ref_is_smooth(c):
    for l in c.sum_layers():
        if len(l.inputs) != 1:
            return False
        if any(c.layer(j).scope != l.scope for j in l.inputs):
            return False
    return True


def _products(c):
    return [l for l in c.layers if l.kind in (HADAMARD, KRONECKER)]


def _ref_is_decomposable(c):
    for l in _products(c):
        merged = [v for j in l.inputs for v in c.layer(j).scope]
        if len(merged) != len(set(merged)):
            return False
    return True


def _ref_is_structured_decomposable(c):
    if not (_ref_is_smooth(c) and _ref_is_decomposable(c)):
        return False
    seen = {}
    for l in _products(c):
        split = tuple(sorted(c.layer(j).scope for j in l.inputs))
        if l.scope in seen and seen[l.scope] != split:
            return False
        seen[l.scope] = split
    return True


_REFERENCES = {
    "smooth": _ref_is_smooth,
    "decomposable": _ref_is_decomposable,
    "structured_decomposable": _ref_is_structured_decomposable,
}


def _assert_structure_agrees(c):
    for prop, reference in _REFERENCES.items():
        assert check_property(c, prop) == reference(c) is True, prop


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 7),
    k=st.integers(1, 3),
    rg=st.sampled_from(["lt", "bt"]),
    product=st.sampled_from(["hadamard", "kronecker"]),
    seed=st.integers(0, 2**31 - 1),
    squared=st.booleans(),
)
def test_structural_properties_agree_with_references(d, k, rg, product, seed, squared):
    build = build_linear_tree if rg == "lt" else build_binary_tree
    c = from_region_graph(build(d, seed), k, product, _gaussian)
    _assert_structure_agrees(square(c).circuit if squared else c)


def test_reduction_circuits_agree_with_references():
    mps = mps_to_circuit(MpsFactorization.random(4, 2, 2, seed=0), {"seed": 0})
    udisj = udisj_circuit(Graph.matching(2))
    anchors = np.random.default_rng(0).normal(size=(3, 2))
    psd = psd_to_circuit(PsdModel(anchors, 1.0, np.eye(3)))
    graphs = [mps, square(mps).circuit, udisj.circuit, udisj.source]
    graphs += [g for sq in psd.components for g in (sq.circuit, sq.source)]
    for g in graphs:
        _assert_structure_agrees(g)


class TestCheckProperty:
    def test_monotonic_via_exponentiation(self, rng):
        rg = build_binary_tree(4, seed=2)
        c = from_region_graph(rg, 3, "hadamard", _gaussian, sum_reparam="exp")
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        assert check_property(c, "monotonic")

    def test_nonmonotonic_detected(self, rng):
        rg = build_binary_tree(4, seed=2)
        c = from_region_graph(rg, 3, "hadamard", _gaussian)
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        assert not check_property(c, "monotonic")

    def test_deterministic_one_hot_circuit(self, rng):
        c = random_deterministic_circuit(rng, 4)
        assert check_property(c, "deterministic_inputs")

    def test_overlapping_support_mixture_not_deterministic(self, rng):
        c, _ = random_discrete_circuit(rng)
        assert not check_property(c, "deterministic_inputs")

    @pytest.mark.parametrize("family", [CategoricalFamily, BinomialFamily])
    @pytest.mark.parametrize("d", [1, 4])
    def test_squared_graph_answers_as_its_source(self, rng, family, d):
        # a squared sum layer mixes the K^2 products of its input by W (x) W,
        # rows (s1, s2) and columns (k1, k2); active inputs k, k' of a source
        # row overlap exactly where the squared pairs (k, k) and (k', k') of
        # row (s, s) do, so the squared graph answers as its source
        det = random_deterministic_circuit(rng, d + 1)
        full = from_region_graph(
            build_linear_tree(d, 0), 3, "hadamard", lambda scope, k: family(k, 2)
        )
        full.store.values[:] = rng.normal(size=full.store.values.size)
        full.store.bump()
        for c, want in ((det, True), (full, False)):
            assert check_property(c, "deterministic_inputs") is want
            assert check_property(square(c).circuit, "deterministic_inputs") is want

    @pytest.mark.parametrize("signs", ["negative", "mixed"])
    def test_squared_graph_is_monotonic_where_w_kron_w_is(self, rng, signs):
        # a squared sum layer applies W (x) W, which is non-negative when
        # every entry of W is negative, and has a negative entry when W
        # mixes signs
        c = from_region_graph(
            build_linear_tree(2, 0), 2, "hadamard", lambda scope, k: CategoricalFamily(k, 3)
        )
        c.store.values[:] = -np.abs(rng.normal(size=c.store.values.size))
        for l in c.sum_layers():
            w = c.store.free(l.param_block).copy()
            if signs == "mixed":
                w.flat[0] = 1.0
            c.store.set_free(l.param_block, w)
        assert not check_property(c, "monotonic")
        assert check_property(square(c).circuit, "monotonic") is (signs == "negative")

    def test_determinism_check_rejects_continuous(self, rng):
        rg = build_linear_tree(2, 0)
        c = from_region_graph(rg, 2, "hadamard", _gaussian)
        with pytest.raises(UnsupportedStructureError):
            check_property(c, "deterministic_inputs")

    def test_unknown_property(self, rng):
        c, _ = random_discrete_circuit(rng)
        with pytest.raises(ConfigError):
            check_property(c, "acyclic")


class TestSize:
    def test_single_sum_layer(self):
        rg = build_linear_tree(1, 0)
        c = from_region_graph(rg, 3, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        assert circuit_size(c) == 3  # the 1x3 head

    def test_hadamard_counts_n_times_k(self):
        rg = linear_tree_from_order([0, 1])
        c = from_region_graph(rg, 4, "hadamard", _gaussian)
        hadamard = [l for l in c.layers if l.kind == "hadamard"][0]
        assert len(hadamard.inputs) * hadamard.output_width == 8
        assert circuit_size(c) == 8 + 4  # product + 1x4 root sum

    def test_kronecker_counts_k_pow_n_plus_one(self):
        rg = linear_tree_from_order([0, 1])
        c = from_region_graph(rg, 3, "kronecker", _gaussian)
        # two width-3 inputs: 3^3 = 27 connections, then the 1x9 root sum
        assert circuit_size(c) == 27 + 9

    def test_positional_layer_ids_enforced(self, rng):
        c, _ = random_discrete_circuit(rng)
        c.layers[0].layer_id = 5
        with pytest.raises(PcsqError):
            c.assert_valid()


class TestParameterStore:
    def test_blocks_tile_the_vector(self):
        store = ParameterStore()
        store.add_block("a", (2, 3))
        store.add_block("b", (4,), "exp")
        assert store.values.size == 10
        assert store.free("a").shape == (2, 3)
        assert store.gradients.shape == store.values.shape

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add_block("a", (1,))
        with pytest.raises(ConfigError):
            store.add_block("a", (1,))

    def test_reparameterizations(self):
        store = ParameterStore()
        store.add_block("e", (3,), "exp", init=[0.0, 1.0, -1.0])
        np.testing.assert_allclose(store.effective("e"), np.exp([0.0, 1.0, -1.0]))
        store.add_block("s", (2, 3), "softmax_row", init=np.zeros((2, 3)))
        np.testing.assert_allclose(store.effective("s"), 1.0 / 3.0)

    def test_softmax_chain_rows_sum_to_zero(self, rng):
        store = ParameterStore()
        store.add_block("s", (3, 4), "softmax_row", init=rng.normal(size=(3, 4)))
        store.accumulate_effective_grad("s", rng.normal(size=(3, 4)))
        np.testing.assert_allclose(store.grad_view("s").sum(axis=1), 0.0, atol=1e-12)

    def test_exp_chain(self):
        store = ParameterStore()
        store.add_block("e", (1,), "exp", init=[2.0])
        store.accumulate_effective_grad("e", [3.0])
        assert store.grad_view("e")[0] == pytest.approx(3.0 * np.exp(2.0))

    def test_version_bumps_and_snapshots(self):
        store = ParameterStore()
        store.add_block("a", (2,))
        v0 = store.version
        snap = store.snapshot()
        store.set_free("a", [1.0, 2.0])
        assert store.version > v0
        store.restore(snap)
        np.testing.assert_array_equal(store.free("a"), [0.0, 0.0])

    def test_trainable_mask(self):
        store = ParameterStore()
        store.add_block("a", (2,))
        store.add_block("b", (3,), trainable=False)
        mask = store.trainable_mask()
        assert mask.sum() == 2
