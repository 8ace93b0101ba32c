"""Circuit construction, structural properties, and size accounting."""

import numpy as np
import pytest

from pcsq.circuits import (
    HADAMARD,
    INPUT,
    SUM,
    Layer,
    ParameterStore,
    TensorizedCircuit,
    check_property,
    circuit_size,
    from_region_graph,
)
from pcsq.errors import ConfigError, PcsqError, UnsupportedStructureError
from pcsq.families import CategoricalFamily, EmbeddingFamily, GaussianFamily
from pcsq.regions import build_binary_tree, build_linear_tree, linear_tree_from_order

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
        rg = build_linear_tree(3, 0)
        rg.partitions()[0].children = rg.partitions()[0].children[:1]
        with pytest.raises(ConfigError, match="region graph"):
            from_region_graph(rg, 2, "hadamard", _gaussian)


def _product_circuit(factors):
    """``factors`` one-variable input layers read by one Hadamard layer
    under a 1 x 2 sum head; valid only for two factors."""
    store = ParameterStore()
    layers = [Layer(v, INPUT, (v,), 2, family=GaussianFamily(2)) for v in range(factors)]
    scope = tuple(range(factors))
    layers.append(Layer(factors, HADAMARD, scope, 2, inputs=list(range(factors))))
    head = store.add_block("head", (1, 2))
    layers.append(Layer(factors + 1, SUM, scope, 1, inputs=[factors], param_block=head))
    return TensorizedCircuit(layers, factors + 1, store, factors)


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
        c = self._circuit()
        dead = len(c.layers)
        c.layers.append(Layer(dead, INPUT, (0,), 2, family=c.layer(0).family))
        with pytest.raises(PcsqError, match=f"layer {dead} is read by 0 layers"):
            c.assert_valid()

    @pytest.mark.parametrize("factors", [1, 3], ids=["one-input", "three-inputs"])
    def test_product_layer_takes_two_inputs(self, factors):
        _product_circuit(2).assert_valid()
        with pytest.raises(PcsqError, match=f"product layer {factors} takes two inputs"):
            _product_circuit(factors).assert_valid()


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
