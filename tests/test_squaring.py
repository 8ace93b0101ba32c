"""Squaring: pointwise correctness, structure preservation, size law, and
the deterministic shortcut, all against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq import engine
from pcsq.circuits import check_property, circuit_size, from_region_graph
from pcsq.errors import PreconditionError, UnsupportedStructureError
from pcsq.families import EmbeddingFamily, GaussianFamily
from pcsq.regions import build_binary_tree, linear_tree_from_order
from pcsq.slog import SignedLogTensor, signed_product
from pcsq.squaring import square, square_deterministic

from conftest import (
    assert_pointwise_squares,
    enumerate_assignments,
    random_deterministic_circuit,
    random_discrete_circuit,
    random_gaussian_circuit,
)


class TestSquareCorrectness:
    def test_discrete_exhaustive(self, rng):
        for _ in range(20):
            c, d = random_discrete_circuit(rng)
            grid = enumerate_assignments(d)
            base = engine.forward(c, grid).root
            squared = engine.forward(square(c).circuit, grid).root
            assert_pointwise_squares(squared.to_linear(), base.to_linear() ** 2)

    def test_continuous_random_points(self, rng):
        for structure in ("bt", "lt"):
            for product in ("hadamard", "kronecker"):
                c = random_gaussian_circuit(rng, d=4, k=3, product=product, structure=structure)
                x = rng.normal(size=(1000, 4))
                base = engine.forward(c, x).root
                squared = engine.forward(square(c).circuit, x).root
                assert_pointwise_squares(squared.to_linear(), base.to_linear() ** 2)

    def test_width_one_circuit(self, rng):
        rg = linear_tree_from_order([0, 1])
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: GaussianFamily(k))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        assert [l.output_width for l in sq.circuit.layers] == [
            l.output_width for l in c.layers
        ]
        x = rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            engine.forward(sq.circuit, x).root.to_linear(),
            engine.forward(c, x).root.to_linear() ** 2,
            rtol=1e-12,
        )

    def test_shallow_mixture_component_products(self, rng):
        # K=3 shallow mixture squares into 9 pairwise products, 6 distinct
        # (3 squares plus 3 symmetric cross terms)
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 3, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        res = engine.forward(sq.circuit, np.array([[1.0]]), keep_outputs=True)
        products = res.outputs[0].to_linear()[0]
        assert products.shape == (9,)
        assert np.unique(np.round(products, 12)).size == 6
        pairwise = products.reshape(3, 3)
        np.testing.assert_allclose(pairwise, pairwise.T, rtol=1e-13)

    def test_shallow_mixture_shares_parameters(self, rng):
        # squared weights are views of the source block, never separate values
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 3, "hadamard", lambda s, k: EmbeddingFamily(k, 4))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        assert sq.store is c.store
        grid = np.arange(4.0)[:, None]
        before = engine.forward(sq.circuit, grid).root.to_linear()
        w = c.store.free(c.layer(c.output_layer).param_block)
        c.store.set_free(c.layer(c.output_layer).param_block, w * 2.0)
        after = engine.forward(sq.circuit, grid).root.to_linear()
        np.testing.assert_allclose(after, 4.0 * before, rtol=1e-12)

    def test_squared_sum_equals_materialized_kron(self, rng):
        c = random_gaussian_circuit(rng, d=3, k=2, structure="lt")
        sq = square(c)
        x = rng.normal(size=(20, 3))
        res = engine.forward(sq.circuit, x, keep_outputs=True)
        for layer in sq.circuit.layers:
            if layer.kind != "sum":
                continue
            w = c.store.effective(layer.param_block)
            u = res.outputs[layer.inputs[0]].to_linear()
            want = u @ np.kron(w, w).T
            np.testing.assert_allclose(
                res.outputs[layer.layer_id].to_linear(), want, rtol=1e-10, atol=1e-12
            )


class TestStructure:
    def test_structure_preserved(self, rng):
        for _ in range(10):
            c, _ = random_discrete_circuit(rng)
            sq = square(c)
            assert check_property(sq.circuit, "smooth")
            assert check_property(sq.circuit, "structured_decomposable")
            # squared layer i squares source layer i, over the same inputs
            assert [(l.kind, l.scope, l.inputs) for l in sq.circuit.layers] == [
                (l.kind, l.scope, l.inputs) for l in c.layers
            ]

    def test_widths_square(self, rng):
        c, _ = random_discrete_circuit(rng)
        sq = square(c)
        for src in c.layers:
            assert sq.circuit.layer(src.layer_id).output_width == src.output_width**2

    def test_size_law(self, rng):
        for _ in range(10):
            c, _ = random_discrete_circuit(rng)
            sq = square(c)
            for src in c.layers:
                if src.kind != "sum":
                    continue
                s = src.output_width
                k = c.layer(src.inputs[0]).output_width
                tgt = sq.circuit.layer(src.layer_id)
                tgt_in = sq.circuit.layer(tgt.inputs[0]).output_width
                assert tgt.output_width * tgt_in == s * s * k * k
            # per-layer quadratic bound on the whole count
            assert circuit_size(sq.circuit) <= sum(
                _layer_size_squared(c, l) for l in c.layers
            )

    def test_kronecker_permutation_matches_direct_order(self, rng):
        # squared two-input kronecker must equal the (a x b) x (a x b) layout
        rg = linear_tree_from_order([0, 1])
        c = from_region_graph(rg, 2, "kronecker", lambda s, k: GaussianFamily(k))
        c.store.values[:] = rng.normal(size=c.store.values.size)
        c.store.bump()
        sq = square(c)
        x = rng.normal(size=(10, 2))
        res = engine.forward(sq.circuit, x, keep_outputs=True)
        src = engine.forward(c, x, keep_outputs=True)
        for layer in c.layers:
            if layer.kind != "kronecker":
                continue
            pre = src.outputs[layer.layer_id].to_linear()
            direct = np.einsum("bi,bj->bij", pre, pre).reshape(pre.shape[0], -1)
            got = res.outputs[layer.layer_id].to_linear()
            np.testing.assert_allclose(got, direct, rtol=1e-12)

    def test_kronecker_layout_is_the_gathered_kron_bit_for_bit(self, rng):
        # the squared Kronecker layer builds the interleaved layout directly;
        # reference: the row-wise Kronecker product, then the index gather
        ka, kb = 3, 4
        a = SignedLogTensor.from_linear(rng.normal(size=(7, ka * ka)))
        b = SignedLogTensor.from_linear(rng.normal(size=(7, kb * kb)))
        a.log_magnitude[0, 2], a.sign[0, 2] = -np.inf, 0.0
        idx = np.arange(ka * ka * kb * kb).reshape(ka, ka, kb, kb)
        perm = idx.transpose(0, 2, 1, 3).reshape(-1)
        ref = signed_product([a, b], kind="kronecker")
        got = signed_product([a, b], kind="kronecker", squared=True)
        np.testing.assert_array_equal(got.log_magnitude, ref.log_magnitude[:, perm])
        np.testing.assert_array_equal(got.sign, ref.sign[:, perm])

    def test_non_structured_decomposable_rejected(self, rng):
        # two same-scope products with different splits break the property
        rg = linear_tree_from_order([0, 1, 2])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        products = [l for l in c.layers if l.kind == "hadamard"]
        root_product = products[-1]
        deep_product = products[0]
        deep_product.scope = root_product.scope
        assert not check_property(c, "structured_decomposable")
        with pytest.raises(UnsupportedStructureError):
            square(c)


@settings(max_examples=40, deadline=None)
@given(
    structure=st.sampled_from(["lt", "bt"]),
    product=st.sampled_from(["hadamard", "kronecker"]),
    d=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_square_properties_hold_for_generated_circuits(structure, product, d, k, seed):
    from pcsq.regions import build_binary_tree, build_linear_tree

    rg = (build_binary_tree if structure == "bt" else build_linear_tree)(d, seed)
    c = from_region_graph(rg, k, product, lambda s, u: EmbeddingFamily(u, 2))
    c.store.values[:] = np.random.default_rng(seed).normal(size=c.store.values.size)
    c.store.bump()
    sq = square(c)
    assert check_property(sq.circuit, "structured_decomposable")
    grid = enumerate_assignments(d)
    base = engine.forward(c, grid).root.to_linear()
    got = engine.forward(sq.circuit, grid).root.to_linear()
    assert_pointwise_squares(got, base**2)
    z = engine.forward(sq.circuit, None, marginalized=frozenset(range(d))).root
    assert z.to_linear()[0] == pytest.approx(float((base**2).sum()), rel=1e-10)


def _layer_size_squared(c, layer):
    if layer.kind == "sum":
        return (layer.output_width * c.layer(layer.inputs[0]).output_width) ** 2
    if layer.kind == "hadamard":
        return (len(layer.inputs) * layer.output_width) ** 2
    if layer.kind == "kronecker":
        widths = [c.layer(j).output_width for j in layer.inputs]
        return (widths[0] ** (len(widths) + 1)) ** 2
    return 0


class TestDeterministicShortcut:
    def test_two_component_weights_squared(self):
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 0.0], [0.0, 1.0]])
        c.store.set_free(c.layer(c.output_layer).param_block, [[0.3, -0.7]])
        out = square_deterministic(c)
        np.testing.assert_allclose(
            out.store.effective(out.layer(out.output_layer).param_block), [[0.09, 0.49]]
        )

    def test_single_negative_weight(self):
        rg = linear_tree_from_order([0])
        c = from_region_graph(rg, 1, "hadamard", lambda s, k: EmbeddingFamily(k, 2))
        c.store.set_free(c.input_layers()[0].family.blocks["values"], [[1.0, 0.0]])
        c.store.set_free(c.layer(c.output_layer).param_block, [[-1.0]])
        out = square_deterministic(c)
        assert out.store.effective(out.layer(out.output_layer).param_block)[0, 0] == 1.0

    def test_random_deterministic_circuits_match_full_squaring(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 7))
            c = random_deterministic_circuit(rng, d, "bt" if rng.random() < 0.5 else "lt")
            shortcut = square_deterministic(c)
            assert circuit_size(shortcut) == circuit_size(c)
            assert check_property(shortcut, "monotonic")
            grid = enumerate_assignments(d)
            full = engine.forward(square(c).circuit, grid).root.to_linear()
            fast = engine.forward(shortcut, grid).root.to_linear()
            np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)

    def test_six_binary_vars_all_points(self, rng):
        c = random_deterministic_circuit(rng, 6)
        grid = enumerate_assignments(6)
        base = engine.forward(c, grid).root.to_linear()
        fast = engine.forward(square_deterministic(c), grid).root.to_linear()
        np.testing.assert_allclose(fast, base**2, rtol=1e-10, atol=1e-14)

    def test_nondeterministic_rejected(self, rng):
        c, _ = random_discrete_circuit(rng)
        with pytest.raises(PreconditionError):
            square_deterministic(c)

    def test_continuous_rejected(self, rng):
        c = random_gaussian_circuit(rng)
        with pytest.raises(PreconditionError):
            square_deterministic(c)
