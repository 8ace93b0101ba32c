"""Reductions: Jacobi eigensolver, PSD models, CP decomposition, MPS
translation, and the unique-disjointness construction."""

import numpy as np
import pytest

from pcsq import engine
from pcsq.circuits import check_property
from pcsq.errors import ConfigError, DegenerateModelError, IngestError
from pcsq.inference import evaluate
from pcsq.reductions import (
    CpResult,
    Graph,
    MpsConversionReport,
    MpsFactorization,
    PsdModel,
    cp_decompose,
    jacobi_eigh,
    mps_to_circuit,
    psd_to_circuit,
    udisj_circuit,
    udisj_matrix,
)
from pcsq.squaring import square

from conftest import enumerate_assignments


class TestJacobi:
    def test_reconstruction_and_orthogonality(self, rng):
        for n in (2, 4, 9, 25):
            sym = rng.normal(size=(n, n))
            sym = sym + sym.T
            values, vectors = jacobi_eigh(sym)
            rec = vectors @ np.diag(values) @ vectors.T
            assert np.linalg.norm(rec - sym) / np.linalg.norm(sym) < 1e-12
            assert np.linalg.norm(vectors @ vectors.T - np.eye(n)) < 1e-12
            assert np.all(np.diff(values) <= 1e-12)

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(ConfigError):
            jacobi_eigh(rng.normal(size=(3, 3)))


class TestPsdReduction:
    def test_rank_one_single_component(self, rng):
        u = rng.normal(size=4)
        psd = PsdModel(rng.normal(size=(4, 2)), 1.0, np.outer(u, u))
        mix = psd_to_circuit(psd)
        assert len(mix.components) == 1
        x = rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            np.exp(mix.log_value(x)), psd.direct_value(x), rtol=1e-9
        )

    def test_identity_matrix_sum_of_squares(self, rng):
        anchors = rng.normal(size=(2, 1))
        psd = PsdModel(anchors, 0.7, np.eye(2))
        mix = psd_to_circuit(psd)
        x = rng.normal(size=(40, 1))
        k = psd.kernel_values(x)
        np.testing.assert_allclose(
            np.exp(mix.log_value(x)), k[:, 0] ** 2 + k[:, 1] ** 2, rtol=1e-10
        )

    def test_random_psd_pointwise(self, rng):
        m = rng.normal(size=(5, 5))
        psd = PsdModel(rng.normal(size=(5, 3)), 1.2, m @ m.T)
        mix = psd_to_circuit(psd)
        x = rng.normal(size=(100, 3))
        direct = psd.direct_value(x)
        rel = np.abs(np.exp(mix.log_value(x)) - direct) / np.maximum(np.abs(direct), 1e-12)
        assert rel.max() < 1e-8

    def test_nonnegative_everywhere(self, rng):
        m = rng.normal(size=(4, 4))
        psd = PsdModel(rng.normal(size=(4, 2)), 0.9, m @ m.T)
        mix = psd_to_circuit(psd)
        x = rng.normal(size=(500, 2)) * 3
        assert np.all(np.exp(mix.log_value(x)) >= 0.0)

    def test_zero_matrix_degenerate(self, rng):
        psd = PsdModel(rng.normal(size=(3, 2)), 1.0, np.zeros((3, 3)))
        with pytest.raises(DegenerateModelError):
            psd_to_circuit(psd)

    def test_strongly_negative_eigenvalue_rejected(self, rng):
        psd = PsdModel(rng.normal(size=(2, 2)), 1.0, np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ConfigError):
            psd_to_circuit(psd)


class TestCpDecomposition:
    def test_rank_one_exact(self, rng):
        core = np.einsum("x,i,j->xij", rng.normal(size=3), rng.normal(size=2), rng.normal(size=2))
        res = cp_decompose(core, max_rank=1, seed=0)
        assert res.error < 1e-10

    def test_diagonal_slices_exact_at_rank_r(self, rng):
        # core[x, i, j] = d[x, i] * delta_ij has CP rank r exactly
        r = 3
        d = rng.normal(size=(4, r))
        core = np.einsum("xi,ij->xij", d, np.eye(r))
        res = cp_decompose(core, max_rank=r, seed=1)
        assert res.error < 1e-8

    def test_maximal_rank_random_core(self, rng):
        core = rng.normal(size=(3, 3, 3))
        res = cp_decompose(core, seed=2)  # defaults to min(r^2, m r)
        assert res.error < 1e-8

    @pytest.mark.parametrize("m,r", [(3, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize(
        "kind", ["random", "one-entry", "zero-slice", "equal-slices", "scaled-slices", "rank-one"]
    )
    def test_maximal_rank_is_the_exact_index_expansion(self, rng, monkeypatch, m, r, kind):
        # at rank min(r^2, m r) each entry of the core is one CP term: the
        # reconstruction is exact for every seed, and no ALS solve runs
        core = rng.normal(size=(m, r, r))
        if kind == "one-entry":
            core = np.zeros((m, r, r))
            core[m - 1, 0, r - 1] = -2.5
        elif kind == "zero-slice":
            core[1] = 0.0
        elif kind == "equal-slices":
            core[:] = core[0]
        elif kind == "scaled-slices":
            core *= np.logspace(-8, 8, m)[:, None, None]
        elif kind == "rank-one":
            core = np.einsum("x,i,j->xij", *(rng.normal(size=n) for n in (m, r, r)))

        def no_solve(*args):
            raise AssertionError("an ALS solve ran")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        for seed in (0, 1, 12345):
            res = cp_decompose(core, seed=seed)
            assert res.b.shape[1] == min(r * r, m * r) and res.restarts == 0
            recon = np.einsum("xs,is,js->xij", res.v, res.b, res.c)
            assert np.linalg.norm(core - recon) / np.linalg.norm(core) == 0.0
            assert res.error == 0.0

    def test_factor_shapes(self, rng):
        core = rng.normal(size=(4, 2, 2))
        res = cp_decompose(core, max_rank=3, seed=0)
        assert res.b.shape == (2, 3)
        assert res.v.shape == (4, 3)
        assert res.c.shape == (2, 3)

    def test_rank_cap_enforced(self, rng):
        with pytest.raises(ConfigError):
            cp_decompose(rng.normal(size=(2, 2, 2)), max_rank=5)


class TestMpsReduction:
    def test_two_site_exact(self, rng):
        mps = MpsFactorization.random(2, 3, 2, seed=4)
        circuit = mps_to_circuit(mps)
        grid = enumerate_assignments(2, m=3)
        got = evaluate(circuit, grid).to_linear()
        want = np.array([mps.contract(row) for row in grid])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_four_site_within_cp_error(self, rng):
        mps = MpsFactorization.random(4, 2, 2, seed=9)
        report = MpsConversionReport()
        circuit = mps_to_circuit(mps, report=report)
        grid = enumerate_assignments(4, m=2)
        got = evaluate(circuit, grid).to_linear()
        want = np.array([mps.contract(row) for row in grid])
        assert np.max(np.abs(got - want)) < 1e-6
        squared = square(circuit)
        got2 = evaluate(squared, grid).to_linear()
        np.testing.assert_allclose(got2, want**2, atol=1e-6)

    def test_rectangular_states_and_rank(self, rng):
        # m != r exercises the boundary contractions and CP factor shapes
        mps = MpsFactorization.random(5, 3, 2, seed=3)
        circuit = mps_to_circuit(mps, {"seed": 1})
        grid = enumerate_assignments(5, m=3)
        got = evaluate(circuit, grid).to_linear()
        want = np.array([mps.contract(row) for row in grid])
        assert np.max(np.abs(got - want)) < 1e-6

    def test_structured_decomposable_over_linear_tree(self, rng):
        mps = MpsFactorization.random(5, 2, 2, seed=1)
        circuit = mps_to_circuit(mps)
        assert check_property(circuit, "structured_decomposable")
        products = [l for l in circuit.layers if l.kind == "hadamard"]
        assert len(products) == 4
        # identity-order chain: each product peels its lowest variable off,
        # the root product variable 0
        for product in products:
            first, rest = (circuit.layer(j).scope for j in product.inputs)
            assert first == product.scope[:1] and rest == product.scope[1:]
        assert products[-1].scope == (0, 1, 2, 3, 4)

    def test_binary_round_trip(self, rng, tmp_path):
        mps = MpsFactorization.random(4, 3, 2, seed=7)
        path = tmp_path / "cores.mps"
        mps.write(path)
        again = MpsFactorization.read(path)
        for a, b in zip(mps.cores, again.cores):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d,m,r", [(1, 2, 2), (0, 2, 2), (3, 0, 2), (3, 2, 0)])
    def test_random_rejects_bad_shapes(self, d, m, r):
        with pytest.raises(ConfigError, match="an MPS needs d >= 2"):
            MpsFactorization.random(d, m, r)

    def test_truncated_file_rejected(self, tmp_path, rng):
        mps = MpsFactorization.random(3, 2, 2, seed=0)
        path = tmp_path / "cores.mps"
        mps.write(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(IngestError):
            MpsFactorization.read(path)


class TestUdisj:
    def test_matching_corner_values(self):
        squared = udisj_circuit(Graph.matching(3))
        both_ones = np.ones((1, 6))
        assert evaluate(squared, both_ones).to_linear()[0] == pytest.approx(4.0)
        one_edge = np.zeros((1, 6))
        one_edge[0, 0] = one_edge[0, 3] = 1.0  # a single shared edge
        assert evaluate(squared, one_edge).to_linear()[0] == pytest.approx(0.0, abs=1e-12)

    def test_full_communication_matrix(self):
        rows, cols, matrix = udisj_matrix(Graph.matching(3))
        assert rows == ["000", "100", "010", "001", "110", "101", "011", "111"]
        expected = np.array(
            [
                [1, 1, 1, 1, 1, 1, 1, 1],
                [1, 0, 1, 1, 0, 0, 1, 0],
                [1, 1, 0, 1, 0, 1, 0, 0],
                [1, 1, 1, 0, 1, 0, 0, 0],
                [1, 0, 0, 1, 1, 0, 0, 1],
                [1, 0, 1, 0, 0, 1, 0, 1],
                [1, 1, 0, 0, 0, 0, 1, 1],
                [1, 0, 0, 0, 1, 1, 1, 4],
            ]
        )
        np.testing.assert_array_equal(matrix, expected)

    def test_udisj_semantics_on_general_graph(self, rng):
        graph = Graph(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
        squared = udisj_circuit(graph)
        grid = enumerate_assignments(5)
        got = evaluate(squared, grid).to_linear()
        want = np.array(
            [(1.0 - sum(x[u] * x[v] for u, v in graph.edges)) ** 2 for x in grid]
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_output_is_perfect_square_sign(self, rng):
        # exhaustive sign check up to the 16-vertex limit
        for pairs in (4, 8):
            squared = udisj_circuit(Graph.matching(pairs))
            grid = enumerate_assignments(2 * pairs)
            out = evaluate(squared, grid)
            assert np.all(out.sign >= 0.0)

    def test_graph_file_parsing(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# a matching\n6\n0 3\n1 4\n2 5\n")
        graph = Graph.read(path)
        assert graph.vertex_count == 6
        assert graph.edges == [(0, 3), (1, 4), (2, 5)]
        bad = tmp_path / "bad.txt"
        bad.write_text("6\n0 9\n")
        with pytest.raises((IngestError, ConfigError)):
            Graph.read(bad)

    def test_graph_validation(self):
        with pytest.raises(ConfigError):
            Graph(3, [(0, 0)])
        with pytest.raises(ConfigError):
            Graph(3, [(0, 1), (1, 0)])
