"""Constructive translations into circuits.

* PSD kernel models decompose into a non-negative mixture of squared
  one-sum circuits over shared kernel units (symmetric
  eigendecomposition).
* Matrix-product states translate to a linear-tree circuit after a CP
  decomposition of each interior core; squaring it yields the Born-machine
  distribution.
* The unique-disjointness construction builds the subtractive circuit
  (1 - sum of edge products)^2 that separates squared circuits from
  monotonic ones, and dumps its communication matrix.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from pcsq.circuits import (
    HADAMARD,
    INPUT,
    SUM,
    Layer,
    ParameterStore,
    TensorizedCircuit,
)
from pcsq.engine import forward
from pcsq.errors import ConfigError, DegenerateModelError, IngestError, NumericError
from pcsq.families import EmbeddingFamily, RbfKernelFamily
from pcsq.mixtures import CircuitMixture
from pcsq.squaring import SquaredCircuit, square


# ---------------------------------------------------------------------------
# dense symmetric eigendecomposition


def jacobi_eigh(a):
    """Eigenvalues/vectors of a real symmetric matrix (LAPACK's symmetric
    solver); returns (values desc, column vectors)."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ConfigError("jacobi_eigh needs a square matrix")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ConfigError("jacobi_eigh needs a symmetric matrix")
    values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    return values[::-1], vectors[:, ::-1]


# ---------------------------------------------------------------------------
# PSD kernel models


@dataclass
class PsdModel:
    anchors: np.ndarray    # (d, dim) data points
    bandwidth: float
    matrix: np.ndarray     # (d, d) symmetric PSD

    def __post_init__(self):
        self.anchors = np.atleast_2d(np.asarray(self.anchors, dtype=np.float64))
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        d = self.anchors.shape[0]
        if self.matrix.shape != (d, d):
            raise ConfigError("PSD matrix shape must match the anchor count")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12 * max(1.0, np.abs(self.matrix).max())):
            raise ConfigError("PSD matrix must be symmetric")

    def kernel_values(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        diff = x[:, None, :] - self.anchors[None, :, :]
        return np.exp(-np.sum(diff * diff, axis=2) / (2.0 * self.bandwidth**2))

    def direct_value(self, x):
        k = self.kernel_values(x)
        return np.einsum("bi,ij,bj->b", k, self.matrix, k)


def _shallow_kernel_component(psd: PsdModel, weights):
    dim = psd.anchors.shape[1]
    d = psd.anchors.shape[0]
    store = ParameterStore()
    family = RbfKernelFamily(psd.anchors, psd.bandwidth)
    layers = [Layer(0, INPUT, tuple(range(dim)), d, family=family)]
    block = store.add_block("L1.weight", (1, d), trainable=False, init=weights.reshape(1, d))
    layers.append(Layer(1, SUM, tuple(range(dim)), 1, inputs=[0], param_block=block))
    return TensorizedCircuit(layers, store).assert_valid()


# eigenvalues within this fraction of the largest |eigenvalue| (or of 1)
# of zero are numerical dust
_EIG_CLIP = 1e-9


def psd_to_circuit(psd: PsdModel) -> CircuitMixture:
    """Express k(x)^T A k(x) as a non-negative mixture of squared
    one-sum-layer circuits sharing the kernel units.

    Eigendecomposes A; eigenvector u_i becomes component i's inner sum
    weights and eigenvalue lambda_i its mixture weight.  Slightly negative
    eigenvalues (numerical dust) are clipped to zero.
    """
    values, vectors = jacobi_eigh(psd.matrix)
    scale = max(np.abs(values).max(initial=0.0), 1.0)
    if np.any(values < -_EIG_CLIP * scale):
        raise ConfigError("matrix has a significantly negative eigenvalue; not PSD")
    keep = values > _EIG_CLIP * scale
    if not np.any(keep):
        raise DegenerateModelError("PSD matrix has rank zero")
    components = [
        square(_shallow_kernel_component(psd, vectors[:, i]))
        for i in np.nonzero(keep)[0]
    ]
    return CircuitMixture.from_components(
        components, weights=values[keep], learnable=False
    )


# ---------------------------------------------------------------------------
# CP decomposition (index expansion at the maximal rank, else alternating
# least squares)

# ALS below the maximal rank: seeded restarts of at most _ALS_ITERS sweeps,
# each stopping once its relative error changes by less than _ALS_TOL
_ALS_RESTARTS = 5
_ALS_ITERS = 500
_ALS_TOL = 1e-10


@dataclass
class CpResult:
    b: np.ndarray          # (r, k) left-bond factor
    v: np.ndarray          # (m, k) state factor
    c: np.ndarray          # (r, k) right-bond factor
    error: float           # relative Frobenius reconstruction error
    restarts: int = 0      # ALS runs made; 0 for the index expansion


def _cp_reconstruct(v, b, c):
    return np.einsum("xs,is,js->xij", v, b, c)


def _cp_exact(core):
    """Index-expansion decomposition (b, v, c) at the maximal rank
    min(r^2, m*r): term s = i*r + j has indicator bond factors and state
    factor core[:, i, j] (r <= m), or term s = x*r + i has indicator state
    and left-bond factors and right-bond factor core[x, i, :] (m < r)."""
    m, r, _ = core.shape
    if r <= m:
        return np.repeat(np.eye(r), r, axis=1), core.reshape(m, r * r).copy(), np.tile(np.eye(r), r)
    return np.tile(np.eye(r), m), np.repeat(np.eye(m), r, axis=1), core.reshape(m * r, r).T.copy()


def cp_decompose(core, max_rank=None, seed=0) -> CpResult:
    """Factorization core[x,i,j] ~= sum_s V[x,s] B[i,s] C[j,s] of rank
    ``max_rank``, by default the maximal rank min(r^2, m*r).

    At the maximal rank the index expansion (:func:`_cp_exact`) is exact:
    each entry of the core is one term, so the reconstruction error is 0
    and no ALS solve runs.  A smaller rank runs ALS from ``seed``: seeded
    restarts, keeping the lowest reconstruction error, each stopping when
    its relative-error change drops below a tolerance; singular normal
    equations get a ridge retry.
    """
    core = np.asarray(core, dtype=np.float64)
    if core.ndim != 3 or core.shape[1] != core.shape[2]:
        raise ConfigError("cp_decompose expects an (m, r, r) core")
    m, r, _ = core.shape
    cap = min(r * r, m * r)
    k = cap if max_rank is None else int(max_rank)
    if k < 1 or k > cap:
        raise ConfigError(f"max_rank must be in [1, {cap}]")
    norm = np.linalg.norm(core)
    if k == cap:
        b, v, c = _cp_exact(core)
        error = np.linalg.norm(core - _cp_reconstruct(v, b, c)) / norm if norm else 0.0
        return CpResult(b, v, c, float(error))
    if norm == 0.0:
        z = np.zeros
        return CpResult(z((r, k)), z((m, k)), z((r, k)), 0.0)

    unfold0 = core.reshape(m, r * r)                      # rows x, cols (i, j)
    unfold1 = core.transpose(1, 0, 2).reshape(r, m * r)   # rows i, cols (x, j)
    unfold2 = core.transpose(2, 0, 1).reshape(r, m * r)   # rows j, cols (x, i)

    def solve(design, target):
        gram = design.T @ design
        rhs = design.T @ target
        try:
            return np.linalg.solve(gram, rhs).T
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(np.trace(gram) / max(k, 1), 1.0)
            return np.linalg.solve(gram + ridge * np.eye(k), rhs).T

    best = None
    for attempt in range(_ALS_RESTARTS):
        rng = np.random.default_rng([seed, attempt])
        v = rng.normal(size=(m, k))
        b = rng.normal(size=(r, k))
        c = rng.normal(size=(r, k))
        prev = np.inf
        for _ in range(_ALS_ITERS):
            kr = np.einsum("is,js->ijs", b, c).reshape(r * r, k)
            v = solve(kr, unfold0.T)
            kr = np.einsum("xs,js->xjs", v, c).reshape(m * r, k)
            b = solve(kr, unfold1.T)
            kr = np.einsum("xs,is->xis", v, b).reshape(m * r, k)
            c = solve(kr, unfold2.T)
            err = np.linalg.norm(core - _cp_reconstruct(v, b, c)) / norm
            if abs(prev - err) < _ALS_TOL:
                break
            prev = err
        err = float(np.linalg.norm(core - _cp_reconstruct(v, b, c)) / norm)
        if best is None or err < best.error:
            best = CpResult(b, v, c, err, restarts=attempt + 1)
        if best.error < 1e-12:
            break
    return best


# ---------------------------------------------------------------------------
# matrix-product states


@dataclass
class MpsFactorization:
    cores: list  # A_1 (m, r), A_2..A_{D-1} (m, r, r), A_D (m, r)

    def __post_init__(self):
        if len(self.cores) < 2:
            raise ConfigError("an MPS needs at least two cores")
        self.cores = [np.asarray(c, dtype=np.float64) for c in self.cores]
        first, last = self.cores[0], self.cores[-1]
        if first.ndim != 2 or last.ndim != 2:
            raise ConfigError("boundary cores must be (m, r) matrices")
        m, r = first.shape
        if last.shape != (m, r):
            raise ConfigError("boundary cores must share shape")
        for core in self.cores[1:-1]:
            if core.shape != (m, r, r):
                raise ConfigError("interior cores must be (m, r, r)")

    @property
    def variable_count(self):
        return len(self.cores)

    @property
    def states(self):
        return self.cores[0].shape[0]

    @property
    def rank(self):
        return self.cores[0].shape[1]

    def contract(self, assignment):
        """Direct chain contraction at one assignment (the oracle path)."""
        x = [int(v) for v in assignment]
        vec = self.cores[0][x[0]]
        for j in range(1, len(self.cores) - 1):
            vec = vec @ self.cores[j][x[j]]
        return float(vec @ self.cores[-1][x[-1]])

    @classmethod
    def random(cls, d, m, r, seed=0):
        """Cores of standard normal entries from ``seed``."""
        if d < 2 or m < 1 or r < 1:
            raise ConfigError(f"an MPS needs d >= 2, m >= 1 and r >= 1, got ({d}, {m}, {r})")
        rng = np.random.default_rng(seed)
        cores = [rng.normal(size=(m, r))]
        cores += [rng.normal(size=(m, r, r)) for _ in range(d - 2)]
        cores.append(rng.normal(size=(m, r)))
        return cls(cores)

    @classmethod
    def read(cls, path):
        """Binary import: int64-LE header (D, m, r), then float64-LE cores
        in chain order, row-major."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise IngestError(f"{path}: {exc}") from exc
        if len(raw) < 24:
            raise IngestError(f"{path}: missing header")
        d, m, r = struct.unpack("<3q", raw[:24])
        if d < 2 or m < 1 or r < 1:
            raise IngestError(f"{path}: bad header ({d}, {m}, {r})")
        expect = m * r * 2 + (d - 2) * m * r * r
        body = np.frombuffer(raw[24:], dtype="<f8")
        if body.size != expect:
            raise IngestError(f"{path}: expected {expect} floats, found {body.size}")
        cores = [body[: m * r].reshape(m, r)]
        off = m * r
        for _ in range(d - 2):
            cores.append(body[off : off + m * r * r].reshape(m, r, r))
            off += m * r * r
        cores.append(body[off:].reshape(m, r))
        return cls(cores)

    def write(self, path):
        with open(path, "wb") as fh:
            fh.write(struct.pack("<3q", self.variable_count, self.states, self.rank))
            for core in self.cores:
                fh.write(np.ascontiguousarray(core, dtype="<f8").tobytes())


@dataclass
class MpsConversionReport:
    cp_errors: list = field(default_factory=list)


def mps_to_circuit(mps: MpsFactorization, cp_config=None, report=None) -> TensorizedCircuit:
    """Linear-tree Hadamard circuit computing the MPS contraction.

    Interior cores are CP-decomposed; neighbouring factors contract into
    the sum-layer matrices, state factors become value-table input layers,
    and the output sum is a fixed row of ones.
    """
    cp_config = dict(cp_config or {})
    d = mps.variable_count
    m = mps.states
    r = mps.rank

    tables = [mps.cores[0].T]  # (units, states) per variable
    sums = []                  # weight matrix above the product at depth j
    if d == 2:
        tables.append(mps.cores[-1].T)
    else:
        factors = []
        for j in range(1, d - 1):
            res = cp_decompose(mps.cores[j], seed=cp_config.get("seed", 0) + j, **{
                key: val for key, val in cp_config.items() if key != "seed"
            })
            if report is not None:
                report.cp_errors.append(res.error)
            factors.append(res)
            tables.append(res.v.T)
        # chain contractions: W_1 = B_2; W_j = C_j^T B_{j+1}; V_D = (C_{D-1}^T A_D^T)^T
        sums.append(factors[0].b)                       # (r, k)
        for j in range(len(factors) - 1):
            sums.append(factors[j].c.T @ factors[j + 1].b)  # (k, k)
        tables.append(factors[-1].c.T @ mps.cores[-1].T)    # (k, m)

    return _linear_tree_chain(tables, [np.ones((1, tables[0].shape[0]))] + sums)


def _linear_tree_chain(tables, weights):
    """Linear-tree Hadamard chain over fixed value-table inputs.

    ``tables[v]`` is variable v's (units, states) table and ``weights[v]``
    the fixed sum matrix above the product at depth v; ``weights[0]`` is
    the root.  A single variable gets the root sum directly on its input.
    """
    d = len(tables)
    store = ParameterStore()
    layers = []

    def add_sum(scope, below, w):
        block = store.add_block(f"L{len(layers)}.weight", w.shape, trainable=False, init=w)
        layers.append(Layer(len(layers), SUM, scope, w.shape[0], inputs=[below], param_block=block))
        return len(layers) - 1

    for var, table in enumerate(tables):
        family = EmbeddingFamily(*table.shape)
        layers.append(Layer(var, INPUT, (var,), table.shape[0], family=family))
        family.register(store, f"L{var}.")
        store.set_free(family.blocks["values"], table)
    top = add_sum((0,), 0, weights[0]) if d == 1 else d - 1
    for v in range(d - 2, -1, -1):
        scope = tuple(range(v, d))
        lid = len(layers)
        layers.append(Layer(lid, HADAMARD, scope, tables[v].shape[0], inputs=[v, top]))
        top = add_sum(scope, lid, weights[v])
    return TensorizedCircuit(layers, store).assert_valid()


# ---------------------------------------------------------------------------
# unique disjointness


@dataclass
class Graph:
    vertex_count: int
    edges: list

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ConfigError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ConfigError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ConfigError(f"duplicate edge {key}")
            seen.add(key)

    @classmethod
    def read(cls, path):
        """Edge-list text file: first data line is the vertex count, then one
        'u v' pair per line; '#' starts a comment."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = [ln.split("#", 1)[0].strip() for ln in fh]
        except OSError as exc:
            raise IngestError(f"{path}: {exc}") from exc
        lines = [ln for ln in lines if ln]
        if not lines:
            raise IngestError(f"{path}: no data")
        try:
            count = int(lines[0])
            edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
        except ValueError as exc:
            raise IngestError(f"{path}: {exc}") from exc
        if any(len(e) != 2 for e in edges):
            raise IngestError(f"{path}: edges must be 'u v' pairs")
        return cls(count, edges)

    @classmethod
    def matching(cls, pairs):
        """A perfect matching of ``pairs`` edges on 2*pairs vertices, vertex
        i matched with vertex pairs+i."""
        return cls(2 * pairs, [(i, pairs + i) for i in range(pairs)])


def udisj_circuit(graph: Graph) -> SquaredCircuit:
    """The squared subtractive circuit (1 - sum_{uv in E} x_u x_v)^2.

    One always-on track realizes the constant 1; each edge gets a track
    whose per-vertex factor is the x=1 indicator on the edge's endpoints
    and the all-ones smoothing function elsewhere.  The root sum combines
    tracks with weights (1, -1, ..., -1); squaring makes it a
    non-negative circuit over the same linear-tree structure.
    """
    n = graph.vertex_count
    k = len(graph.edges) + 1
    tables = []
    for var in range(n):
        table = np.ones((k, 2))
        for e, (u, v) in enumerate(graph.edges):
            if var in (u, v):
                table[1 + e] = [0.0, 1.0]
        tables.append(table)
    root = np.full((1, k), -1.0)
    root[0, 0] = 1.0
    return square(_linear_tree_chain(tables, [root] + [np.eye(k)] * (n - 2)))


def _half_assignments(h):
    """Assignments to h Boolean variables, grouped by number of ones and
    ordered by set-bit positions within each group (matches the standard
    communication-matrix presentation)."""
    rows = []
    for ones in range(h + 1):
        for positions in itertools.combinations(range(h), ones):
            row = np.zeros(h)
            row[list(positions)] = 1.0
            rows.append(row)
    return np.array(rows)


def udisj_matrix(graph: Graph, squared: SquaredCircuit | None = None):
    """Exact integer communication matrix of the unique-disjointness circuit
    for the split (first half of the vertices | second half).

    Returns (row labels, column labels, int matrix).  Entries are evaluated
    in linear space and must land on integers; anything else is an error.
    """
    if graph.vertex_count % 2 != 0:
        raise ConfigError("communication matrix needs an even vertex count")
    if graph.vertex_count > 24:
        raise ConfigError("communication matrix enumeration capped at 24 vertices")
    h = graph.vertex_count // 2
    if squared is None:
        squared = udisj_circuit(graph)
    ys = _half_assignments(h)
    zs = _half_assignments(h)
    grid = np.hstack(
        [np.repeat(ys, len(zs), axis=0), np.tile(zs, (len(ys), 1))]
    )
    values = forward(squared.circuit, grid, space="linear").root
    matrix = values.reshape(len(ys), len(zs))
    if np.max(np.abs(matrix - np.rint(matrix))) > 1e-9:
        raise NumericError("communication matrix entries did not land on integers")
    labels = ["".join(str(int(b)) for b in row) for row in ys]
    return labels, labels, np.rint(matrix).astype(np.int64)
