"""Model-document serialization: bit-exact float round trips and
evaluation equality after reload."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq import engine
from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError, IngestError, PcsqError
from pcsq.families import BinomialFamily, CategoricalFamily, GaussianFamily, SplineFamily
from pcsq.inference import evaluate, partition_function
from pcsq.mixtures import CircuitMixture
from pcsq.modeldoc import load_model, model_from_dict, model_to_dict, save_model
from pcsq.reductions import Graph, MpsFactorization, PsdModel, mps_to_circuit, psd_to_circuit, udisj_circuit
from pcsq.regions import build_binary_tree, build_linear_tree
from pcsq.splines import BSplineBasis
from pcsq.squaring import SquaredCircuit, square

from conftest import random_discrete_circuit


def _nasty_values(store, rng):
    vals = rng.normal(size=store.values.size)
    vals[0] = np.pi
    vals[-1] = np.nextafter(1.0, 2.0)  # a value decimal text may not keep
    store.values[:] = vals
    store.bump()


def test_circuit_round_trip_bit_exact(rng, tmp_path):
    c, _ = random_discrete_circuit(rng)
    _nasty_values(c.store, rng)
    path = tmp_path / "model.json"
    save_model(c, path)
    again = load_model(path)
    np.testing.assert_array_equal(again.store.values, c.store.values)
    for name, block in c.store.blocks.items():
        other = again.store.blocks[name]
        assert (block.offset, block.shape, block.reparam, block.trainable) == (
            other.offset,
            other.shape,
            other.reparam,
            other.trainable,
        )


def test_deserialized_model_evaluates_bit_identically(rng, tmp_path):
    rg = build_binary_tree(4, seed=3)
    c = from_region_graph(rg, 3, "hadamard", lambda s, k: GaussianFamily(k))
    _nasty_values(c.store, rng)
    sq = square(c)
    path = tmp_path / "model.json"
    save_model(sq, path)
    again = load_model(path)
    assert isinstance(again, SquaredCircuit)
    x = rng.normal(size=(32, 4))
    a = evaluate(sq, x)
    b = evaluate(again, x)
    np.testing.assert_array_equal(a.log_magnitude, b.log_magnitude)
    np.testing.assert_array_equal(a.sign, b.sign)
    assert float(partition_function(sq).log_magnitude) == float(
        partition_function(again).log_magnitude
    )


@pytest.mark.parametrize(
    "product, family, draw",
    [
        ("hadamard", lambda s, k: GaussianFamily(k), lambda rng: rng.normal(size=(32, 4))),
        (
            "kronecker",
            lambda s, k: CategoricalFamily(k, 3),
            lambda rng: rng.integers(0, 3, size=(32, 4)).astype(float),
        ),
    ],
    ids=["hadamard-gaussian", "kronecker-categorical"],
)
def test_squared_engine_graph_is_refused(rng, tmp_path, product, family, draw):
    # the engine graph's squared flags and Kronecker permutations are not
    # part of the document, so it would reload as a different function
    c = from_region_graph(build_binary_tree(4, seed=3), 3, product, family)
    _nasty_values(c.store, rng)
    sq = square(c)
    refused = tmp_path / "graph.json"
    with pytest.raises(ConfigError, match="save the SquaredCircuit"):
        save_model(sq.circuit, refused)
    assert not refused.exists()
    path = tmp_path / "model.json"
    save_model(sq, path)
    again = load_model(path)
    x = draw(rng)
    a, b = evaluate(sq, x), evaluate(again, x)
    np.testing.assert_array_equal(a.log_magnitude, b.log_magnitude)
    np.testing.assert_array_equal(a.sign, b.sign)


def test_squared_flag_in_document(rng, tmp_path):
    c, _ = random_discrete_circuit(rng)
    doc = model_to_dict(square(c))
    assert doc["kind"] == "squared"
    assert "source" in doc
    rebuilt = model_from_dict(doc)
    assert isinstance(rebuilt, SquaredCircuit)


def test_spline_and_categorical_families_round_trip(rng, tmp_path):
    rg = build_linear_tree(2, 1)
    basis = BSplineBasis.uniform(2, 8, (-1.0, 1.0))

    def factory(scope, k):
        return SplineFamily(k, basis, monotonic=True)

    c = from_region_graph(rg, 3, "hadamard", factory, sum_reparam="exp")
    _nasty_values(c.store, rng)
    path = tmp_path / "model.json"
    save_model(c, path)
    again = load_model(path)
    x = rng.uniform(-1.0, 1.0, size=(16, 2))
    np.testing.assert_array_equal(
        evaluate(c, x).log_magnitude, evaluate(again, x).log_magnitude
    )


def test_mixture_round_trip(rng, tmp_path):
    comps = []
    for seed in range(2):
        rg = build_linear_tree(3, seed)
        c = from_region_graph(rg, 2, "hadamard", lambda s, k: CategoricalFamily(k, 3))
        _nasty_values(c.store, rng)
        comps.append(square(c))
    mix = CircuitMixture.from_components(comps, weights=[0.25, 0.75], learnable=False)
    path = tmp_path / "model.json"
    save_model(mix, path)
    again = load_model(path)
    assert isinstance(again, CircuitMixture)
    x = rng.integers(0, 3, size=(20, 3)).astype(float)
    np.testing.assert_array_equal(mix.log_value(x), again.log_value(x))
    np.testing.assert_array_equal(mix.weights(), again.weights())


def test_document_is_utf8_json_with_version(rng, tmp_path):
    c, _ = random_discrete_circuit(rng)
    path = tmp_path / "model.json"
    save_model(c, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert doc["values"]["encoding"] == "base64-f64le"
    names = [b["name"] for b in doc["parameter_blocks"]]
    assert len(names) == len(set(names))


def _kronecker_document(tmp_path):
    c = from_region_graph(build_binary_tree(3, seed=0), 2, "kronecker", lambda s, k: GaussianFamily(k))
    path = tmp_path / "model.json"
    save_model(square(c), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_document_with_an_unknown_layer_kind_is_refused(tmp_path):
    path, doc = _kronecker_document(tmp_path)
    layer = next(rec for rec in doc["source"]["layers"] if rec["kind"] == "kronecker")
    layer["kind"] = "foo"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PcsqError, match=f"layer {layer['id']} has unknown kind 'foo'"):
        load_model(path)


def test_document_without_layers_is_refused(tmp_path):
    path, doc = _kronecker_document(tmp_path)
    doc["source"]["layers"] = []
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PcsqError, match="a circuit needs at least one layer"):
        load_model(path)


@pytest.mark.parametrize("block, offset, end", [(1, 0, 2), (2, 1, 4)])
def test_block_offsets_that_do_not_tile_the_values_are_refused(tmp_path, block, offset, end):
    # the sizes still add up, so only the offsets show that the blocks
    # would read overlapping slices of the value vector
    c = from_region_graph(build_binary_tree(3, seed=0), 2, "hadamard", lambda s, k: GaussianFamily(k))
    path = tmp_path / "model.json"
    save_model(c, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    rec = doc["parameter_blocks"][block]
    assert rec["offset"] == end
    rec["offset"] = offset
    message = f"parameter block '{rec['name']}' has offset {offset}; the blocks before it end at {end}"
    with pytest.raises(ConfigError, match=message):
        model_from_dict(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "defect", ["missing file", "undecodable json", "missing key", "mistyped key"]
)
def test_unreadable_document_is_an_ingest_error_naming_the_path(tmp_path, defect):
    path, doc = _kronecker_document(tmp_path)
    if defect == "missing file":
        path = tmp_path / "absent.json"
    elif defect == "undecodable json":
        path.write_text(path.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    else:
        if defect == "missing key":
            del doc["source"]["parameter_blocks"]
        else:
            doc["source"]["layers"] = 7
        path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(IngestError) as err:
        load_model(path)
    assert str(path) in str(err.value)


# --- every model kind reloads bit-identically (or is refused on save) ---------


def _kind_binomial(rng, squared):
    c = from_region_graph(
        build_binary_tree(3, int(rng.integers(1 << 30))),
        int(rng.integers(1, 4)),
        "hadamard",
        lambda s, k: BinomialFamily(k, 4),
    )
    _nasty_values(c.store, rng)
    return (square(c) if squared else c), rng.integers(0, 5, size=(16, 3)).astype(float)


def _kind_embedding(rng, squared):
    c, d = random_discrete_circuit(rng, max_vars=5, k_max=3)
    _nasty_values(c.store, rng)
    return (square(c) if squared else c), rng.integers(0, 2, size=(16, d)).astype(float)


def _kind_kronecker(rng, squared):
    # squaring a Kronecker circuit interleaves its units with a permutation
    c = from_region_graph(
        build_binary_tree(4, int(rng.integers(1 << 30))),
        int(rng.integers(1, 3)),
        "kronecker",
        lambda s, k: GaussianFamily(k),
    )
    _nasty_values(c.store, rng)
    return (square(c) if squared else c), rng.normal(size=(16, 4))


def _kind_reduce_psd(rng, squared):
    dim = int(rng.integers(1, 3))
    anchors = rng.normal(size=(4, dim))
    factor = rng.normal(size=(4, 2))
    mix = psd_to_circuit(PsdModel(anchors, float(rng.uniform(0.5, 1.5)), factor @ factor.T))
    return mix, rng.normal(size=(16, dim))


def _kind_reduce_mps(rng, squared):
    d = int(rng.integers(2, 5))
    c = mps_to_circuit(MpsFactorization.random(d, 2, 2, seed=int(rng.integers(1 << 30))))
    return (square(c) if squared else c), rng.integers(0, 2, size=(16, d)).astype(float)


def _kind_udisj(rng, squared):
    sq = udisj_circuit(Graph.matching(int(rng.integers(1, 4))))
    d = sq.variable_count
    return sq, rng.integers(0, 2, size=(16, d)).astype(float)


KINDS = {
    "binomial": _kind_binomial,
    "embedding": _kind_embedding,
    "kronecker-perm": _kind_kronecker,
    "reduce-psd": _kind_reduce_psd,
    "reduce-mps": _kind_reduce_mps,
    "udisj": _kind_udisj,
}


def _evaluations(model, x):
    if isinstance(model, CircuitMixture):
        return [model.log_value(x), np.array(model.partition())]
    # signed models may integrate to a non-positive total, so read Z off the
    # engine rather than through partition_function's positivity check
    graph = model.circuit if isinstance(model, SquaredCircuit) else model
    val = evaluate(model, x)
    z = engine.forward(graph, None, marginalized=range(graph.variable_count)).root
    return [val.log_magnitude, val.sign, z.log_magnitude, z.sign]


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), squared=st.booleans())
def test_every_model_kind_reloads_bit_identically(tmp_path_factory, kind, seed, squared):
    rng = np.random.default_rng(seed)
    model, x = KINDS[kind](rng, squared)
    path = tmp_path_factory.mktemp("doc") / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert type(again) is type(model)
    for got, want in zip(_evaluations(again, x), _evaluations(model, x)):
        np.testing.assert_array_equal(got, want)
    # the engine graphs of squared models are refused, never written
    graphs = [model] if not isinstance(model, CircuitMixture) else model.components
    for graph in graphs:
        if isinstance(graph, SquaredCircuit):
            refused = path.with_name("graph.json")
            with pytest.raises(ConfigError, match="save the SquaredCircuit"):
                save_model(graph.circuit, refused)
            assert not refused.exists()


# --- the document format: every key is read, and older keys are ignored -----


def _key_paths(node, path=()):
    """The path of every dict key in a JSON tree, list indices included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, path + (i,))


def _doc_circuit(rng):
    return from_region_graph(build_binary_tree(3, 1), 2, "hadamard", lambda s, k: GaussianFamily(k))


def _doc_squared(rng):
    basis = BSplineBasis.uniform(2, 3, (-1.0, 1.0))
    c = from_region_graph(build_linear_tree(2, 0), 2, "hadamard", lambda s, k: SplineFamily(k, basis))
    return square(c)


def _doc_mixture(rng):
    comps = [
        square(from_region_graph(build_linear_tree(2, seed), 2, "hadamard", factory))
        for seed, factory in enumerate(
            [lambda s, k: CategoricalFamily(k, 3), lambda s, k: BinomialFamily(k, 2)]
        )
    ]
    return CircuitMixture.from_components(comps)


def _doc_psd(rng):
    factor = rng.normal(size=(3, 2))
    return psd_to_circuit(PsdModel(rng.normal(size=(3, 1)), 0.8, factor @ factor.T))


@pytest.mark.parametrize(
    "build", [_doc_circuit, _doc_squared, _doc_mixture, _doc_psd],
    ids=["circuit", "squared", "mixture", "psd-mixture"],
)
def test_every_document_key_is_read(rng, tmp_path, build):
    doc = model_to_dict(build(rng))
    path = tmp_path / "model.json"
    unread = []
    for key_path in _key_paths(doc):
        broken = json.loads(json.dumps(doc))
        parent = broken
        for key in key_path[:-1]:
            parent = parent[key]
        del parent[key_path[-1]]
        path.write_text(json.dumps(broken), encoding="utf-8")
        try:
            load_model(path)
        except PcsqError:
            continue
        unread.append(key_path)
    assert unread == []


# document keys that hold an integer or a list of integers
_INTEGER_KEYS = {"id", "width", "inputs", "scope", "offset", "shape", "units", "states", "order"}


def _integer_paths(node, path=()):
    """Key paths of every integer the document keeps under an integer key."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _INTEGER_KEYS and isinstance(value, list):
                yield from (path + (key, i) for i in range(len(value)))
            elif key in _INTEGER_KEYS:
                yield path + (key,)
            else:
                yield from _integer_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _integer_paths(value, path + (i,))


@pytest.mark.parametrize(
    "build", [_doc_circuit, _doc_squared, _doc_mixture, _doc_psd],
    ids=["circuit", "squared", "mixture", "psd-mixture"],
)
def test_every_document_integer_is_type_checked(rng, tmp_path, build):
    # 2.0, 2.5 and True each compare or truncate like an integer somewhere,
    # so a document holding one must be refused, not loaded
    doc = model_to_dict(build(rng))
    path = tmp_path / "model.json"
    paths = list(_integer_paths(doc))
    assert {p[-1] if isinstance(p[-1], str) else p[-2] for p in paths} >= {"id", "units", "shape"}
    wrong = []
    for key_path in paths:
        for mistype in (float, lambda v: v + 0.5, bool):
            broken = json.loads(json.dumps(doc))
            parent = broken
            for key in key_path[:-1]:
                parent = parent[key]
            parent[key_path[-1]] = mistype(parent[key_path[-1]])
            path.write_text(json.dumps(broken), encoding="utf-8")
            try:
                load_model(path)
                outcome = "loaded"
            except PcsqError as exc:
                if isinstance(exc, IngestError) and "must hold integers" in str(exc):
                    continue
                outcome = repr(exc)
            wrong.append((key_path, parent[key_path[-1]], outcome))
    assert wrong == []


def test_older_document_keys_are_ignored(rng, tmp_path):
    # documents once also carried the variable count, the output index, a
    # squared flag and a region graph; none of them is read, so even a
    # region graph that could not be rebuilt does not stop the load
    c = from_region_graph(build_binary_tree(4, seed=3), 3, "hadamard", lambda s, k: GaussianFamily(k))
    _nasty_values(c.store, rng)
    sq = square(c)
    doc = model_to_dict(sq)
    doc["squared"] = True
    doc["source"].update(
        variable_count=4,
        output_layer=len(c.layers) - 1,
        region_graph={
            "variable_count": 4,
            "root": 0,
            "nodes": [{"id": 0, "kind": "region", "scope": [0, 1, 2, 3], "parent": None}],
        },
    )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    again = load_model(path)
    x = rng.normal(size=(16, 4))
    for got, want in zip(_evaluations(again, x), _evaluations(sq, x)):
        np.testing.assert_array_equal(got, want)
