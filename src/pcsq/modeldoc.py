"""Model document serialization.

A model saves as one UTF-8 JSON document: a circuit as its layer list
(output last), its parameter-block table, and its flat value vector
encoded as base64 of raw little-endian IEEE-754 bits (bit-exact round
trip; JSON decimals cannot carry non-finite floats).  Squared models
serialize by reference to their source circuit and are re-squared on
load; mixtures nest their component documents.  Loading reads every key,
refuses a non-integer where an integer belongs, and validates each
circuit; the keys older documents also carry (a variable count, an
output index, a region graph, a squared flag) are ignored.
"""

from __future__ import annotations

import base64
import json
import os

import numpy as np

from pcsq.circuits import Layer, ParameterStore, TensorizedCircuit
from pcsq.errors import ConfigError, IngestError
from pcsq.families import family_from_dict
from pcsq.mixtures import CircuitMixture
from pcsq.squaring import SquaredCircuit, square

FORMAT_VERSION = 1

# document keys that hold an integer or a list of integers
_INTEGER_KEYS = frozenset(
    {"id", "width", "inputs", "scope", "offset", "shape", "units", "states", "order"}
)


def _check_integers(node):
    """Raise TypeError at the first integer key whose value is not an int or
    a list of ints: 2.0, 2.5 and True would each pass for an integer
    somewhere, in a comparison or a truncation, before failing later."""
    if isinstance(node, list):
        for item in node:
            _check_integers(item)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key not in _INTEGER_KEYS:
                _check_integers(value)
            elif not all(type(v) is int for v in (value if isinstance(value, list) else [value])):
                raise TypeError(f"{key!r} must hold integers, got {value!r}")


def _encode_values(values):
    return {
        "encoding": "base64-f64le",
        "data": base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode(
            "ascii"
        ),
    }


def _decode_values(doc):
    if doc["encoding"] != "base64-f64le":
        raise ConfigError(f"unknown value encoding {doc['encoding']!r}")
    return np.frombuffer(base64.b64decode(doc["data"]), dtype="<f8").copy()


def _blocks_to_list(store: ParameterStore):
    return [
        {
            "name": b.name,
            "offset": b.offset,
            "shape": list(b.shape),
            "reparam": b.reparam,
            "trainable": b.trainable,
        }
        for b in sorted(store.blocks.values(), key=lambda b: b.offset)
    ]


def _store_from_parts(blocks, values_doc):
    store = ParameterStore()
    values = _decode_values(values_doc)
    for rec in blocks:
        size = int(np.prod(rec["shape"])) if rec["shape"] else 1
        if rec["offset"] != store.values.size:  # blocks lie end to end, in offset order
            raise ConfigError(
                f"parameter block {rec['name']!r} has offset {rec['offset']}; "
                f"the blocks before it end at {store.values.size}"
            )
        store.add_block(
            rec["name"],
            tuple(rec["shape"]),
            rec["reparam"],
            trainable=rec["trainable"],
            init=values[rec["offset"] : rec["offset"] + size],
        )
    if store.values.size != values.size:
        raise ConfigError("parameter blocks do not tile the value vector")
    return store


def circuit_to_dict(c: TensorizedCircuit):
    annotated = [l.layer_id for l in c.layers if l.squared]
    if annotated:
        raise ConfigError(
            f"layers {annotated} carry squaring annotations that a model document does "
            "not keep; save the SquaredCircuit instead of its engine graph"
        )
    return {
        "layers": [
            {
                "id": l.layer_id,
                "kind": l.kind,
                "scope": list(l.scope),
                "width": l.output_width,
                "inputs": list(l.inputs),
                "param_block": l.param_block,
                "family": None if l.family is None else l.family.to_dict(),
            }
            for l in c.layers
        ],
        "parameter_blocks": _blocks_to_list(c.store),
        "values": _encode_values(c.store.values),
    }


def circuit_from_dict(doc) -> TensorizedCircuit:
    store = _store_from_parts(doc["parameter_blocks"], doc["values"])
    layers = []
    for rec in doc["layers"]:
        family = None if rec["family"] is None else family_from_dict(rec["family"])
        layers.append(
            Layer(
                rec["id"],
                rec["kind"],
                tuple(rec["scope"]),
                rec["width"],
                inputs=list(rec["inputs"]),
                param_block=rec["param_block"],
                family=family,
            )
        )
    return TensorizedCircuit(layers, store).assert_valid()


def model_to_dict(model):
    if isinstance(model, SquaredCircuit):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "squared",
            "source": circuit_to_dict(model.source),
        }
    if isinstance(model, TensorizedCircuit):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "circuit",
            **circuit_to_dict(model),
        }
    if isinstance(model, CircuitMixture):
        block = model.store.blocks[model.weight_block]
        return {
            "format_version": FORMAT_VERSION,
            "kind": "mixture",
            "components": [model_to_dict(c) for c in model.components],
            "weights": {
                "free_values": _encode_values(model.store.free(model.weight_block)),
                "reparam": block.reparam,
                "trainable": block.trainable,
            },
        }
    raise ConfigError(f"cannot serialize a {type(model).__name__}")


def model_from_dict(doc):
    _check_integers(doc)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported model format version {doc.get('format_version')!r}")
    kind = doc["kind"]
    if kind == "circuit":
        return circuit_from_dict(doc)
    if kind == "squared":
        return square(circuit_from_dict(doc["source"]))
    if kind == "mixture":
        components = [model_from_dict(c) for c in doc["components"]]
        spec = doc["weights"]
        mixture = CircuitMixture.from_components(components)
        store = ParameterStore()
        block = store.add_block(
            "mixture.weights",
            (len(components),),
            spec["reparam"],
            trainable=spec["trainable"],
            init=_decode_values(spec["free_values"]),
        )
        mixture.store = store
        mixture.weight_block = block
        return mixture
    raise ConfigError(f"unknown model kind {kind!r}")


def save_model(model, path):
    """Write ``model.json``, creating its directory."""
    doc = model_to_dict(model)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path):
    """Read ``model.json``.  An unreadable file, undecodable JSON, or a
    missing or mistyped key is an IngestError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return model_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IngestError(f"{path}: not a readable model document ({exc!r})") from exc
