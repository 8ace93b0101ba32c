"""Model document serialization.

A model saves as one UTF-8 JSON document carrying the region graph, the
layer list, the parameter-block table, and the flat value vector encoded
as base64 of raw little-endian IEEE-754 bits (bit-exact round trip; JSON
decimals cannot carry non-finite floats).  Squared models serialize by
reference to their source circuit plus a ``squared: true`` flag and are
re-squared on load; mixtures nest their component documents.
"""

from __future__ import annotations

import base64
import json
import os

import numpy as np

from pcsq.circuits import Layer, ParameterStore, TensorizedCircuit
from pcsq.errors import ConfigError
from pcsq.families import family_from_dict
from pcsq.mixtures import CircuitMixture
from pcsq.regions import RegionGraph
from pcsq.squaring import SquaredCircuit, square

FORMAT_VERSION = 1


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
        "variable_count": c.variable_count,
        "output_layer": c.output_layer,
        "region_graph": None if c.region_graph is None else c.region_graph.to_dict(),
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
    rg = None if doc["region_graph"] is None else RegionGraph.from_dict(doc["region_graph"])
    circuit = TensorizedCircuit(
        layers=layers,
        output_layer=doc["output_layer"],
        store=store,
        variable_count=doc["variable_count"],
        region_graph=rg,
    )
    return circuit.assert_valid()


def model_to_dict(model):
    if isinstance(model, SquaredCircuit):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "squared",
            "squared": True,
            "source": circuit_to_dict(model.source),
        }
    if isinstance(model, TensorizedCircuit):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "circuit",
            "squared": False,
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
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
