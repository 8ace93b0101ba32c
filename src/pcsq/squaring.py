"""Layer-wise circuit squaring.

Squaring a structured-decomposable circuit c yields a smooth,
structured-decomposable circuit computing c^2 over the same tree region
graph: input layers of K functions become K^2 pairwise products, Hadamard
products square factor-wise, and a sum layer with matrix W becomes a sum
with W (x) W -- realized lazily as two contractions against W, never
materialized, so training updates flow through the shared parameters.
Kronecker product layers additionally need a fixed index permutation to
restore interleaved ordering; it is kept as an index table, not a matrix.

Deterministic circuits short-circuit: squaring them only squares weights
and input functions, leaving structure and size unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from pcsq.circuits import (
    INPUT,
    KRONECKER,
    SUM,
    Layer,
    ParameterStore,
    TensorizedCircuit,
    check_property,
)
from pcsq.errors import PreconditionError, UnsupportedStructureError
from pcsq.families import EmbeddingFamily


@dataclass
class SquaredCircuit:
    """A circuit whose layers compute the squared source, sharing the
    source's ParameterStore read-only.

    Squared sum-layer parameters are always the Kronecker square of the
    source weights, recomputed from the shared blocks at evaluation time;
    they are never trained independently.
    """

    circuit: TensorizedCircuit
    source: TensorizedCircuit
    layer_map: dict

    @property
    def store(self):
        return self.source.store

    @property
    def variable_count(self):
        return self.source.variable_count


def _kron_interleave_perm(ka, kb):
    # source layout (a1, a2, b1, b2) -> target layout (a1, b1, a2, b2)
    idx = np.arange(ka * ka * kb * kb).reshape(ka, ka, kb, kb)
    return np.ascontiguousarray(idx.transpose(0, 2, 1, 3)).reshape(-1)


def square(c: TensorizedCircuit) -> SquaredCircuit:
    """Construct the squared circuit of a structured-decomposable source."""
    if not check_property(c, "structured_decomposable"):
        raise UnsupportedStructureError(
            "squaring requires a structured-decomposable circuit"
        )
    layers = []
    layer_map = {}
    for src in c.layers:
        perm = None
        if src.kind == KRONECKER:
            widths = [c.layer(j).output_width for j in src.inputs]
            if len(widths) != 2:
                raise UnsupportedStructureError("squaring expects binary kronecker layers")
            perm = _kron_interleave_perm(widths[0], widths[1])
        layer_map[src.layer_id] = len(layers)
        layers.append(
            replace(
                src,
                layer_id=len(layers),
                output_width=src.output_width**2,
                inputs=[layer_map[j] for j in src.inputs],
                squared=True,
                perm=perm,
            )
        )
    squared = TensorizedCircuit(
        layers=layers,
        output_layer=layer_map[c.output_layer],
        store=c.store,
        variable_count=c.variable_count,
        region_graph=c.region_graph,
    )
    return SquaredCircuit(circuit=squared.assert_valid(), source=c, layer_map=layer_map)


def square_deterministic(c: TensorizedCircuit) -> TensorizedCircuit:
    """Squaring shortcut for deterministic circuits.

    When every sum layer's active inputs have pairwise disjoint supports,
    cross terms vanish: the square keeps the exact topology, squares the
    sum weights elementwise, and squares the input functions pointwise.
    The result is monotonic by construction.
    """
    if not (check_property(c, "smooth") and check_property(c, "decomposable")):
        raise PreconditionError("deterministic squaring needs a smooth, decomposable circuit")
    try:
        deterministic = check_property(c, "deterministic_inputs")
    except UnsupportedStructureError as exc:
        raise PreconditionError(str(exc)) from exc
    if not deterministic:
        raise PreconditionError("circuit is not deterministic")

    store = ParameterStore()
    layers = []
    for src in c.layers:
        if src.kind == INPUT:
            table = src.family.value_table(c.store)
            family = EmbeddingFamily(src.family.units, table.shape[1])
            layer = Layer(src.layer_id, INPUT, src.scope, src.output_width, family=family)
            family.register(store, f"L{src.layer_id}.")
            store.set_free(family.blocks["values"], table**2)
        elif src.kind == SUM:
            weights = c.effective_weights(src)
            block = store.add_block(
                f"L{src.layer_id}.weight", weights.shape, init=weights**2
            )
            layer = Layer(
                src.layer_id,
                SUM,
                src.scope,
                src.output_width,
                inputs=list(src.inputs),
                param_block=block,
            )
        else:
            layer = Layer(
                src.layer_id,
                src.kind,
                src.scope,
                src.output_width,
                inputs=list(src.inputs),
                perm=None if src.perm is None else src.perm.copy(),
            )
        layers.append(layer)
    out = TensorizedCircuit(
        layers=layers,
        output_layer=c.output_layer,
        store=store,
        variable_count=c.variable_count,
        region_graph=c.region_graph,
    )
    return out.assert_valid()
