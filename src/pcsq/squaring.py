"""Layer-wise circuit squaring.

Squaring a structured-decomposable circuit c yields a smooth,
structured-decomposable circuit computing c^2 over the same tree region
graph: input layers of K functions become K^2 pairwise products, Hadamard
products square factor-wise, and a sum layer with matrix W becomes a sum
with W (x) W -- realized lazily as two contractions against W, never
materialized, so training updates flow through the shared parameters.
A Kronecker layer over inputs of K_a^2 and K_b^2 squared units computes
the Kronecker product of their (K_a, K_a) and (K_b, K_b) matrices, which
lays its units out in the interleaved order (a1 b1) x (a2 b2) directly.

Deterministic circuits short-circuit: squaring them only squares weights
and input functions, leaving structure and size unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from pcsq.circuits import (
    INPUT,
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

    @property
    def store(self):
        return self.source.store

    @property
    def variable_count(self):
        return self.source.variable_count


def square(c: TensorizedCircuit) -> SquaredCircuit:
    """Construct the squared circuit of a structured-decomposable source."""
    if not check_property(c, "structured_decomposable"):
        raise UnsupportedStructureError(
            "squaring requires a structured-decomposable circuit"
        )
    # layer ids are positional, so squared layer i squares source layer i
    layers = [
        replace(src, output_width=src.output_width**2, inputs=list(src.inputs), squared=True)
        for src in c.layers
    ]
    squared = TensorizedCircuit(
        layers=layers,
        output_layer=c.output_layer,
        store=c.store,
        variable_count=c.variable_count,
        region_graph=c.region_graph,
    )
    return SquaredCircuit(circuit=squared.assert_valid(), source=c)


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
