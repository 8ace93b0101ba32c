"""Tensorized circuits: layered computation graphs with scopes.

A circuit is a topologically-ordered list of layers (input / sum /
hadamard-product / kronecker-product) plus one flat float64 parameter
store.  The layers form a binary tree with the output last: every other
layer has exactly one reader, and every product layer two factors.
Construction from a tree region graph yields a smooth,
structured-decomposable circuit by design: one input layer per leaf
region, one product+sum pair per partition, and a width-1 sum at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pcsq.errors import ConfigError, PcsqError, UnsupportedStructureError
from pcsq.regions import RegionGraph, normalize_scope, validate as validate_region_graph


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ParamBlock:
    name: str
    offset: int
    shape: tuple
    reparam: str = "identity"  # identity | exp | softmax_row
    trainable: bool = True
    size: int = field(init=False)

    def __post_init__(self):
        self.size = math.prod(self.shape)


class ParameterStore:
    """Flat float64 parameter vector with per-block views and a gradient
    buffer.  Blocks carry a reparameterization tag; gradients are always
    taken w.r.t. the free (pre-reparameterization) values.
    """

    def __init__(self):
        self.values = np.zeros(0)
        self.gradients = np.zeros(0)
        self.blocks = {}
        self.version = 0

    def add_block(self, name, shape, reparam="identity", trainable=True, init=None):
        if name in self.blocks:
            raise ConfigError(f"duplicate parameter block {name!r}")
        if reparam not in ("identity", "exp", "softmax_row"):
            raise ConfigError(f"unknown reparameterization {reparam!r}")
        block = ParamBlock(name, self.values.size, tuple(int(s) for s in shape), reparam, trainable)
        if init is None:
            chunk = np.zeros(block.size)
        else:
            chunk = np.asarray(init, dtype=np.float64).reshape(-1)
            if chunk.size != block.size:
                raise ConfigError(f"init for {name!r} has wrong size")
        self.values = np.concatenate([self.values, chunk])
        self.gradients = np.zeros_like(self.values)
        self.blocks[name] = block
        self.version += 1
        return name

    def _slice(self, name):
        b = self.blocks[name]
        return slice(b.offset, b.offset + b.size)

    def free(self, name):
        b = self.blocks[name]
        return self.values[self._slice(name)].reshape(b.shape)

    def set_free(self, name, arr):
        self.values[self._slice(name)] = np.asarray(arr, dtype=np.float64).reshape(-1)
        self.bump()

    def effective(self, name):
        b = self.blocks[name]
        free = self.free(name)
        if b.reparam == "identity":
            return free
        if b.reparam == "exp":
            return np.exp(free)
        # softmax over the trailing axis, stabilized
        shifted = free - free.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def grad_view(self, name):
        b = self.blocks[name]
        return self.gradients[self._slice(name)].reshape(b.shape)

    def accumulate_effective_grad(self, name, grad_effective):
        """Chain a gradient w.r.t. effective values back to the free block."""
        b = self.blocks[name]
        g = np.asarray(grad_effective, dtype=np.float64).reshape(b.shape)
        if b.reparam == "identity":
            free_grad = g
        elif b.reparam == "exp":
            free_grad = g * self.effective(name)
        else:
            p = self.effective(name)
            free_grad = p * (g - np.sum(g * p, axis=-1, keepdims=True))
        self.gradients[self._slice(name)] += free_grad.reshape(-1)

    def zero_grad(self):
        self.gradients[:] = 0.0

    def bump(self):
        self.version += 1

    def trainable_mask(self):
        mask = np.zeros(self.values.size, dtype=bool)
        for b in self.blocks.values():
            if b.trainable:
                mask[b.offset : b.offset + b.size] = True
        return mask

    def snapshot(self):
        return self.values.copy()

    def restore(self, snapshot):
        self.values[:] = snapshot
        self.bump()


# ---------------------------------------------------------------------------
# layers and circuits

INPUT, SUM, HADAMARD, KRONECKER = "input", "sum", "hadamard", "kronecker"


@dataclass
class Layer:
    layer_id: int
    kind: str
    scope: tuple
    output_width: int
    inputs: list = field(default_factory=list)
    param_block: str | None = None
    family: object | None = None
    # squared-circuit annotation
    squared: bool = False


@dataclass
class TensorizedCircuit:
    layers: list
    output_layer: int
    store: ParameterStore
    variable_count: int
    region_graph: RegionGraph | None = None

    def layer(self, layer_id) -> Layer:
        return self.layers[layer_id]

    def input_layers(self):
        return [l for l in self.layers if l.kind == INPUT]

    def sum_layers(self):
        return [l for l in self.layers if l.kind == SUM]

    def product_layers(self):
        return [l for l in self.layers if l.kind in (HADAMARD, KRONECKER)]

    def effective_weights(self, layer: Layer):
        return self.store.effective(layer.param_block)

    def states_per_variable(self):
        """Map variable -> number of discrete states (None if continuous)."""
        states = {}
        for l in self.input_layers():
            for v in l.scope:
                states[v] = l.family.num_states
        return states

    def assert_valid(self):
        """Return the circuit, or raise PcsqError naming the first layer that
        breaks its structure: positional ids in topological order; an input
        layer has a family, a sum layer one input and a parameter block, a
        product layer two inputs with disjoint scopes; each scope is the
        union of its inputs'; and the layers form a binary tree, so every
        layer but the output has exactly one reader and the output, which
        has none, is the last layer."""
        seen = set()
        readers = [0] * len(self.layers)
        for i, l in enumerate(self.layers):
            if l.layer_id != i:
                raise PcsqError(f"layer ids must be positional, got {l.layer_id} at {i}")
            for j in l.inputs:
                if j not in seen:
                    raise PcsqError(f"layer {i} consumes layer {j} before it is defined")
                readers[j] += 1
            if l.kind == INPUT:
                if l.inputs:
                    raise PcsqError("input layers take no inputs")
                if l.family is None:
                    raise PcsqError("input layers need a family")
            elif l.kind == SUM:
                if len(l.inputs) != 1:
                    raise PcsqError("sum layers take exactly one input (smoothness)")
                if l.param_block is None:
                    raise PcsqError("sum layers need a parameter block")
            else:
                if len(l.inputs) != 2:
                    raise PcsqError(f"product layer {i} takes two inputs, not {len(l.inputs)}")
                widths = [self.layer(j).output_width for j in l.inputs]
                if l.kind == HADAMARD:
                    if len(set(widths)) != 1 or l.output_width != widths[0]:
                        raise PcsqError("hadamard inputs must share the output width")
                else:
                    if l.output_width != int(np.prod(widths)):
                        raise PcsqError("kronecker width must be the product of input widths")
                merged = [v for j in l.inputs for v in self.layer(j).scope]
                if len(merged) != len(set(merged)):
                    raise PcsqError(f"product layer {i} has overlapping input scopes")
            if l.kind != INPUT:
                union = normalize_scope(
                    [v for j in l.inputs for v in self.layer(j).scope]
                )
                if l.scope != union:
                    raise PcsqError(f"layer {i} scope must equal the union of input scopes")
            seen.add(i)
        for j, count in enumerate(readers):
            want = int(j != self.output_layer)
            if count != want:
                raise PcsqError(
                    f"layer {j} is read by {count} layers, not {want}: the layers must form "
                    "a binary tree with the output last"
                )
        out = self.layer(self.output_layer)
        if out.scope != tuple(range(self.variable_count)):
            raise PcsqError("output layer scope must cover every variable")
        return self


# ---------------------------------------------------------------------------
# construction from a region graph


def from_region_graph(
    rg: RegionGraph, width, product_kind="hadamard", family_factory=None, sum_reparam="identity"
):
    """Build a smooth, structured-decomposable circuit over a tree region
    graph.

    Leaf regions become input layers of ``width`` units, every partition
    becomes a product layer over its children followed by a sum layer
    (width ``width``, or 1 at the root), and a lone leaf root gets a 1 x K
    sum head.  ``family_factory(scope, units)`` must return an unregistered
    input family suitable for the variables in ``scope``.  Monotonic
    circuits pass sum_reparam="exp" to keep every effective weight
    positive.
    """
    if width < 1:
        raise ConfigError("width must be >= 1")
    if product_kind not in (HADAMARD, KRONECKER):
        raise ConfigError(f"unknown product kind {product_kind!r}")
    if family_factory is None:
        raise ConfigError("family_factory is required")
    problems = validate_region_graph(rg)
    if problems:
        raise ConfigError(f"invalid region graph: {problems[0].code}: {problems[0].detail}")

    store = ParameterStore()
    layers = []

    def add_layer(kind, scope, width_, inputs=None, param_block=None, family=None):
        layer = Layer(len(layers), kind, normalize_scope(scope), width_, inputs or [], param_block, family)
        layers.append(layer)
        return layer.layer_id

    def build_region(region_id):
        node = rg.node(region_id)
        if not node.children:
            family = family_factory(node.scope, width)
            lid = add_layer(INPUT, node.scope, width, family=family)
            family.register(store, f"L{lid}.")
            return lid
        part = rg.node(node.children[0])
        child_tops = [build_region(c) for c in part.children]
        if product_kind == HADAMARD:
            prod_width = width
        else:
            prod_width = int(np.prod([layers[c].output_width for c in child_tops]))
        pid = add_layer(product_kind, node.scope, prod_width, inputs=child_tops)
        out_width = 1 if region_id == rg.root else width
        block = store.add_block(f"L{len(layers)}.weight", (out_width, prod_width), sum_reparam)
        return add_layer(SUM, node.scope, out_width, inputs=[pid], param_block=block)

    top = build_region(rg.root)
    if layers[top].kind == INPUT:
        # single-region graph: still give the circuit a scalar sum head
        block = store.add_block(f"L{len(layers)}.weight", (1, width), sum_reparam)
        top = add_layer(SUM, layers[top].scope, 1, inputs=[top], param_block=block)
    circuit = TensorizedCircuit(
        layers=layers,
        output_layer=top,
        store=store,
        variable_count=rg.variable_count,
        region_graph=rg,
    )
    return circuit.assert_valid()


# ---------------------------------------------------------------------------
# structural properties and size


def _is_smooth(c: TensorizedCircuit):
    for l in c.sum_layers():
        if len(l.inputs) != 1:
            return False
        if any(c.layer(j).scope != l.scope for j in l.inputs):
            return False
    return True


def _is_decomposable(c: TensorizedCircuit):
    for l in c.product_layers():
        merged = [v for j in l.inputs for v in c.layer(j).scope]
        if len(merged) != len(set(merged)):
            return False
    return True


def _is_structured_decomposable(c: TensorizedCircuit):
    if not (_is_smooth(c) and _is_decomposable(c)):
        return False
    seen = {}
    for l in c.product_layers():
        split = tuple(sorted(c.layer(j).scope for j in l.inputs))
        if l.scope in seen and seen[l.scope] != split:
            return False
        seen[l.scope] = split
    return True


def _is_monotonic(c: TensorizedCircuit):
    return all(np.all(c.effective_weights(l) >= 0.0) for l in c.sum_layers())


def _enumerate_scope(c: TensorizedCircuit, scope, limit=1 << 20):
    states = c.states_per_variable()
    sizes = []
    for v in scope:
        m = states.get(v)
        if m is None:
            raise UnsupportedStructureError(
                "determinism check requires finite-discrete inputs"
            )
        sizes.append(m)
    total = int(np.prod(sizes, dtype=np.int64))
    if total > limit:
        raise UnsupportedStructureError(
            f"determinism check over {total} assignments exceeds the enumeration limit"
        )
    grids = np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")
    x = np.zeros((total, c.variable_count))
    for v, g in zip(scope, grids):
        x[:, v] = g.reshape(-1)
    return x


def _is_deterministic(c: TensorizedCircuit):
    from pcsq import engine  # local import; engine depends on this module

    for l in c.sum_layers():
        src = c.layer(l.inputs[0])
        x = _enumerate_scope(c, src.scope)
        result = engine.forward(c, x, space="linear")
        support = result.outputs[src.layer_id] != 0.0  # (assignments, units)
        weights = c.effective_weights(l)
        for row in weights:
            active = row != 0.0
            if active.sum() < 2:
                continue
            if np.any(support[:, active].sum(axis=1) > 1):
                return False
    return True


_PROPERTY_CHECKS = {
    "smooth": _is_smooth,
    "decomposable": _is_decomposable,
    "structured_decomposable": _is_structured_decomposable,
    "monotonic": _is_monotonic,
    "deterministic_inputs": _is_deterministic,
}


def check_property(c: TensorizedCircuit, prop: str) -> bool:
    """Structural property test; see the glossary names in the README."""
    if prop not in _PROPERTY_CHECKS:
        raise ConfigError(f"unknown property {prop!r}; choices: {sorted(_PROPERTY_CHECKS)}")
    return _PROPERTY_CHECKS[prop](c)


def circuit_size(c: TensorizedCircuit) -> int:
    """Number of scalar input connections across all layers.

    Sum layers with an S x K matrix count S*K; Hadamard products of N
    width-K inputs count N*K; Kronecker products of N width-K inputs count
    K^(N+1).  Input layers contribute nothing.
    """
    total = 0
    for l in c.layers:
        if l.kind == SUM:
            k = c.layer(l.inputs[0]).output_width
            total += l.output_width * k
        elif l.kind == HADAMARD:
            total += len(l.inputs) * l.output_width
        elif l.kind == KRONECKER:
            widths = [c.layer(j).output_width for j in l.inputs]
            if len(set(widths)) == 1:
                total += widths[0] ** (len(widths) + 1)
            else:
                total += len(widths) * int(np.prod(widths))
    return total
