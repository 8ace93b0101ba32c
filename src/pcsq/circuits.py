"""Tensorized circuits: layered computation graphs with scopes.

A circuit is its layers and its store: a topologically-ordered list of
layers (input / sum / hadamard-product / kronecker-product) plus one flat
float64 parameter store.  The layers form a binary tree with the output
last, one unit wide over the variables 0..n-1: every other layer has
exactly one reader, and every product layer two factors.  So the output
layer and the variable count are read off the layer list, and the tree
of layer scopes is the circuit's region graph.
:meth:`TensorizedCircuit.assert_valid` is the one structural check; a
valid circuit is smooth, decomposable and structured-decomposable by
construction, so :func:`check_property` answers those three by it.
Construction from a tree region graph yields such a circuit: one input
layer per leaf region, one product+sum pair per split region, and a width-1
sum at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pcsq.errors import ConfigError, PcsqError, UnsupportedStructureError
from pcsq.regions import RegionGraph, normalize_scope
from pcsq.slog import log_weighted_sum


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
        return log_weighted_sum(np.ones(free.shape[-1]), free)[1]  # softmax over the last axis

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
    store: ParameterStore

    @property
    def output_layer(self):
        return len(self.layers) - 1

    @property
    def variable_count(self):
        return len(self.layers[-1].scope)

    def layer(self, layer_id) -> Layer:
        return self.layers[layer_id]

    def input_layers(self):
        return [l for l in self.layers if l.kind == INPUT]

    def sum_layers(self):
        return [l for l in self.layers if l.kind == SUM]

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
        breaks its structure: positional ids in topological order; each layer
        is an input, sum, Hadamard or Kronecker layer; an input layer has a
        non-empty scope and a family of its width whose blocks are the ones
        its kind registers, in the store with their shapes and
        reparameterizations; a sum layer has one input and a (width, input
        width) block in the store, each side squared on a squared layer; a
        product layer has two inputs with disjoint scopes; each scope is the
        union of its inputs'; the layers form a binary tree, so every layer
        but the output has exactly one reader and the output, which has
        none, is the last layer; and the output is one unit wide over the
        variables 0..n-1."""
        if not self.layers:
            raise PcsqError("a circuit needs at least one layer")
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
                if not l.scope:
                    raise PcsqError(f"input layer {i} has an empty scope")
                self._check_family(l)
            elif l.kind == SUM:
                if len(l.inputs) != 1:
                    raise PcsqError("sum layers take exactly one input (smoothness)")
                shape = self._block(l, l.param_block).shape
                if l.squared:
                    shape = tuple(s * s for s in shape)
                if shape != (l.output_width, self.layer(l.inputs[0]).output_width):
                    raise PcsqError(
                        f"sum layer {i}'s block {l.param_block!r} does not map its input's "
                        "width to its own"
                    )
            elif l.kind in (HADAMARD, KRONECKER):
                if len(l.inputs) != 2:
                    raise PcsqError(f"product layer {i} takes two inputs, not {len(l.inputs)}")
                a, b = (self.layer(j) for j in l.inputs)
                if l.kind == HADAMARD:
                    if not l.output_width == a.output_width == b.output_width:
                        raise PcsqError("hadamard inputs must share the output width")
                elif l.output_width != a.output_width * b.output_width:
                    raise PcsqError("kronecker width must be the product of input widths")
                merged = a.scope + b.scope
                if len(merged) != len(set(merged)):
                    raise PcsqError(f"product layer {i} has overlapping input scopes")
            else:
                raise PcsqError(f"layer {i} has unknown kind {l.kind!r}")
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
            raise PcsqError(f"output layer scope {out.scope} is not the variables 0..n-1")
        if out.output_width != 1:
            raise PcsqError(f"output layer {out.layer_id} has width {out.output_width}, not 1")
        return self

    def _check_family(self, l: Layer):
        family = l.family
        if (family.units**2 if l.squared else family.units) != l.output_width:
            raise PcsqError(f"input layer {l.layer_id}'s family does not match its width")
        specs = family.block_specs()
        if sorted(family.blocks) != sorted(specs):
            raise PcsqError(
                f"input layer {l.layer_id}'s {family.kind} family names blocks "
                f"{sorted(family.blocks)}, not {sorted(specs)}"
            )
        for key, (shape, reparam) in specs.items():
            block = self._block(l, family.blocks[key])
            if (block.shape, block.reparam) != (shape, reparam):
                raise PcsqError(
                    f"input layer {l.layer_id}'s block {key!r} is not a {shape} {reparam} block"
                )

    def _block(self, l: Layer, name):
        if name not in self.store.blocks:
            raise PcsqError(f"layer {l.layer_id} reads block {name!r}, which the store lacks")
        return self.store.blocks[name]


# ---------------------------------------------------------------------------
# stacks of circuits that share one layer tree


class StackedStore:
    """The stores of C circuits whose layers pair up, seen as one store of
    the first circuit's block names.  ``names`` maps each of those names to
    the paired block of every circuit; ``effective`` stacks the C blocks'
    effective values along a leading axis, and ``accumulate_effective_grad``
    hands slice c of a (C, ...) gradient to circuit c's store under its own
    name."""

    def __init__(self, stores, names):
        self.stores = stores
        self.names = names
        self._stacked = {}  # name -> (version, read-only stacked values)

    @property
    def version(self):
        return tuple(s.version for s in self.stores)

    @property
    def gradients(self):
        return np.concatenate([s.gradients for s in self.stores])

    def effective(self, name):
        """The C blocks' effective values stacked, rebuilt only after one of
        the stores changes: a step reads each block several times."""
        version = self.version
        entry = self._stacked.get(name)
        if entry is None or entry[0] != version:
            value = np.stack([s.effective(n) for s, n in zip(self.stores, self.names[name])])
            value.setflags(write=False)
            entry = self._stacked[name] = (version, value)
        return entry[1]

    def accumulate_effective_grad(self, name, grad_effective):
        for s, n, g in zip(self.stores, self.names[name], grad_effective):
            s.accumulate_effective_grad(n, g)


@dataclass
class StackedCircuit(TensorizedCircuit):
    """C circuits as one: the first one's layers over a :class:`StackedStore`,
    with a leading component axis on every value a pass carries (see
    :mod:`pcsq.engine`).  ``components`` are the C models whose circuits
    these are, whose partition-function counters a stacked Z pass raises."""

    components: list = field(default_factory=list)


def _pairing(circuit, layer):
    """What a layer shares with its partner in a stackable circuit: kind,
    scope, width and squaring; its inputs' (kind, scope), in order except
    under a Hadamard product, which commutes; the shapes and reparams of its
    blocks; and an input layer's family kind, units and hyperparameters,
    for a family with stacked methods."""
    inputs = [(circuit.layer(j).kind, circuit.layer(j).scope) for j in layer.inputs]
    blocks = {"weight": layer.param_block} if layer.kind == SUM else {}
    family = None
    if layer.kind == INPUT:
        if not layer.family.stackable:
            return None
        blocks = layer.family.blocks
        family = (layer.family.kind, layer.family.units, layer.family.hyper_dict())
    store = circuit.store
    specs = {k: (store.blocks[n].shape, store.blocks[n].reparam) for k, n in blocks.items()}
    order = sorted(inputs) if layer.kind == HADAMARD else inputs
    return layer.kind, layer.scope, layer.output_width, layer.squared, order, specs, family


def stack_stores(circuits):
    """The :class:`StackedStore` of circuits whose layers pair up one to one
    by (kind, scope), which names one layer of a tree circuit, with equal
    :func:`_pairing`; None for any other circuits."""
    first = circuits[0]
    indexes = []
    for c in circuits:
        index = {(l.kind, l.scope): l for l in c.layers}
        if len(index) != len(c.layers) or len(c.layers) != len(first.layers):
            return None
        indexes.append(index)
    names = {}
    for layer in first.layers:
        partners = [index.get((layer.kind, layer.scope)) for index in indexes]
        if None in partners:
            return None
        shared = _pairing(first, layer)
        if shared is None or any(_pairing(c, p) != shared for c, p in zip(circuits, partners)):
            return None
        if layer.kind == SUM:
            names[layer.param_block] = [p.param_block for p in partners]
        elif layer.kind == INPUT:
            for key, name in layer.family.blocks.items():
                names[name] = [p.family.blocks[key] for p in partners]
    return StackedStore([c.store for c in circuits], names)


# ---------------------------------------------------------------------------
# construction from a region graph


def from_region_graph(
    rg: RegionGraph, width, product_kind="hadamard", family_factory=None, sum_reparam="identity"
):
    """Build a smooth, structured-decomposable circuit over a tree region
    graph whose root scope is the variables 0..n-1.

    Leaf regions become input layers of ``width`` units, every split region
    becomes a product layer over its two children (built depth first, the
    first child first) followed by a sum layer (width ``width``, or 1 at
    the root), and a lone leaf root gets a 1 x K sum head.
    ``family_factory(scope, units)`` must return an unregistered input
    family suitable for the variables in ``scope``.  Monotonic circuits
    pass sum_reparam="exp" to keep every effective weight positive.
    """
    if width < 1:
        raise ConfigError("width must be >= 1")
    if product_kind not in (HADAMARD, KRONECKER):
        raise ConfigError(f"unknown product kind {product_kind!r}")
    if family_factory is None:
        raise ConfigError("family_factory is required")
    if rg.scope != tuple(range(len(rg.scope))):
        raise ConfigError(f"invalid region graph: root scope {rg.scope} is not variables 0..n-1")

    store = ParameterStore()
    layers = []

    def add_layer(kind, scope, width_, inputs=None, param_block=None, family=None):
        layer = Layer(len(layers), kind, scope, width_, inputs or [], param_block, family)
        layers.append(layer)
        return layer.layer_id

    # post-order on an explicit stack, so a deep linear tree needs no deep
    # recursion; ``built`` holds the output layer of each finished region
    stack = [(rg, False)]
    built = []
    while stack:
        region, children_built = stack.pop()
        if not region.children:
            family = family_factory(region.scope, width)
            lid = add_layer(INPUT, region.scope, width, family=family)
            family.register(store, f"L{lid}.")
            built.append(lid)
        elif not children_built:
            stack.append((region, True))
            stack.extend((c, False) for c in reversed(region.children))  # first child first
        else:
            b = built.pop()
            a = built.pop()
            prod_width = width if product_kind == HADAMARD else width * width
            pid = add_layer(product_kind, region.scope, prod_width, inputs=[a, b])
            out_width = 1 if region is rg else width
            block = store.add_block(f"L{len(layers)}.weight", (out_width, prod_width), sum_reparam)
            built.append(add_layer(SUM, region.scope, out_width, inputs=[pid], param_block=block))
    if layers[-1].kind == INPUT:
        # single-region graph: still give the circuit a scalar sum head
        block = store.add_block(f"L{len(layers)}.weight", (1, width), sum_reparam)
        add_layer(SUM, layers[-1].scope, 1, inputs=[0], param_block=block)
    return TensorizedCircuit(layers, store).assert_valid()


# ---------------------------------------------------------------------------
# structural properties and size

_ENUMERATION_LIMIT = 1 << 20  # assignments the determinism check may enumerate


def _is_valid(c: TensorizedCircuit):
    try:
        c.assert_valid()
    except PcsqError:
        return False
    return True


def _applied_weights(c: TensorizedCircuit, layer):
    """W, or W (x) W on a squared layer, row-major like the layer's units."""
    weights = c.effective_weights(layer)
    return np.kron(weights, weights) if layer.squared else weights


def _is_monotonic(c: TensorizedCircuit):
    return all(np.all(_applied_weights(c, l) >= 0.0) for l in c.sum_layers())


def _enumerate_scope(c: TensorizedCircuit, scope):
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
    if total > _ENUMERATION_LIMIT:
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
        for row in _applied_weights(c, l):
            active = row != 0.0
            if active.sum() < 2:
                continue
            if np.any(support[:, active].sum(axis=1) > 1):
                return False
    return True


_PROPERTY_CHECKS = {
    "smooth": _is_valid,
    "decomposable": _is_valid,
    "structured_decomposable": _is_valid,
    "monotonic": _is_monotonic,
    "deterministic_inputs": _is_deterministic,
}


def check_property(c: TensorizedCircuit, prop: str) -> bool:
    """Property test; see the glossary names in the README.

    The three structural properties hold on every circuit that passes
    :meth:`TensorizedCircuit.assert_valid`, so each name answers whether
    the circuit is valid: a sum's one input has its scope (smooth), a
    product's two inputs are disjoint (decomposable), and every product
    strictly shrinks the scope, so no two products of a tree share one
    (structured-decomposable).  Monotonicity and determinism are checked
    against the parameters.
    """
    if prop not in _PROPERTY_CHECKS:
        raise ConfigError(f"unknown property {prop!r}; choices: {sorted(_PROPERTY_CHECKS)}")
    return _PROPERTY_CHECKS[prop](c)


def circuit_size(c: TensorizedCircuit) -> int:
    """Number of scalar input connections across all layers.

    Sum layers with an S x K matrix count S*K; Hadamard products of two
    width-K inputs count 2*K; Kronecker products of two width-K inputs
    count K^3, and of widths Ka != Kb count 2*Ka*Kb.  Input layers
    contribute nothing.
    """
    total = 0
    for l in c.layers:
        if l.kind == SUM:
            total += l.output_width * c.layer(l.inputs[0]).output_width
        elif l.kind == HADAMARD:
            total += 2 * l.output_width
        elif l.kind == KRONECKER:
            ka, kb = (c.layer(j).output_width for j in l.inputs)
            total += ka**3 if ka == kb else 2 * ka * kb
    return total
