"""Layer-level forward evaluation, the reverse-mode gradient sweep and the
path adjoints behind exact conditionals.

A circuit is a binary tree of layers with the output last
(:meth:`TensorizedCircuit.assert_valid`): every other layer has exactly
one reader, and every product layer two factors.  The forward pass walks
the layers in order, carrying either signed log-space tensors (the
default, overflow-proof) or plain float64 arrays (the "linear" space,
used by oracles and the overflow benchmark).
Input layers evaluate pointwise on evidence variables and substitute
their integral vector (plain circuits) or integral matrix (squared
circuits) on marginalized variables.  In signed log-space a layer whose
whole scope is marginalized is constant across the batch, so it is
evaluated once, as one row; layers mixing one-row and batch inputs
broadcast, and only the root is broadcast to the batch.

With ``want_tape=True`` the pass records a tape; :func:`backward` then
replays it in exact reverse order, propagating adjoints of the scalar
objective w.r.t. each layer's linear-space output (the adjoints
themselves are carried in signed log-space) and accumulating parameter
gradients into the store.  The tape keeps each evaluated input layer's
values and features (spline design matrices, table states, Gaussian
z-scores), so the input VJPs reuse them.  Only data passes of unsquared
circuits and one-row partition-function passes are taped: a squared
circuit trains through its source, as log c^2 = 2 log|c|, so the K^2-wide
data pass of the squared graph is never differentiated.  Each layer has
one reader, so an untaped signed log-space pass drops a layer's inputs
once the layer has run, and :func:`backward` gives each input its one
adjoint and then drops the input's recorded output; a pass holds a few
layers at a time rather than all of them.

:func:`path_adjoint` pushes the root's adjoint, by the same per-layer
rules, along the one path from the root to the input layer of a chosen
variable.  The root is linear in that layer's output, so the adjoint
turns the layer's values, or its integrals up to a point, into the
circuit's conditional values and CDFs without another circuit pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pcsq import kernels
from pcsq.circuits import HADAMARD, INPUT, SUM, TensorizedCircuit
from pcsq.errors import ConfigError, NumericError, UnsupportedStructureError
from pcsq.slog import (
    SignedLogTensor,
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
    goes."""

    circuit: TensorizedCircuit
    marginalized: frozenset
    outputs: list
    saved: dict = field(default_factory=dict)


@dataclass
class EvalResult:
    outputs: list
    output_layer: int
    tape: Tape | None = None

    @property
    def root(self):
        out = self.outputs[self.output_layer]
        if isinstance(out, SignedLogTensor):
            if out.shape[-1] == 1:
                return SignedLogTensor(out.log_magnitude[..., 0], out.sign[..., 0])
            return out
        return out[..., 0] if out.shape[-1] == 1 else out


def _scope_values(x, scope):
    cols = x[:, list(scope)]
    return cols[:, 0] if len(scope) == 1 else cols


def _integral_cache(circuit):
    cache = getattr(circuit, "_integral_cache", None)
    if cache is None:
        cache = {}
        circuit._integral_cache = cache
    return cache


def _input_integral(circuit, layer, matrix):
    cache = _integral_cache(circuit)
    key = (layer.layer_id, "mat" if matrix else "vec")
    version = circuit.store.version
    entry = cache.get(key)
    if entry is None or entry[0] != version:
        if matrix:
            value = layer.family.integral_matrix(circuit.store)
        else:
            value = layer.family.integral_vector(circuit.store)
        for array in (value.log_magnitude, value.sign):  # shared by every pass
            array.setflags(write=False)
        cache[key] = (version, value)
    return cache[key][1]


def _broadcast(slog, batch):
    shape = (batch,) + slog.shape[1:]
    return SignedLogTensor(
        np.broadcast_to(slog.log_magnitude, shape).copy(), np.broadcast_to(slog.sign, shape).copy()
    )


def _forward_input(circuit, layer, x, marginalized, saved):
    scope = set(layer.scope)
    marg = scope & marginalized
    if marg and marg != scope:
        raise UnsupportedStructureError(
            f"input layer {layer.layer_id} is only partially marginalized"
        )
    if marg:  # constant: the cached integral, one row for every batch row
        return _input_integral(circuit, layer, matrix=layer.squared).reshape(1, layer.output_width)
    values = _scope_values(x, layer.scope)
    f, features = layer.family.log_eval(circuit.store, values)
    if saved is not None:  # taped: keep f and its features so backward re-derives nothing
        saved[layer.layer_id] = (f, features)
    return signed_outer(f, f) if layer.squared else f


def _forward_sum_squared(weights, u, save_to=None, layer_id=None):
    b = u.shape[0]
    s, k = weights.shape
    # stage 1: V[b, s, j] = sum_k W[s, k] U[b, k, j]
    v_lm, v_sg = kernels.slse_batched_matmul(
        weights, u.log_magnitude.reshape(b, k, k), u.sign.reshape(b, k, k)
    )
    if save_to is not None:
        save_to[layer_id] = SignedLogTensor(v_lm, v_sg)
    # stage 2: Y[b, s1, s2] = sum_j W[s2, j] V[b, s1, j]
    y = signed_logsumexp(weights, SignedLogTensor(v_lm.reshape(b * s, k), v_sg.reshape(b * s, k)))
    return SignedLogTensor(y.log_magnitude.reshape(b, s * s), y.sign.reshape(b, s * s))


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
    marginalized.  ``space`` selects signed log-space or plain linear
    float64 arithmetic.  In signed log-space a layer whose scope is
    entirely marginalized is constant: it is evaluated once, as one row,
    and only the root is broadcast to the batch.  Only data passes of
    unsquared circuits (nothing marginalized) and one-row
    partition-function passes (everything marginalized) can be taped;
    taping any other pass raises ConfigError, and so does marginalizing a
    variable the circuit does not have.

    An untaped signed log-space pass sets each layer's entry of
    ``outputs`` to None once its one reader has run, so only the root is
    left; ``keep_outputs=True`` keeps every entry, for callers that read
    intermediate outputs (:func:`path_adjoint`).  Taped passes and linear
    passes always keep every output.
    """
    marginalized = frozenset(marginalized)
    outside = sorted(v for v in marginalized if not 0 <= v < circuit.variable_count)
    if outside:
        raise ConfigError(
            f"marginalized variables {outside} outside the circuit's "
            f"{circuit.variable_count} variables"
        )
    if x is None:
        x = np.zeros((1, circuit.variable_count))
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
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
    saved = {} if want_tape else None
    keep = want_tape or keep_outputs
    outputs = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            out = _forward_input(circuit, layer, x, marginalized, saved)
        elif layer.kind == SUM:  # no local holds the input, so its release frees it
            weights = circuit.effective_weights(layer)
            if layer.squared:
                out = _forward_sum_squared(
                    weights, outputs[layer.inputs[0]], save_to=saved, layer_id=layer.layer_id
                )
            else:
                out = signed_logsumexp(weights, outputs[layer.inputs[0]])
        else:
            out = signed_product([outputs[j] for j in layer.inputs], layer.kind, layer.squared)
        if np.isnan(out.log_magnitude).any() or np.isnan(out.sign).any():
            raise NumericError(f"NaN produced at layer {layer.layer_id} ({layer.kind})")
        outputs.append(out)
        if not keep:  # the layer was its inputs' one reader
            for j in layer.inputs:
                outputs[j] = None
    if outputs[circuit.output_layer].shape[0] != batch:
        outputs[circuit.output_layer] = _broadcast(outputs[circuit.output_layer], batch)
    tape = Tape(circuit, marginalized, outputs, saved) if want_tape else None
    return EvalResult(outputs, circuit.output_layer, tape)


def _forward_linear(circuit, x, marginalized, batch):
    """Plain float64 evaluation at full batch width: the oracle of the
    signed log-space pass, sharing none of its arithmetic."""
    outputs = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            out = _forward_input(circuit, layer, x, marginalized, None).to_linear()
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
        raise NumericError(
            f"gradient of log|c(x)| requested where c(x) = 0 exactly (row {int(np.argmax(dead))})"
        )
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
    if seed.log_magnitude.ndim == 1:
        seed = seed.reshape(-1, 1)
    adjoints = {circuit.output_layer: seed}
    for layer in reversed(circuit.layers):
        adj = adjoints.pop(layer.layer_id)
        if layer.kind == INPUT:
            _backward_input(circuit, layer, tape, adj)
        else:  # the VJP's locals end with its frame, so releases free
            adjoints.update(zip(layer.inputs, _backward_inner(circuit, layer, tape, adj)))
        for j in layer.inputs:  # the layer was their one reader
            tape.outputs[j] = None
    if np.isnan(circuit.store.gradients).any():
        raise NumericError("NaN in accumulated gradients")


def _backward_inner(circuit, layer, tape, adj):
    """Adjoints of a sum or product layer's inputs; a sum layer's weight
    gradient goes into the store."""
    if layer.kind != SUM:
        outs = [tape.outputs[j] for j in layer.inputs]
        return _product_input_adjoints(layer, outs, adj, (0, 1))
    u = tape.outputs[layer.inputs[0]]
    weights = circuit.effective_weights(layer)
    if layer.squared:
        grad_eff, adj_in = _backward_sum_squared(weights, u, adj, tape.saved.pop(layer.layer_id))
    else:
        lm, sg = kernels.slse_pair_accum(adj.log_magnitude, adj.sign, u.log_magnitude, u.sign)
        grad_eff = SignedLogTensor(lm, sg).to_linear()
        adj_in = _sum_input_adjoint(weights, adj, squared=False)
    circuit.store.accumulate_effective_grad(layer.param_block, grad_eff)
    return [adj_in]


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
            adj = _sum_input_adjoint(circuit.effective_weights(layer), adj, layer.squared)
        else:
            outs = [outputs[j] for j in layer.inputs]
            (adj,) = _product_input_adjoints(layer, outs, adj, [i])
        layer = circuit.layer(layer.inputs[i])
    return layer, adj


def _sum_input_adjoint(weights, adj, squared):
    """Adjoint of a sum layer's input: W^T G, or W^T G W for the (s, s)
    blocks G of a squared layer's output adjoint."""
    wt = np.ascontiguousarray(weights.T)
    if not squared:
        return signed_logsumexp(wt, adj)
    b = adj.shape[0]
    s, k = weights.shape
    t1_lm, t1_sg = kernels.slse_batched_matmul(
        wt, adj.log_magnitude.reshape(b, s, s), adj.sign.reshape(b, s, s)
    )  # (b, k1, s2)
    du = signed_logsumexp(wt, SignedLogTensor(t1_lm.reshape(b * k, s), t1_sg.reshape(b * k, s)))
    return SignedLogTensor(du.log_magnitude.reshape(b, k * k), du.sign.reshape(b, k * k))


def _product_input_adjoints(layer, outs, adj, positions):
    """Adjoints of the factors at ``positions`` of a product layer, given
    its factors' forward outputs ``outs`` and the adjoint of its output."""
    if layer.kind == HADAMARD:
        return [signed_mul(adj, outs[1 - i]) for i in positions]
    if layer.squared:  # un-interleave (a1, b1, a2, b2) into (a1, a2) x (b1, b2)
        ka, kb = _squared_widths(*outs)
        blocks = (adj.shape[0], ka, kb, ka, kb)
        adj = SignedLogTensor(
            *(
                t.reshape(blocks).transpose(0, 1, 3, 2, 4).reshape(adj.shape)
                for t in (adj.log_magnitude, adj.sign)
            )
        )
    return _kron_vjp(adj, *outs, positions)


def _kron_vjp(adj, a, b, positions):
    """Adjoints of the factors at ``positions`` of the row-wise Kronecker
    product a (x) b, given the product's adjoint ``adj`` (batch, ka * kb)."""
    adj3 = adj.reshape(adj.shape[0], a.shape[-1], b.shape[-1])
    others = (
        SignedLogTensor(b.log_magnitude[:, None, :], b.sign[:, None, :]),
        SignedLogTensor(a.log_magnitude[:, :, None], a.sign[:, :, None]),
    )
    return [signed_sum(signed_mul(adj3, others[i]), axis=-1 - i) for i in positions]


def _backward_sum_squared(weights, u, adj, v):
    b = u.shape[0]
    s, k = weights.shape
    g_lm = adj.log_magnitude.reshape(b, s, s)
    g_sg = adj.sign.reshape(b, s, s)
    wt = np.ascontiguousarray(weights.T)
    adj_in = _sum_input_adjoint(weights, adj, squared=True)

    # weight gradient: sum_b G A U^T + G^T A U; the first term pairs the
    # columns of G A and of U, so it reads (G A)^T straight from the batched
    # kernel, while U's columns still need one transposed copy
    ga_lm, ga_sg = kernels.slse_batched_matmul(
        wt, g_lm.transpose(0, 2, 1), g_sg.transpose(0, 2, 1)
    )  # (b, k2, s1)
    u_lm = u.log_magnitude.reshape(b, k, k).transpose(0, 2, 1)
    u_sg = u.sign.reshape(b, k, k).transpose(0, 2, 1)
    lm1, sg1 = kernels.slse_pair_accum(
        ga_lm.reshape(b * k, s),
        ga_sg.reshape(b * k, s),
        np.ascontiguousarray(u_lm).reshape(b * k, k),
        np.ascontiguousarray(u_sg).reshape(b * k, k),
    )
    lm2, sg2 = kernels.slse_pair_accum(
        np.ascontiguousarray(g_lm.reshape(b * s, s)),
        np.ascontiguousarray(g_sg.reshape(b * s, s)),
        np.ascontiguousarray(v.log_magnitude.reshape(b * s, k)),
        np.ascontiguousarray(v.sign.reshape(b * s, k)),
    )
    grad_eff = SignedLogTensor(lm1, sg1).to_linear() + SignedLogTensor(lm2, sg2).to_linear()
    return grad_eff, adj_in


def _backward_input(circuit, layer, tape, adj):
    store = circuit.store
    if tape.marginalized:  # a one-row partition-function pass
        if layer.squared:
            k = layer.family.units
            layer.family.integral_matrix_vjp(store, adj.reshape(k, k))
        else:
            layer.family.integral_vector_vjp(store, adj.reshape(-1))
        return
    f, features = tape.saved.pop(layer.layer_id)
    layer.family.log_eval_vjp(store, adj, f, features)
