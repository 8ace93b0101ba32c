"""Layer-level forward evaluation and the reverse-mode gradient sweep.

The forward pass walks layers in topological order, carrying either
signed log-space tensors (the default, overflow-proof) or plain float64
arrays (the "linear" space, used by oracles and the overflow benchmark).
Input layers evaluate pointwise on evidence variables and substitute
their integral vector (plain circuits) or integral matrix (squared
circuits) on marginalized variables, and their integrals up to the
evidence value on variables in ``below`` (exact CDFs for sampling).

With ``want_tape=True`` the pass records a tape; :func:`backward` then
replays it in exact reverse order, propagating adjoints of the scalar
objective w.r.t. each layer's linear-space output (the adjoints
themselves are carried in signed log-space) and accumulating parameter
gradients into the store.  The tape keeps each evaluated input layer's
values and features (spline design matrices, Gaussian z-scores), so the
input VJPs reuse them; untaped passes keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pcsq import kernels
from pcsq.circuits import HADAMARD, INPUT, KRONECKER, SUM, TensorizedCircuit
from pcsq.errors import ConfigError, NumericError, UnsupportedStructureError
from pcsq.slog import (
    SignedLogTensor,
    signed_logsumexp,
    signed_mul,
    signed_outer,
    signed_product,
    signed_sum,
)


def signed_add(a: SignedLogTensor, b: SignedLogTensor) -> SignedLogTensor:
    stacked = SignedLogTensor(
        np.stack([a.log_magnitude, b.log_magnitude], axis=-1),
        np.stack([a.sign, b.sign], axis=-1),
    )
    return signed_sum(stacked, axis=-1)


@dataclass
class Tape:
    """Forward-pass record for one batch; replayed once by backward()."""

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
        cache[key] = (version, value)
    return cache[key][1]


def _broadcast(slog, batch):
    lm = np.broadcast_to(slog.log_magnitude.reshape(1, -1), (batch, slog.log_magnitude.size))
    sg = np.broadcast_to(slog.sign.reshape(1, -1), (batch, slog.sign.size))
    return SignedLogTensor(lm, sg)


def _forward_input(circuit, layer, x, marginalized, below, batch, saved):
    scope = set(layer.scope)
    marg = scope & marginalized
    if (marg and marg != scope) or (scope & below and len(scope) > 1):
        raise UnsupportedStructureError(
            f"input layer {layer.layer_id} is only partially marginalized or integrated"
        )
    if scope & below:
        t = _scope_values(x, layer.scope)
        if layer.squared:
            return layer.family.partial_integral_matrix(circuit.store, t).reshape(batch, -1)
        return layer.family.partial_integral_vector(circuit.store, t)
    if marg:
        if not layer.squared:
            return _broadcast(_input_integral(circuit, layer, matrix=False), batch)
        mat = _input_integral(circuit, layer, matrix=True)
        k = layer.family.units
        flat = SignedLogTensor(mat.log_magnitude.reshape(k * k), mat.sign.reshape(k * k))
        return _broadcast(flat, batch)
    values = _scope_values(x, layer.scope)
    if saved is None:
        f = layer.family.log_eval(circuit.store, values)
    else:  # taped: keep f and its features so backward re-derives nothing
        f, features = layer.family._eval(circuit.store, values)
        saved[layer.layer_id] = (f, features)
    return signed_outer(f, f) if layer.squared else f


def _forward_sum_squared(weights, u, save_to=None, layer_id=None):
    b = u.shape[0]
    k = weights.shape[1]
    s = weights.shape[0]
    u3_lm = u.log_magnitude.reshape(b, k, k)
    u3_sg = u.sign.reshape(b, k, k)
    # stage 1: V[b, s, j] = sum_k W[s, k] U[b, k, j]
    rows = SignedLogTensor(
        np.ascontiguousarray(u3_lm.transpose(0, 2, 1)).reshape(b * k, k),
        np.ascontiguousarray(u3_sg.transpose(0, 2, 1)).reshape(b * k, k),
    )
    v = signed_logsumexp(weights, rows)  # (b*k, s)
    v = SignedLogTensor(
        np.ascontiguousarray(v.log_magnitude.reshape(b, k, s).transpose(0, 2, 1)),
        np.ascontiguousarray(v.sign.reshape(b, k, s).transpose(0, 2, 1)),
    )  # (b, s, k)
    if save_to is not None:
        save_to[layer_id] = v
    # stage 2: Y[b, s1, s2] = sum_j W[s2, j] V[b, s1, j]
    y = signed_logsumexp(
        weights,
        SignedLogTensor(v.log_magnitude.reshape(b * s, k), v.sign.reshape(b * s, k)),
    )
    return SignedLogTensor(y.log_magnitude.reshape(b, s * s), y.sign.reshape(b, s * s))


def forward(
    circuit: TensorizedCircuit,
    x=None,
    marginalized=frozenset(),
    space="slog",
    want_tape=False,
    below=frozenset(),
):
    """Evaluate every layer; returns an :class:`EvalResult`.

    ``x`` is a (batch, variable_count) array of evidence (ignored columns
    for marginalized variables); it may be None when every variable is
    marginalized.  ``space`` selects signed log-space or plain linear
    float64 arithmetic.  Variables in ``below`` are integrated from their
    domain's lower end up to the evidence value (no tape, no overlap with
    ``marginalized``).
    """
    marginalized = frozenset(marginalized)
    below = frozenset(below)
    if below and (want_tape or below & marginalized):
        raise ConfigError("variables integrated up to a point cannot be taped or marginalized")
    if x is None:
        x = np.zeros((1, circuit.variable_count))
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != circuit.variable_count:
        raise NumericError(
            f"evidence has {x.shape[1]} columns, circuit has {circuit.variable_count} variables"
        )
    batch = x.shape[0]
    if space == "linear":
        return _forward_linear(circuit, x, marginalized, below, batch)
    saved = {} if want_tape else None
    outputs = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            out = _forward_input(circuit, layer, x, marginalized, below, batch, saved)
        elif layer.kind == SUM:
            u = outputs[layer.inputs[0]]
            weights = circuit.effective_weights(layer)
            if layer.squared:
                out = _forward_sum_squared(weights, u, save_to=saved, layer_id=layer.layer_id)
            else:
                out = signed_logsumexp(weights, u)
        elif layer.kind == HADAMARD:
            out = signed_product([outputs[j] for j in layer.inputs], kind="hadamard")
        else:
            out = signed_product([outputs[j] for j in layer.inputs], kind="kronecker")
            if layer.perm is not None:
                out = SignedLogTensor(
                    out.log_magnitude[..., layer.perm], out.sign[..., layer.perm]
                )
        if np.isnan(out.log_magnitude).any() or np.isnan(out.sign).any():
            raise NumericError(f"NaN produced at layer {layer.layer_id} ({layer.kind})")
        outputs.append(out)
    tape = Tape(circuit, marginalized, outputs, saved) if want_tape else None
    return EvalResult(outputs, circuit.output_layer, tape)


def _forward_linear(circuit, x, marginalized, below, batch):
    outputs = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            out = _forward_input(circuit, layer, x, marginalized, below, batch, None)
            out = out.to_linear() if isinstance(out, SignedLogTensor) else out
            if out.shape[0] != batch:
                out = np.broadcast_to(out, (batch, out.shape[-1]))
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
        elif layer.kind == HADAMARD:
            out = outputs[layer.inputs[0]].copy()
            with np.errstate(over="ignore", invalid="ignore"):
                for j in layer.inputs[1:]:
                    out = out * outputs[j]
        else:
            out = outputs[layer.inputs[0]]
            with np.errstate(over="ignore", invalid="ignore"):
                for j in layer.inputs[1:]:
                    nxt = outputs[j]
                    out = (out[:, :, None] * nxt[:, None, :]).reshape(batch, -1)
            if layer.perm is not None:
                out = out[:, layer.perm]
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
    gradients into the circuit's ParameterStore."""
    circuit = tape.circuit
    store = circuit.store
    adjoints = {}
    root = circuit.layer(circuit.output_layer)
    seed = seed_output
    if seed.log_magnitude.ndim == 1:
        seed = seed.reshape(-1, 1)
    adjoints[root.layer_id] = seed
    for layer in reversed(circuit.layers):
        adj = adjoints.pop(layer.layer_id, None)
        if adj is None:
            continue

        def push(target_id, contribution):
            if target_id in adjoints:
                adjoints[target_id] = signed_add(adjoints[target_id], contribution)
            else:
                adjoints[target_id] = contribution

        if layer.kind == SUM:
            u = tape.outputs[layer.inputs[0]]
            weights = circuit.effective_weights(layer)
            if layer.squared:
                grad_eff, adj_in = _backward_sum_squared(
                    weights, u, adj, tape.saved[layer.layer_id]
                )
            else:
                lm, sg = kernels.slse_pair_accum(
                    adj.log_magnitude, adj.sign, u.log_magnitude, u.sign
                )
                grad_eff = SignedLogTensor(lm, sg).to_linear()
                adj_in = signed_logsumexp(weights.T.copy(), adj)
            store.accumulate_effective_grad(layer.param_block, grad_eff)
            push(layer.inputs[0], adj_in)
        elif layer.kind == HADAMARD:
            outs = [tape.outputs[j] for j in layer.inputs]
            n = len(outs)
            prefix = [None] * (n + 1)
            suffix = [None] * (n + 1)
            for i in range(n):
                prefix[i + 1] = outs[i] if i == 0 else signed_mul(prefix[i], outs[i])
                j = n - 1 - i
                suffix[j] = outs[j] if j == n - 1 else signed_mul(suffix[j + 1], outs[j])
            for i, j in enumerate(layer.inputs):
                others = None
                if i > 0 and i < n - 1:
                    others = signed_mul(prefix[i], suffix[i + 1])
                elif i > 0:
                    others = prefix[i]
                elif i < n - 1:
                    others = suffix[i + 1]
                push(j, adj if others is None else signed_mul(adj, others))
        elif layer.kind == KRONECKER:
            if len(layer.inputs) != 2:
                raise UnsupportedStructureError("kronecker backward expects binary products")
            if layer.perm is not None:
                inv = np.argsort(layer.perm)
                adj = SignedLogTensor(adj.log_magnitude[..., inv], adj.sign[..., inv])
            da, db = _kron_vjp(adj, *(tape.outputs[j] for j in layer.inputs))
            push(layer.inputs[0], da)
            push(layer.inputs[1], db)
        else:  # input layer
            _backward_input(circuit, layer, tape, adj)
    store_grads = store.gradients
    if np.isnan(store_grads).any():
        raise NumericError("NaN in accumulated gradients")


def _kron_vjp(adj, a, b):
    """Adjoints of the two factors of the row-wise Kronecker product a (x) b,
    given the product's adjoint ``adj`` (batch, ka * kb)."""
    adj3 = adj.reshape(adj.shape[0], a.shape[-1], b.shape[-1])
    b3 = SignedLogTensor(b.log_magnitude[:, None, :], b.sign[:, None, :])
    a3 = SignedLogTensor(a.log_magnitude[:, :, None], a.sign[:, :, None])
    return signed_sum(signed_mul(adj3, b3), axis=-1), signed_sum(signed_mul(adj3, a3), axis=-2)


def _backward_sum_squared(weights, u, adj, v):
    b = u.shape[0]
    s, k = weights.shape
    g_lm = adj.log_magnitude.reshape(b, s, s)
    g_sg = adj.sign.reshape(b, s, s)
    u_lm = u.log_magnitude.reshape(b, k, k)
    u_sg = u.sign.reshape(b, k, k)
    wt = np.ascontiguousarray(weights.T)

    # input adjoint: dU = A^T G A
    rows = SignedLogTensor(
        np.ascontiguousarray(g_lm.transpose(0, 2, 1)).reshape(b * s, s),
        np.ascontiguousarray(g_sg.transpose(0, 2, 1)).reshape(b * s, s),
    )
    t1 = signed_logsumexp(wt, rows)  # (b*s2, k1)
    t1 = SignedLogTensor(
        np.ascontiguousarray(t1.log_magnitude.reshape(b, s, k).transpose(0, 2, 1)).reshape(b * k, s),
        np.ascontiguousarray(t1.sign.reshape(b, s, k).transpose(0, 2, 1)).reshape(b * k, s),
    )
    du = signed_logsumexp(wt, t1)  # (b*k1, k2)
    adj_in = SignedLogTensor(du.log_magnitude.reshape(b, k * k), du.sign.reshape(b, k * k))

    # weight gradient: sum_b G A U^T + G^T A U
    ga = signed_logsumexp(
        wt, SignedLogTensor(g_lm.reshape(b * s, s), g_sg.reshape(b * s, s))
    )  # (b*s1, k2)
    ga_lm = ga.log_magnitude.reshape(b, s, k)
    ga_sg = ga.sign.reshape(b, s, k)
    lm1, sg1 = kernels.slse_pair_accum(
        np.ascontiguousarray(ga_lm.transpose(0, 2, 1)).reshape(b * k, s),
        np.ascontiguousarray(ga_sg.transpose(0, 2, 1)).reshape(b * k, s),
        np.ascontiguousarray(u_lm.transpose(0, 2, 1)).reshape(b * k, k),
        np.ascontiguousarray(u_sg.transpose(0, 2, 1)).reshape(b * k, k),
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
    scope = set(layer.scope)
    marg = scope & tape.marginalized
    if marg:
        if layer.squared:
            k = layer.family.units
            layer.family.integral_matrix_vjp(store, signed_sum(adj, axis=0).reshape(k, k))
        else:
            layer.family.integral_vector_vjp(store, signed_sum(adj, axis=0))
        return
    f, features = tape.saved[layer.layer_id]
    if layer.squared:
        adj = signed_add(*_kron_vjp(adj, f, f))
    layer.family.log_eval_vjp(store, adj, f, features)
