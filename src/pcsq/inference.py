"""Queries on circuits and squared circuits.

Forward evaluation, partition function (cached per parameter version and
counted, so training can prove it runs once per step), arbitrary-subset
marginalization, normalized log-density, mean log-likelihood, and exact
autoregressive sampling by inverse-transform: each conditional comes from
one forward pass and one path-adjoint pass per variable and chunk of
rows, then the input family's closed forms (value tables, integrals up
to a point) give its PMF or CDF without further circuit passes.
``marginal_batch``, ``log_density``, ``log_likelihood`` and ``sample``
also take a CircuitMixture, so callers need not know which kind of model
they hold; ``log_density`` refuses a row where either kind of model is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pcsq import engine
from pcsq.circuits import StackedCircuit, TensorizedCircuit
from pcsq.errors import ConfigError, DegenerateModelError, NumericError, UnsupportedStructureError
from pcsq.slog import SignedLogTensor, log_weighted_sum, signed_logsumexp, signed_mul, signed_sum
from pcsq.squaring import SquaredCircuit


@dataclass
class Query:
    evidence: dict = field(default_factory=dict)
    marginalized: set = field(default_factory=set)
    require_normalized: bool = False

    def check(self, variable_count):
        ev = set(self.evidence)
        marg = set(self.marginalized)
        bad = [v for v in ev | marg if not isinstance(v, (int, np.integer))]
        if bad:
            raise ConfigError(f"query variables must be integers, got {bad}")
        if ev & marg:
            raise ConfigError(f"evidence and marginalized overlap: {sorted(ev & marg)}")
        allvars = set(range(variable_count))
        if not (ev | marg) <= allvars:
            raise ConfigError("query names variables outside the model")
        return ev, marg


def _graph(model):
    """The engine-facing TensorizedCircuit of a model."""
    if isinstance(model, SquaredCircuit):
        return model.circuit
    if isinstance(model, TensorizedCircuit):
        return model
    raise ConfigError(f"unsupported model type {type(model).__name__}")


def _is_mixture(model):
    from pcsq.mixtures import CircuitMixture  # local import; mixtures depends on this module

    return isinstance(model, CircuitMixture)


def evaluate(model, x) -> SignedLogTensor:
    """log|value| and sign per batch row for a full assignment."""
    return engine.forward(_graph(model), np.atleast_2d(x)).root


def log_value(model, x, want_tape=False):
    """log model(x) per row of a full assignment, -inf where the value is 0.

    A squared circuit's value is computed the cheap way, as 2 log|c(x)| on
    its source; a plain circuit must be non-negative, and a negative value
    raises NumericError naming the row.  With ``want_tape`` the taped
    engine result of that data pass is returned too, as ``(logs, result)``.
    """
    squared = isinstance(model, SquaredCircuit)
    graph = model.source if squared else _graph(model)
    result = engine.forward(graph, np.atleast_2d(x), want_tape=want_tape)
    root = result.root
    if squared:
        logs = 2.0 * root.log_magnitude
    elif np.any(root.sign < 0.0):
        row = int(np.argwhere(root.sign < 0.0)[0][-1])  # of a stack, its first such component's
        raise NumericError(f"model value negative at row {row}")
    else:
        logs = root.log_magnitude
    if want_tape:
        return logs, result
    return logs


def _scalar(slog: SignedLogTensor) -> SignedLogTensor:
    return SignedLogTensor(slog.log_magnitude.reshape(()), slog.sign.reshape(()))


def z_eval_count(model) -> int:
    """Number of partition-function computations performed on this model;
    a Z pass of a stack of circuits (:class:`pcsq.circuits.StackedCircuit`)
    counts once for each of its components, too."""
    return getattr(model, "_z_evals", 0)


def partition_function(model, want_tape=False):
    """log Z of the model, computed by one feed-forward pass with integral
    vectors (plain circuits) or integral matrices (squared circuits)
    substituted at every input layer.

    An untaped result is cached per parameter version; a taped pass
    neither reads nor writes the cache, and gives the same bits as an
    untaped one.  Each fresh computation increments the model's evaluation
    counter.  Raises DegenerateModelError when Z is not strictly positive
    and NumericError when it is not finite.  A stack of C circuits has C
    such Z, the (C,) entries of one signed log-space value.
    """
    graph = _graph(model)
    store = graph.store
    cache = getattr(model, "_partition_cache", None)
    if not want_tape and cache is not None and cache[0] == store.version:
        return cache[1]
    result = engine.forward(
        graph,
        None,
        marginalized=frozenset(range(graph.variable_count)),
        want_tape=want_tape,
    )
    model._z_evals = z_eval_count(model) + 1
    if isinstance(graph, StackedCircuit):
        for component in graph.components:
            component._z_evals = z_eval_count(component) + 1
    root = result.root
    z = SignedLogTensor(root.log_magnitude[..., 0], root.sign[..., 0])
    # one Z, or C of a stack: Python-level tests, cheaper than numpy
    # reductions on a few entries
    if any(sign <= 0.0 for sign in z.sign.flat):
        raise DegenerateModelError(
            "partition function is zero or negative; the model cannot be normalized"
        )
    if not all(map(math.isfinite, z.log_magnitude.flat)):
        raise NumericError("partition function is not finite")
    if want_tape:
        return z, result
    model._partition_cache = (store.version, z)
    return z


def marginalize(model, query: Query) -> SignedLogTensor:
    """The one-row case of :func:`marginal_batch`, for circuits and mixtures.

    Evidence plus marginalized variables must cover the full scope; the
    result is a scalar signed log-value, normalized by Z on request.
    """
    d = (model if _is_mixture(model) else _graph(model)).variable_count
    ev, marg = query.check(d)
    if ev | marg != set(range(d)):
        missing = set(range(d)) - ev - marg
        raise ConfigError(f"query leaves variables {sorted(missing)} unconstrained")
    x = np.zeros((1, d))
    for v, value in query.evidence.items():
        x[0, v] = value
    out = _scalar(marginal_batch(model, x, marg))
    if query.require_normalized:
        out = SignedLogTensor(out.log_magnitude - _log_partition(model), out.sign)
    return out


# marginal rows, sample rows (continuous columns) or distinct prefixes
# (discrete columns) evaluated together in one forward pass: a squared
# pass's live layer outputs take rows x K^2 each
_CHUNK = 256


def marginal_batch(model, x, marginalized) -> SignedLogTensor:
    """Vectorized marginalization over a batch of evidence rows, _CHUNK
    rows per forward pass.  A mixture's marginal is sum_i weight_i m_i(x),
    over its components' marginals m_i."""
    if _is_mixture(model):
        parts = [marginal_batch(c, x, marginalized) for c in model.components]
        stacked = SignedLogTensor(
            np.stack([p.log_magnitude for p in parts], axis=-1),
            np.stack([p.sign for p in parts], axis=-1),
        )
        return signed_logsumexp(model.weights()[None, :], stacked).reshape(parts[0].shape)
    graph = _graph(model)
    marginalized = frozenset(marginalized)
    if np.ndim(x) < 2 or len(x) <= _CHUNK:
        return engine.forward(graph, x, marginalized=marginalized).root
    parts = [
        engine.forward(graph, x[start : start + _CHUNK], marginalized=marginalized).root
        for start in range(0, len(x), _CHUNK)
    ]
    return SignedLogTensor(
        np.concatenate([p.log_magnitude for p in parts]), np.concatenate([p.sign for p in parts])
    )


def _log_partition(model) -> float:
    if _is_mixture(model):
        return model.partition()
    return float(partition_function(model).log_magnitude)


def log_density(model, x) -> np.ndarray:
    """Normalized log-density per row: log model(x) - log Z.

    Raises NumericError naming the first row where the model value is 0.
    """
    logz = _log_partition(model)
    logs = model.log_value(x) if _is_mixture(model) else log_value(model, x)
    if np.any(logs == -np.inf):
        row = int(np.argmax(logs == -np.inf))
        raise NumericError(f"model value is 0 exactly at row {row}; log-density undefined")
    return logs - logz


def log_likelihood(model, x) -> float:
    """Mean normalized log-likelihood over the rows of ``x``; zero rows
    raise ConfigError, since their mean is undefined."""
    x = np.atleast_2d(x)
    if x.shape[0] == 0:
        raise ConfigError("log-likelihood of zero rows is undefined")
    return float(np.mean(log_density(model, x)))


# ---------------------------------------------------------------------------
# exact sampling


def _family_for_variable(model, v):
    for layer in _graph(model).input_layers():
        if v in layer.scope:
            return layer.family
    raise ConfigError(f"no input layer covers variable {v}")


# a continuous draw bisects until |CDF - target| <= _CDF_TOL * mass, or _BISECTION_STEPS times
_CDF_TOL = 1e-9
_BISECTION_STEPS = 80


def _draw_count(n):
    """``n`` as a number of draws: a non-negative integer, else ConfigError."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigError(f"the number of samples must be an integer, got {n!r}")
    if n < 0:
        raise ConfigError(f"cannot draw a negative number of samples ({n})")
    return n


def sample(model, n, seed=0):
    """Draw ``n`` exact samples autoregressively (natural variable order).

    Per variable v and chunk of rows, one forward pass with the values
    before v as evidence and v onwards marginalized gives the conditional
    mass at its root; one path-adjoint pass (:func:`engine.path_adjoint`)
    gives the adjoint A at v's input layer, in which the root is linear.
    A discrete v's conditional PMF over its states s is then
    sum_ij A_ij f_i(s) f_j(s) (sum_i A_i f_i(s) for a plain circuit),
    enumerated once per distinct prefix.  A continuous v bisects its
    exact conditional CDF sum_ij A_ij P_ij(t), with P the family's
    closed-form integrals up to t, to 1e-9 of the conditional mass; no
    circuit pass runs per step.  A mixture draws through
    ``CircuitMixture.sample``.  Raises ConfigError unless n is a
    non-negative integer, and UnsupportedStructureError where v shares an
    input layer with another variable.
    """
    n = _draw_count(n)
    if _is_mixture(model):
        return model.sample(n, seed=seed)
    graph = _graph(model)
    d = graph.variable_count
    partition_function(model)  # fail fast on degenerate models
    rng = np.random.default_rng(seed)
    states = graph.states_per_variable()
    out = np.zeros((n, d))
    for v in range(d):
        if states[v] is not None:
            _sample_discrete_column(graph, out, v, states[v], rng)
        else:
            _sample_continuous_column(graph, out, v, rng)
    return out


def _conditional(graph, x, v):
    """(mass, input layer, adjoint): the root of one forward pass with the
    columns of ``x`` before v as evidence and v onwards marginalized, v's
    input layer and the root's adjoint there."""
    result = engine.forward(
        graph, x, marginalized=frozenset(range(v, graph.variable_count)), keep_outputs=True
    )
    layer, adj = engine.path_adjoint(graph, result.outputs, v)
    if layer.scope != (v,):
        raise UnsupportedStructureError(
            f"variable {v} shares input layer {layer.layer_id} with other variables"
        )
    return result.root, layer, adj


def _sample_discrete_column(graph, out, v, m, rng):
    draws = rng.random(out.shape[0])
    prefixes, which = np.unique(out[:, :v], axis=0, return_inverse=True)
    cdf = np.empty((prefixes.shape[0], m))
    for start in range(0, prefixes.shape[0], _CHUNK):
        block = prefixes[start : start + _CHUNK]
        x = np.zeros((block.shape[0], out.shape[1]))
        x[:, :v] = block
        _, layer, adj = _conditional(graph, x, v)
        table = layer.family.value_table(graph.store)  # (units, m)
        if layer.squared:  # row i * K + j holds f_i * f_j, as the layer's units do
            table = (table[:, None, :] * table[None, :, :]).reshape(layer.output_width, m)
        vals = signed_logsumexp(table.T, adj)  # one row, or one per prefix
        if np.any(vals.sign < 0.0):
            raise NumericError(f"negative conditional mass at variable {v}")
        log_mass, pmf = log_weighted_sum(np.ones(m), vals.log_magnitude)
        if not np.all(np.isfinite(log_mass)):
            raise NumericError(f"conditional PMF at variable {v} is identically zero")
        cdf[start : start + _CHUNK] = np.cumsum(pmf, axis=1)
    # the number of CDF entries <= u is searchsorted(cdf, u, side="right")
    out[:, v] = np.sum(cdf[which] <= draws[:, None], axis=1)


def _sample_continuous_column(graph, out, v, rng):
    lo, hi = _family_for_variable(graph, v).sample_bracket(graph.store)
    for start in range(0, out.shape[0], _CHUNK):
        rows = out[start : start + _CHUNK]
        mass, layer, adj = _conditional(graph, rows, v)
        mass = mass.to_linear()
        if np.any(~np.isfinite(mass)) or np.any(mass <= 0.0):
            raise NumericError(f"non-finite conditional mass at variable {v}")
        family = layer.family
        if layer.squared:
            partial = family.partial_integral_matrix
        else:
            partial = family.partial_integral_vector
        targets = rng.random(rows.shape[0]) * mass
        a, b = np.full(rows.shape[0], lo), np.full(rows.shape[0], hi)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (a + b)
            rows[:, v] = mid
            p = partial(graph.store, mid).reshape(rows.shape[0], layer.output_width)
            err = signed_sum(signed_mul(adj, p), axis=-1).to_linear() - targets
            done = np.all(np.abs(err) <= _CDF_TOL * mass)
            if done or np.max(b - a) < 1e-14 * np.max(np.abs(a) + np.abs(b) + 1.0):
                break
            b = np.where(err > 0, mid, b)
            a = np.where(err > 0, a, mid)
