"""Parametric input layers.

Each family computes K univariate (or, for kernel units, multivariate)
functions per input layer and supports three views needed by circuit
inference:

* pointwise evaluation f_i(x) in signed log-space (``_eval`` also
  returns the features its VJP needs, which taped passes keep),
* the integral vector (integral of each f_i over the variable's domain),
* the integral matrix (pairwise product integrals, for squared layers),

together with the VJPs of all three so gradients reach the parameter
store, and, for 1-d continuous units, both integrals from the domain's
lower end up to t in closed form (the sampler's exact CDFs).  Free
parameters live in the circuit's ParameterStore; families hold only
block names and hyperparameters.
"""

from __future__ import annotations

import math

import numpy as np

from pcsq import kernels
from pcsq.errors import ConfigError, DomainError, PcsqError
from pcsq.slog import (
    SignedLogTensor,
    signed_logsumexp,
    signed_mul,
    signed_scale,
    signed_sum,
)
from pcsq.splines import BSplineBasis

_LOG_2PI = math.log(2.0 * math.pi)


def _weighted_batch_sum(t: SignedLogTensor, factor):
    """sum_b t[b, k] * factor[b, k] as plain floats, stably."""
    return signed_sum(signed_scale(t, factor), axis=0).to_linear()


class InputFamily:
    kind = "abstract"

    def __init__(self, units):
        if units < 1:
            raise ConfigError("input family needs at least one unit")
        self.units = int(units)
        self.blocks = {}

    # --- parameter wiring -------------------------------------------------
    def register(self, store, prefix):
        """Create this family's parameter blocks under ``prefix``."""
        raise NotImplementedError

    def bind(self, blocks):
        self.blocks = dict(blocks)
        return self

    # --- evaluation surface ------------------------------------------------
    @property
    def num_states(self):
        """Number of discrete states, or None for continuous support."""
        return None

    def log_eval(self, store, x) -> SignedLogTensor:
        return self._eval(store, x)[0]

    def _eval(self, store, x):
        """(f(x), features): the values in signed log-space and the state
        ``log_eval_vjp`` needs besides them (taped passes keep both)."""
        raise NotImplementedError

    def log_eval_vjp(self, store, adj: SignedLogTensor, f: SignedLogTensor, features):
        """Accumulate parameter gradients given the adjoint of f(x) and the
        pair ``_eval`` returned for the same x."""
        raise NotImplementedError

    def integral_vector(self, store) -> SignedLogTensor:
        raise NotImplementedError

    def integral_vector_vjp(self, store, adj: SignedLogTensor):
        raise NotImplementedError

    def integral_matrix(self, store) -> SignedLogTensor:
        raise NotImplementedError

    def integral_matrix_vjp(self, store, adj: SignedLogTensor):
        raise NotImplementedError

    def product_integral(self, store, i, j) -> SignedLogTensor:
        """Integral of f_i * f_j over the variable's domain (one matrix
        entry; both units must belong to this family)."""
        if not (0 <= i < self.units and 0 <= j < self.units):
            raise ConfigError(f"unit index out of range for {self.kind} family")
        mat = self.integral_matrix(store)
        return SignedLogTensor(mat.log_magnitude[i, j], mat.sign[i, j])

    def sample_bracket(self, store):
        """(lo, hi) interval containing essentially all conditional mass."""
        raise NotImplementedError

    def value_table(self, store):
        """Finite-support families: (units, states) array of f_i values."""
        raise PcsqError(f"{self.kind} family has no finite value table")

    # --- serialization -----------------------------------------------------
    def hyper_dict(self):
        return {}

    def to_dict(self):
        return {
            "kind": self.kind,
            "units": self.units,
            "blocks": dict(self.blocks),
            **self.hyper_dict(),
        }


class _GaussianShaped:
    """Integrals up to each t_n, (len(t), K) and (len(t), K, K), of units
    proportional to Gaussian densities (means, stds = ``_params(store)``):
    a product of two such units is one too, so each is the full one * Phi."""

    def partial_integral_vector(self, store, t):
        return self._times_phi(self.integral_vector(store), *self._params(store), t)

    def partial_integral_matrix(self, store, t):
        mean, std = self._params(store)
        var = std * std
        s = var[:, None] + var[None, :]
        m = (mean[:, None] * var[None, :] + mean[None, :] * var[:, None]) / s
        return self._times_phi(self.integral_matrix(store), m, np.sqrt(np.outer(var, var) / s), t)

    @staticmethod
    def _times_phi(integral, mean, std, t):
        z = (np.reshape(t, (-1,) + (1,) * np.ndim(mean)) - mean) / std
        phi = 0.5 * np.vectorize(math.erfc, otypes=[np.float64])(-z / math.sqrt(2.0))
        with np.errstate(divide="ignore"):
            lm = integral.log_magnitude + np.log(phi)
        return SignedLogTensor(lm, np.where(phi > 0.0, integral.sign, 0.0))


class GaussianFamily(_GaussianShaped, InputFamily):
    """K Gaussian densities; std kept positive through exp reparameterization."""

    kind = "gaussian"

    def register(self, store, prefix):
        self.blocks = {
            "mean": store.add_block(f"{prefix}mean", (self.units,), "identity"),
            "std": store.add_block(f"{prefix}std", (self.units,), "exp"),
        }
        return self

    def _params(self, store):
        return store.effective(self.blocks["mean"]), store.effective(self.blocks["std"])

    def _eval(self, store, x):
        mean, std = self._params(store)
        # in place, in the order of -0.5 * z * z - log(std) - 0.5 log(2 pi)
        z = np.subtract(np.asarray(x, dtype=np.float64)[:, None], mean[None, :])
        z /= std[None, :]
        lm = np.multiply(z, -0.5)
        lm *= z
        lm -= np.log(std)[None, :]
        lm -= 0.5 * _LOG_2PI
        return SignedLogTensor(lm, np.ones_like(lm)), z

    def log_eval_vjp(self, store, adj, f, z):
        std = store.effective(self.blocks["std"])
        t = signed_mul(adj, f)
        store.accumulate_effective_grad(
            self.blocks["mean"], _weighted_batch_sum(t, z / std[None, :])
        )
        store.accumulate_effective_grad(
            self.blocks["std"], _weighted_batch_sum(t, (z * z - 1.0) / std[None, :])
        )

    def integral_vector(self, store):
        lm = np.zeros(self.units)
        return SignedLogTensor(lm, np.ones(self.units))

    def integral_vector_vjp(self, store, adj):
        pass  # densities integrate to one regardless of parameters

    def _pair_stats(self, store):
        mean, std = self._params(store)
        d = mean[:, None] - mean[None, :]
        s = (std * std)[:, None] + (std * std)[None, :]
        return mean, std, d, s

    def integral_matrix(self, store):
        _, _, d, s = self._pair_stats(store)
        lm = -0.5 * np.log(2.0 * np.pi * s) - d * d / (2.0 * s)
        return SignedLogTensor(lm, np.ones_like(lm))

    def integral_matrix_vjp(self, store, adj):
        mean, std, d, s = self._pair_stats(store)
        t = signed_mul(adj, self.integral_matrix(store))
        # slot sensitivities differ in sign: dM[i,j]/dmean_i = M*(mean_j-mean_i)/s
        # while dM[i,j]/dmean_j = M*(mean_i-mean_j)/s
        f_mu = -d / s
        tm = signed_scale(t, f_mu)
        grad_mean = signed_sum(tm, axis=1).to_linear() - signed_sum(tm, axis=0).to_linear()
        g = -0.5 / s + d * d / (2.0 * s * s)
        tg = signed_scale(t, g)
        row = signed_sum(tg, axis=1).to_linear()
        col = signed_sum(tg, axis=0).to_linear()
        grad_std = 2.0 * std * (row + col)
        store.accumulate_effective_grad(self.blocks["mean"], grad_mean)
        store.accumulate_effective_grad(self.blocks["std"], grad_std)

    def sample_bracket(self, store):
        mean, std = self._params(store)
        pad = 12.0 * float(np.max(std))
        return float(np.min(mean)) - pad, float(np.max(mean)) + pad


class _TableFamily(InputFamily):
    """Shared machinery for families with an explicit (units, states) table."""

    def __init__(self, units, states):
        super().__init__(units)
        if states < 1:
            raise ConfigError("need at least one state")
        self.states = int(states)

    @property
    def num_states(self):
        return self.states

    def _table(self, store):
        raise NotImplementedError

    def _table_vjp(self, store, grad_table):
        raise NotImplementedError

    def _check_states(self, x):
        x = np.asarray(x)
        xi = x.astype(np.int64)
        if np.any(xi != x) or xi.min(initial=0) < 0 or xi.max(initial=0) >= self.states:
            raise DomainError(
                f"discrete value outside [0, {self.states}) for {self.kind} family"
            )
        return xi

    def value_table(self, store):
        return self._table(store)

    def _eval(self, store, x):
        xi = self._check_states(x)
        return SignedLogTensor.from_linear(self._table(store)[:, xi].T), xi

    def log_eval_vjp(self, store, adj, f, xi):
        # grad[:, s] sums adj over the rows observed in state s
        onehot = SignedLogTensor.from_linear(np.eye(self.states)[xi])
        lm, sg = kernels.slse_pair_accum(
            adj.log_magnitude, adj.sign, onehot.log_magnitude, onehot.sign
        )
        self._table_vjp(store, SignedLogTensor(lm, sg).to_linear())

    def integral_vector(self, store):
        return SignedLogTensor.from_linear(self._table(store).sum(axis=1))

    def integral_vector_vjp(self, store, adj):
        self._table_vjp(store, adj.to_linear()[:, None] * np.ones((1, self.states)))

    def integral_matrix(self, store):
        table = self._table(store)
        return SignedLogTensor.from_linear(table @ table.T)

    def integral_matrix_vjp(self, store, adj):
        table = self._table(store)
        # dM[i,j]/dT[a,:] contributes through both slots
        left = signed_logsumexp(table.T, adj).to_linear()
        right = signed_logsumexp(
            table.T, SignedLogTensor(adj.log_magnitude.T, adj.sign.T)
        ).to_linear()
        self._table_vjp(store, left + right)

    def hyper_dict(self):
        return {"states": self.states}


class CategoricalFamily(_TableFamily):
    """K categorical mass functions, rows normalized via softmax."""

    kind = "categorical"

    def register(self, store, prefix):
        self.blocks = {
            "probs": store.add_block(
                f"{prefix}probs", (self.units, self.states), "softmax_row"
            )
        }
        return self

    def _table(self, store):
        return store.effective(self.blocks["probs"])

    def _table_vjp(self, store, grad_table):
        store.accumulate_effective_grad(self.blocks["probs"], grad_table)


class EmbeddingFamily(_TableFamily):
    """K unconstrained real-valued state tables (the subtractive analogue of
    categoricals)."""

    kind = "embedding"

    def register(self, store, prefix):
        self.blocks = {
            "values": store.add_block(f"{prefix}values", (self.units, self.states), "identity")
        }
        return self

    def _table(self, store):
        return store.effective(self.blocks["values"])

    def _table_vjp(self, store, grad_table):
        store.accumulate_effective_grad(self.blocks["values"], grad_table)


class BinomialFamily(InputFamily):
    """K Binomial mass functions over {0..trials} with free logit parameters."""

    kind = "binomial"

    def __init__(self, units, trials):
        super().__init__(units)
        if trials < 1:
            raise ConfigError("binomial needs trials >= 1")
        self.trials = int(trials)

    @property
    def num_states(self):
        return self.trials + 1

    def register(self, store, prefix):
        self.blocks = {
            "logit_p": store.add_block(f"{prefix}logit_p", (self.units,), "identity")
        }
        return self

    def _p(self, store):
        theta = store.effective(self.blocks["logit_p"])
        return 1.0 / (1.0 + np.exp(-theta))

    def _log_pmf(self, store, counts):
        # counts: integer array, broadcast against units on the last axis
        p = self._p(store)
        n = self.trials
        k = counts[..., None].astype(np.float64)
        log_comb = (
            math.lgamma(n + 1)
            - np.vectorize(math.lgamma)(k + 1)
            - np.vectorize(math.lgamma)(n - k + 1)
        )
        return log_comb + k * np.log(p) + (n - k) * np.log1p(-p)

    def _check(self, x):
        xi = np.asarray(x).astype(np.int64)
        if np.any(xi != np.asarray(x)) or xi.min(initial=0) < 0 or xi.max(initial=0) > self.trials:
            raise DomainError(f"count outside [0, {self.trials}] for binomial family")
        return xi

    def _eval(self, store, x):
        xi = self._check(x)
        lm = self._log_pmf(store, xi)
        return SignedLogTensor(lm, np.ones_like(lm)), xi

    def log_eval_vjp(self, store, adj, f, xi):
        p = self._p(store)
        t = signed_mul(adj, f)
        factor = xi[:, None] - self.trials * p[None, :]
        store.accumulate_effective_grad(
            self.blocks["logit_p"], _weighted_batch_sum(t, factor)
        )

    def integral_vector(self, store):
        return SignedLogTensor(np.zeros(self.units), np.ones(self.units))

    def integral_vector_vjp(self, store, adj):
        pass  # total mass is one for every parameter value

    def _tables(self, store):
        counts = np.arange(self.trials + 1)
        f = np.exp(self._log_pmf(store, counts)).T  # (units, states)
        h = f * (counts[None, :] - self.trials * self._p(store)[:, None])
        return f, h

    def value_table(self, store):
        return self._tables(store)[0]

    def integral_matrix(self, store):
        f, _ = self._tables(store)
        return SignedLogTensor.from_linear(f @ f.T)

    def integral_matrix_vjp(self, store, adj):
        f, h = self._tables(store)
        c = h @ f.T  # c[a, j] = sum_x h_a(x) f_j(x)
        grad = (
            signed_sum(signed_scale(adj, c), axis=1).to_linear()
            + signed_sum(signed_scale(adj, c.T), axis=0).to_linear()
        )
        store.accumulate_effective_grad(self.blocks["logit_p"], grad)

    def hyper_dict(self):
        return {"states": self.trials + 1}


class SplineFamily(InputFamily):
    """K spline functions sharing one B-spline basis.

    Coefficients are unconstrained by default; monotonic mode keeps them
    non-negative through exp reparameterization.
    """

    kind = "spline"

    def __init__(self, units, basis: BSplineBasis, monotonic=False):
        super().__init__(units)
        self.basis = basis
        self.monotonic = bool(monotonic)
        self._gram = None
        self._marg = None

    def register(self, store, prefix):
        reparam = "exp" if self.monotonic else "identity"
        self.blocks = {
            "coeffs": store.add_block(
                f"{prefix}coeffs", (self.units, self.basis.num_bases), reparam
            )
        }
        return self

    def _coeffs(self, store):
        return store.effective(self.blocks["coeffs"])

    def _gram_matrix(self):
        if self._gram is None:
            self._gram = self.basis.gram_matrix()
        return self._gram

    def _basis_integrals(self):
        if self._marg is None:
            self._marg = self.basis.basis_integrals()
        return self._marg

    def _eval(self, store, x):
        design = self.basis.design_matrix(x)
        return SignedLogTensor.from_linear(design @ self._coeffs(store).T), design

    def log_eval_vjp(self, store, adj, f, design):
        d_slog = SignedLogTensor.from_linear(design)
        lm, sg = kernels.slse_pair_accum(
            adj.log_magnitude, adj.sign, d_slog.log_magnitude, d_slog.sign
        )
        store.accumulate_effective_grad(
            self.blocks["coeffs"], SignedLogTensor(lm, sg).to_linear()
        )

    def integral_vector(self, store):
        return SignedLogTensor.from_linear(self._coeffs(store) @ self._basis_integrals())

    def integral_vector_vjp(self, store, adj):
        grad = adj.to_linear()[:, None] * self._basis_integrals()[None, :]
        store.accumulate_effective_grad(self.blocks["coeffs"], grad)

    def integral_matrix(self, store):
        c = self._coeffs(store)
        return SignedLogTensor.from_linear(c @ self._gram_matrix() @ c.T)

    def integral_matrix_vjp(self, store, adj):
        cg = self._coeffs(store) @ self._gram_matrix()  # (units, bases)
        left = signed_logsumexp(cg.T, adj).to_linear()
        right = signed_logsumexp(
            cg.T, SignedLogTensor(adj.log_magnitude.T, adj.sign.T)
        ).to_linear()
        store.accumulate_effective_grad(self.blocks["coeffs"], left + right)

    def partial_integral_vector(self, store, t):
        # the bases sum to one, so each basis integral is a Gram row sum
        ints = self.basis.partial_gram(t).sum(axis=2)  # (len(t), bases)
        return SignedLogTensor.from_linear(ints @ self._coeffs(store).T)

    def partial_integral_matrix(self, store, t):
        c = self._coeffs(store)
        return SignedLogTensor.from_linear(c @ self.basis.partial_gram(t) @ c.T)

    def sample_bracket(self, store):
        return self.basis.bounds

    def hyper_dict(self):
        return {"basis": self.basis.to_dict(), "monotonic": self.monotonic}


class RbfKernelFamily(_GaussianShaped, InputFamily):
    """Fixed RBF kernel units k_i(x) = exp(-||x - anchor_i||^2 / (2 h^2)).

    Anchors and bandwidth are hyperparameters, not trained; the family may
    have multivariate scope.
    """

    kind = "rbf"

    def __init__(self, anchors, bandwidth):
        anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
        super().__init__(anchors.shape[0])
        if bandwidth <= 0:
            raise ConfigError("rbf bandwidth must be positive")
        self.anchors = anchors
        self.bandwidth = float(bandwidth)

    @property
    def dim(self):
        return self.anchors.shape[1]

    def register(self, store, prefix):
        return self

    def _eval(self, store, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        diff = x[:, None, :] - self.anchors[None, :, :]
        lm = -np.sum(diff * diff, axis=2) / (2.0 * self.bandwidth**2)
        return SignedLogTensor(lm, np.ones_like(lm)), None

    def log_eval_vjp(self, store, adj, f, features):
        pass  # kernel units carry no free parameters

    def integral_vector(self, store):
        lm = np.full(self.units, self.dim * math.log(self.bandwidth * math.sqrt(2 * math.pi)))
        return SignedLogTensor(lm, np.ones(self.units))

    def integral_vector_vjp(self, store, adj):
        pass

    def integral_matrix(self, store):
        diff = self.anchors[:, None, :] - self.anchors[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        lm = self.dim * math.log(self.bandwidth * math.sqrt(math.pi)) - sq / (
            4.0 * self.bandwidth**2
        )
        return SignedLogTensor(lm, np.ones_like(lm))

    def integral_matrix_vjp(self, store, adj):
        pass

    def _params(self, store):
        # means and stds of 1-d units; the sampler integrates up to a point
        # only over single-variable scopes
        return self.anchors[:, 0], np.full(self.units, self.bandwidth)

    def sample_bracket(self, store):
        pad = 12.0 * self.bandwidth
        return float(self.anchors.min()) - pad, float(self.anchors.max()) + pad

    def hyper_dict(self):
        return {"anchors": self.anchors.tolist(), "bandwidth": self.bandwidth}


FAMILY_KINDS = {
    "gaussian": GaussianFamily,
    "categorical": CategoricalFamily,
    "embedding": EmbeddingFamily,
    "binomial": BinomialFamily,
    "spline": SplineFamily,
    "rbf": RbfKernelFamily,
}


def family_from_dict(doc):
    kind = doc["kind"]
    if kind not in FAMILY_KINDS:
        raise ConfigError(f"unknown input family {kind!r}")
    if kind == "gaussian":
        fam = GaussianFamily(doc["units"])
    elif kind in ("categorical", "embedding"):
        fam = FAMILY_KINDS[kind](doc["units"], doc["states"])
    elif kind == "binomial":
        fam = BinomialFamily(doc["units"], doc["states"] - 1)
    elif kind == "spline":
        fam = SplineFamily(
            doc["units"], BSplineBasis.from_dict(doc["basis"]), doc["monotonic"]
        )
    else:
        fam = RbfKernelFamily(doc["anchors"], doc["bandwidth"])
    return fam.bind(doc["blocks"])
