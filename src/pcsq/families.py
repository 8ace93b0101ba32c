"""Parametric input layers.

Each family computes K univariate (or, for kernel units, multivariate)
functions per input layer and supports three views needed by circuit
inference:

* pointwise evaluation f_i(x) in signed log-space: ``log_eval``, the one
  evaluation entry point of every pass, checks x against the family's
  domain and also returns the features its VJP needs (taped passes keep
  them),
* the integral vector (integral of each f_i over the variable's domain),
* the integral matrix (pairwise product integrals, for squared layers),

together with the VJPs of all three so gradients reach the parameter
store, and, for 1-d continuous units, both integrals from the domain's
lower end up to t in closed form (the sampler's exact CDFs).  Free
parameters live in the circuit's ParameterStore; families hold only
block names and hyperparameters.

Splines, categoricals and embeddings are one linear family f(x) = C phi(x)
over a fixed basis (B-splines, or the one-hot basis of the states), with
one implementation of all six views.
"""

from __future__ import annotations

import math

import numpy as np

from pcsq import kernels
from pcsq.errors import ConfigError, DomainError, PcsqError
from pcsq.slog import (
    ScaledTensor,
    SignedLogTensor,
    row_weights,
    signed_logsumexp,
    signed_mul,
    signed_scale,
    signed_sum,
)
from pcsq.splines import BSplineBasis

_LOG_2PI = math.log(2.0 * math.pi)


def _positive(shape):
    """The sign of values that are all positive: one read-only +1
    broadcast to ``shape``, which allocates nothing."""
    return np.broadcast_to(1.0, shape)


def _weighted_batch_sum(adj, f, *factors):
    """For each plain (B, K) array g in ``factors``, sum_b adj * f * g as
    plain (K,) floats.  On a scaled tape that is one ``einsum`` per factor
    under the row weights of adj's and f's scales (``slog.row_weights``);
    in signed log-space, one ``signed_sum`` down the columns per factor,
    each column under its own shift."""
    if isinstance(adj, ScaledTensor):
        scale, r = row_weights(adj.log_scale + f.log_scale)
        terms = adj.values * f.values
        terms *= r
        return [scale * np.einsum("bk,bk->k", terms, g) for g in factors]
    t = signed_mul(adj, f)
    return [signed_sum(signed_scale(t, g), axis=0).to_linear() for g in factors]


class InputFamily:
    kind = "abstract"
    # whether the methods of a pass (log_eval, the integrals and their VJPs)
    # also take the (C, ...) parameters of a circuits.StackedStore and
    # return (C, ...) values and features
    stackable = False

    def __init__(self, units):
        if units < 1:
            raise ConfigError("input family needs at least one unit")
        self.units = int(units)
        self.blocks = {}

    # --- parameter wiring -------------------------------------------------
    def block_specs(self):
        """Key -> (shape, reparameterization) of each parameter block."""
        return {}

    def register(self, store, prefix):
        """Create this family's parameter blocks under ``prefix``."""
        self.blocks = {
            key: store.add_block(f"{prefix}{key}", shape, reparam)
            for key, (shape, reparam) in self.block_specs().items()
        }
        return self

    def bind(self, blocks):
        self.blocks = dict(blocks)
        return self

    # --- evaluation surface ------------------------------------------------
    @property
    def num_states(self):
        """Number of discrete states, or None for continuous support."""
        return None

    def log_eval(self, store, x):
        """(f(x), features): the values in signed log-space and the state
        ``log_eval_vjp`` needs besides them (taped passes keep both).  The
        log-magnitude array is the caller's, which may overwrite it.  A
        value of x outside the family's domain raises a DomainError."""
        raise NotImplementedError

    def log_eval_vjp(self, store, adj: SignedLogTensor, f: SignedLogTensor, features):
        """Accumulate parameter gradients given the adjoint of f(x) and the
        pair ``log_eval`` returned for the same x."""
        raise NotImplementedError

    def integral_vector(self, store) -> SignedLogTensor:
        raise NotImplementedError

    def integral_vector_vjp(self, store, adj: SignedLogTensor):
        """Accumulate parameter gradients given the adjoint of the integral
        vector: a (K,) SignedLogTensor, or on a scaled tape a (K,)
        ScaledTensor block under one log-scale."""
        raise NotImplementedError

    def integral_matrix(self, store) -> SignedLogTensor:
        raise NotImplementedError

    def integral_matrix_vjp(self, store, adj: SignedLogTensor):
        """As ``integral_vector_vjp``, for the (K, K) integral matrix."""
        raise NotImplementedError

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
    stackable = True

    def block_specs(self):
        return {"mean": ((self.units,), "identity"), "std": ((self.units,), "exp")}

    def _params(self, store):
        return store.effective(self.blocks["mean"]), store.effective(self.blocks["std"])

    def log_eval(self, store, x):
        x = DomainError.check(x, np.isfinite, "is not finite")
        mean, std = self._params(store)
        # in place, in the order of -0.5 * z * z - log(std) - 0.5 log(2 pi),
        # on (..., K, rows) arrays: their transposes are column-major, as a
        # ScaledTensor keeps its values.  Far-tail evidence overflows z * z,
        # and log f is then -inf
        with np.errstate(over="ignore"):
            z = np.subtract(x, mean[..., None])
            z /= std[..., None]
            lm = np.multiply(z, -0.5)
            lm *= z
        lm -= np.log(std)[..., None]
        lm -= 0.5 * _LOG_2PI
        lm = lm.swapaxes(-1, -2)
        return SignedLogTensor(lm, _positive(lm.shape)), z.swapaxes(-1, -2)

    def log_eval_vjp(self, store, adj, f, z):
        std = store.effective(self.blocks["std"])
        if not isinstance(adj, ScaledTensor):
            d_mean, d_std = _weighted_batch_sum(adj, f, z / std, (z * z - 1.0) / std)
        else:  # column sums of t, t z and t z^2 for t = adj f under the row weights
            scale, r = row_weights(adj.log_scale + f.log_scale)
            t = adj.values.swapaxes(-1, -2) * f.values.swapaxes(-1, -2)  # (..., K, rows)
            zt = z.swapaxes(-1, -2)
            s0 = t @ r
            t *= zt
            s1 = t @ r
            t *= zt
            s2 = t @ r
            d_mean = (scale * s1)[..., 0] / std
            d_std = (scale * (s2 - s0))[..., 0] / std
        store.accumulate_effective_grad(self.blocks["mean"], d_mean)
        store.accumulate_effective_grad(self.blocks["std"], d_std)

    def integral_vector(self, store):
        shape = np.shape(store.effective(self.blocks["mean"]))  # (K,), or (C, K) stacked
        return SignedLogTensor(np.zeros(shape), np.ones(shape))

    def integral_vector_vjp(self, store, adj):
        pass  # densities integrate to one regardless of parameters

    def _pair_stats(self, store):
        mean, std = self._params(store)
        d = mean[..., :, None] - mean[..., None, :]
        s = (std * std)[..., :, None] + (std * std)[..., None, :]
        return mean, std, d, s

    def _log_integral_matrix(self, d, s):
        return -0.5 * np.log(2.0 * np.pi * s) - d * d / (2.0 * s)

    def integral_matrix(self, store):
        _, _, d, s = self._pair_stats(store)
        lm = self._log_integral_matrix(d, s)
        return SignedLogTensor(lm, _positive(lm.shape))

    def integral_matrix_vjp(self, store, adj):
        mean, std, d, s = self._pair_stats(store)
        # slot sensitivities differ in sign: dM[i,j]/dmean_i = M*(mean_j-mean_i)/s
        # while dM[i,j]/dmean_j = M*(mean_i-mean_j)/s
        f_mu = -d / s
        g = -0.5 / s + d * d / (2.0 * s * s)
        if isinstance(adj, ScaledTensor):
            # M and g are symmetric and f_mu antisymmetric, so each pair of
            # row and column sums is one row sum of (A + A^T) M
            a = adj.to_linear()
            t = (a + a.swapaxes(-1, -2)) * np.exp(self._log_integral_matrix(d, s))
            grad_mean = np.sum(t * f_mu, axis=-1)
            grad_std = 2.0 * std * np.sum(t * g, axis=-1)
        else:
            t = signed_mul(adj, self.integral_matrix(store))
            tm = signed_scale(t, f_mu)
            grad_mean = signed_sum(tm, axis=1).to_linear() - signed_sum(tm, axis=0).to_linear()
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


def _check_states(x, states):
    """``x`` as int64 states in {0, ..., states - 1}.  The DomainError names
    the first value that is not finite, not whole or out of range; it is
    raised before the cast, which would warn on NaN or inf."""
    is_state = lambda v: np.isfinite(v) & (v == np.floor(v)) & (v >= 0) & (v < states)
    return DomainError.check(x, is_state, f"is not a state in [0, {states})").astype(np.int64)


class _OneHotBasis:
    """Indicators of the states 0..S-1, phi(x) = e_x: a value table is the
    linear family over this basis.  Its feature is the state itself, so
    phi(x) C^T is a column gather, its band the one basis x with value 1,
    C (int phi) a row sum and C G = C."""

    def __init__(self, states):
        if states < 1:
            raise ConfigError("need at least one state")
        self.num_bases = int(states)

    def evaluate(self, coeffs, x):
        xi = _check_states(x, self.num_bases)
        return coeffs[..., xi].swapaxes(-1, -2), xi

    def live_band(self, xi):
        return xi, np.ones((xi.size, 1))

    def basis_integrals(self):
        return np.ones(self.num_bases)

    def integrate(self, coeffs):
        return coeffs.sum(axis=-1)

    def gram_times(self, coeffs):
        return coeffs


class _LinearFamily(InputFamily):
    """K units f(x) = C phi(x), linear in a fixed basis phi; the coefficients
    C are the family's one parameter block.  The integrals are C (int phi)
    and C G C^T for the basis Gram matrix G.  The basis computes its
    products with C: ``evaluate(C, x)`` gives phi(x) C^T and the feature
    the VJP reuses, ``live_band`` turns that feature into the bases live
    at each row, (first, band) with phi_{first[n] + r}(x_n) = band[n, r]
    and every other basis 0, ``integrate(C)`` is C (int phi),
    ``basis_integrals()`` int phi, and ``gram_times(C)`` is C G.  So
    evaluation and the VJP touch only the live bases of each row."""

    block_name = "coeffs"
    reparam = "identity"
    stackable = True

    def __init__(self, units, basis):
        super().__init__(units)
        self.basis = basis

    def block_specs(self):
        return {self.block_name: ((self.units, self.basis.num_bases), self.reparam)}

    def _coeffs(self, store):
        return store.effective(self.blocks[self.block_name])

    def _accumulate(self, store, grad):
        store.accumulate_effective_grad(self.blocks[self.block_name], grad)

    def log_eval(self, store, x):
        values, features = self.basis.evaluate(self._coeffs(store), x)
        return SignedLogTensor.from_linear(values), features

    def log_eval_vjp(self, store, adj, f, features):
        first, band = self.basis.live_band(features)
        width = self.basis.num_bases
        if isinstance(adj, ScaledTensor):  # one bincount under the adjoint's row weights
            scale, r = row_weights(adj.log_scale)
            grad = scale * kernels.band_accum(adj.values * r, first, band, width)
        else:  # one pair accumulation against the dense phi
            phi = np.zeros((adj.shape[0], width))
            np.put_along_axis(phi, first[:, None] + np.arange(band.shape[1]), band, axis=1)
            phi = SignedLogTensor.from_linear(phi)
            grad = kernels.slse_pair_accum(adj.log_magnitude, adj.sign, phi.log_magnitude, phi.sign)
            grad = SignedLogTensor(*grad).to_linear()
        self._accumulate(store, grad)

    def integral_vector(self, store):
        return SignedLogTensor.from_linear(self.basis.integrate(self._coeffs(store)))

    def integral_vector_vjp(self, store, adj):
        self._accumulate(store, adj.to_linear()[..., :, None] * self.basis.basis_integrals())

    def integral_matrix(self, store):
        c = self._coeffs(store)
        return SignedLogTensor.from_linear(self.basis.gram_times(c) @ c.swapaxes(-1, -2))

    def integral_matrix_vjp(self, store, adj):
        # dM[i,j]/dC[a,:] contributes through both slots: (A + A^T) C G, on
        # a scaled block one GEMM, in signed log-space one row pass over the
        # stacked rows of A and A^T
        cg = self.basis.gram_times(self._coeffs(store))  # (units, bases)
        if isinstance(adj, ScaledTensor):
            a = adj.to_linear()
            grad = (a + a.swapaxes(-1, -2)) @ cg
        else:
            both = SignedLogTensor(
                np.concatenate([adj.log_magnitude, adj.log_magnitude.T]),
                np.concatenate([adj.sign, adj.sign.T]),
            )
            rows = signed_logsumexp(cg.T, both).to_linear()
            grad = rows[: self.units] + rows[self.units :]
        self._accumulate(store, grad)


class _TableFamily(_LinearFamily):
    """An explicit (units, states) value table: the linear family over the
    one-hot basis of the states."""

    def __init__(self, units, states):
        super().__init__(units, _OneHotBasis(states))

    @property
    def num_states(self):
        return self.basis.num_bases

    def value_table(self, store):
        return self._coeffs(store)

    def hyper_dict(self):
        return {"states": self.num_states}


class CategoricalFamily(_TableFamily):
    """K categorical mass functions, rows normalized via softmax."""

    kind = "categorical"
    block_name = "probs"
    reparam = "softmax_row"


class EmbeddingFamily(_TableFamily):
    """K unconstrained real-valued state tables (the subtractive analogue of
    categoricals)."""

    kind = "embedding"
    block_name = "values"


class BinomialFamily(InputFamily):
    """K Binomial mass functions over {0..trials} with free logit parameters."""

    kind = "binomial"

    def __init__(self, units, trials):
        super().__init__(units)
        if trials < 1:
            raise ConfigError("binomial needs trials >= 1")
        self.trials = int(trials)
        # log C(n, k) for every count k, gathered by each evaluation
        n, k = self.trials, np.arange(self.trials + 1, dtype=np.float64)
        lgamma = np.vectorize(math.lgamma)
        self._log_comb = math.lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)

    @property
    def num_states(self):
        return self.trials + 1

    def block_specs(self):
        return {"logit_p": ((self.units,), "identity")}

    def _p(self, store):
        theta = store.effective(self.blocks["logit_p"])
        return 1.0 / (1.0 + np.exp(-theta))

    def _log_pmf(self, store, counts):
        # counts: integer array, broadcast against units on the last axis
        p = self._p(store)
        n = self.trials
        k = counts[..., None].astype(np.float64)
        return self._log_comb[counts][..., None] + k * np.log(p) + (n - k) * np.log1p(-p)

    def log_eval(self, store, x):
        xi = _check_states(x, self.trials + 1)
        lm = self._log_pmf(store, xi)
        return SignedLogTensor(lm, _positive(lm.shape)), xi

    def log_eval_vjp(self, store, adj, f, xi):
        factor = xi[:, None] - self.trials * self._p(store)[None, :]
        (grad,) = _weighted_batch_sum(adj, f, factor)
        store.accumulate_effective_grad(self.blocks["logit_p"], grad)

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
        if isinstance(adj, ScaledTensor):  # c pairs with both slots: (A + A^T) c
            a = adj.to_linear()
            grad = np.sum((a + a.T) * c, axis=1)
        else:
            grad = (
                signed_sum(signed_scale(adj, c), axis=1).to_linear()
                + signed_sum(signed_scale(adj, c.T), axis=0).to_linear()
            )
        store.accumulate_effective_grad(self.blocks["logit_p"], grad)

    def hyper_dict(self):
        return {"states": self.trials + 1}


class SplineFamily(_LinearFamily):
    """K spline functions sharing one B-spline basis.

    Coefficients are unconstrained by default; monotonic mode keeps them
    non-negative through exp reparameterization.
    """

    kind = "spline"

    def __init__(self, units, basis: BSplineBasis, monotonic=False):
        super().__init__(units, basis)
        self.monotonic = bool(monotonic)
        self.reparam = "exp" if self.monotonic else "identity"

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
        if not 0 < bandwidth < math.inf:
            raise ConfigError(f"rbf bandwidth must be positive and finite, got {bandwidth}")
        self.anchors = anchors
        self.bandwidth = float(bandwidth)

    @property
    def dim(self):
        return self.anchors.shape[1]

    def log_eval(self, store, x):
        x = DomainError.check(x, np.isfinite, "is not finite")
        if x.ndim == 1:
            x = x[:, None]
        diff = x[:, None, :] - self.anchors[None, :, :]
        with np.errstate(over="ignore"):  # far-tail evidence: log k = -inf
            lm = -np.sum(diff * diff, axis=2) / (2.0 * self.bandwidth**2)
        return SignedLogTensor(lm, _positive(lm.shape)), None

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
        return SignedLogTensor(lm, _positive(lm.shape))

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
        if fam.units != doc["units"]:
            raise ConfigError(f"rbf family has {fam.units} anchors, not {doc['units']} units")
    return fam.bind(doc["blocks"])
