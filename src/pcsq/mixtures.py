"""Monotonic mixtures of circuits.

A mixture joins independently built circuits (all squared, or all plain
monotonic) under one layer of non-negative weights.  This is the shape of
two things in the package: multi-structure models (several random tree
region graphs mixed at the root) and the output of the PSD-model
reduction, which is a non-negative combination of squared components.
Its values, its normalizer and its sampling shares are one weighted
log-sum-exp over the components, :func:`pcsq.slog.log_weighted_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcsq import inference
from pcsq.circuits import ParameterStore
from pcsq.errors import ConfigError, DegenerateModelError
from pcsq.slog import log_weighted_sum


@dataclass
class CircuitMixture:
    components: list
    store: ParameterStore           # holds only the mixture weights
    weight_block: str
    variable_count: int

    @classmethod
    def from_components(cls, components, weights=None, learnable=True):
        if not components:
            raise ConfigError("mixture needs at least one component")
        kinds = {type(c) for c in components}
        if len(kinds) != 1:
            raise ConfigError("mixture components must all have the same type")
        d = components[0].variable_count
        if any(c.variable_count != d for c in components):
            raise ConfigError("mixture components must share the variable set")
        k = len(components)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
            ok = np.isfinite(weights) & (weights > 0.0 if learnable else weights >= 0.0)
            if not np.all(ok):
                i = int(np.argmin(ok))
                rule = "finite and > 0 if learnable" if learnable else "finite and >= 0 if fixed"
                raise ConfigError(f"mixture weight {i} is {weights[i]}; it must be {rule}")
        store = ParameterStore()
        if learnable:
            init = np.zeros(k) if weights is None else np.log(weights)
            block = store.add_block("mixture.weights", (k,), "exp", init=init)
        else:
            vals = np.full(k, 1.0 / k) if weights is None else weights
            block = store.add_block("mixture.weights", (k,), "identity", trainable=False, init=vals)
        return cls(components, store, block, d)

    def weights(self):
        return self.store.effective(self.weight_block)

    def parameter_stores(self):
        return [self.store] + [c.store for c in self.components]

    # --- evaluation -----------------------------------------------------

    def component_log_values(self, x):
        """(batch, k) log of each component's non-negative value, -inf where it is 0."""
        return np.stack([inference.log_value(c, x) for c in self.components], axis=-1)

    def log_value(self, x):
        """log of the unnormalized mixture value per batch row."""
        return log_weighted_sum(self.weights(), self.component_log_values(np.atleast_2d(x)))[0]

    def _normalizer(self):
        """(log Z, each component's share of Z) for Z = sum_i weight_i * Z_i."""
        logs = [float(inference.partition_function(c).log_magnitude) for c in self.components]
        log_z, shares = log_weighted_sum(self.weights(), np.array(logs))
        if not np.isfinite(log_z):
            raise DegenerateModelError("mixture normalizer is zero")
        return float(log_z), shares

    def partition(self):
        """log Z; each Z_i is cached per parameter version by ``inference.partition_function``."""
        return self._normalizer()[0]

    def log_density(self, x):
        return inference.log_density(self, x)

    def log_likelihood(self, x):
        return inference.log_likelihood(self, x)

    def sample(self, n, seed=0):
        n = inference._draw_count(n)
        rng = np.random.default_rng(seed)
        _, w = self._normalizer()
        counts = rng.multinomial(n, w)
        parts = [np.zeros((0, self.variable_count))]
        for c, m in zip(self.components, counts):
            if m:
                parts.append(inference.sample(c, int(m), seed=int(rng.integers(2**31))))
        out = np.concatenate(parts, axis=0)
        return out[rng.permutation(n)]
