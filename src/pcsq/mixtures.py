"""Monotonic mixtures of circuits.

A mixture joins independently built circuits (all squared, or all plain
monotonic) under one layer of non-negative weights.  This is the shape of
two things in the package: multi-structure models (several random tree
region graphs mixed at the root) and the output of the PSD-model
reduction, which is a non-negative combination of squared components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcsq import inference
from pcsq.circuits import ParameterStore
from pcsq.errors import ConfigError, DegenerateModelError
from pcsq.squaring import SquaredCircuit


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
        store = ParameterStore()
        k = len(components)
        if learnable:
            init = np.zeros(k) if weights is None else np.log(np.asarray(weights, dtype=np.float64))
            block = store.add_block("mixture.weights", (k,), "exp", init=init)
        else:
            vals = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
            if np.any(vals < 0):
                raise ConfigError("mixture weights must be non-negative")
            block = store.add_block("mixture.weights", (k,), "identity", trainable=False, init=vals)
        return cls(components, store, block, d)

    @property
    def squared(self):
        return isinstance(self.components[0], SquaredCircuit)

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
        logs = self.component_log_values(np.atleast_2d(x))
        with np.errstate(divide="ignore"):  # log 0 = -inf: a zero weight or an all-zero row
            shifted = logs + np.log(self.weights())[None, :]
            top = np.max(shifted, axis=-1)
            safe = np.where(np.isfinite(top), top, 0.0)
            out = safe + np.log(np.sum(np.exp(shifted - safe[:, None]), axis=-1))
        return np.where(np.isfinite(top), out, -np.inf)

    def component_log_partitions(self):
        return np.array(
            [float(inference.partition_function(c).log_magnitude) for c in self.components]
        )

    def partition(self):
        """log of the mixture normalizer: sum_i weight_i * Z_i (each Z_i is
        cached per parameter version by ``inference.partition_function``)."""
        logz = self.component_log_partitions()
        with np.errstate(divide="ignore"):
            shifted = logz + np.log(self.weights())
        top = float(np.max(shifted))
        if not np.isfinite(top):
            raise DegenerateModelError("mixture normalizer is zero")
        return top + float(np.log(np.sum(np.exp(shifted - top))))

    def log_density(self, x):
        return inference.log_density(self, x)

    def log_likelihood(self, x):
        return float(np.mean(self.log_density(np.atleast_2d(x))))

    def sample(self, n, seed=0):
        if n < 0:
            raise ConfigError(f"cannot draw a negative number of samples ({n})")
        rng = np.random.default_rng(seed)
        logz = self.component_log_partitions()
        with np.errstate(divide="ignore"):
            w = np.log(self.weights()) + logz
        w = np.exp(w - np.max(w))
        w = w / w.sum()
        counts = rng.multinomial(n, w)
        parts = [np.zeros((0, self.variable_count))]
        for c, m in zip(self.components, counts):
            if m:
                parts.append(inference.sample(c, int(m), seed=int(rng.integers(2**31))))
        out = np.concatenate(parts, axis=0)
        return out[rng.permutation(n)]
