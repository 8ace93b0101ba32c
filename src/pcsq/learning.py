"""Maximum-likelihood training by batched gradient ascent.

One gradient routine serves plain circuits, squared circuits and
monotonic mixtures of either: a single circuit is the one-component
mixture with weight 1.  Per optimizer step, each component runs one taped
forward+backward over the batch through its unnormalized log-value (the
source circuit, for a squared one) and exactly one taped forward+backward
through its partition function (Z does not depend on the data, so its
cost is amortized over the batch).  ``slog.log_weighted_sum`` turns the
passes' log-values into the responsibilities and Z shares that seed their
backward passes.  Early stopping watches validation likelihood; the
best-validation parameters are restored at the end.

A mixture whose components share one layer tree
(:func:`pcsq.circuits.stack_stores`) runs those passes once for all of
them, on a :class:`pcsq.circuits.StackedCircuit` whose values carry a
leading component axis: one data pass and one Z pass per step instead of
one of each per component, with the same results to rounding (the same
bits, where the batched GEMMs round as the 2-d ones do).  The stack is
built when a mixture first trains and kept on it, never saved.  A guard
that trips anywhere in the stacked step abandons it with nothing in any
store and reruns it per component, where a guard reruns only its own
pass in signed log-space.  Other mixtures always take the per-component
loop; no option chooses between the two.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from pcsq import engine, inference
from pcsq.circuits import StackedCircuit, TensorizedCircuit, stack_stores
from pcsq.data import write_csv
from pcsq.errors import ConfigError, NumericError
from pcsq.mixtures import CircuitMixture
from pcsq.slog import OutOfScaledRange, log_weighted_sum
from pcsq.squaring import SquaredCircuit


@dataclass
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 50
    patience: int = 3
    optimizer: str = "adam"  # adam(beta1=0.9, beta2=0.999, eps=1e-8) | sgd
    seed: int = 0
    l2: float = 0.0

    def check(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError("l2 must be >= 0 and finite")
        return self


@dataclass
class TrainReport:
    # (epoch, train_ll, val_ll, seconds); train_ll is the mean over the
    # epoch's steps, each batch under the parameters its step started from
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_ll: float = -np.inf
    wall_seconds: float = 0.0
    z_evals_per_step: float = 0.0

    def write_csv(self, path):
        write_csv(path, ["epoch", "train_ll", "val_ll", "seconds"], self.epochs)


_INIT_RE = re.compile(r"^\s*(uniform|normal)\s*\(\s*([-0-9.eE+]+)\s*,\s*([-0-9.eE+]+)\s*\)\s*$")


def parse_init(scheme: str):
    m = _INIT_RE.match(scheme)
    if not m:
        raise ConfigError(
            f"bad init scheme {scheme!r}; expected uniform(a,b) or normal(mean,std)"
        )
    try:
        kind, a, b = m.group(1), float(m.group(2)), float(m.group(3))
    except ValueError as exc:
        raise ConfigError(f"bad number in init scheme {scheme!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"init scheme {scheme!r} needs finite numbers")
    if kind == "uniform" and not (a < b and math.isfinite(b - a)):
        raise ConfigError("uniform init needs a < b and a finite b - a")
    if kind == "normal" and b <= 0:
        raise ConfigError("normal init needs std > 0")
    return kind, a, b


def _stores(model):
    if isinstance(model, CircuitMixture):
        return model.parameter_stores()
    if isinstance(model, (SquaredCircuit, TensorizedCircuit)):
        return [model.store]
    raise ConfigError(f"cannot train a {type(model).__name__}")


def init_parameters(model, scheme="uniform(0,1)", seed=0):
    """Draw every trainable free parameter from the seeded scheme."""
    kind, a, b = parse_init(scheme)
    rng = np.random.default_rng(seed)
    for store in _stores(model):
        for block in store.blocks.values():
            if not block.trainable:
                continue
            if kind == "uniform":
                vals = rng.uniform(a, b, size=block.size)
            else:
                vals = rng.normal(a, b, size=block.size)
            store.values[block.offset : block.offset + block.size] = vals
        store.bump()
    return model


class _Optimizer:
    def __init__(self, stores, config: TrainConfig):
        self.stores = stores
        self.masks = [s.trainable_mask() for s in stores]
        self.lr = config.learning_rate
        self.l2 = config.l2

    def _loss_grad(self, store, mask):
        # gradients hold d(mean LL)/d(theta); we minimize the negative
        g = -store.gradients[mask]
        if self.l2:
            g = g + self.l2 * store.values[mask]
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient; aborting the step")
        return g

    def step(self):
        raise NotImplementedError


class _Sgd(_Optimizer):
    def step(self):
        for store, mask in zip(self.stores, self.masks):
            store.values[mask] -= self.lr * self._loss_grad(store, mask)
            store.bump()


class _Adam(_Optimizer):
    def __init__(self, stores, config):
        super().__init__(stores, config)
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros(int(mask.sum())) for mask in self.masks]
        self.v = [np.zeros(int(mask.sum())) for mask in self.masks]

    def step(self):
        self.t += 1
        for i, (store, mask) in enumerate(zip(self.stores, self.masks)):
            g = self._loss_grad(store, mask)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / (1 - self.beta1**self.t)
            vhat = self.v[i] / (1 - self.beta2**self.t)
            store.values[mask] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
            store.bump()


def _accumulate_gradients(model, x):
    """Accumulate d(mean log-likelihood)/d(free params) for one batch and
    return the batch's summed log-likelihood.

    A circuit trains as a one-component mixture with weight 1, whose
    responsibilities are then exactly 1.  A mixture whose components stack
    (:func:`_stacked`) runs one taped data pass and one taped Z pass of the
    stack; any other model, or a stacked step that leaves the scaled range,
    runs one of each per component.
    """
    stack = _stacked(model) if isinstance(model, CircuitMixture) else None
    if stack is not None:
        stores = [c.store for c in model.components]
        held = [s.gradients.copy() for s in stores]
        z_counts = [inference.z_eval_count(c) for c in model.components]
        try:
            return _step(model, [stack], x)
        except OutOfScaledRange:  # signed log-space runs per component: undo the attempt
            for s, grads in zip(stores, held):
                s.gradients[:] = grads
            for c, count in zip(model.components, z_counts):
                c._z_evals = count
    return _step(model, model.components if isinstance(model, CircuitMixture) else [model], x)


def _step(model, parts, x):
    """The step of :func:`_accumulate_gradients` over ``parts``: the
    mixture's components in order, or one stack of them all.  Each part runs
    one taped data pass and one taped Z pass; the data passes' log-values
    set the responsibilities and their tapes carry them back."""
    lam = model.weights() if isinstance(model, CircuitMixture) else np.ones(1)
    b = x.shape[0]
    data = [inference.log_value(p, x, want_tape=True) for p in parts]
    zs = [inference.partition_function(p, want_tape=True) for p in parts]
    logs = np.concatenate([np.reshape(logs, (-1, b)) for logs, _ in data])  # (components, b)
    log_values, resp = log_weighted_sum(lam, np.ascontiguousarray(logs.T))
    del logs  # a step's memory peak is its data sweep's: no batch-sized array outlives its use
    dead = log_values == -np.inf
    if dead.any():
        raise NumericError(f"model value is 0 exactly at batch row {int(np.argmax(dead))}")
    log_z, rho = log_weighted_sum(lam, np.concatenate([np.ravel(z.log_magnitude) for z, _ in zs]))
    # log sum_i lam_i c_i(x) - log sum_i lam_i Z_i, summed over the batch
    batch_ll = float(np.sum(log_values) - b * log_z)

    scale = 2.0 if isinstance(parts[0], SquaredCircuit) else 1.0  # log c^2 = 2 log|c|
    first = 0
    for (_, res), (_, zres) in zip(data, zs):
        part = slice(first, first + zres.root.log_magnitude.size)  # the part's components
        seed = engine.log_grad_seed(res.root, (scale * resp[:, part] / b).T.reshape(res.root.shape))
        engine.backward(res.tape, seed)
        seed = engine.log_grad_seed(zres.root, -rho[part].reshape(zres.root.shape))
        engine.backward(zres.tape, seed)
        first = part.stop
    if isinstance(model, CircuitMixture) and model.store.blocks[model.weight_block].trainable:
        # lam = exp(theta), so d/dtheta of the batch mean is r - rho itself; a
        # fixed block trains nothing and gets no gradient
        grad = model.store.grad_view(model.weight_block)
        grad += resp.mean(axis=0) - rho
    return batch_ll


def _stacked(mixture):
    """The stack of a mixture's components when there are at least two and
    their circuits' layers pair up (:func:`pcsq.circuits.stack_stores`): a
    StackedCircuit over the stacked store, within a SquaredCircuit for
    squared components.  None for any other mixture.  It is built once per
    list of components and never saved."""
    comps = list(mixture.components)
    cached = getattr(mixture, "_stack", None)
    if cached is None or list(map(id, cached[0])) != list(map(id, comps)):
        cached = mixture._stack = (comps, _build_stack(comps))
    return cached[1]


def _build_stack(comps):
    if len(comps) < 2:
        return None
    squared = isinstance(comps[0], SquaredCircuit)
    sources = [c.source for c in comps] if squared else comps
    store = stack_stores(sources)
    if store is None:
        return None
    source = StackedCircuit(sources[0].layers, store, comps)
    if not squared:
        return source
    return SquaredCircuit(StackedCircuit(comps[0].circuit.layers, store, comps), source)


def _model_z_count(model):
    # a mixture computes each component's Z once per step: count the mean
    if isinstance(model, CircuitMixture):
        return float(np.mean([inference.z_eval_count(c) for c in model.components]))
    return inference.z_eval_count(model)


def train(model, dataset, config: TrainConfig) -> TrainReport:
    """Maximize mean log-likelihood on the train split with early stopping
    on the validation split; returns the trace and restores the best
    checkpoint."""
    config.check()
    train_x = dataset.split("train")
    val_x = dataset.split("val")
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise ConfigError("train and val splits must be non-empty")
    if train_x.shape[1] != model.variable_count:
        raise ConfigError(
            f"dataset has {train_x.shape[1]} variables, model has {model.variable_count}"
        )
    stores = _stores(model)
    opt = (_Adam if config.optimizer == "adam" else _Sgd)(stores, config)
    report = TrainReport()
    best = [s.snapshot() for s in stores]
    bad_epochs = 0
    step_z_evals = 0
    total_steps = 0
    t_start = time.perf_counter()
    for epoch in range(config.max_epochs):
        t_epoch = time.perf_counter()
        rng = np.random.default_rng([config.seed, epoch])
        order = rng.permutation(train_x.shape[0])
        z_before = _model_z_count(model)
        steps = 0
        ll_sum = 0.0
        for lo in range(0, order.size, config.batch_size):
            batch = train_x[order[lo : lo + config.batch_size]]
            for s in stores:
                s.zero_grad()
            try:
                ll_sum += _accumulate_gradients(model, batch)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {steps}: {exc}") from exc
            opt.step()
            steps += 1
        step_z_evals += _model_z_count(model) - z_before
        total_steps += steps
        train_ll = ll_sum / train_x.shape[0]
        val_ll = inference.log_likelihood(model, val_x)
        report.epochs.append((epoch, train_ll, val_ll, time.perf_counter() - t_epoch))
        if val_ll > report.best_val_ll:
            report.best_val_ll = val_ll
            report.best_epoch = epoch
            best = [s.snapshot() for s in stores]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    for s, snap in zip(stores, best):
        s.restore(snap)
    report.wall_seconds = time.perf_counter() - t_start
    report.z_evals_per_step = step_z_evals / max(total_steps, 1)
    return report
