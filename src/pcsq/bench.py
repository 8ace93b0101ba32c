"""Micro-benchmarks: training-step timing, partition-function amortization
counts, marginal throughput, and the log-space vs linear-space overflow
sweep.

A step-timing row also counts the minor page faults of its timed steps
(``resource.getrusage``'s ``ru_minflt``), which shows whether passes reuse
freed heap pages (see :mod:`pcsq.kernels`); the column is empty where the
``resource`` module is missing.

A marginal-timing row gives the rows/s of ``marginal_batch`` on the
step-timing model of the same width and batch size, with the variables
``marginalized`` ({0}, the first half, all but the last) joined by ``;``.

Writes one flat CSV; rows belong to a ``section`` and leave unrelated
columns empty.  The overflow sweep records the smallest variable count at
which the linear-space float64 partition function stops being finite
while the signed log-space value stays finite.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from pcsq import data, engine, inference
from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError
from pcsq.families import GaussianFamily
from pcsq.learning import TrainConfig, _Adam, _accumulate_gradients, init_parameters
from pcsq.regions import build_binary_tree
from pcsq.squaring import square

try:
    import resource
except ImportError:  # not on every platform
    resource = None

_COLUMNS = [
    "section",
    "k",
    "batch_size",
    "steps",
    "z_evals_per_step",
    "seconds_per_step",
    "minor_faults_per_step",
    "peak_mb",
    "marginalized",
    "rows_per_s",
    "variables",
    "log_z_logspace",
    "linear_z_finite",
    "crossover_variables",
]


def _gaussian_squared_model(variables, k, seed, init="uniform(0,1)"):
    rg = build_binary_tree(variables, seed=seed)
    circuit = from_region_graph(rg, k, "hadamard", lambda scope, units: GaussianFamily(units))
    model = square(circuit)
    init_parameters(model, init, seed)
    return model


def _timed_steps(model, batch, steps, seed):
    rng = np.random.default_rng(seed)
    d = model.variable_count
    x = rng.normal(size=(batch, d))
    opt = _Adam([model.store], TrainConfig(batch_size=batch))
    # one warm-up step outside the clock (caches); its peak memory is
    # reported, so the timed loop runs without tracemalloc's overhead
    tracemalloc.start()
    model.store.zero_grad()
    _accumulate_gradients(model, x)
    opt.step()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    z_before = inference.z_eval_count(model)
    faults_before = _minor_faults()
    t0 = time.perf_counter()
    for _ in range(steps):
        model.store.zero_grad()
        _accumulate_gradients(model, x)
        opt.step()
    elapsed = time.perf_counter() - t0
    faults = _minor_faults()
    faults_per_step = "" if faults is None else (faults - faults_before) / steps
    z_per_step = (inference.z_eval_count(model) - z_before) / steps
    return elapsed / steps, faults_per_step, peak / 1e6, z_per_step


def _marginal_rates(model, batch, steps, seed):
    """(marginalized, rows/s) of ``marginal_batch`` over {0}, the first
    half of the variables and all but the last (each distinct subset
    once), from ``steps`` timed calls after one outside the clock."""
    d = model.variable_count
    x = np.random.default_rng(seed).normal(size=(batch, d))
    subsets = dict.fromkeys(tuple(range(n)) for n in (1, max(1, d // 2), max(1, d - 1)))
    rates = []
    for marginalized in subsets:
        inference.marginal_batch(model, x, marginalized)
        t0 = time.perf_counter()
        for _ in range(steps):
            inference.marginal_batch(model, x, marginalized)
        rates.append((marginalized, batch * steps / (time.perf_counter() - t0)))
    return rates


def _minor_faults():
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_benchmarks(
    k=(32, 64, 128),
    batch_sizes=(64, 256, 1024),
    variables=8,
    steps=3,
    overflow_variables=(16, 32, 64, 128),
    overflow_k=64,
    overflow_init="uniform(0,4)",
    seed=0,
):
    if min(steps, *k, *batch_sizes) < 1:
        raise ConfigError("bench steps, widths k and batch sizes must be at least 1")
    rows = []
    for width in k:
        for batch in batch_sizes:
            model = _gaussian_squared_model(variables, width, seed)
            sec, faults, peak_mb, z_per_step = _timed_steps(model, batch, steps, seed)
            rows.append(
                {
                    "section": "step_timing",
                    "k": width,
                    "batch_size": batch,
                    "steps": steps,
                    "z_evals_per_step": z_per_step,
                    "seconds_per_step": sec,
                    "minor_faults_per_step": faults,
                    "peak_mb": peak_mb,
                    "variables": variables,
                }
            )
            for marginalized, rate in _marginal_rates(model, batch, steps, seed):
                rows.append(
                    {
                        "section": "marginal_timing",
                        "k": width,
                        "batch_size": batch,
                        "steps": steps,
                        "marginalized": ";".join(map(str, marginalized)),
                        "rows_per_s": rate,
                        "variables": variables,
                    }
                )
    crossover = None
    for v in overflow_variables:
        model = _gaussian_squared_model(v, overflow_k, seed, init=overflow_init)
        log_z = float(inference.partition_function(model).log_magnitude)
        linear = engine.forward(
            model.circuit, None, marginalized=frozenset(range(v)), space="linear"
        ).root
        finite = bool(np.isfinite(linear).all())
        if not finite and crossover is None:
            crossover = v
        rows.append(
            {
                "section": "overflow",
                "variables": v,
                "log_z_logspace": log_z,
                "linear_z_finite": finite,
            }
        )
    rows.append(
        {
            "section": "overflow_summary",
            "crossover_variables": "none" if crossover is None else crossover,
        }
    )
    return rows


def write_csv(path, rows):
    data.write_csv(path, _COLUMNS, ([row.get(col, "") for col in _COLUMNS] for row in rows))
