"""Output checks: each returns None when the output is right, else a message.

Oracles evaluate the same circuit with ``engine.forward(..., space="linear")``,
plain float64 arithmetic that shares no signed-log-space code with the
paths under test.  Tolerances are relative, at 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

from pcsq import engine

RTOL = 1e-10


def linear_value(circuit, x, marginalized=frozenset()):
    return np.asarray(
        engine.forward(circuit, x, marginalized=frozenset(marginalized), space="linear").root,
        dtype=np.float64,
    ).reshape(-1)


def linear_partition(circuit):
    return float(linear_value(circuit, None, range(circuit.variable_count))[0])


def relative_error(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def check_log_density(circuit, x, log_density, rows=4):
    """Normalized densities of the first ``rows`` rows against the oracle."""
    want = linear_value(circuit, x[:rows]) / linear_partition(circuit)
    got = np.exp(np.asarray(log_density, dtype=np.float64)[:rows])
    if not np.all(np.isfinite(log_density)):
        return "non-finite log-density"
    err = relative_error(got, want)
    return None if err <= RTOL else f"density relative error {err:.3e} > {RTOL:g}"


def check_marginal(circuit, x, marginalized, result, rows=4):
    """Unnormalized signed marginal values against the oracle."""
    want = linear_value(circuit, x[:rows], marginalized)
    got = np.where(
        result.sign[:rows] == 0.0, 0.0, result.sign[:rows] * np.exp(result.log_magnitude[:rows])
    )
    err = relative_error(got, want)
    return None if err <= RTOL else f"marginal relative error {err:.3e} > {RTOL:g}"


def check_log_partition(circuit, log_z):
    if float(log_z.sign) <= 0.0 or not np.isfinite(float(log_z.log_magnitude)):
        return "log Z is not a finite positive value"
    err = relative_error(math.exp(float(log_z.log_magnitude)), linear_partition(circuit))
    return None if err <= RTOL else f"partition function relative error {err:.3e} > {RTOL:g}"


def check_continuous_draws(draws, n, bracket):
    lo, hi = bracket
    draws = np.asarray(draws, dtype=np.float64)
    if draws.shape[0] != n:
        return f"expected {n} draws, got {draws.shape[0]}"
    if not np.all(np.isfinite(draws)):
        return "non-finite continuous draw"
    if np.any(draws < lo) or np.any(draws > hi):
        return f"continuous draw outside the sampling bracket [{lo}, {hi}]"
    return None


def check_discrete_draws(draws, n, states):
    draws = np.asarray(draws, dtype=np.float64)
    if draws.shape[0] != n:
        return f"expected {n} draws, got {draws.shape[0]}"
    if np.any(draws != np.round(draws)) or np.any(draws < 0) or np.any(draws >= states):
        return f"discrete draw that is not an integer in [0, {states})"
    return None


def discrete_marginal(circuit, variable, states):
    """Exact marginal PMF of one discrete variable, from the linear oracle."""
    x = np.zeros((states, circuit.variable_count))
    x[:, variable] = np.arange(states)
    rest = frozenset(range(circuit.variable_count)) - {variable}
    return linear_value(circuit, x, rest) / linear_partition(circuit)


# A correct sampler fails the pooled test once in a million runs.
ALPHA = 1e-6


def chi_square_sf(stat, df):
    """Exact survival function of the chi-square distribution, integer df."""
    h = stat / 2.0
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for k in range(1, df // 2):
            term *= h / k
            total += term
        return math.exp(-h) * total
    total = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    for k in range((df - 1) // 2):
        total += term
        term *= h / (k + 1.5)
    return total


def check_chi_square(counts, pmf, min_expected=5.0):
    """Pearson test of pooled draw counts against the exact PMF.

    Cells whose expected count is below ``min_expected`` are merged into one.
    """
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n == 0:
        return "no draws to test"
    if abs(float(np.sum(pmf)) - 1.0) > 1e-9:
        return f"exact marginal sums to {float(np.sum(pmf))!r}, not 1"
    expected = n * np.asarray(pmf, dtype=np.float64)
    small = expected < min_expected
    obs = list(counts[~small])
    exp = list(expected[~small])
    if small.any():
        obs.append(counts[small].sum())
        exp.append(expected[small].sum())
    obs, exp = np.array(obs), np.array(exp)
    keep = exp > 0
    if np.any(obs[~keep] > 0):
        return "draws fell on states of zero probability"
    obs, exp = obs[keep], exp[keep]
    if obs.size < 2:
        return None
    stat = float(np.sum((obs - exp) ** 2 / exp))
    p = chi_square_sf(stat, obs.size - 1)
    return None if p >= ALPHA else f"chi-square {stat:.2f} (p = {p:.2e}) over {int(n)} draws"
