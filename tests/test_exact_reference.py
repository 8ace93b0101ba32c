"""The engine's untaped passes against exact rational arithmetic above the
input layers.

:func:`exact_roots` takes each input layer's value table as exact
rationals, and its integral vector and matrix as their exact sums C 1 and
C C^T, and evaluates every sum and product of the circuit with
``fractions.Fraction`` over the float weights, which are exact rationals
too.  So it measures everything the engine rounds above the tables.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pcsq.circuits import HADAMARD, INPUT, SUM, from_region_graph
from pcsq.families import CategoricalFamily
from pcsq.inference import log_density, marginal_batch, partition_function
from pcsq.learning import init_parameters
from pcsq.regions import build_binary_tree, build_linear_tree
from pcsq.squaring import square

_exact = np.frompyfunc(Fraction, 1, 1)
_UNIT_ROUNDOFF = 2.0**-53


def _log(value):
    """log|value| to within a rounding of the result: a power of two is
    factored out first, so no large logs cancel."""
    e = abs(value.numerator).bit_length() - value.denominator.bit_length()
    return math.log(float(abs(value) / Fraction(2) ** e)) + e * math.log(2.0)


def exact_roots(circuit, x, marginalized):
    """The exact root of ``circuit`` per row of ``x`` (a list of Fractions)
    and the largest |log| of a nonzero value any layer computes."""
    outputs, largest_log = [], 0.0
    for layer in circuit.layers:
        if layer.kind == INPUT:
            c = _exact(layer.family.value_table(circuit.store))  # (units, states)
            if set(layer.scope) <= marginalized:
                out = (c @ c.T if layer.squared else c.sum(axis=1)).reshape(1, -1)
            else:
                f = c[:, x[:, layer.scope[0]].astype(int)].T
                out = (f[:, :, None] * f[:, None, :]).reshape(len(f), -1) if layer.squared else f
        elif layer.kind == SUM:
            w = _exact(circuit.effective_weights(layer))
            u = outputs[layer.inputs[0]]
            if layer.squared:
                k = w.shape[1]
                out = np.stack([(w @ row.reshape(k, k) @ w.T).reshape(-1) for row in u])
            else:
                out = u @ w.T
        else:
            a, b = (outputs[j] for j in layer.inputs)
            if layer.kind == HADAMARD:
                out = a * b
            elif layer.squared:  # the interleaved unit order of the squared product
                ka, kb = math.isqrt(a.shape[1]), math.isqrt(b.shape[1])
                out = a.reshape(-1, ka, 1, ka, 1) * b.reshape(-1, 1, kb, 1, kb)
            else:
                out = a[:, :, None] * b[:, None, :]
            out = out.reshape(-1, layer.output_width)
        outputs.append(out)
        largest_log = max([largest_log] + [abs(_log(v)) for v in out.flat if v != 0])
    root = outputs[-1][:, 0]
    return [root[0]] * len(x) if len(root) == 1 else list(root), largest_log


def rounding_count(circuit, marginalized, states, big):
    """n of the bound gamma_n on the relative error of the scaled pass's
    root, for non-negative parameters (see the bound's derivation below).
    ``big`` bounds every log-domain quantity the pass rounds."""
    counts = []
    for layer in circuit.layers:
        if layer.kind == INPUT:
            if set(layer.scope) <= marginalized:  # an S-term sum, then log, shift, exp
                own = states + 2 + 2 * big
            else:  # log, shift, exp, and the outer product of a squared layer
                own = 2 + int(layer.squared) + 2 * big
        elif layer.kind == SUM:  # a K-term dot (two when squared), a division, a log and an add
            k = circuit.effective_weights(layer).shape[1]
            own = k * (2 if layer.squared else 1) + 1 + 2 * big
        else:  # one product of values, one addition of scales
            own = 1 + big
        counts.append(own + sum(counts[j] for j in layer.inputs))
    return counts[-1] + 2 * big  # the root's log|value| + scale


def _gamma(n):
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["hadamard", "kronecker"])
@pytest.mark.parametrize("tree", ["bt", "lt"])
def test_untaped_passes_stay_within_the_rounding_bound(seed, kind, tree):
    # Bound (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., ch. 3).  Under uniform(0,1) parameters every weight and table
    # entry is non-negative, so no sum cancels: each computed value is its
    # exact value times a product of n factors (1 + d)^(+-1), |d| <= u =
    # 2^-53, a relative error of at most gamma_n = n u / (1 - n u) (Lemma
    # 3.1); a K-term dot product counts K (Section 3.1), and numpy's exp,
    # within one ulp, counts 2.  A rounding of a log-domain quantity of
    # magnitude at most L (log f, a log-scale, a log row maximum, a shift
    # between two of them) moves the value by a factor of at most
    # exp(u L), so it counts L.  The relative errors of a product's factors
    # add, while a sum of non-negative terms keeps the largest of its
    # terms', so n adds the counts of both factors of a product and of the
    # one input of a sum (``rounding_count``).  Every log-domain quantity
    # is the log of a value some layer computes, or a difference of two,
    # so L = 2 max|log v| + 1 over the exact values, and the pass's own
    # values are within gamma_n of those.  log Z, a marginal and
    # 2 log|c(x)| - log Z are then within gamma_n in the log domain, n the
    # sum of their counts plus one subtraction.
    d, units, states = 8, 2, 4
    rg = build_binary_tree(d, seed) if tree == "bt" else build_linear_tree(d, seed)
    c = from_region_graph(rg, units, kind, lambda s, k: CategoricalFamily(k, states))
    sq = init_parameters(square(c), "uniform(0,1)", seed)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, states, size=(6, d)).astype(np.float64)
    everything, marg = frozenset(range(d)), frozenset({1, 4, 6})

    (z,), z_log = exact_roots(sq.circuit, x[:1], everything)
    source, source_log = exact_roots(c, x, frozenset())
    marginals, marg_log = exact_roots(sq.circuit, x, marg)
    big = 2.0 * max(z_log, source_log, marg_log) + 1.0
    n_z = rounding_count(sq.circuit, everything, states, big)
    n_source = rounding_count(c, frozenset(), states, big)
    n_marg = rounding_count(sq.circuit, marg, states, big)

    got_z = float(partition_function(sq).log_magnitude)
    assert abs(got_z - _log(z)) <= _gamma(n_z)
    want = np.array([2.0 * _log(v) - _log(z) for v in source])
    got = log_density(sq, x)
    assert np.max(np.abs(got - want)) <= _gamma(2 * n_source + n_z + big)
    got = marginal_batch(sq, x, marg)
    assert np.all(got.sign == 1.0)
    want = np.array([_log(v) for v in marginals])
    assert np.max(np.abs(got.log_magnitude - want)) <= _gamma(n_marg)
