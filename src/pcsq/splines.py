"""Clamped B-spline bases: evaluation and exact product integrals.

A basis of order k over n interior knots in (a, b) uses the clamped knot
vector [a]*(k+1) + interior + [b]*(k+1) and spans n + k + 1 basis
functions.  At a point only the k + 1 bases of its knot span are nonzero,
so evaluation finds the span by binary search and runs the Cox-de Boor
recursion on that band alone, as de Boor's BSPLVB does (A Practical Guide
to Splines): O(k^2) work per point instead of a pass over every basis.
Products of two basis pieces are polynomials of degree <= 2k, so per-span
Gauss-Legendre with k+1 points integrates them exactly, also on part of a
span.
"""

from __future__ import annotations

import numpy as np

from pcsq.errors import ConfigError, DomainError


class BSplineBasis:
    def __init__(self, order, interior_knots, bounds):
        a, b = float(bounds[0]), float(bounds[1])
        if not a < b:
            raise ConfigError(f"spline bounds must satisfy a < b, got ({a}, {b})")
        interior = np.asarray(interior_knots, dtype=np.float64)
        if interior.ndim != 1:
            raise ConfigError("interior knots must be a 1-d sequence")
        if interior.size and not (np.all(np.diff(interior) > 0)):
            raise ConfigError("interior knots must be strictly increasing")
        if interior.size and (interior[0] <= a or interior[-1] >= b):
            raise ConfigError("interior knots must lie strictly inside (a, b)")
        self.order = int(order)
        if self.order < 0:
            raise ConfigError("spline order must be >= 0")
        self.bounds = (a, b)
        self.interior = interior
        k = self.order
        self.knots = np.concatenate([np.full(k + 1, a), interior, np.full(k + 1, b)])
        self.num_bases = interior.size + k + 1
        # span edges and the (k+1)-point Gauss-Legendre rule on [-1, 1]
        self._edges = np.unique(self.knots)
        self._gl_points, self._gl_weights = np.polynomial.legendre.leggauss(k + 1)
        self._integrals = None
        self._gram = None
        self._gram_below = None

    @classmethod
    def uniform(cls, order, num_knots, bounds):
        """Basis over ``num_knots`` uniformly placed interior knots."""
        if num_knots < 0:
            raise ConfigError(f"spline knot count must be >= 0, got {num_knots}")
        a, b = bounds
        interior = np.linspace(a, b, num_knots + 2)[1:-1]
        return cls(order, interior, bounds)

    def check_domain(self, x):
        lo, hi = self.bounds
        inside = lambda v: (v >= lo) & (v <= hi)  # False at NaN
        return DomainError.check(x, inside, f"outside spline interval [{lo}, {hi}]")

    def band(self, x):
        """The bases live at ``x``: (first, band) with basis first[n] + r
        taking the value band[n, r], r = 0..order; every other basis is 0.

        Points must lie inside [a, b].  Spans are half-open [t_i, t_{i+1}),
        except that x == b joins the last non-degenerate span so the closed
        interval is covered.
        """
        x = self.check_domain(np.atleast_1d(x))
        k = self.order
        # x lies in knot span first + k, t_{first+k} <= x < t_{first+k+1}:
        # first counts the interior knots <= x, which also puts x == b in
        # the last non-degenerate span
        first = np.searchsorted(self.interior, x, side="right")
        # rows of b hold the bases first + k - d + r, r = 0..d, at degree
        # d; degree 0 is one.  Bases run along rows so that every step is
        # a vector op over the points
        b = np.ones((1, x.size))
        for d in range(1, k + 1):
            # degree d-1 basis j = span-d+1+r, supported on [t_j, t_{j+d}),
            # feeds B_{j,d} by the left Cox-de Boor term and B_{j-1,d} by
            # the right one; both divide by that width
            ends = np.take(self.knots, first + np.arange(k + 1 - d, k + d + 1)[:, None])
            lo, hi = ends[:d], ends[d:]
            width = hi - lo
            nxt = np.zeros((d + 1, x.size))
            nxt[1:] = (x - lo) / width * b
            nxt[:-1] += (hi - x) / width * b
            b = nxt
        return first, b.T

    def design_matrix(self, x):
        """Evaluate all basis functions at ``x``: returns (len(x), num_bases),
        the band of :meth:`band` scattered into zeros."""
        first, band = self.band(x)
        out = np.zeros((first.size, self.num_bases))
        np.put_along_axis(out, first[:, None] + np.arange(self.order + 1), band, axis=1)
        return out

    def _quad_nodes(self):
        """Gauss-Legendre nodes/weights on every non-degenerate knot span."""
        lo, hi = self._edges[:-1], self._edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = (mid[:, None] + half[:, None] * self._gl_points[None, :]).reshape(-1)
        weights = (half[:, None] * self._gl_weights[None, :]).reshape(-1)
        return nodes, weights

    def basis_integrals(self):
        """Integral of each basis function over [a, b] (computed once)."""
        if self._integrals is None:
            nodes, weights = self._quad_nodes()
            self._integrals = weights @ self.design_matrix(nodes)
            self._integrals.flags.writeable = False
        return self._integrals

    def gram_matrix(self):
        """Exact pairwise product integrals: G[a, b] = integral of B_a * B_b
        (computed once)."""
        if self._gram is None:
            nodes, weights = self._quad_nodes()
            design = self.design_matrix(nodes)
            self._gram = (design * weights[:, None]).T @ design
            self._gram.flags.writeable = False
        return self._gram

    # --- as the basis of a linear family (families._LinearFamily) ----------
    def evaluate(self, coeffs, x):
        """(phi(x) C^T, (first, band)): the values of the units with
        coefficient rows C, a gather of C's band columns, and the band of
        :meth:`band`, which their VJP reuses.  A (..., K, bases) stack of
        coefficients gives (..., len(x), K) values over one band."""
        first, band = self.band(x)
        live = np.take(coeffs.swapaxes(-1, -2), first + np.arange(self.order + 1)[:, None], axis=-2)
        return np.einsum("rn,...rnk->...nk", band.T, live), (first, band)

    def live_band(self, feature):
        return feature

    def integrate(self, coeffs):
        return coeffs @ self.basis_integrals()

    def gram_times(self, coeffs):
        return coeffs @ self.gram_matrix()

    def partial_gram(self, t):
        """Pairwise product integrals over [a, t_n], (len(t), B, B): a table
        of whole spans, plus Gauss-Legendre on the part of t_n's span."""
        q = self.order + 1
        if self._gram_below is None:  # per span, the Gram matrix of all spans below
            nodes, weights = self._quad_nodes()
            design = self.design_matrix(nodes).reshape(-1, q, self.num_bases)
            grams = np.einsum("sq,sqa,sqb->sab", weights.reshape(-1, q), design, design)
            self._gram_below = np.cumsum(grams, axis=0) - grams
        t = self.check_domain(np.atleast_1d(t))
        edges = self._edges
        span = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
        half = 0.5 * (t - edges[span])
        nodes = edges[span][:, None] + half[:, None] * (1.0 + self._gl_points)  # never below the span
        design = self.design_matrix(nodes.reshape(-1)).reshape(t.size, q, self.num_bases)
        partial = np.einsum("nq,nqa,nqb->nab", half[:, None] * self._gl_weights, design, design)
        return self._gram_below[span] + partial

    def to_dict(self):
        return {
            "order": self.order,
            "interior_knots": self.interior.tolist(),
            "bounds": [self.bounds[0], self.bounds[1]],
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(doc["order"], doc["interior_knots"], doc["bounds"])
