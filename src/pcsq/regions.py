"""Tree region graphs: hierarchical scope partitionings that fix circuit
structure and guarantee structured-decomposability.

A region graph is a tree of scopes.  A region is a scope and either no
children (a leaf) or exactly two child regions whose scopes are disjoint
and together cover it.  A region refuses any other split when it is
built, so every region graph is a valid binary tree, and its leaves tile
the root's scope.  A graph fixes a circuit's structure when the circuit
is built (see :func:`pcsq.circuits.from_region_graph`); the circuit keeps
no reference to it, since its layer scopes form the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcsq.errors import ConfigError


def normalize_scope(indices):
    """Sorted, duplicate-free, non-empty tuple of non-negative variable indices."""
    scope = tuple(sorted(set(int(i) for i in indices)))
    if not scope:
        raise ConfigError("scope must be non-empty")
    if scope[0] < 0:
        raise ConfigError("scope indices must be non-negative")
    return scope


@dataclass(frozen=True)
class RegionGraph:
    """A region and the tree below it: a leaf has ``children == ()``, a
    split region two child regions splitting its scope."""

    scope: tuple
    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "scope", normalize_scope(self.scope))
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            return
        if len(self.children) != 2:
            raise ConfigError(f"region {self.scope} splits into {len(self.children)} regions, not 2")
        if not all(isinstance(c, RegionGraph) for c in self.children):
            raise ConfigError(f"region {self.scope}'s children must be RegionGraphs")
        left, right = (c.scope for c in self.children)
        if set(left) & set(right):
            raise ConfigError(f"region {self.scope}'s children {left} and {right} overlap")
        if normalize_scope(left + right) != self.scope:
            raise ConfigError(f"region {self.scope}'s children {left} and {right} do not cover it")


def linear_tree_from_order(order):
    """Chain region graph peeling variables off in the given order."""
    order = [int(v) for v in order]
    if sorted(order) != list(range(len(order))):
        raise ConfigError("order must be a permutation of the variable indices")
    region = RegionGraph(order[-1:])
    for v in reversed(order[:-1]):
        region = RegionGraph((v, *region.scope), (RegionGraph((v,)), region))
    return region


def build_linear_tree(variable_count, permutation_seed=0):
    """Chain-shaped region graph: after a seeded random permutation, each
    region {x_i, ..., x_D} splits into {x_i} and {x_{i+1}, ..., x_D}.

    Yields exactly D-1 splits and 2D-1 regions.
    """
    if variable_count < 1:
        raise ConfigError("variable_count must be >= 1")
    rng = np.random.default_rng(permutation_seed)
    return linear_tree_from_order(rng.permutation(variable_count))


def build_binary_tree(variable_count, seed=0):
    """Balanced region graph: each region's variables are shuffled and split
    into halves of sizes ceil(n/2) and floor(n/2) until singletons remain.

    The larger half always comes first (deterministic tie-breaking), and
    regions draw their shuffles in pre-order.  Yields exactly D-1 splits.
    """
    if variable_count < 1:
        raise ConfigError("variable_count must be >= 1")
    rng = np.random.default_rng(seed)

    def split(scope):
        if len(scope) == 1:
            return RegionGraph(scope)
        shuffled = [scope[i] for i in rng.permutation(len(scope))]
        half = (len(scope) + 1) // 2
        # the first half's subtree draws before the second's: pre-order
        halves = shuffled[:half], shuffled[half:]
        return RegionGraph(scope, tuple(split(sorted(h)) for h in halves))

    return split(list(range(variable_count)))
