"""Tree region graphs: hierarchical scope partitionings that fix circuit
structure and guarantee structured-decomposability.

A region graph is a rooted bipartite tree: region nodes carry variable
scopes, partition nodes split a parent region's scope into two disjoint,
covering child scopes.  Node ids are dense integers assigned in
construction order.  A graph fixes a circuit's structure when the circuit
is built (see :func:`pcsq.circuits.from_region_graph`); the circuit keeps
no reference to it, since its layer scopes form the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pcsq.errors import ConfigError


def normalize_scope(indices, variable_count=None):
    """Sorted, duplicate-free, non-empty tuple of variable indices."""
    scope = tuple(sorted(set(int(i) for i in indices)))
    if not scope:
        raise ConfigError("scope must be non-empty")
    if scope[0] < 0:
        raise ConfigError("scope indices must be non-negative")
    if variable_count is not None and scope[-1] >= variable_count:
        raise ConfigError(f"scope index {scope[-1]} out of range [0, {variable_count})")
    return scope


@dataclass
class RegionNode:
    node_id: int
    scope: tuple
    parent: int | None = None          # partition id
    children: list = field(default_factory=list)  # partition ids
    kind: str = "region"


@dataclass
class PartitionNode:
    node_id: int
    parent: int                        # region id
    children: list = field(default_factory=list)  # region ids, exactly two
    kind: str = "partition"


@dataclass
class RegionGraph:
    nodes: list
    root: int
    variable_count: int

    def node(self, node_id):
        return self.nodes[node_id]

    def regions(self):
        return [n for n in self.nodes if n.kind == "region"]

    def partitions(self):
        return [n for n in self.nodes if n.kind == "partition"]

    def leaf_regions(self):
        return [n for n in self.regions() if not n.children]


class _Builder:
    def __init__(self, variable_count):
        self.nodes = []
        self.variable_count = variable_count

    def add_region(self, scope, parent=None):
        node = RegionNode(len(self.nodes), normalize_scope(scope, self.variable_count), parent)
        self.nodes.append(node)
        return node.node_id

    def add_partition(self, parent_region, child_scopes):
        node = PartitionNode(len(self.nodes), parent_region)
        self.nodes.append(node)
        self.nodes[parent_region].children.append(node.node_id)
        for scope in child_scopes:
            child = self.add_region(scope, parent=node.node_id)
            node.children.append(child)
        return node.node_id


def linear_tree_from_order(order):
    """Chain region graph peeling variables off in the given order."""
    order = [int(v) for v in order]
    variable_count = len(order)
    if sorted(order) != list(range(variable_count)):
        raise ConfigError("order must be a permutation of the variable indices")
    b = _Builder(variable_count)
    region = b.add_region(order)
    for i in range(variable_count - 1):
        tail = order[i + 1 :]
        part = b.add_partition(region, [[order[i]], tail])
        region = b.nodes[part].children[1]
    return RegionGraph(nodes=b.nodes, root=0, variable_count=variable_count)


def build_linear_tree(variable_count, permutation_seed=0):
    """Chain-shaped region graph: after a seeded random permutation, each
    region {x_i, ..., x_D} splits into {x_i} and {x_{i+1}, ..., x_D}.

    Yields exactly D-1 partitions and 2D-1 regions.
    """
    if variable_count < 1:
        raise ConfigError("variable_count must be >= 1")
    rng = np.random.default_rng(permutation_seed)
    return linear_tree_from_order(rng.permutation(variable_count))


def build_binary_tree(variable_count, seed=0):
    """Balanced region graph: each region's variables are shuffled and split
    into halves of sizes ceil(n/2) and floor(n/2) until singletons remain.

    The larger half always comes first (deterministic tie-breaking).
    Yields exactly D-1 partitions.
    """
    if variable_count < 1:
        raise ConfigError("variable_count must be >= 1")
    rng = np.random.default_rng(seed)
    b = _Builder(variable_count)
    root = b.add_region(range(variable_count))
    stack = [root]
    while stack:
        rid = stack.pop()
        scope = list(b.nodes[rid].scope)
        if len(scope) == 1:
            continue
        shuffled = [scope[i] for i in rng.permutation(len(scope))]
        half = (len(scope) + 1) // 2
        part = b.add_partition(rid, [shuffled[:half], shuffled[half:]])
        stack.extend(reversed(b.nodes[part].children))
    return RegionGraph(nodes=b.nodes, root=root, variable_count=variable_count)


@dataclass
class Violation:
    code: str
    node_id: int | None
    detail: str


def validate(rg: RegionGraph):
    """Check every region-graph invariant; returns one record per failure.

    An empty list means the graph is a well-formed binary tree region graph.
    Diagnostics are returned rather than raised.
    """
    out = []
    full = tuple(range(rg.variable_count))
    ids = {n.node_id for n in rg.nodes}
    # id space must be dense and positional
    for i, n in enumerate(rg.nodes):
        if n.node_id != i:
            out.append(Violation("dense-ids", n.node_id, f"node at position {i} has id {n.node_id}"))
    # bipartite structure + parent bookkeeping
    parent_count = {i: 0 for i in ids}
    for n in rg.nodes:
        for c in n.children:
            if c not in ids:
                out.append(Violation("dangling-child", n.node_id, f"child {c} missing"))
                continue
            child = rg.node(c)
            if child.kind == n.kind:
                out.append(
                    Violation("bipartite", n.node_id, f"{n.kind} node linked to {child.kind} child {c}")
                )
            parent_count[c] += 1
            if child.parent != n.node_id:
                out.append(Violation("parent-link", c, f"parent field {child.parent} != {n.node_id}"))
    for n in rg.nodes:
        expected = 0 if n.node_id == rg.root else 1
        if parent_count[n.node_id] != expected:
            out.append(
                Violation("rooted-tree", n.node_id, f"{parent_count[n.node_id]} parents, expected {expected}")
            )
    root = rg.node(rg.root)
    if root.kind != "region":
        out.append(Violation("root-kind", rg.root, "root must be a region"))
    elif root.scope != full:
        out.append(Violation("root-scope", rg.root, f"root scope {root.scope} != full variable set"))
    # partitions: binary, disjoint, covering
    for n in rg.partitions():
        if len(n.children) != 2:
            out.append(Violation("binary", n.node_id, f"{len(n.children)} children"))
        child_scopes = [rg.node(c).scope for c in n.children if c in ids]
        merged = [v for s in child_scopes for v in s]
        if len(merged) != len(set(merged)):
            out.append(Violation("disjointness", n.node_id, "child scopes overlap"))
        parent_scope = rg.node(n.parent).scope if n.parent in ids else ()
        if tuple(sorted(set(merged))) != parent_scope:
            out.append(Violation("coverage", n.node_id, "child scopes do not cover parent scope"))
    # regions: at most one partition per region (tree RG), sane scopes
    for n in rg.regions():
        if len(n.children) > 1:
            out.append(Violation("tree", n.node_id, "region partitioned more than once"))
        if tuple(sorted(set(n.scope))) != n.scope or not n.scope:
            out.append(Violation("scope", n.node_id, f"malformed scope {n.scope}"))
    # leaves must tile the variable set
    leaves = [v for n in rg.leaf_regions() for v in n.scope]
    if len(leaves) != len(set(leaves)):
        out.append(Violation("leaf-disjointness", None, "leaf scopes overlap"))
    if tuple(sorted(set(leaves))) != full:
        out.append(Violation("leaf-coverage", None, "leaf scopes do not cover the variable set"))
    return out
