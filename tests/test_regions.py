"""Region graph construction and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq.errors import ConfigError
from pcsq.regions import (
    build_binary_tree,
    build_linear_tree,
    linear_tree_from_order,
    validate,
)


class TestLinearTree:
    def test_identity_order_chain(self):
        rg = linear_tree_from_order([0, 1, 2, 3])
        assert validate(rg) == []
        splits = []
        for part in rg.partitions():
            children = [rg.node(c).scope for c in part.children]
            splits.append(children)
        assert splits == [
            [(0,), (1, 2, 3)],
            [(1,), (2, 3)],
            [(2,), (3,)],
        ]

    def test_single_variable(self):
        rg = build_linear_tree(1, permutation_seed=5)
        assert validate(rg) == []
        assert len(rg.partitions()) == 0
        assert len(rg.regions()) == 1

    def test_counts_by_recurrence(self):
        # chain over D variables: D-1 partitions, 2D-1 regions
        rg = build_linear_tree(3, permutation_seed=7)
        assert len(rg.partitions()) == 2
        assert len(rg.regions()) == 5

    def test_zero_variables_rejected(self):
        with pytest.raises(ConfigError):
            build_linear_tree(0)


class TestBinaryTree:
    def test_two_variables_single_split(self):
        rg = build_binary_tree(2, seed=0)
        assert validate(rg) == []
        assert len(rg.partitions()) == 1
        part = rg.partitions()[0]
        assert sorted(rg.node(c).scope for c in part.children) == [(0,), (1,)]

    def test_five_variables_depth(self):
        rg = build_binary_tree(5, seed=3)
        assert validate(rg) == []
        root_part = rg.partitions()[0]
        sizes = sorted(len(rg.node(c).scope) for c in root_part.children)
        assert sizes == [2, 3]

        def depth(region_id):
            node = rg.node(region_id)
            if not node.children:
                return 0
            part = rg.node(node.children[0])
            return 1 + max(depth(c) for c in part.children)

        assert depth(rg.root) == 3  # ceil(log2 5)

    def test_eight_variables_counts(self):
        rg = build_binary_tree(8, seed=11)
        assert len(rg.partitions()) == 7
        assert len(rg.regions()) == 15

    def test_larger_half_first(self):
        rg = build_binary_tree(7, seed=2)
        for part in rg.partitions():
            first, second = [len(rg.node(c).scope) for c in part.children]
            assert first >= second


class TestValidate:
    def test_overlapping_child_scopes_flagged(self):
        rg = build_linear_tree(4, 0)
        # corrupt: make the two children of the first partition overlap
        part = rg.partitions()[0]
        child = rg.node(part.children[0])
        child.scope = rg.node(part.children[1]).scope[:1]
        codes = {v.code for v in validate(rg)}
        assert "disjointness" in codes or "coverage" in codes

    def test_missing_leaf_coverage_flagged(self):
        rg = build_linear_tree(3, 0)
        rg.variable_count = 4  # leaves now miss variable 3
        codes = {v.code for v in validate(rg)}
        assert "leaf-coverage" in codes

    def test_nonbinary_partition_flagged(self):
        rg = build_linear_tree(3, 0)
        part = rg.partitions()[0]
        part.children = part.children[:1]
        codes = {v.code for v in validate(rg)}
        assert "binary" in codes


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_builders_always_validate(d, seed):
    lt = build_linear_tree(d, seed)
    bt = build_binary_tree(d, seed)
    assert validate(lt) == []
    assert validate(bt) == []
    assert len(lt.partitions()) == d - 1
    assert len(lt.regions()) == 2 * d - 1
    assert len(bt.partitions()) == d - 1


def test_seed_determinism():
    for builder in (build_linear_tree, build_binary_tree):
        a = builder(9, 1234)
        b = builder(9, 1234)
        assert a == b
    assert build_linear_tree(9, 1) != build_linear_tree(9, 2)
