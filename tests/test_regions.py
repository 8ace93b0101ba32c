"""Region graph construction and the splits a region refuses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsq.circuits import from_region_graph
from pcsq.errors import ConfigError
from pcsq.families import GaussianFamily
from pcsq.regions import RegionGraph, build_binary_tree, build_linear_tree, linear_tree_from_order


def _regions(rg):
    """Every region of the tree, in pre-order."""
    return [rg, *(r for c in rg.children for r in _regions(c))]


def _splits(rg):
    return [r for r in _regions(rg) if r.children]


def _leaf(v):
    return RegionGraph((v,))


class TestLinearTree:
    def test_identity_order_chain(self):
        rg = linear_tree_from_order([0, 1, 2, 3])
        splits = [[c.scope for c in r.children] for r in _splits(rg)]
        assert splits == [
            [(0,), (1, 2, 3)],
            [(1,), (2, 3)],
            [(2,), (3,)],
        ]

    def test_single_variable(self):
        rg = build_linear_tree(1, permutation_seed=5)
        assert rg == RegionGraph((0,))
        assert len(_splits(rg)) == 0
        assert len(_regions(rg)) == 1

    def test_counts_by_recurrence(self):
        # chain over D variables: D-1 splits, 2D-1 regions
        rg = build_linear_tree(3, permutation_seed=7)
        assert len(_splits(rg)) == 2
        assert len(_regions(rg)) == 5

    def test_zero_variables_rejected(self):
        with pytest.raises(ConfigError):
            build_linear_tree(0)
        with pytest.raises(ConfigError, match="scope must be non-empty"):
            linear_tree_from_order([])


class TestBinaryTree:
    def test_two_variables_single_split(self):
        rg = build_binary_tree(2, seed=0)
        assert len(_splits(rg)) == 1
        assert sorted(c.scope for c in rg.children) == [(0,), (1,)]

    def test_five_variables_depth(self):
        rg = build_binary_tree(5, seed=3)
        assert [len(c.scope) for c in rg.children] == [3, 2]

        def depth(region):
            return 1 + max(depth(c) for c in region.children) if region.children else 0

        assert depth(rg) == 3  # ceil(log2 5)

    def test_eight_variables_counts(self):
        rg = build_binary_tree(8, seed=11)
        assert len(_splits(rg)) == 7
        assert len(_regions(rg)) == 15

    def test_larger_half_first(self):
        rg = build_binary_tree(7, seed=2)
        for region in _splits(rg):
            first, second = [len(c.scope) for c in region.children]
            assert first >= second


class TestValidate:
    """Each invalid split is refused when its region is built, and a root
    that is not over the variables 0..n-1 when a circuit is built on it."""

    def test_overlapping_child_scopes_flagged(self):
        first = RegionGraph((0, 1), (_leaf(0), _leaf(1)))
        second = RegionGraph((1, 2), (_leaf(1), _leaf(2)))
        with pytest.raises(ConfigError, match=r"region \(0, 1, 2\)'s children \(0, 1\) and \(1, 2\) overlap"):
            RegionGraph((0, 1, 2), (first, second))

    def test_missing_leaf_coverage_flagged(self):
        with pytest.raises(ConfigError, match=r"children \(0,\) and \(1,\) do not cover it"):
            RegionGraph((0, 1, 2), (_leaf(0), _leaf(1)))
        with pytest.raises(ConfigError, match="do not cover it"):
            RegionGraph((0, 1), (_leaf(0), _leaf(2)))

    def test_nonbinary_partition_flagged(self):
        with pytest.raises(ConfigError, match="splits into 1 regions, not 2"):
            RegionGraph((0, 1), (RegionGraph((0, 1)),))
        with pytest.raises(ConfigError, match="splits into 3 regions, not 2"):
            RegionGraph((0, 1, 2), (_leaf(0), _leaf(1), _leaf(2)))
        with pytest.raises(ConfigError, match="children must be RegionGraphs"):
            RegionGraph((0, 1), ((0,), (1,)))  # scopes, not regions

    @pytest.mark.parametrize("scope,message", [((), "non-empty"), ((0, -1), "non-negative")])
    def test_empty_or_negative_scope_refused(self, scope, message):
        with pytest.raises(ConfigError, match=message):
            RegionGraph(scope)

    @pytest.mark.parametrize("root", [RegionGraph((1,)), RegionGraph((0, 2), (_leaf(2), _leaf(0)))])
    def test_root_scope_must_be_the_variables_from_zero(self, root):
        with pytest.raises(ConfigError, match=r"invalid region graph: root scope"):
            from_region_graph(root, 2, "hadamard", lambda s, k: GaussianFamily(k))

    def test_scope_is_normalized(self):
        region = RegionGraph([2, 0, 2, 1], (_leaf(1), RegionGraph([2, 0], (_leaf(0), _leaf(2)))))
        assert region.scope == (0, 1, 2)
        assert region.children[1].scope == (0, 2)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_builders_always_validate(d, seed):
    # built through the checking constructor, so valid by construction
    lt = build_linear_tree(d, seed)
    bt = build_binary_tree(d, seed)
    for rg in (lt, bt):
        from_region_graph(rg, 1, "hadamard", lambda s, k: GaussianFamily(k))
        assert sorted(r.scope for r in _regions(rg) if not r.children) == [(v,) for v in range(d)]
    assert len(_splits(lt)) == d - 1
    assert len(_regions(lt)) == 2 * d - 1
    assert len(_splits(bt)) == d - 1


def test_seed_determinism():
    for builder in (build_linear_tree, build_binary_tree):
        a = builder(9, 1234)
        b = builder(9, 1234)
        assert a == b
    assert build_linear_tree(9, 1) != build_linear_tree(9, 2)


def _scope_tree(region):
    """A leaf's scope, or (scope, (first, second)) for a split region."""
    if not region.children:
        return region.scope
    return region.scope, tuple(_scope_tree(c) for c in region.children)


def test_seeded_scope_trees_are_pinned():
    # the builders' draws from the seed decide these trees; a rewrite that
    # reorders them changes every seeded circuit and model document
    assert _scope_tree(build_binary_tree(8, 11)) == (
        (0, 1, 2, 3, 4, 5, 6, 7),
        (
            ((1, 3, 5, 7), (((3, 5), ((3,), (5,))), ((1, 7), ((1,), (7,))))),
            ((0, 2, 4, 6), (((2, 6), ((6,), (2,))), ((0, 4), ((0,), (4,))))),
        ),
    )
    assert _scope_tree(build_linear_tree(6, 3)) == (
        (0, 1, 2, 3, 4, 5),
        (
            (2,),
            (
                (0, 1, 3, 4, 5),
                ((5,), ((0, 1, 3, 4), ((4,), ((0, 1, 3), ((1,), ((0, 3), ((3,), (0,)))))))),
            ),
        ),
    )
