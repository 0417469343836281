"""Ordered-tree container, codes, truncations, and exhaustive enumeration."""

import itertools
import random

import pytest

from geomgw import (
    OrderedTree,
    ResourceError,
    ValidationError,
    count_trees,
    enumerate_trees,
)
from geomgw.treekit import _shape_pool

CHAIN = OrderedTree((1, 1, 0))          # root - child - grandchild
CHERRY = OrderedTree((2, 0, 0))         # root with two leaf children
MIXED = OrderedTree((2, 1, 0, 0))       # first child has a leaf child


def small_trees():
    return list(enumerate_trees(2, 3))


def test_shape_descriptors():
    assert CHAIN.size == 3
    assert CHAIN.height == 2
    assert CHAIN.root_degree == 1
    assert max(CHAIN.degrees) == 1
    assert MIXED.size == 4
    assert MIXED.height == 2
    assert MIXED.root_degree == 2
    assert MIXED.depths == (0, 1, 2, 1)
    assert MIXED.parents() == (-1, 0, 1, 0)
    assert MIXED.z(0) == 1
    assert MIXED.z(1) == 2
    assert MIXED.z(2) == 1
    assert MIXED.z(3) == 0


def test_leaf_tree():
    leaf = OrderedTree((0,))
    assert leaf.size == 1
    assert leaf.height == 0
    assert leaf.root_degree == 0
    assert leaf.encode() == "0"


def test_encode_decode_round_trip_exhaustive():
    trees = small_trees()
    for t in trees:
        again = OrderedTree.decode(t.encode())
        assert again == t
        # a validated tree and an enumerated (trusted) one hash alike
        assert hash(again) == hash(t)
    revalidated = {OrderedTree(t.degrees) for t in trees}
    assert len(set(trees) | revalidated) == len(trees)


@pytest.mark.parametrize("text", ["", "2,0", "1,0,0", "x", "0,", "-1"])
def test_decode_rejects_malformed(text):
    with pytest.raises(ValidationError):
        OrderedTree.decode(text)


def test_restrict():
    assert MIXED.restrict(1) == CHERRY
    assert MIXED.restrict(0) == OrderedTree((0,))
    assert MIXED.restrict(2) == MIXED
    assert MIXED.restrict(9) == MIXED


def test_is_ball_agrees_with_restrict():
    for t in enumerate_trees(3, 2):
        for h in range(5):
            assert t.is_ball(h) == (t.restrict(h) == t)
    with pytest.raises(ValidationError):
        MIXED.is_ball(-1)


def test_restrict_k_keeps_leading_root_subtrees():
    assert MIXED.restrict_k(2, 1) == OrderedTree((1, 1, 0))
    assert MIXED.restrict_k(2, 2) == MIXED
    assert MIXED.restrict_k(1, 1) == OrderedTree((1, 0))
    bushy = OrderedTree((3, 1, 0, 0, 2, 0, 0))
    assert bushy.restrict_k(2, 2) == OrderedTree((2, 1, 0, 0))
    assert bushy.restrict_k(1, 2) == CHERRY


def test_from_level_degrees_rejects_inconsistent_widths():
    bad = [
        [],
        [[1, 0], [0]],  # two roots
        [[2], [0]],
        [[2], [0, 0, 0]],
        [[1], [1]],  # the last level leaves a child open
        [[1], [2], [0, 1]],
        # widths that add up only through a negative degree
        [[2], [1, -1]],
        [[3], [1, -1, 1], [0]],
    ]
    for levels in bad:
        with pytest.raises(ValidationError):
            OrderedTree.from_level_degrees(levels)


def test_from_level_degrees_matches_the_validated_tree():
    rng = random.Random(7)
    for _ in range(500):
        levels = [[rng.randint(0, 3)]]
        for _ in range(rng.randint(0, 5)):
            levels.append([rng.randint(0, 3) for _ in range(sum(levels[-1]))])
        levels.append([0] * sum(levels[-1]))
        t = OrderedTree.from_level_degrees(levels)
        checked = OrderedTree(t.degrees)
        assert t == checked
        assert t.depths == checked.depths
        assert [[d for d, m in zip(t.degrees, t.depths) if m == h]
                for h in range(len(levels))] == levels


@pytest.mark.parametrize("height", [0, 1, 2, 3])
@pytest.mark.parametrize("cap", [0, 1, 2])
def test_counts_match_enumeration(height, cap):
    for root in (None, 0, 1, 2):
        got = sum(1 for _ in enumerate_trees(height, cap, root_degree=root))
        assert got == count_trees(height, cap, root_degree=root)


def test_frozen_counts():
    assert count_trees(1, 3) == 4
    # shapes reaching depth h exactly, as differences of counts up to h
    assert count_trees(2, 2) - count_trees(1, 2) == 10
    assert (
        count_trees(2, 2, root_degree=1) - count_trees(1, 2, root_degree=1) == 2
    )
    assert count_trees(2, 6) - count_trees(1, 6) == 137250
    # free enumeration of everything below height 3 at cap 2:
    # N(h) = sum_d N(h-1)^d gives 1, 3, 13, 183
    assert count_trees(3, 2) == 1 + 13 + 13**2


def test_enumeration_yields_unique_valid_trees():
    seen = set()
    full_height = 0
    for t in enumerate_trees(2, 3, root_degree=2):
        assert t.height <= 2
        full_height += t.height == 2
        assert t.root_degree == 2
        assert max(t.degrees) <= 3
        code = t.encode()
        assert code not in seen
        seen.add(code)
    assert len(seen) == count_trees(2, 3, root_degree=2)
    assert full_height == len(seen) - count_trees(1, 3, root_degree=2)


def test_enumeration_guard_counts_walked_shapes():
    with pytest.raises(ResourceError):
        list(enumerate_trees(3, 12))
    # pinning the root degree still counts every shape below it
    with pytest.raises(ResourceError):
        list(enumerate_trees(3, 30, root_degree=1, max_trees=1000))


def test_count_cap_bounds_every_root_degree_together():
    # root degrees 1, 2, 3 over the 4 shapes of height <= 1 at cap 3:
    # 4 + 16 + 64 = 84 balls, each root degree within a cap of 83 alone
    assert max(count_trees(2, 3, root_degree=d) for d in (1, 2, 3)) <= 83
    pool = _shape_pool(2, 3, [1, 2, 3], max_trees=84)
    assert sum(len(pool) ** d for d in (1, 2, 3)) == 84
    with pytest.raises(ResourceError, match="more than the cap of 83 trees"):
        _shape_pool(2, 3, [1, 2, 3], max_trees=83)


def test_restriction_properties_on_enumerated_trees():
    for t in enumerate_trees(3, 2):
        assert t.restrict(1).height <= 1
        r = t.restrict_k(2, 1)
        assert r.root_degree <= 1
        assert r.height <= 2
        # restricting twice is the same as restricting once
        assert r.restrict_k(2, 1) == r


@pytest.mark.parametrize("height", [0, 1, 2, 3])
@pytest.mark.parametrize("cap", [0, 1, 2])
def test_free_root_is_the_root_degrees_in_order(height, cap):
    free = [t.degrees for t in enumerate_trees(height, cap)]
    pinned = [
        t.degrees
        for d in range(cap + 1)
        for t in enumerate_trees(height, cap, root_degree=d)
    ]
    assert free == pinned


def test_root_degree_is_keyword_only():
    # a positional third argument would otherwise read True as root degree 1
    with pytest.raises(TypeError):
        enumerate_trees(2, 3, True)
    with pytest.raises(TypeError):
        count_trees(2, 3, True)


@pytest.mark.parametrize("height", [0, 1, 2, 3])
@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_enumeration_is_the_product_over_the_pool_in_order(height, cap):
    pool = [t.degrees for t in enumerate_trees(height - 1, cap)] if height else []
    for root in (None, 0, 1, 2, 5):
        roots = range(cap + 1) if root is None else [root] * (root <= cap)
        ref = (
            sum(map(pool.__getitem__, combo), (d,))
            for d in roots
            for combo in itertools.product(range(len(pool)), repeat=d)
        )
        got = enumerate_trees(height, cap, root_degree=root)
        for t, degrees in itertools.zip_longest(got, ref):
            assert t.degrees == degrees
            assert t.depths == OrderedTree(degrees).depths


def test_pool_is_built_only_under_a_root_with_children():
    # at cap 40 the height-3 pool would hold more than 41^40 shapes, but a
    # root of degree 0, or one pinned past the cap, takes no product over it
    assert _shape_pool(4, 40, (0,)) == []
    assert _shape_pool(4, 40, ()) == []
    assert [t.degrees for t in enumerate_trees(4, 40, root_degree=0)] == [(0,)]
    assert _shape_pool(5, 0, [0]) == []


@pytest.mark.parametrize("root", [-1, -5])
def test_a_negative_root_degree_is_refused(root):
    for call in (lambda: count_trees(2, 3, root_degree=root),
                 lambda: list(enumerate_trees(2, 3, root_degree=root))):
        with pytest.raises(ValidationError, match=r"^root_degree must be >= 0"):
            call()


@pytest.mark.parametrize(
    "height,cap,root", [(2, 3, None), (3, 2, None), (1, 12, None), (1, 40, None),
                        (2, 10, 2), (2, 12, 1)],
)
def test_enumeration_is_in_code_order(height, cap, root):
    # past cap 9 the root degrees go in string order: 0, 1, 10, 11, 2, ...
    codes = [t.encode() for t in enumerate_trees(height, cap, root_degree=root)]
    assert len(codes) == count_trees(height, cap, root_degree=root)
    assert all(a < b for a, b in zip(codes, codes[1:]))


def test_deep_radii_enumerate_without_recursion():
    paths = list(enumerate_trees(400, 1))
    assert len(paths) == 401
    codes = [t.encode() for t in paths]
    assert codes == sorted(codes)
    assert [t.height for t in paths] == list(range(401))
    assert [t.degrees for t in enumerate_trees(1000, 0)] == [(0,)]
