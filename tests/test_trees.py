"""Ternary tree enumeration and structure queries."""

import math

import pytest

from mkdv_series import (
    TernaryTree,
    enumerate_trees,
    fuss_catalan,
    odd_even_partition,
)


def binom_count(k):
    # independent big-integer evaluation of C(3k, k) / (2k + 1)
    return math.factorial(3 * k) // (math.factorial(k) * math.factorial(2 * k)) // (2 * k + 1)


def test_census_small():
    assert len(enumerate_trees(0)) == 1
    assert len(enumerate_trees(1)) == 1
    assert len(enumerate_trees(2)) == 3
    assert len(enumerate_trees(3)) == 12
    assert len(enumerate_trees(4)) == 55


@pytest.mark.parametrize("k", range(7))
def test_census_matches_independent_formula(k):
    assert len(enumerate_trees(k)) == binom_count(k) == fuss_catalan(k)
    if k:
        # a tree is a root over an ordered triple of subtrees, k1+k2+k3 = k-1
        count = lambda j: len(enumerate_trees(j))
        triples = sum(
            count(k1) * count(k2) * count(k - 1 - k1 - k2) for k1 in range(k) for k2 in range(k - k1)
        )
        assert triples == count(k)


@pytest.mark.parametrize("k", range(5))
def test_enumeration_valid_and_duplicate_free(k):
    trees = enumerate_trees(k)
    seen = set()
    for t in trees:
        s = t.preorder
        assert s not in seen
        seen.add(s)
        assert t.internal_count == k
        assert t.size == 3 * k + 1
        assert len(t.leaves) == 2 * k + 1
        for v in range(t.size):
            ch = t.children[v]
            assert ch is None or len(ch) == 3
    assert trees == sorted(trees, key=lambda t: t.preorder)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        enumerate_trees(-1)


def test_node_levels():
    t = enumerate_trees(2)[0]  # root with first child internal
    assert t.levels[0] == 0
    for c in t.children[0]:
        assert t.levels[c] == 1
    inner = t.children[0][0]
    for c in t.children[inner]:
        assert t.levels[c] == 2


@pytest.mark.parametrize(
    "preorder, match",
    [
        ("", "truncated"),
        # an internal node with fewer than three children
        ("I", "truncated"),
        ("IL", "truncated"),
        ("ILL", "truncated"),
        # node 1, or node 4, hangs off nothing
        ("LL", "trailing"),
        ("ILLLL", "trailing"),
        ("ILLLX", "trailing"),
        ("ILXL", "bad tag"),
    ],
    ids=["empty", "arity-0", "arity-1", "arity-2", "unreached", "extra-leaf", "extra-tag", "bad-tag"],
)
def test_malformed_children_rejected(preorder, match):
    with pytest.raises(ValueError, match=match):
        TernaryTree(preorder)


def test_odd_even_partition():
    k1 = enumerate_trees(1)[0]
    odd, even = odd_even_partition(k1)
    assert odd == set() and even == {0}
    for k in (2, 3, 4):
        for t in enumerate_trees(k):
            odd, even = odd_even_partition(t)
            assert odd | even == set(t.internal_nodes)
            assert odd & even == set()
            assert len(odd) + len(even) == k


def test_string_round_trip():
    # the children parsed from a tree's string spell that string again
    for k in range(4):
        for t in enumerate_trees(k):
            assert "".join("L" if ch is None else "I" for ch in t.children) == t.preorder
            assert TernaryTree(t.preorder) == t
    assert enumerate_trees(1)[0].preorder == "ILLL"
    assert enumerate_trees(1)[0].children == ((1, 2, 3), None, None, None)
