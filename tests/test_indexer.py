"""Index assignments: the resonance arithmetic and the admission rule of
build_assignment, swept over every tuple of leaf modes."""

from itertools import product

import numpy as np
import pytest

from mkdv_series import (
    build_assignment,
    enumerate_trees,
    expansion_coefficient,
    sigma,
)


def brute_force_k1(n, N):
    """Triples admitted by the two branches, straight off the definition."""
    out = []
    for n1, n2, n3 in product(range(-N, N + 1), repeat=3):
        if n1 + n2 + n3 != n:
            continue
        star = n1 != n and n2 != n and n3 != n
        res = n1 == n and n2 == -n and n3 == n
        if star or res:
            out.append((n1, n2, n3))
    return out


def admitted(tree, N, root=None):
    """Assignments build_assignment admits over every tuple of leaf modes in
    [-N, N] (lexicographic order), optionally only those with root mode
    ``root``."""
    out = []
    for modes in product(range(-N, N + 1), repeat=len(tree.leaves)):
        a = build_assignment(tree, modes)
        if a is not None and (root is None or a.j[0] == root):
            out.append(a)
    return out


def leaf_modes(a):
    return tuple(a.j[v] for v in a.tree.leaves)


def test_sigma_examples():
    assert sigma(1, 2, 3) == 180
    for n in range(-10, 11):
        assert sigma(n, -n, n) == 0
    assert sigma(1, 1, 1) == 24 == 27 - 3


def test_sigma_equals_cubic_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n1, n2, n3 = (int(x) for x in rng.integers(-50, 51, size=3))
        cubic = (n1 + n2 + n3) ** 3 - n1**3 - n2**3 - n3**3
        assert sigma(n1, n2, n3) == cubic


def test_sigma_huge_inputs_exact():
    big = 2**20
    v = sigma(big, big - 1, -big)
    cubic = (big - 1) ** 3 - big**3 - (big - 1) ** 3 + big**3
    assert v == cubic  # arbitrary-precision integers, no overflow


def test_single_leaf_assignment():
    leaf = enumerate_trees(0)[0]
    got = admitted(leaf, 8, root=3)
    assert len(got) == 1 and got[0].j == (3,)
    assert expansion_coefficient(got[0]) == 1.0


def test_k1_zero_mode_matches_brute_force():
    t1 = enumerate_trees(1)[0]
    got = [leaf_modes(a) for a in admitted(t1, 1, root=0)]
    assert got == brute_force_k1(0, 1)
    assert got == [(0, 0, 0)]  # only the degenerate resonant triple survives


def test_k1_counts_match_brute_force():
    t1 = enumerate_trees(1)[0]
    for n, N in ((1, 4), (0, 3), (3, 4), (-2, 5)):
        got = [leaf_modes(a) for a in admitted(t1, N, root=n)]
        assert got == brute_force_k1(n, N)


def test_k1_enumeration_cardinality_formula():
    # 3N^2 + 3N + 1 - n^2 triples in [-N, N]^3 sum to n; 6N + [n = 0] of
    # them have some n_j = n; the resonant (n, -n, n) comes back, except at
    # n = 0 where it is (0, 0, 0) and was never removed
    t1 = enumerate_trees(1)[0]
    N = 5
    by_root = {}
    for a in admitted(t1, N):
        by_root[a.j[0]] = by_root.get(a.j[0], 0) + 1
    for n in range(-N, N + 1):
        expect = 3 * N * N - 3 * N + 2 - n * n - (n == 0)
        assert by_root.get(n, 0) == expect == len(brute_force_k1(n, N))


def test_internal_values_consistent_and_root_matches():
    for k in (1, 2):
        for tree in enumerate_trees(k):
            for a in admitted(tree, 2, root=1):
                for v in tree.internal_nodes:
                    c1, c2, c3 = (a.j[c] for c in tree.children[v])
                    assert a.j[v] == c1 + c2 + c3
                assert a.j[0] == sum(leaf_modes(a)) == 1


def test_resonant_iff_sigma_zero():
    for k in (1, 2):
        for tree in enumerate_trees(k):
            for a in admitted(tree, 2, root=0):
                for s, r in zip(a.sigmas, a.resonant):
                    assert (s == 0) == r


def test_mixed_sigma_zero_patterns_excluded():
    # (-j, j, j) sums to j and has sigma = 0 but fits neither branch
    t1 = enumerate_trees(1)[0]
    assert build_assignment(t1, (-2, 2, 2)) is None
    assert build_assignment(t1, (2, -2, 2)) is not None


def test_expansion_coefficient_branches():
    t1 = enumerate_trees(1)[0]
    nonres = build_assignment(t1, (1, -2, 3))  # root 2, all children != 2
    assert expansion_coefficient(nonres) == pytest.approx(-2j / 3)
    res = build_assignment(t1, (5, -5, 5))
    assert expansion_coefficient(res) == pytest.approx(5j)


def test_coefficient_bounded_by_mode_product():
    for k in (1, 2):
        for tree in enumerate_trees(k):
            for a in admitted(tree, 3, root=2):
                bound = np.prod([abs(a.j[v]) for v in tree.internal_nodes]) if k else 1.0
                assert abs(expansion_coefficient(a)) <= bound + 1e-12


def test_bad_inputs():
    t1 = enumerate_trees(1)[0]
    with pytest.raises(ValueError):
        build_assignment(t1, (1, 2))
    with pytest.raises(ValueError):
        build_assignment(t1, (1, 2, 3, 4))
