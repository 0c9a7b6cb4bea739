"""Tree operators: exact integrals, bounds, multilinear sums, majorants,
kernels.  The quadrature oracles here are deliberately independent of the
symbolic evaluation they check."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from mkdv_series import (
    CoeffSeq,
    NormIndex,
    apply_tree_operator,
    enumerate_trees,
    integral_bound,
    integral_exact,
    kernel_norm_scan,
    kernel_value,
    majorant_apply,
    majorant_tree,
    parity_bound,
    weighted_norm,
)
from mkdv_series import ops
from mkdv_series.exppoly import ExpPoly, ep_eval, ep_integrate
from mkdv_series.indexer import build_assignment, expansion_coefficient
from mkdv_series.ops import (
    apply_tree_operator_reference,
    evaluate_term_table,
    tree_integral_poly,
    tree_term_table,
)
from mkdv_series.spectral import bracket, random_real_field
from mkdv_series.trees import TernaryTree

T1 = enumerate_trees(1)[0]
CHAIN = TernaryTree.from_string("IILLLLL")


def simpson_phase_integral(sig, t, panels=10_000):
    s = np.linspace(0.0, t, panels + 1)
    y = np.exp(1j * sig * s)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (t / panels) / 3.0 * np.sum(w * y)


# -- exact integrals --------------------------------------------------------


def test_integral_resonant_is_t():
    a = build_assignment(T1, (5, -5, 5))
    assert integral_exact(T1, a, 0.0) == 0.0
    assert integral_exact(T1, a, 0.73) == pytest.approx(0.73)


def test_integral_k1_vs_quadrature():
    a = build_assignment(T1, (1, 2, 3))  # sigma = 180
    got = integral_exact(T1, a, 0.01)
    assert abs(got - simpson_phase_integral(180, 0.01)) < 1e-10
    assert abs(got - (np.exp(1.8j) - 1.0) / 180j) < 1e-15


def chain_profile_assignment(s_root, s_child):
    """Chain assignment record with a prescribed frequency profile; the
    integral depends on an assignment only through the profile."""
    from mkdv_series.indexer import IndexAssignment

    return IndexAssignment(CHAIN, (0,) * CHAIN.size, (s_root, s_child), (False, False))


def test_integral_k2_chain_vs_nested_quadrature():
    a = chain_profile_assignment(24, 180)
    t = 0.05
    f = lambda sp, s: np.exp(1j * (24 * s + 180 * sp))
    re = dblquad(lambda sp, s: f(sp, s).real, 0, t, 0, lambda s: s, epsabs=1e-12)[0]
    im = dblquad(lambda sp, s: f(sp, s).imag, 0, t, 0, lambda s: s, epsabs=1e-12)[0]
    assert abs(integral_exact(CHAIN, a, t) - (re + 1j * im)) < 1e-9


def test_integral_zero_at_time_zero():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        for tree in enumerate_trees(k)[:3]:
            lm = rng.integers(-6, 7, size=len(tree.leaves))
            a = build_assignment(tree, lm.tolist())
            if a is None:
                continue
            assert abs(integral_exact(tree, a, 0.0)) < 1e-15


def test_integral_rejects_bad_inputs():
    a = build_assignment(T1, (1, 2, 3))
    with pytest.raises(ValueError):
        integral_exact(T1, a, 1.5)
    with pytest.raises(ValueError):
        integral_exact(CHAIN, a, 0.5)


def test_fold_matches_scalar_integral_on_delta_data():
    # delta data on every leaf pins one assignment, so the fold's table is
    # that assignment's coefficient times its symbolic integral
    rng = np.random.default_rng(1)
    N = 6
    # resonant nodes: the root of T1, the inner node of CHAIN, and both
    cases = [
        build_assignment(T1, (2, -2, 2)),
        build_assignment(CHAIN, (3, -3, 3, 1, -2)),
        build_assignment(CHAIN, (2, -2, 2, -2, 2)),
    ]
    assert [a.resonant for a in cases] == [(True,), (False, True), (True, True)]
    for tree in (T1, CHAIN, enumerate_trees(3)[4], enumerate_trees(3)[11]):
        found = 0
        while found < 8:
            a = build_assignment(tree, rng.integers(-N, N + 1, size=len(tree.leaves)).tolist())
            if a is None or abs(a.j[0]) > N or a.j[0] == 0:
                continue
            cases.append(a)
            found += 1
    ts = [0.05, 0.4, 1.0]
    for a in cases:
        tree = a.tree
        data = [CoeffSeq.delta(N, a.j[v], 1.0) for v in tree.leaves]
        got = evaluate_term_table(tree_term_table(tree, data, N), ts)[:, a.j[0] + N]
        poly = tree_integral_poly(tree, a.sigmas)
        for j, t in enumerate(ts):
            assert abs(got[j] - expansion_coefficient(a) * ep_eval(poly, t)) < 1e-13


# -- decay bounds -----------------------------------------------------------


def test_bound_examples():
    leaf = enumerate_trees(0)[0]
    a0 = build_assignment(leaf, (0,))
    assert integral_bound(leaf, a0, 0.9, 16.0) == pytest.approx(1.0)
    res = build_assignment(T1, (5, -5, 5))
    assert integral_bound(T1, res, 0.25, 16.0) == pytest.approx(2.0)


def test_lemma_bound_dominates_sampled():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        for tree in enumerate_trees(k):
            got = 0
            while got < 100:
                lm = rng.integers(-16, 17, size=len(tree.leaves))
                a = build_assignment(tree, lm.tolist())
                if a is None:
                    continue
                got += 1
                for t in (0.01, 0.1, 1.0):
                    I = abs(integral_exact(tree, a, t))
                    assert I <= integral_bound(tree, a, t, 16.0)
                    assert I <= parity_bound(tree, a, t)


def test_parity_bound_formula():
    # chain: root at even level, child at odd level
    a = chain_profile_assignment(24, 180)
    t = 0.3
    assert parity_bound(CHAIN, a, t) == pytest.approx(4.0 * t / bracket(180))


# -- the multilinear operator ----------------------------------------------


def test_identity_tree():
    leaf = enumerate_trees(0)[0]
    d = CoeffSeq.delta(4, 2, 0.3 + 0.1j)
    out = apply_tree_operator(leaf, [d], 0.5, 4)
    assert np.array_equal(out.values, d.values)


def test_delta_data_single_triple():
    d = CoeffSeq.delta(3, 1, 1.0)
    out = apply_tree_operator(T1, [d, d, d], 0.05, 3)
    expect = -1j * (np.exp(24j * 0.05) - 1.0) / 24j
    assert abs(out[3] - expect) < 1e-15
    for n in (-3, -2, -1, 0, 1, 2):
        assert out[n] == 0.0


def test_cosine_resonant_term():
    c = CoeffSeq.cosine(1, 1.0)  # amplitude 1/2 at modes +-1
    t = 0.1
    out = apply_tree_operator(T1, [c, c, c], t, 1)
    assert out[1] == pytest.approx(1j * t / 8)  # branch (1, -1, 1)
    assert out[-1] == pytest.approx(-1j * t / 8)


def test_vectorized_matches_reference():
    rng = np.random.default_rng(3)
    # each mode of each datum is zero with this probability; at N = 3 that
    # also keeps the reference's sweep over leaf modes small
    for N, zero_frac in ((2, 0.2), (3, 0.4)):
        for k in (1, 2, 3):
            for tree in enumerate_trees(k):
                data = []
                for _ in tree.leaves:
                    v = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
                    v[rng.random(2 * N + 1) < zero_frac] = 0.0
                    data.append(CoeffSeq(N, v))
                for project in (False, True):
                    fast = apply_tree_operator(tree, data, 0.3, N, project)
                    slow = apply_tree_operator_reference(tree, data, 0.3, N, project)
                    assert np.max(np.abs(fast.values - slow.values)) < 1e-13


def test_key_range_from_rows():
    # (2k+1) N = 30000 passes the mode-range guard; the merge key is sized
    # by the rows' own ranges, so a large cutoff with small occupied modes
    # builds its table, and that table is the one assignment's term
    N = 6000
    d = CoeffSeq.delta(N, 1, 1.0)
    a = build_assignment(CHAIN, (1,) * 5)
    got = evaluate_term_table(tree_term_table(CHAIN, [d] * 5, N), [0.3])[0, a.j[0] + N]
    want = expansion_coefficient(a) * ep_eval(tree_integral_poly(CHAIN, a.sigmas), 0.3)
    assert abs(got - want) < 1e-13


def test_key_range_overflow_rejected():
    # modes +-1 and |w| = 2^61 span 3 (2^62 + 1) keys, past int64
    one = np.ones(2, dtype=np.int64)
    rows = (np.array([-1, 1]), 0 * one, np.array([2**61, -(2**61)]), one.astype(complex))
    with pytest.raises(ValueError, match="overflows int64"):
        ops._merge(rows)
    # a quarter of that frequency range fits
    fits = (rows[0], rows[1], rows[2] // 4, rows[3])
    assert ops._merge(fits)[2].tolist() == [2**59, -(2**59)]


def test_operator_multilinear_in_each_slot():
    rng = np.random.default_rng(5)
    N = 2
    tree = enumerate_trees(1)[0]
    data = [
        CoeffSeq(N, rng.normal(size=5) + 1j * rng.normal(size=5)) for _ in range(3)
    ]
    lam = 0.3 - 1.1j
    base = apply_tree_operator(tree, data, 0.4, N)
    scaled_data = [data[0].with_values(lam * data[0].values), data[1], data[2]]
    scaled = apply_tree_operator(tree, scaled_data, 0.4, N)
    assert np.max(np.abs(scaled.values - lam * base.values)) < 1e-14


def test_operator_vanishes_at_t_zero():
    rng = np.random.default_rng(6)
    N = 2
    for k in (1, 2):
        for tree in enumerate_trees(k):
            data = [
                CoeffSeq(N, rng.normal(size=5) + 1j * rng.normal(size=5))
                for _ in tree.leaves
            ]
            out = apply_tree_operator(tree, data, 0.0, N)
            assert np.max(np.abs(out.values)) == 0.0


def test_leaf_count_mismatch_rejected():
    d = CoeffSeq.delta(2, 1, 1.0)
    with pytest.raises(ValueError):
        apply_tree_operator(T1, [d, d], 0.1, 2)
    with pytest.raises(ValueError):
        apply_tree_operator(T1, [d, d, CoeffSeq.delta(3, 1, 1.0)], 0.1, 2)


# -- majorant ---------------------------------------------------------------


def test_majorant_zero_and_deltas():
    z = CoeffSeq.zeros(3)
    assert np.max(np.abs(majorant_apply(z, z, z).values)) == 0.0
    d = CoeffSeq.delta(3, 1, 1.0)
    m = majorant_apply(d, d, d)
    assert m[3] == pytest.approx(3.0 / math.sqrt(bracket(24)))
    assert m[1] == pytest.approx(1.0)


def test_majorant_permutation_symmetric_for_equal_hermitian_input():
    rng = np.random.default_rng(8)
    a = random_real_field(3, NormIndex(0.5, 2.0), 1.0, rng)
    outs = [majorant_apply(*perm).values for perm in ((a, a, a),)]
    assert np.max(np.abs(outs[0] - outs[0])) == 0.0  # single distinct permutation
    # nonnegativity
    assert np.all(outs[0].real >= 0) and np.max(np.abs(outs[0].imag)) == 0.0


def test_majorant_dominates_tree_operator():
    rng = np.random.default_rng(9)
    N, C, t = 3, 16.0, 0.3
    idx = NormIndex(0.5, 2.0)
    for k in (1, 2, 3):
        for tree in enumerate_trees(k)[:4]:
            data = [random_real_field(N, idx, 0.7, rng) for _ in tree.leaves]
            out = apply_tree_operator(tree, data, t, N, True)
            maj = majorant_tree(tree, data)
            bound = (C * t) ** (k / 2.0) * maj.values.real
            assert np.all(np.abs(out.values) <= bound + 1e-14)


def test_majorant_norm_chain():
    # operator-norm chain: ||S~_T|| <= B^k prod ||leaf||, with B estimated
    # from the full-kernel slice norms on the same window plus the diagonal
    rng = np.random.default_rng(10)
    N = 3
    idx = NormIndex(0.5, 2.0)
    B_star = max(kernel_norm_scan(n, 0.5, 2.0, (1, 2), N, "full") for n in range(-N, N + 1))
    B_diag = max(abs(n) / bracket(n) for n in range(-N, N + 1))
    B = B_star + B_diag
    for k in (1, 2, 3):
        for tree in enumerate_trees(k)[:4]:
            data = [random_real_field(N, idx, 1.0, rng) for _ in tree.leaves]
            lhs = weighted_norm(majorant_tree(tree, data), idx)
            rhs = B**k * np.prod([weighted_norm(d, idx) for d in data])
            assert lhs <= rhs


# -- kernels ----------------------------------------------------------------


def test_kernel_m2_examples():
    assert kernel_value(5, -5, 5, 0.5, "m2") == pytest.approx(5.0 / math.sqrt(26))
    assert kernel_value(5, -4, 5, 0.5, "m2") == 0.0
    assert kernel_value(1, 2, 3, 0.5, "m2") == 0.0


def test_kernel_m1_region_condition():
    # n = 6; n2 = 6 hits the excluded hyperplane
    assert kernel_value(3, 6, -3, 0.5, "m1") == 0.0
    assert kernel_value(1, 2, 3, 0.5, "m1") > 0.0


def test_kernel_full_dual_path():
    n1, n2, n3, s = 1, 2, 3, 0.5
    n = n1 + n2 + n3
    sig = 3 * (n - n1) * (n - n2) * (n - n3)
    direct = (
        bracket(n) ** s
        * abs(n)
        / (math.sqrt(bracket(sig)) * (bracket(n1) * bracket(n2) * bracket(n3)) ** s)
    )
    assert kernel_value(n1, n2, n3, s, "full") == pytest.approx(direct)
    assert sig == 180


def test_norm_scan_trivial_cases():
    # zero slice: m1 at n = 0 has |n| = 0 in the numerator
    assert kernel_norm_scan(0, 0.5, 2.0, (1, 2), 8, "m1") == 0.0
    # m2 slice is a single lattice point
    for n in (3, 7):
        got = kernel_norm_scan(n, 0.5, 2.0, (1, 2), 10 * n, "m2")
        assert got == pytest.approx(n / bracket(n))


def test_norm_scan_pair_only_moves_window():
    vals = [kernel_norm_scan(4, 0.5, 2.0, pair, 40, "m1") for pair in ((1, 2), (1, 3), (2, 3))]
    assert max(vals) - min(vals) < 1e-9 * max(vals)


def test_norm_scan_preconditions():
    with pytest.raises(ValueError):
        kernel_norm_scan(8, 0.5, 2.0, (1, 2), 4, "m1")
    with pytest.raises(ValueError):
        kernel_norm_scan(2, 0.5, 2.0, (1, 1), 8, "m1")


def test_hoelder_inequality_for_kernel_operator():
    # |S(a1,a2,a3)|_p <= sup_n ||m slice||_{p'} prod ||a_i||_p on a box
    rng = np.random.default_rng(11)
    N, s, p = 4, 0.5, 2.0
    modes = np.arange(-N, N + 1)
    data = [rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1) for _ in range(3)]
    out = np.zeros(2 * N + 1, dtype=complex)
    for i1, n1 in enumerate(modes):
        for i2, n2 in enumerate(modes):
            for i3, n3 in enumerate(modes):
                n = n1 + n2 + n3
                if abs(n) > N:
                    continue
                m = kernel_value(n1, n2, n3, s, "full")
                out[n + N] += m * data[0][i1] * data[1][i2] * data[2][i3]
    sup_norm = max(kernel_norm_scan(int(n), s, p, (1, 2), 3 * N, "full") for n in modes)
    lhs = np.linalg.norm(out)
    rhs = sup_norm * np.prod([np.linalg.norm(d) for d in data])
    assert lhs <= rhs


def test_term_count_guard():
    # symbolic antidifferentiation stays within 2^k (k+1) terms
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        for tree in enumerate_trees(k):
            sig = tuple(int(x) * 3 for x in rng.integers(-20, 21, size=k))
            poly = tree_integral_poly(tree, sig)
            assert poly.term_count <= 2**k * (k + 1)


def test_term_growth_guard_raises(monkeypatch):
    # a broken antiderivative that doubles every term trips the guard as an
    # exception (not an assert, which python -O strips)
    def doubled(f):
        g = ep_integrate(f)
        return ExpPoly.from_terms(list(g.terms) + [(c, m + 7, w) for c, m, w in g.terms])

    monkeypatch.setattr(ops, "ep_integrate", doubled)
    ops._tree_integral_poly.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="term growth"):
            tree_integral_poly(CHAIN, (24, 180))
    finally:
        ops._tree_integral_poly.cache_clear()
