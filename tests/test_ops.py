"""Tree operators: exact integrals, bounds, multilinear sums, majorants,
kernels.  The quadrature oracles here are deliberately independent of the
symbolic evaluation they check."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from mkdv_series import (
    CoeffSeq,
    NormIndex,
    enumerate_trees,
    integral_bound,
    integral_exact,
    kernel_norm_scan,
    majorant_apply,
    majorant_tree,
    parity_bound,
    weighted_norm,
)
from mkdv_series import ops
from mkdv_series.exppoly import ExpPoly, ep_integrate
from mkdv_series.indexer import build_assignment
from mkdv_series.ops import _kernel_array, depth_term_tables, evaluate_term_table, tree_integral_poly
from mkdv_series.spectral import bracket, random_real_field
from mkdv_series.trees import TernaryTree
from scalar_reference import apply_tree_operator_reference

T1 = enumerate_trees(1)[0]
CHAIN = TernaryTree("IILLLLL")


def simpson_phase_integral(sig, t, panels=10_000):
    s = np.linspace(0.0, t, panels + 1)
    y = np.exp(1j * sig * s)
    w = np.ones(panels + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (t / panels) / 3.0 * np.sum(w * y)


# -- exact integrals --------------------------------------------------------


def test_integral_resonant_is_t():
    a = build_assignment(T1, (5, -5, 5))
    assert integral_exact(a, 0.0) == 0.0
    assert integral_exact(a, 0.73) == pytest.approx(0.73)


def test_integral_k1_vs_quadrature():
    a = build_assignment(T1, (1, 2, 3))  # sigma = 180
    got = integral_exact(a, 0.01)
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
    assert abs(integral_exact(a, t) - (re + 1j * im)) < 1e-9


def test_integral_zero_at_time_zero():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        for tree in enumerate_trees(k)[:3]:
            lm = rng.integers(-6, 7, size=len(tree.leaves))
            a = build_assignment(tree, lm.tolist())
            if a is None:
                continue
            assert abs(integral_exact(a, 0.0)) < 1e-15


def test_integral_rejects_bad_inputs():
    a = build_assignment(T1, (1, 2, 3))
    with pytest.raises(ValueError):
        integral_exact(a, 1.5)


# -- decay bounds -----------------------------------------------------------


def test_bound_examples():
    leaf = enumerate_trees(0)[0]
    a0 = build_assignment(leaf, (0,))
    assert integral_bound(a0, 0.9, 16.0) == pytest.approx(1.0)
    res = build_assignment(T1, (5, -5, 5))
    assert integral_bound(res, 0.25, 16.0) == pytest.approx(2.0)


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
                    I = abs(integral_exact(a, t))
                    assert I <= integral_bound(a, t, 16.0)
                    assert I <= parity_bound(a, t)


def test_parity_bound_formula():
    # chain: root at even level, child at odd level
    a = chain_profile_assignment(24, 180)
    t = 0.3
    assert parity_bound(a, t) == pytest.approx(4.0 * t / bracket(180))


# -- the multilinear operator ----------------------------------------------


def test_delta_data_single_triple():
    # depth 1 holds the one tree T1, on one triple (1, 1, 1): sigma = 24
    d = CoeffSeq.delta(3, 1, 1.0)
    out = evaluate_term_table(depth_term_tables(d, 1)[1], [0.05])[0]
    expect = -1j * (np.exp(24j * 0.05) - 1.0) / 24j
    assert abs(out[3 + 3] - expect) < 1e-15
    for n in (-3, -2, -1, 0, 1, 2):
        assert out[n + 3] == 0.0


def test_cosine_resonant_term():
    c = CoeffSeq.cosine(1, 1.0)  # amplitude 1/2 at modes +-1
    t = 0.1
    out = evaluate_term_table(depth_term_tables(c, 1)[1], [t])[0]
    assert out[1 + 1] == pytest.approx(1j * t / 8)  # branch (1, -1, 1)
    assert out[-1 + 1] == pytest.approx(-1j * t / 8)


def test_key_range_from_rows():
    # (2K+1) N = 30000 passes the mode-range guard; the merge key is sized
    # by the rows' own ranges, so a large cutoff with small occupied modes
    # builds its tables, and depth 2 is its 3 trees' one assignment each
    N, t = 6000, 0.3
    d = CoeffSeq.delta(N, 1, 1.0)
    got = evaluate_term_table(depth_term_tables(d, 2)[2], [t])[0]
    want = sum(apply_tree_operator_reference(tree, [d] * 5, t).values for tree in enumerate_trees(2))
    scale = np.max(np.abs(want))
    assert scale > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_key_range_overflow_rejected(monkeypatch):
    # the key's span is sized from the data's support before the fold: at
    # N = 6000 and K = 5 a delta at mode 1 folds, and one at mode N, whose
    # a-priori span is past int64, is refused before any product is formed
    N, K = 6000, 5
    assert depth_term_tables(CoeffSeq.delta(N, 1, 1.0), K)[K].weights.size > 0

    def no_product(*args):
        raise AssertionError("a product was formed before the key-range guard")

    monkeypatch.setattr(ops, "_product", no_product)
    with pytest.raises(ValueError, match="overflows int64"):
        depth_term_tables(CoeffSeq.delta(N, N, 1.0), K)


@pytest.mark.parametrize("N, K, project", [(3, 3, False), (2978, 5, False), (6000, 5, True)])
def test_key_decodes_and_orders_rows(N, K, project):
    # random rows inside the fold's radii, and every corner (|n| = reach,
    # m in {0, K}, |u| = h): a key decodes to its (n, m, u), a constant's
    # key is (n, 0, -n^3)'s, and key order is (n, m, u) order
    bound = [N if project else (2 * (K - k) + 1) * N for k in range(K + 1)]
    fmt = ops._Key(N, K, bound, N)
    corners = np.array(list(itertools.product((-fmt.reach, fmt.reach), (0, K), (-fmt.h, fmt.h)))).T
    rng = np.random.default_rng(3)
    radii = ((-fmt.reach, fmt.reach), (0, K), (-fmt.h, fmt.h))
    n, m, u = (np.concatenate((rng.integers(a, b + 1, 4000), c)) for (a, b), c in zip(radii, corners))
    key = (n * fmt.Rm + m) * fmt.Ru + u
    for got, want in zip(fmt.decode(key), (n, m, u)):
        assert np.array_equal(got, want)
    assert np.array_equal(fmt.const(n), n * fmt.Rm * fmt.Ru - n**3)
    assert np.array_equal(np.argsort(key, kind="stable"), np.lexsort((u, m, n)))


def test_operator_vanishes_at_t_zero():
    rng = np.random.default_rng(6)
    N = 2
    for project in (False, True):
        a0 = CoeffSeq(N, rng.normal(size=5) + 1j * rng.normal(size=5))
        for table in depth_term_tables(a0, 2, project)[1:]:
            assert table.weights.size > 0
            assert np.max(np.abs(evaluate_term_table(table, [0.0]))) == 0.0


def test_leaf_count_mismatch_rejected():
    d = CoeffSeq.delta(2, 1, 1.0)
    with pytest.raises(ValueError, match="need 3 leaf sequences"):
        apply_tree_operator_reference(T1, [d, d], 0.1)
    with pytest.raises(ValueError, match="share one cutoff"):
        apply_tree_operator_reference(T1, [d, d, CoeffSeq.delta(3, 1, 1.0)], 0.1)


def test_mixed_cutoffs_rejected():
    # the operators read the cutoff N from the leaf data, which must share
    # one; the reference once summed such data into zeros without an error
    mixed = [CoeffSeq.delta(2, 1, 1.0)] * 2 + [CoeffSeq.delta(3, 1, 1.0)]
    with pytest.raises(ValueError, match="share one cutoff"):
        apply_tree_operator_reference(T1, mixed, 0.05)
    with pytest.raises(ValueError, match="share one cutoff"):
        majorant_tree(T1, mixed)


# -- majorant ---------------------------------------------------------------


def test_majorant_zero_and_deltas():
    z = CoeffSeq.zeros(3)
    assert np.max(np.abs(majorant_apply(z, z, z).values)) == 0.0
    d = CoeffSeq.delta(3, 1, 1.0)
    m = majorant_apply(d, d, d)
    assert m[3] == pytest.approx(3.0 / math.sqrt(bracket(24)))
    assert m[1] == pytest.approx(1.0)


def test_majorant_permutation_symmetric_for_equal_hermitian_input():
    # the star set, its kernel and the diagonal are symmetric in (n1, n2,
    # n3), so every order of three distinct inputs gives the same majorant
    rng = np.random.default_rng(8)
    data = [CoeffSeq(3, rng.normal(size=7) + 1j * rng.normal(size=7)) for _ in range(3)]
    outs = [majorant_apply(*perm).values for perm in itertools.permutations(data)]
    scale = np.max(np.abs(outs[0]))
    assert scale > 0.0
    for out in outs[1:]:
        assert np.max(np.abs(out - outs[0])) <= 1e-14 * scale
    # nonnegativity
    assert np.all(outs[0].real >= 0) and np.max(np.abs(outs[0].imag)) == 0.0


def test_majorant_dominates_tree_operator():
    # |D_k(t)| <= (Ct)^{k/2} sum over the depth-k trees of the majorant,
    # mode by mode, for the projected depth sums
    rng = np.random.default_rng(9)
    N, C, t, K = 3, 16.0, 0.3, 3
    idx = NormIndex(0.5, 2.0)
    for _ in range(3):
        a0 = random_real_field(N, idx, 0.7, rng)
        tables = depth_term_tables(a0, K, True)
        for k in range(1, K + 1):
            out = evaluate_term_table(tables[k], [t])[0]
            maj = sum(majorant_tree(tree, [a0] * (2 * k + 1)).values.real for tree in enumerate_trees(k))
            assert np.all(np.abs(out) <= (C * t) ** (k / 2.0) * maj)


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
    assert _kernel_array(5, -5, 5, 0.5, "m2") == pytest.approx(5.0 / math.sqrt(26))
    assert _kernel_array(5, -4, 5, 0.5, "m2") == 0.0
    assert _kernel_array(1, 2, 3, 0.5, "m2") == 0.0


def test_kernel_m1_region_condition():
    # n = 6; n2 = 6 hits the excluded hyperplane
    assert _kernel_array(3, 6, -3, 0.5, "m1") == 0.0
    assert _kernel_array(1, 2, 3, 0.5, "m1") > 0.0


def test_kernel_full_dual_path():
    n1, n2, n3, s = 1, 2, 3, 0.5
    n = n1 + n2 + n3
    sig = 3 * (n - n1) * (n - n2) * (n - n3)
    direct = (
        bracket(n) ** s
        * abs(n)
        / (math.sqrt(bracket(sig)) * (bracket(n1) * bracket(n2) * bracket(n3)) ** s)
    )
    assert _kernel_array(n1, n2, n3, s, "full") == pytest.approx(direct)
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
                m = _kernel_array(n1, n2, n3, s, "full")
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
