"""Tree operators: exact simplex oscillatory integrals, multilinear sums,
majorant bounds, and convolution-kernel norm scans.

The integral attached to a tree integrates the product of per-node phases
e^{i sigma_v s_v} over the order polytope 0 <= s_child <= s_parent <= t.
It is evaluated exactly by recursing up the tree with exponential
polynomials (one antidifferentiation per internal node); no quadrature is
involved except in the test oracles.

Two routes compute the same sums, cross-checked in the tests:

* the scalar reference on :class:`~mkdv_series.exppoly.ExpPoly`
  (``apply_tree_operator_reference``), summed assignment by assignment;
* the depth fold (``depth_term_tables``), the solver's route: the sum A_k
  of every tree with k internal nodes as two bilinear products of lower
  depths' tables.

The fold holds a depth's value as a table of rows (n, m, u, c): sum
c s^m e^{iws} at mode n in time s, held in the interaction picture
u = w - n^3, where a node's w = w1 + w2 + w3 + sigma (sigma = n^3 - n1^3
- n2^3 - n3^3) is u = u1 + u2 + u3.  Rows carry u from the data
(u = -n^3) to the returned table; w = u + n^3 is formed only to
integrate (``_antiderivative``) and to return (``_table``).  For a fixed
n, order by u is order by w, so a merge sums in the same order in either.

Depth k keeps |n| <= N with internal projection, otherwise the modes the
other leaves can bring back to the cutoff.  Products pair rows through
``_pairs``, their blocks sum through ``_sum``, and a depth returns
through ``_table``.  For exactly Hermitian data the fold forms only the
rows with n >= 0 and mirrors the rest (``_mirror``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly, ep_eval, ep_integrate, ep_mul
from .indexer import IndexAssignment, build_assignment, expansion_coefficient
from .spectral import CoeffSeq, NormIndex, bracket, is_hermitian
from .trees import TernaryTree, odd_even_partition

__all__ = [
    "tree_integral_poly",
    "integral_exact",
    "integral_bound",
    "parity_bound",
    "depth_term_tables",
    "evaluate_term_table",
    "apply_tree_operator_reference",
    "majorant_apply",
    "majorant_tree",
    "kernel_value",
    "kernel_norm_scan",
]


# ---------------------------------------------------------------------------
# exact integrals: scalar reference path
# ---------------------------------------------------------------------------


def tree_integral_poly(tree: TernaryTree, sigmas: tuple) -> ExpPoly:
    """Symbolic value of the tree integral as a function of the upper time
    limit, for one frequency profile (one sigma per internal node, in
    preorder order).  Memoized in a bounded cache: the integral depends on
    an assignment only through this profile."""
    if len(sigmas) != tree.internal_count:
        raise ValueError("one frequency per internal node required")
    return _tree_integral_poly(tree, tuple(int(s) for s in sigmas))


@functools.lru_cache(maxsize=1 << 16)
def _tree_integral_poly(tree: TernaryTree, sigmas: tuple) -> ExpPoly:
    rank = {v: i for i, v in enumerate(tree.internal_nodes)}

    def build(v: int) -> ExpPoly:
        poly = ExpPoly.exponential(sigmas[rank[v]])
        for c in tree.children[v]:
            if not tree.is_leaf(c):
                poly = ep_mul(poly, build(c))
        return ep_integrate(poly)

    poly = build(0)
    k = len(sigmas)
    # resource guard on the two-branch antidifferentiation recursion
    if poly.term_count > 2**k * (k + 1):
        raise RuntimeError(f"term growth exceeded bound: {poly.term_count} > {2**k * (k + 1)}")
    return poly


def integral_exact(a: IndexAssignment, t: float) -> complex:
    """Exact value of the oscillatory integral over the order polytope of
    the assignment's tree at time t.  Empty tree (single leaf) gives 1."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if a.tree.internal_count == 0:
        return 1.0 + 0.0j
    return ep_eval(tree_integral_poly(a.tree, a.sigmas), t)


def integral_bound(a: IndexAssignment, t: float, C: float = 16.0) -> float:
    """Decay bound (C t)^{k/2} * prod_v <sigma_v>^{-1/2} on the integral."""
    if C <= 0:
        raise ValueError("C must be positive")
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    k = a.tree.internal_count
    prod = float(np.prod(1.0 / np.sqrt(bracket(np.array(a.sigmas, dtype=float))))) if k else 1.0
    return (C * t) ** (k / 2.0) * prod


def parity_bound(a: IndexAssignment, t: float) -> float:
    """Intermediate bound 2^k * t^{|E|} * prod_{v odd level} <sigma_v>^{-1}
    obtained by integrating the odd-level time variables first."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    odd, even = odd_even_partition(a.tree)
    prod = 1.0
    for v, s in zip(a.tree.internal_nodes, a.sigmas):
        if v in odd:
            prod /= float(bracket(s))
    return 2.0 ** len(a.sigmas) * t ** len(even) * prod


# ---------------------------------------------------------------------------
# the multilinear tree operator summed by depth
# ---------------------------------------------------------------------------

# Elements per vectorized block (row pairs in a product, rows x times in an
# evaluation); bounds temporary memory.
_BLOCK = 1 << 16
# Rows of the (2M+1)^2 box a kernel norm scan evaluates at once.
_SCAN_ROWS = 512
# _sum merges its parts into the running table once they outweigh it this many times.
# depth_term_tables(N=6, K=5, unprojected) merged 1.25e8 rows at 1 and ran 10-25% slower;
# at 4, 1.08e8 (1.03e8 merging once per table pair), time level, max RSS 591 -> 120 MB.
_FOLD = 4
_EMPTY = (np.empty(0, np.int64),) * 3 + (np.empty(0, np.complex128),)  # (n, m, u, c)


@dataclass(frozen=True)
class TermTable:
    """A depth's sum of tree operators on the data as an exponential
    polynomial in time per output mode: row r contributes
    weights[r] * t^powers[r] * e^{i freqs[r] t} at mode root_idx[r] - N.
    Rows are sorted by mode, one row per (mode, power, frequency), and a
    mode's rows are contiguous.  Within a mode they are in (power,
    frequency) order, as the fold's last merge leaves them, except at the
    negative modes of a depth table of exactly Hermitian data: mode -n
    holds the rows of n mirrored, in reverse order (power descending).
    The merge sizes its key from the rows' own ranges, so the table needs
    nothing of the depth or the data that built it.  Evaluating at a time
    is one pass over the rows, so sweeps over t reuse the fold."""

    cutoff: int
    root_idx: np.ndarray     # int64, position of output mode (mode + N)
    powers: np.ndarray       # int64
    freqs: np.ndarray        # int64
    weights: np.ndarray      # complex128


def _bincount_complex(inverse, weights, size):
    return np.bincount(inverse, weights=weights.real, minlength=size) + 1j * np.bincount(
        inverse, weights=weights.imag, minlength=size
    )


def _merge(rows):
    """Sum the rows that share (mode, power, frequency), on one packed
    int64 key whose digit ranges are the rows' own max |n|, max m and
    max |u|; the result is sorted by (n, m, u), and rows that cancel to
    exactly zero are dropped.  Raises ValueError when the key range does
    not fit in int64."""
    n, m, u, c = rows
    if not n.size:
        return rows
    # min and max rather than abs: no temporary arrays on the large blocks
    n_max = max(-int(n.min()), int(n.max()))
    u_max = max(-int(u.min()), int(u.max()))
    m_max = int(m.max())
    m_rad, u_rad = m_max + 1, 2 * u_max + 1
    if (2 * n_max + 1) * m_rad * u_rad >= 1 << 63:
        raise ValueError("(mode, power, frequency) key range overflows int64")
    keys, inverse = np.unique(((n + n_max) * m_rad + m) * u_rad + (u + u_max), return_inverse=True)
    c = _bincount_complex(inverse, c, keys.size)
    rest, u = np.divmod(keys, u_rad)
    n, m = np.divmod(rest, m_rad)
    nz = c != 0
    return n[nz] - n_max, m[nz], u[nz] - u_max, c[nz]


def _antiderivative(rows):
    """Rows of int_0^s of the given rows, u in and u out.  With w = u + n^3,
    a resonant row (w = 0) raises its power; c s^m e^{iws} integrates by
    parts into powers m..0 at frequency w, plus the constant (w = 0, so
    u = -n^3) that makes the value 0 at s = 0."""
    n, m, u, c = rows
    w = u + n**3
    res = w == 0
    out = [(n[res], m[res] + 1, u[res], c[res] / (m[res] + 1))]
    n, m, u, c = n[~res], m[~res], u[~res], c[~res]
    iw = 1j * w[~res]
    while n.size:
        c = c / iw
        out.append((n, m, u, c))
        last = m == 0
        out.append((n[last], m[last], -n[last] ** 3, -c[last]))
        more = ~last
        n, m, u, iw, c = n[more], m[more] - 1, u[more], iw[more], -c[more] * m[more]
    return tuple(np.concatenate(col) for col in zip(*out))


def _pairs(n1, n2, n_lo, n_hi):
    """Blocks of about ``_BLOCK`` index pairs (i, j) with n_lo <= n1[i] +
    n2[j] <= n_hi.  n2 is sorted (tables are sorted by mode), so the j of
    each i are one contiguous run; n1 may be in any order."""
    start = np.searchsorted(n2, n_lo - n1, "left")
    count = np.searchsorted(n2, n_hi - n1, "right") - start
    ends = np.cumsum(count)
    lo, done = 0, 0
    while lo < ends.size and done < ends[-1]:
        hi = max(int(np.searchsorted(ends, done + _BLOCK, "right")), lo + 1)
        i = np.repeat(np.arange(lo, hi), count[lo:hi])
        yield i, start[i] + done + np.arange(i.size) - (ends[i] - count[i])
        lo, done = hi, int(ends[hi - 1])


def _product(pairs, lo, hi):
    """Blocks of a (x) b over the table pairs, unmerged: modes, powers and
    frequencies add, coefficients multiply, lo <= n <= hi kept."""
    for (n1, m1, u1, c1), (n2, m2, u2, c2) in pairs:
        for i, j in _pairs(n1, n2, lo, hi):
            yield n1[i] + n2[j], m1[i] + m2[j], u1[i] + u2[j], c1[i] * c2[j]


def _sum(blocks):
    """The merged sum of the row blocks, merged as they arrive; the parts
    join the running table, first, once they outgrow _FOLD * max(its rows,
    _BLOCK).  A part holds a key once, so keys sum in block order, and a
    lone merged part or table is returned as it is."""
    rows, parts, held = _EMPTY, [], 0
    for block in blocks:
        parts.append(_merge(block))
        held += parts[-1][0].size
        if held > _FOLD * max(rows[0].size, _BLOCK):
            rows, parts, held = _merge(tuple(np.concatenate(col) for col in zip(rows, *parts))), [], 0
    if not parts:
        return rows
    if not rows[0].size and len(parts) == 1:
        return parts[0]
    return _merge(tuple(np.concatenate(col) for col in zip(rows, *parts)))


def _mirror(rows):
    """A Hermitian table's rows from its rows with n >= 0: each row with
    n > 0 also gives (-n, m, -u, conj c).  The mirrored rows come in
    reverse order, so modes stay sorted."""
    n = rows[0]
    pos = slice(int(np.searchsorted(n, 0, "right")), None)
    return tuple(
        np.concatenate((flip(col[pos][::-1]), col))
        for flip, col in zip((np.negative, np.positive, np.negative, np.conj), rows)
    )


def _check_mode_range(k, N):
    # node frequencies grow like the cube of the mode range (2k+1)N
    if (2 * k + 1) * N >= (1 << 15):
        raise ValueError("mode range too large for int64 frequency arithmetic")


def _support_rows(seq):
    """A datum as a leaf's rows: its support, m = 0 and w = 0 (u = -n^3)."""
    support = np.nonzero(seq.values)[0]
    n = support - seq.cutoff
    return n, np.zeros(support.size, dtype=np.int64), -(n**3), seq.values[support]


def _table(rows, N):
    """The TermTable of a fold's rows: the rows with |n| <= N, at their
    frequency w = u + n^3."""
    n, m, u, c = rows
    keep = np.abs(n) <= N
    n = n[keep]
    return TermTable(N, n + N, m[keep], u[keep] + n**3, c[keep])


def _cutoff(tree, leaf_data) -> int:
    """The cutoff N that the leaf data share, one datum per leaf."""
    if len(leaf_data) != len(tree.leaves):
        raise ValueError(f"need {len(tree.leaves)} leaf sequences, got {len(leaf_data)}")
    cutoffs = {d.cutoff for d in leaf_data}
    if len(cutoffs) != 1:
        raise ValueError(f"all leaf data must share one cutoff, got {sorted(cutoffs)}")
    return cutoffs.pop()


def depth_term_tables(a0: CoeffSeq, K: int, project_internal: bool = False) -> list:
    """The tables of depths 0..K: depth k sums every tree with k internal
    nodes applied to a0 on all leaves.

    Such a tree is a root over subtrees of depths k1+k2+k3 = k-1, so the
    depth sum A_k is the trilinear node summed over the ordered triples
    (A_k1, A_k2, A_k3), with A_0 the support of a0.  On that sum, which is
    symmetric in the three slots, the node is two bilinear products:

        P_j = sum_{k1+k2=j} A_k1 (x) A_k2,  R_j = P_j with its mode-0 rows
        times -2,  A_k = int_0 -(in/3) sum_{j<k} R_j (x) A_{k-1-j}.

    By inclusion-exclusion over n_i = n, star(a,b,c) = full - a S(b,c)
    - b S(a,c) - c S(a,b) + a b c~ + a b~ c + a~ b c, with S(a,b) =
    sum_j a(j) b(-j) and x~(n) = x(-n); the node is -(in/3) star
    + in a b~ c.  Summed over the triples, relabelling makes the three S
    terms equal and the three diagonals equal, so the diagonals cancel
    the resonant branch and -(in/3) (full - 3 S(A_k1, A_k2) A_k3) is left.
    The full sum holds the mode-0 pair rows, S, once: 1 - 3 = -2.  In the
    module's frame u (x) adds modes, powers and frequencies and multiplies
    coefficients.  What the star mask cancels exactly cancels here to
    rounding, so a table can keep rows of round-off size (<= 1e-15 of its
    largest).

    (x) is commutative row by row (integers add, and IEEE products
    commute), so P_j forms each unordered pair k1 < k2 once with A_k1's
    coefficients doubled, and A_k1 (x) A_k1 once.  Doubling is exact, so
    only the order in which the products are summed changes.

    When a0(-n) == conj a0(n) holds exactly, every A_k and P_j is
    Hermitian, X(-n) = conj X(n), so each row (n, m, u, c) has the mirror
    row (-n, m, -u, conj c): conj(c s^m e^{iws}) has frequency -w, and
    u = w - n^3 flips sign with w and n.  Conjugation commutes exactly
    with IEEE products, sums and the division by iw, so a mirrored row
    is the row the full product forms, up to the order of its sum.  The
    fold then forms only P_j's rows with n >= 0 (the mode-0 rows are
    their own mirror, and R_j needs them) and only the sum's rows with
    n >= 1 (the -(in/3) weight removes n = 0), and mirrors the rows with
    n > 0 after each merge, reversed so modes stay sorted (see
    TermTable).  Other data takes the full products, the only correct
    route for it; the gate is exact equality, so data Hermitian only to
    rounding takes the full route too.

    Depth k keeps |n| <= bound(k): N with ``project_internal``, otherwise
    (2(K-k)+1) N, which later depths can still bring back to the cutoff;
    its table keeps |n| <= N.  P_j keeps |n12| = |n - n3| <= bound(j+1) + N,
    as |n3| <= N with projection and <= (2 k3 + 1) N without.  A depth's
    table does not depend on K beyond rounding.  The mode-range ValueError
    is raised before any product is formed.
    """
    N = a0.cutoff
    if K > 0:
        _check_mode_range(K, N)
    bound = [N if project_internal else (2 * (K - k) + 1) * N for k in range(K + 1)]
    hermitian = is_hermitian(a0.values)
    mirror = _mirror if hermitian else lambda rows: rows
    A, R = [_support_rows(a0)], []
    for k in range(1, K + 1):
        # each unordered pair k1 < k2 once, its first factor doubled
        pairs = [((*A[k1][:3], 2.0 * A[k1][3]), A[k - 1 - k1]) for k1 in range(k // 2)]
        if k % 2:
            pairs.append((A[k // 2],) * 2)
        lo = 0 if hermitian else -bound[k] - N
        n, m, u, c = mirror(_sum(_product(pairs, lo, bound[k] + N)))
        R.append((n, m, u, np.where(n == 0, -2.0 * c, c)))
        lo = 1 if hermitian else -bound[k]
        n, m, u, c = _sum(_product([(R[j], A[k - 1 - j]) for j in range(k)], lo, bound[k]))
        A.append(mirror(_merge(_antiderivative((n, m, u, (-1j / 3.0) * n * c)))))
    return [_table(rows, N) for rows in A]


def evaluate_term_table(table: TermTable, ts) -> np.ndarray:
    """Values of the tree operator at the given times.

    Returns an array of shape (len(ts), 2N+1), modes ordered -N..N.  The
    table's value at t = 0 (its constant rows) is subtracted row by row,
    so the operator vanishes exactly at t = 0.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros((ts.size, 2 * table.cutoff + 1), dtype=np.complex128)
    rows = table.weights.size
    if rows == 0:
        return out
    # rows come sorted by mode, so each mode's rows are one contiguous run
    idx, first = np.unique(table.root_idx, return_index=True)
    at_zero = table.powers == 0
    step = max(1, _BLOCK // rows)
    for lo in range(0, ts.size, step):
        t = ts[lo : lo + step, None]
        terms = table.weights * (t**table.powers * np.exp(1j * t * table.freqs) - at_zero)
        out[lo : lo + step, idx] = np.add.reduceat(terms, first, axis=1)
    return out


def apply_tree_operator_reference(tree: TernaryTree, leaf_data, t: float, project_internal: bool = False) -> CoeffSeq:
    """Brute-force evaluation through the scalar assignment stream: every
    tuple of leaf modes in the data's support, one exact integral each.
    Used to pin down the fold on small cases."""
    N = _cutoff(tree, leaf_data)
    if tree.internal_count == 0:
        return leaf_data[0]
    out = np.zeros(2 * N + 1, dtype=np.complex128)
    # leaf modes where some datum vanishes contribute nothing
    supports = [[int(m) - N for m in np.nonzero(d.values)[0]] for d in leaf_data]
    for modes in itertools.product(*supports):
        a = build_assignment(tree, modes)
        if a is None or abs(a.j[0]) > N:
            continue
        if project_internal and any(abs(a.j[v]) > N for v in tree.internal_nodes):
            continue
        w = expansion_coefficient(a)
        for d, m in zip(leaf_data, modes):
            w *= d[m]
        out[a.j[0] + N] += w * integral_exact(a, t)
    return CoeffSeq(N, out)


# ---------------------------------------------------------------------------
# majorant operator
# ---------------------------------------------------------------------------


def majorant_apply(a1: CoeffSeq, a2: CoeffSeq, a3: CoeffSeq) -> CoeffSeq:
    """Positive trilinear majorant: star sum of |n| <sigma>^{-1/2} products
    of moduli, plus the diagonal term |n| |a1(n) a2(n) a3(n)|."""
    N = a1.cutoff
    if a2.cutoff != N or a3.cutoff != N:
        raise ValueError("common cutoff required")
    modes = np.arange(-N, N + 1)
    m1, m2, m3 = (np.abs(a.values) for a in (a1, a2, a3))
    n2 = modes[:, None]
    n = modes[None, :]
    # one n1 at a time keeps the (n2, n) slices, and memory, O(N^2)
    total = np.zeros(2 * N + 1)
    for n1, w1 in zip(modes, m1):
        n3 = n - n1 - n2
        inside = np.abs(n3) <= N
        star = (n1 != n) & (n2 != n) & (n3 != n) & inside
        w3 = np.where(inside, m3[np.clip(n3 + N, 0, 2 * N)], 0.0)
        kern = _kernel_array(n1, n2, n3, 0.0, "full")
        total += np.sum(np.where(star, kern * w1 * m2[:, None] * w3, 0.0), axis=0)
    diag = np.abs(modes) * m1 * m2 * m3
    return CoeffSeq(N, (total + diag).astype(np.complex128))


def majorant_tree(tree: TernaryTree, leaf_data) -> CoeffSeq:
    """Composition of the majorant over a tree: the subtree results feed the
    trilinear majorant at each internal node, leaves contribute their data's
    moduli.  Dominates the modulus of the exact tree operator mode by mode
    (up to the (Ct)^{k/2} integral factor) for modulus-even data."""
    _cutoff(tree, leaf_data)
    pos = {v: i for i, v in enumerate(tree.leaves)}

    def walk(v) -> CoeffSeq:
        if tree.is_leaf(v):
            d = leaf_data[pos[v]]
            return d.with_values(np.abs(d.values).astype(np.complex128))
        c1, c2, c3 = (walk(c) for c in tree.children[v])
        return majorant_apply(c1, c2, c3)

    return walk(0)


# ---------------------------------------------------------------------------
# convolution kernels and norm scans
# ---------------------------------------------------------------------------


def _kernel_array(n1, n2, n3, s: float, which: str):
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    n3 = np.asarray(n3, dtype=float)
    n = n1 + n2 + n3
    if which == "m2":
        on_diag = (n1 == n) & (n2 == -n) & (n3 == n)
        return np.where(on_diag, np.abs(n) / bracket(n) ** (2 * s), 0.0)
    num = bracket(n) ** s * np.abs(n)
    if which == "full":
        sig = 3.0 * (n - n1) * (n - n2) * (n - n3)
        den = np.sqrt(bracket(sig)) * (bracket(n1) * bracket(n2) * bracket(n3)) ** s
        return num / den
    if which == "m1":
        off = (n1 != n) & (n2 != n) & (n3 != n)
        den = (bracket(n1) * bracket(n2) * bracket(n3)) ** s * np.sqrt(
            bracket(n - n1) * bracket(n - n2) * bracket(n - n3)
        )
        return np.where(off, num / den, 0.0)
    raise ValueError(f"unknown kernel {which!r}")


def kernel_value(n1: int, n2: int, n3: int, s: float, which: str = "full") -> float:
    """Kernel value at one lattice triple; ``which`` selects the full
    kernel, its off-diagonal part m1 (product-form denominator), or the
    resonant diagonal m2 = |n| / <n>^{2s}."""
    return float(_kernel_array(n1, n2, n3, s, which))


_PAIRS = {(1, 2), (1, 3), (2, 3)}


def kernel_norm_scan(
    n: int,
    s: float,
    p: float,
    pair: tuple = (1, 2),
    M: int = 64,
    which: str = "m1",
) -> float:
    """l^{p'} norm of the kernel slice at fixed output mode n.

    The two indices of ``pair`` run over the box [-M, M]^2 and the third is
    determined by n1+n2+n3 = n.  Since the slice is a single 2-parameter
    set, the pair choice only moves the truncation window.  p' is the
    conjugate of the given p, which must lie in [1, inf].
    """
    if tuple(pair) not in _PAIRS:
        raise ValueError(f"pair must be one of {_PAIRS}")
    if M < abs(n):
        raise ValueError("M must be at least |n|")
    pc = NormIndex(s, p).p_conj

    free = np.arange(-M, M + 1, dtype=np.int64)
    total = 0.0
    sup = 0.0
    for lo in range(0, free.size, _SCAN_ROWS):
        u = free[lo : lo + _SCAN_ROWS][:, None]
        v = free[None, :]
        w = n - u - v
        if pair == (1, 2):
            n1, n2, n3 = u, v, w
        elif pair == (1, 3):
            n1, n3, n2 = u, v, w
        else:
            n2, n3, n1 = u, v, w
        vals = _kernel_array(n1, n2, n3, s, which)
        if math.isinf(pc):
            sup = max(sup, float(np.max(vals)))
        else:
            total += float(np.sum(vals**pc))
    if math.isinf(pc):
        return sup
    return total ** (1.0 / pc)
