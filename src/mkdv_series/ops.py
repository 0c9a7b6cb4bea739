"""Tree operators: exact simplex oscillatory integrals, multilinear sums,
majorant bounds, and convolution-kernel norm scans.

The integral attached to a tree integrates the product of per-node phases
e^{i sigma_v s_v} over the order polytope 0 <= s_child <= s_parent <= t.
It is evaluated exactly by recursing up the tree with exponential
polynomials (one antidifferentiation per internal node); no quadrature is
involved except in the test oracles.

Two evaluation paths exist deliberately:

* a scalar path on :class:`~mkdv_series.exppoly.ExpPoly`, one integral per
  (tree shape, per-node frequency profile), with the operator summed
  assignment by assignment; it is the readable reference; and
* the fold used by the solver: one trilinear node step, applied bottom-up
  over the tree, carries each node's value as rows (mode, power,
  frequency, coefficient) of an exponential polynomial in time, so the
  sum over assignments is taken node by node rather than over the
  (2N+1)^(2k+1) grid of leaf modes.

The two paths are cross-checked in the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exppoly import ExpPoly, ep_eval, ep_integrate, ep_mul
from .indexer import IndexAssignment, build_assignment, expansion_coefficient
from .spectral import CoeffSeq, NormIndex, bracket
from .trees import TernaryTree, odd_even_partition

__all__ = [
    "tree_integral_poly",
    "integral_exact",
    "integral_bound",
    "parity_bound",
    "apply_tree_operator",
    "tree_term_table",
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
    return _tree_integral_poly(tree.to_string(), tuple(int(s) for s in sigmas))


@functools.lru_cache(maxsize=1 << 16)
def _tree_integral_poly(shape: str, sigmas: tuple) -> ExpPoly:
    tree = TernaryTree.from_string(shape)
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


def integral_exact(tree: TernaryTree, a: IndexAssignment, t: float) -> complex:
    """Exact value of the oscillatory integral over the order polytope at
    time t for the given assignment.  Empty tree (single leaf) gives 1."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if a.tree.to_string() != tree.to_string() or len(a.j) != tree.size:
        raise ValueError("assignment inconsistent with tree")
    if tree.internal_count == 0:
        return 1.0 + 0.0j
    return ep_eval(tree_integral_poly(tree, a.sigmas), t)


def integral_bound(tree: TernaryTree, a: IndexAssignment, t: float, C: float = 16.0) -> float:
    """Decay bound (C t)^{k/2} * prod_v <sigma_v>^{-1/2} on the integral."""
    if C <= 0:
        raise ValueError("C must be positive")
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    k = tree.internal_count
    prod = float(np.prod(1.0 / np.sqrt(bracket(np.array(a.sigmas, dtype=float))))) if k else 1.0
    return (C * t) ** (k / 2.0) * prod


def parity_bound(tree: TernaryTree, a: IndexAssignment, t: float) -> float:
    """Intermediate bound 2^k * t^{|E|} * prod_{v odd level} <sigma_v>^{-1}
    obtained by integrating the odd-level time variables first."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    odd, even = odd_even_partition(tree)
    internal = tree.internal_nodes
    k = len(internal)
    prod = 1.0
    for v, s in zip(internal, a.sigmas):
        if v in odd:
            prod /= float(bracket(s))
    return 2.0**k * t ** len(even) * prod


# ---------------------------------------------------------------------------
# the multilinear tree operator: one trilinear node step, folded up the tree
# ---------------------------------------------------------------------------

# Elements per vectorized block (row triples in a node step, rows x times in
# an evaluation); bounds temporary memory.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TermTable:
    """A tree's operator on fixed leaf data as an exponential polynomial
    in time per output mode: row r contributes
    weights[r] * t^powers[r] * e^{i freqs[r] t} at mode root_idx[r] - N.
    Rows are sorted by (mode, power, frequency), one row per key, as the
    fold's last merge leaves them; that merge sizes its key from the rows'
    own ranges, so the table needs nothing of the tree that built it.
    Evaluating at a time is one pass over the rows, so sweeps over t reuse
    the fold."""

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
    max |w|; the result is sorted by (n, m, w), and rows that cancel to
    exactly zero are dropped.  Raises ValueError when the key range does
    not fit in int64."""
    n, m, w, c = rows
    if not n.size:
        return rows
    # min and max rather than abs: no temporary arrays on the large blocks
    n_max = max(-int(n.min()), int(n.max()))
    w_max = max(-int(w.min()), int(w.max()))
    m_max = int(m.max())
    m_rad, w_rad = m_max + 1, 2 * w_max + 1
    if (2 * n_max + 1) * m_rad * w_rad >= 1 << 63:
        raise ValueError("(mode, power, frequency) key range overflows int64")
    keys, inverse = np.unique(((n + n_max) * m_rad + m) * w_rad + (w + w_max), return_inverse=True)
    c = _bincount_complex(inverse, c, keys.size)
    rest, w = np.divmod(keys, w_rad)
    n, m = np.divmod(rest, m_rad)
    nz = c != 0
    return n[nz] - n_max, m[nz], w[nz] - w_max, c[nz]


def _antiderivative(rows):
    """Rows of int_0^s of the given rows.  A resonant row (frequency 0)
    raises its power; c s^m e^{iws} integrates by parts into powers m..0
    at frequency w, plus the constant that makes the value 0 at s = 0."""
    n, m, w, c = rows
    res = w == 0
    out = [(n[res], m[res] + 1, w[res], c[res] / (m[res] + 1))]
    n, m, w, c = n[~res], m[~res], w[~res], c[~res]
    iw = 1j * w
    while n.size:
        c = c / iw
        out.append((n, m, w, c))
        last = m == 0
        zero = m[last]
        out.append((n[last], zero, zero, -c[last]))
        more = ~last
        n, m, w, iw, c = n[more], m[more] - 1, w[more], iw[more], -c[more] * m[more]
    return tuple(np.concatenate(col) for col in zip(*out))


def _node_step(children, N, restrict):
    """One trilinear node: pair the children's rows and keep the triples
    that are resonant (j, -j, j) or star with output mode n != 0 (and
    |n| <= N when ``restrict``); weight them +in or -in/3, add powers, and
    add frequencies plus sigma = 3 (n1+n2)(n2+n3)(n3+n1); then merge and
    integrate from 0.  The children are (n, m, w, c) row tables sorted by
    mode, and the step reads nothing else: it does not depend on the tree
    the children come from."""
    (n1, m1, w1, c1), (n2, m2, w2, c2), (n3, m3, w3, c3) = children
    i1, i2 = np.divmod(np.arange(n1.size * n2.size), n2.size)
    n12 = n1[i1] + n2[i2]
    if restrict:
        # rows come sorted by mode (the leading digit of the merge key), so
        # the third child's rows that keep |n| <= N are contiguous
        start = np.searchsorted(n3, -N - n12, "left")
        count = np.searchsorted(n3, N - n12, "right") - start
    else:
        start, count = np.zeros_like(n12), np.full_like(n12, n3.size)
    ends = np.cumsum(count)
    parts = []
    lo, done = 0, 0
    while lo < ends.size and done < ends[-1]:
        hi = max(int(np.searchsorted(ends, done + _BLOCK, "right")), lo + 1)
        p = np.repeat(np.arange(lo, hi), count[lo:hi])
        j1, j2 = i1[p], i2[p]
        j3 = start[p] + done + np.arange(p.size) - (ends[p] - count[p])
        k3 = n3[j3]
        s12, s23, s31 = n12[p], n2[j2] + k3, k3 + n1[j1]
        n = s12 + k3
        sig = 3 * s12 * s23 * s31
        res = (s12 == 0) & (s23 == 0)
        keep = np.nonzero(((sig != 0) | res) & (n != 0))[0]
        j1, j2, j3, n, sig, res = j1[keep], j2[keep], j3[keep], n[keep], sig[keep], res[keep]
        weight = np.where(res, 1j * n, (-1j / 3.0) * n)
        parts.append(
            _merge(
                (
                    n,
                    m1[j1] + m2[j2] + m3[j3],
                    w1[j1] + w2[j2] + w3[j3] + sig,
                    weight * c1[j1] * c2[j2] * c3[j3],
                )
            )
        )
        lo, done = hi, int(ends[hi - 1])
    if not parts:
        z = np.empty(0, dtype=np.int64)
        return z, z, z, np.empty(0, dtype=np.complex128)
    rows = parts[0] if len(parts) == 1 else _merge(tuple(np.concatenate(col) for col in zip(*parts)))
    return _merge(_antiderivative(rows))


def tree_term_table(
    tree: TernaryTree,
    leaf_data,
    N: int,
    project_internal: bool = False,
) -> TermTable:
    """Fold one trilinear node step bottom-up over the tree.

    Each node's value is a table of rows (mode n, power m, frequency w,
    coefficient c), meaning sum c s^m e^{iws} at mode n as a function of
    the node's time s.  A leaf gives the support of its datum with m = w
    = 0.  An internal node pairs its children's rows, keeps the admissible
    triples with their node weight and resonance frequency, merges rows by
    (n, m, w) and takes the exact antiderivative from 0.  The merge packs
    (n, m, w) into one int64 key sized by the rows' own ranges and raises
    ValueError if those ranges do not fit; the tree only fixes which node
    steps run on which tables.  Summing over the
    pairings at every node sums over every admissible assignment of leaf
    modes, so the root's table is the tree operator.

    Leaf modes lie in [-N, N] by construction; internal modes are also
    restricted to the cutoff when ``project_internal`` is set.  Output
    modes beyond the cutoff are discarded (the result is a sequence at
    cutoff N either way).
    """
    leaves = tree.leaves
    if len(leaf_data) != len(leaves):
        raise ValueError(f"need {len(leaves)} leaf sequences, got {len(leaf_data)}")
    for d in leaf_data:
        if d.cutoff != N:
            raise ValueError("all leaf data must share the cutoff N")
    k = tree.internal_count
    if k == 0:
        raise ValueError("single-leaf tree has no table; handled by caller")
    if (2 * k + 1) * N >= (1 << 15):
        raise ValueError("mode range too large for int64 frequency arithmetic")

    data = dict(zip(leaves, leaf_data))
    rows = {}
    for v in range(tree.size - 1, -1, -1):  # preorder ids: children after parents
        ch = tree.children[v]
        if ch is None:
            support = np.nonzero(data[v].values)[0]
            zero = np.zeros(support.size, dtype=np.int64)
            rows[v] = (support - N, zero, zero, data[v].values[support])
        else:
            kids = [rows.pop(c) for c in ch]
            rows[v] = _node_step(kids, N, project_internal or v == 0)
    n, m, w, c = rows[0]
    return TermTable(N, n + N, m, w, c)


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


def apply_tree_operator(
    tree: TernaryTree,
    leaf_data,
    t: float,
    N: int,
    project_internal: bool = False,
) -> CoeffSeq:
    """The multilinear operator of one tree applied to per-leaf data.

    Sums expansion coefficient x leaf-data product x exact oscillatory
    integral over every admissible assignment with output mode in [-N, N].
    A single-leaf tree is the identity on its one datum.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if tree.internal_count == 0:
        if len(leaf_data) != 1:
            raise ValueError("single-leaf tree takes exactly one sequence")
        if leaf_data[0].cutoff != N:
            raise ValueError("cutoff mismatch")
        return leaf_data[0]
    table = tree_term_table(tree, leaf_data, N, project_internal)
    return CoeffSeq(N, evaluate_term_table(table, [t])[0])


def apply_tree_operator_reference(
    tree: TernaryTree,
    leaf_data,
    t: float,
    N: int,
    project_internal: bool = False,
) -> CoeffSeq:
    """Brute-force evaluation through the scalar assignment stream: every
    tuple of leaf modes in the data's support, one exact integral each.
    Used to pin down the fold on small cases."""
    if tree.internal_count == 0:
        if len(leaf_data) != 1:
            raise ValueError("single-leaf tree takes exactly one sequence")
        return leaf_data[0]
    leaves = tree.leaves
    if len(leaf_data) != len(leaves):
        raise ValueError(f"need {len(leaves)} leaf sequences, got {len(leaf_data)}")
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
        out[a.j[0] + N] += w * integral_exact(tree, a, t)
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
        sig = 3.0 * (n1 + n2) * (n2 + n3) * (n3 + n1)
        kern = np.abs(n) / np.sqrt(np.sqrt(1.0 + sig**2))
        total += np.sum(np.where(star, kern * w1 * m2[:, None] * w3, 0.0), axis=0)
    diag = np.abs(modes) * m1 * m2 * m3
    return CoeffSeq(N, (total + diag).astype(np.complex128))


def majorant_tree(tree: TernaryTree, leaf_data) -> CoeffSeq:
    """Composition of the majorant over a tree: the subtree results feed the
    trilinear majorant at each internal node, leaves contribute their data's
    moduli.  Dominates the modulus of the exact tree operator mode by mode
    (up to the (Ct)^{k/2} integral factor) for modulus-even data."""
    leaves = tree.leaves
    if len(leaf_data) != len(leaves):
        raise ValueError(f"need {len(leaves)} leaf sequences, got {len(leaf_data)}")
    pos = {v: i for i, v in enumerate(leaves)}

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
    row_chunk: int = 512,
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
    for lo in range(0, free.size, row_chunk):
        u = free[lo : lo + row_chunk][:, None]
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
