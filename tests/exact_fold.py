"""Exact reference for ``ops.depth_term_tables``: the same P/R recursion
in Gaussian rationals, evaluated in mpmath.

A depth's sum A_k is a dict {(n, m, u): (re, im)} of ``Fraction``s: the
rows c s^m e^{iws} at mode n, u = w - n^3, that the float fold holds.
Every double is an exact ``Fraction``, and every step of the recursion is
exact in Q(i): products, the -(in/3) weight, the division by iw and by
m + 1.  Rows whose sum is exactly zero are deleted.  The fold has no
blocks, no mirror, no pair doubling and no merge order, so it shares
none of the float fold's shortcuts; it shares the P/R inclusion-exclusion
identity, which the scalar reference (``apply_tree_operator_reference``
summed over trees) checks.  Pure Python: no numpy in the fold.
"""

import math
from collections import defaultdict
from fractions import Fraction

import mpmath

_ZERO = (0, 0)


def _sum(rows):
    """The (key, (re, im)) pairs summed by key; rows that cancel exactly
    are deleted."""
    total = defaultdict(lambda: _ZERO)
    for key, (r, i) in rows:
        tr, ti = total[key]
        total[key] = (tr + r, ti + i)
    return {key: c for key, c in total.items() if c != _ZERO}


def _gaussian(c):
    """(re, im) as Gaussian integer numerators over one denominator."""
    r, i = Fraction(c[0]), Fraction(c[1])
    d = math.lcm(r.denominator, i.denominator)
    return r.numerator * (d // r.denominator), i.numerator * (d // i.denominator), d


def _product(a, b, reach=math.inf):
    """The rows of a (x) b with |n| <= reach: modes, powers and
    frequencies add, coefficients multiply.  Products sum in integers, one
    sum per denominator, and a row's sums meet as Fractions at the end."""
    by_mode = defaultdict(list)
    for (n, m, u), c in b.items():
        by_mode[n].append((m, u, *_gaussian(c)))
    sums = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for (n1, m1, u1), c in a.items():
        a1, b1, d1 = _gaussian(c)
        for n2, rows in by_mode.items():
            if abs(n1 + n2) > reach:
                continue
            for m2, u2, a2, b2, d2 in rows:
                acc = sums[n1 + n2, m1 + m2, u1 + u2][d1 * d2]
                acc[0] += a1 * a2 - b1 * b2
                acc[1] += a1 * b2 + b1 * a2
    for key, by_d in sums.items():
        yield key, (sum(Fraction(x, d) for d, (x, _) in by_d.items()), sum(Fraction(y, d) for d, (_, y) in by_d.items()))


def _antiderivative(rows):
    """The rows of int_0^s: a resonant row (w = 0) raises its power, any
    other integrates by parts into powers m..0 plus the constant that
    makes the value 0 at s = 0."""
    for (n, m, u), (r, i) in rows.items():
        w = u + n**3
        if w == 0:
            yield (n, m + 1, u), (r / (m + 1), i / (m + 1))
            continue
        while True:
            r, i = i / w, -r / w  # c / (iw)
            yield (n, m, u), (r, i)
            if m == 0:
                yield (n, 0, -(n**3)), (-r, -i)
                break
            r, i, m = -m * r, -m * i, m - 1


def exact_depth_sums(values, N, K, project_internal=False):
    """A_0..A_K, each restricted to |n| <= N, for the data ``values``
    (modes -N..N, complex).  Depth k keeps |n| <= N with
    ``project_internal``, otherwise the (2(K-k)+1) N that later depths
    can bring back to the cutoff; P_j keeps every mode."""
    bound = [N if project_internal else (2 * (K - k) + 1) * N for k in range(K + 1)]
    # A_k is homogeneous of degree 2k+1 in the data, so the fold runs on the
    # data times 2^E, Gaussian integers, and divides by 2^(E(2k+1)) at the
    # end: the Fractions' denominators then hold only 3, w and m + 1
    data = {n: (Fraction(v.real), Fraction(v.imag)) for n, v in zip(range(-N, N + 1), values) if v}
    E = max((x.denominator.bit_length() - 1 for c in data.values() for x in c), default=0)
    A = [{(n, 0, -(n**3)): (int(r * 2**E), int(i * 2**E)) for n, (r, i) in data.items()}]
    R = []
    for k in range(1, K + 1):
        P = _sum(row for k1 in range(k) for row in _product(A[k1], A[k - 1 - k1]))
        R.append({(n, m, u): (-2 * r, -2 * i) if n == 0 else (r, i) for (n, m, u), (r, i) in P.items()})
        S = _sum(row for j in range(k) for row in _product(R[j], A[k - 1 - j], bound[k]))
        weighted = {(n, m, u): (Fraction(n * i, 3), Fraction(-n * r, 3)) for (n, m, u), (r, i) in S.items()}
        A.append(_sum(_antiderivative(weighted)))
    scale = [Fraction(1, 2 ** (E * (2 * k + 1))) for k in range(K + 1)]
    return [{key: (r * s, i * s) for key, (r, i) in rows.items() if abs(key[0]) <= N} for s, rows in zip(scale, A)]


def table_keys(rows, N):
    """The rows' keys as a ``TermTable`` holds them: (mode + N, power, w)."""
    return {(n + N, m, u + n**3) for n, m, u in rows}


def exact_values(rows, N, t, dps=80):
    """The rows' value at time t per mode -N..N, in mpmath at ``dps``
    digits: sum c t^m e^{iwt}."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        out = [mpmath.mpc(0)] * (2 * N + 1)
        for (n, m, u), (r, i) in rows.items():
            c = mpmath.mpc(mpmath.mpf(r.numerator) / r.denominator, mpmath.mpf(i.numerator) / i.denominator)
            out[n + N] += c * t**m * mpmath.expj((u + n**3) * t)
        return out
