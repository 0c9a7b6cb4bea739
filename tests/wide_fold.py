"""Long-double reference for ``ops.depth_term_tables``: the same P/R
recursion on extended-precision complex numbers (``np.clongdouble``), the
round-off arbiter for the double fold at every N and K it reaches.

The fold's key arithmetic and row bookkeeping (``_Key``, ``_product``,
``_sum``, ``_mirror``, ``_table``) do not depend on the coefficients'
dtype, so this module reuses them.  It has its own recursion, so a change
to the double fold's is checked rather than copied, and replaces what
does depend on the dtype:

* ``_merge`` sums equal keys by a stable argsort and ``np.add.reduceat``,
  since ``np.bincount`` takes float64 weights only (``ops._sum`` calls it
  in place of ``ops._merge`` while a wide fold runs);
* ``_antiderivative`` forms the -(in/3) weight as (-i n c) / 3, since the
  double constant -1j / 3.0 would round the weight to double precision.

The data enter in long double, so every product is formed in it.  Where
long double is plain double (Windows, Apple silicon) the fold is no wider
than the one it checks; ``WIDE`` says whether it is wider.
"""

import contextlib
import functools

import numpy as np

from mkdv_series import ops
from mkdv_series.spectral import is_hermitian

# 80-bit x87 extended on x86-64 Linux (eps 1.08e-19), IEEE quad on aarch64 Linux
WIDE = np.finfo(np.longdouble).eps <= 1e-18


def _merge(rows):
    """``ops._merge`` in long double: rows summed by key, in their order
    within a key, sorted by key, exact zeros dropped."""
    key, c = rows
    if not key.size:
        return key, c.astype(np.clongdouble)
    order = np.argsort(key, kind="stable")
    key, c = key[order], c[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key, c = key[first], np.add.reduceat(c, first)
    nz = c != 0
    return key[nz], c[nz]


def _antiderivative(rows, fmt):
    """``ops._antiderivative`` with the weight formed as (-i n c) / 3 and
    every frequency in long double."""
    key, c = rows
    n, m, u = fmt.decode(key)
    c = (-1j * n * c) / 3
    w = u + n**3
    res = w == 0
    out = [(key[res] + fmt.Ru, c[res] / (m[res] + 1))]
    key, n, m, c = key[~res], n[~res], m[~res], c[~res]
    iw = 1j * w[~res].astype(np.longdouble)
    while key.size:
        c = c / iw
        out.append((key, c))
        last = m == 0
        out.append((fmt.const(n[last]), -c[last]))
        more = ~last
        key, n, m, iw, c = key[more] - fmt.Ru, n[more], m[more] - 1, iw[more], -c[more] * m[more]
    return tuple(np.concatenate(col) for col in zip(*out))


@contextlib.contextmanager
def _wide_merge():
    merge = ops._merge
    ops._merge = _merge
    try:
        yield
    finally:
        ops._merge = merge


def wide_depth_tables(a0, K, project_internal=False):
    """``ops.depth_term_tables`` in long double: ``TermTable``s whose
    weights are ``np.clongdouble``, by the same recursion, mirror and pair
    doubling (see there)."""
    N = a0.cutoff
    bound = [N if project_internal else (2 * (K - k) + 1) * N for k in range(K + 1)]
    support = np.nonzero(a0.values)[0]
    fmt = ops._Key(int(np.abs(support - N).max(initial=0)), K, bound, N)
    hermitian = is_hermitian(a0.values)
    mirror = functools.partial(ops._mirror, fmt=fmt) if hermitian else lambda rows: rows
    A, R = [(fmt.const(support - N), a0.values[support].astype(np.clongdouble))], []
    with _wide_merge():
        for k in range(1, K + 1):
            pairs = [((A[k1][0], 2 * A[k1][1]), A[k - 1 - k1]) for k1 in range(k // 2)]
            if k % 2:
                pairs.append((A[k // 2],) * 2)
            lo = 0 if hermitian else -bound[k] - N
            key, c = mirror(ops._sum(ops._product(pairs, lo, bound[k] + N, fmt)))
            c[slice(*np.searchsorted(key, (-fmt.h, fmt.S - fmt.h)))] *= -2  # the mode-0 rows
            R.append((key, c))
            lo = 1 if hermitian else -bound[k]
            rows = ops._sum(ops._product([(R[j], A[k - 1 - j]) for j in range(k)], lo, bound[k], fmt))
            A.append(mirror(_merge(_antiderivative(rows, fmt))))
    return [ops._table(rows, N, fmt) for rows in A]


def wide_values(table, t):
    """The table's values at time t per mode -N..N, in long double, t w
    formed in long double and the t = 0 value subtracted row by row, as
    ``ops.evaluate_term_table`` does in double."""
    t = np.longdouble(t)
    terms = table.weights * (t**table.powers * np.exp(1j * (t * table.freqs)) - (table.powers == 0))
    out = np.zeros(2 * table.cutoff + 1, np.clongdouble)
    np.add.at(out, table.root_idx, terms)
    return out
