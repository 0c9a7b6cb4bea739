"""Scalar reference for the tree operators: one tree at a time, every tuple
of leaf modes in the data's support, one index assignment
(``indexer.build_assignment``) and one exact integral
(``ops.integral_exact``) each.  It shares the admission rule and the
scalar integral with the package, and nothing of the depth fold
(``ops.depth_term_tables``) it pins down on small cases.
"""

import itertools

import numpy as np

from mkdv_series.indexer import IndexAssignment, build_assignment
from mkdv_series.ops import _cutoff, integral_exact
from mkdv_series.spectral import CoeffSeq


def expansion_coefficient(a: IndexAssignment) -> complex:
    """Product over internal nodes of the per-branch factor: -i j/3 on the
    nonresonant branch and +i j on the resonant one.  Empty product is 1."""
    out = 1.0 + 0.0j
    for v, res in zip(a.tree.internal_nodes, a.resonant):
        jv = a.j[v]
        out *= (1j * jv) if res else (-1j * jv / 3.0)
    return out


def apply_tree_operator_reference(tree, leaf_data, t: float, project_internal: bool = False) -> CoeffSeq:
    """The tree operator on the leaf data at time t, summed assignment by
    assignment; with ``project_internal`` every internal mode stays within
    the cutoff."""
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
