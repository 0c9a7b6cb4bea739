"""Index assignments on ternary trees and their resonance structure.

An assignment j gives every tree node an integer mode so that each internal
node's value is the sum of its children's, and each internal node is either
nonresonant (no child equals the parent, equivalently sigma != 0) or carries
the exact resonant pattern (j, -j, j).  Mixed patterns with sigma = 0 but a
different sign layout are admitted by neither branch and are excluded.

The 2k+1 leaf modes are the free variables and the internal modes are
derived sums: :func:`build_assignment` labels a tree from its leaf modes
and applies the admission rule, one assignment at a time.  It serves the
scalar reference and the integral-bound experiment; the solver's fold in
ops.py applies the same rule node by node to whole tables of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import TernaryTree

__all__ = [
    "sigma",
    "IndexAssignment",
    "build_assignment",
    "expansion_coefficient",
]


def sigma(n1: int, n2: int, n3: int) -> int:
    """Resonance frequency of an interacting triple.

    Equal to (n1+n2+n3)^3 - n1^3 - n2^3 - n3^3; computed in the factored
    form 3(n1+n2)(n2+n3)(n3+n1) with arbitrary-precision integers, so it
    vanishes exactly on resonant triples.
    """
    return 3 * (n1 + n2) * (n2 + n3) * (n3 + n1)


@dataclass(frozen=True)
class IndexAssignment:
    """A valid labeling of one tree: per-node modes, per-internal-node
    resonance frequency and resonance flag."""

    tree: TernaryTree
    j: tuple                 # mode per node, preorder
    sigmas: tuple            # sigma per internal node, in preorder order
    resonant: tuple          # flag per internal node, same order


def _node_pattern(jv, c1, c2, c3):
    """None if Definition-style constraints fail, else True for the
    resonant pattern (j, -j, j) and False for the all-different branch."""
    if c1 == jv and c2 == -jv and c3 == jv:
        return True
    if c1 != jv and c2 != jv and c3 != jv:
        return False
    return None


def build_assignment(tree: TernaryTree, leaf_modes) -> IndexAssignment | None:
    """Derive internal modes from leaf modes; None when some internal node
    satisfies neither admissible branch."""
    leaves = tree.leaves
    if len(leaf_modes) != len(leaves):
        raise ValueError("one mode per leaf required")
    j = [None] * tree.size
    for v, m in zip(leaves, leaf_modes):
        j[v] = int(m)
    internal = tree.internal_nodes
    for v in reversed(internal):
        c1, c2, c3 = (j[c] for c in tree.children[v])
        j[v] = c1 + c2 + c3
    sigmas = []
    resonant = []
    for v in internal:
        c1, c2, c3 = (j[c] for c in tree.children[v])
        pat = _node_pattern(j[v], c1, c2, c3)
        if pat is None:
            return None
        sigmas.append(sigma(c1, c2, c3))
        resonant.append(pat)
    return IndexAssignment(tree, tuple(j), tuple(sigmas), tuple(resonant))


def expansion_coefficient(a: IndexAssignment) -> complex:
    """Product over internal nodes of the per-branch factor: -i j/3 on the
    nonresonant branch and +i j on the resonant one.  Empty product is 1."""
    out = 1.0 + 0.0j
    internal = a.tree.internal_nodes
    for v, res in zip(internal, a.resonant):
        jv = a.j[v]
        out *= (1j * jv) if res else (-1j * jv / 3.0)
    return out
