"""Rooted ordered trees in which every node has zero or exactly three children.

These trees index the terms of the cubic power-series expansion: a tree
with k internal nodes carries 2k+1 leaves and |T| = 3k+1 nodes total.
A tree is its preorder string over {"I", "L"} (internal/leaf), e.g. the
one-internal-node tree is "ILLL"; its nodes are numbered in preorder
(root = 0) and its children, ordered, are parsed from that string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "TernaryTree",
    "enumerate_trees",
    "fuss_catalan",
    "odd_even_partition",
]


@dataclass(frozen=True)
class TernaryTree:
    """Immutable ordered ternary tree, held as its preorder I/L string.

    ``children[v]`` is a 3-tuple of node ids, or None for a leaf; it is
    parsed from the string once, and a string that is no tree is refused
    there.  Preorder puts every child after its parent, so a pass over
    the ids in reverse order meets children before their parents.
    """

    preorder: str

    def __post_init__(self):
        self.children  # parse now: a bad string fails at construction

    @cached_property
    def children(self) -> tuple:
        s = self.preorder
        children = [None] * len(s)
        pos = 0

        def build():
            nonlocal pos
            if pos >= len(s):
                raise ValueError(f"truncated tree string {s!r}")
            v = pos
            tag = s[pos]
            pos += 1
            if tag == "I":
                children[v] = tuple(build() for _ in range(3))
            elif tag != "L":
                raise ValueError(f"bad tag {tag!r} in tree string {s!r}")
            return v

        build()
        if pos != len(s):
            raise ValueError(f"trailing characters in tree string {s!r}")
        return tuple(children)

    @property
    def size(self) -> int:
        return len(self.preorder)

    # cached: the tree is immutable, and the scalar reference paths read
    # these once per index assignment
    @cached_property
    def internal_nodes(self) -> tuple:
        return tuple(v for v, tag in enumerate(self.preorder) if tag == "I")

    @cached_property
    def leaves(self) -> tuple:
        return tuple(v for v, tag in enumerate(self.preorder) if tag == "L")

    @cached_property
    def levels(self) -> tuple:
        """Path length from the root to each node (the root's is 0)."""
        level = [0] * self.size
        for v, ch in enumerate(self.children):
            for c in ch or ():
                level[c] = level[v] + 1
        return tuple(level)

    @property
    def internal_count(self) -> int:
        return len(self.internal_nodes)

    def is_leaf(self, v: int) -> bool:
        if not (0 <= v < self.size):
            raise ValueError(f"node id {v} out of range")
        return self.children[v] is None


def fuss_catalan(k: int) -> int:
    """Number of ordered ternary trees with k internal nodes:
    C(3k, k) / (2k + 1), computed with exact integer arithmetic."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(3 * k, k) // (2 * k + 1)


@lru_cache(maxsize=None)
def _tree_strings(k: int) -> tuple:
    if k == 0:
        return ("L",)
    out = []
    for k1 in range(k):
        for k2 in range(k - k1):
            k3 = k - 1 - k1 - k2
            for s1 in _tree_strings(k1):
                for s2 in _tree_strings(k2):
                    for s3 in _tree_strings(k3):
                        out.append("I" + s1 + s2 + s3)
    return tuple(sorted(out))


def enumerate_trees(k: int) -> list:
    """All ordered ternary trees with exactly k internal nodes, sorted by
    their preorder I/L string (a fixed, reproducible order)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return [TernaryTree(s) for s in _tree_strings(k)]


def odd_even_partition(tree: TernaryTree):
    """Split the internal nodes by level parity: (odd set, even set)."""
    odd, even = set(), set()
    for v in tree.internal_nodes:
        (odd if tree.levels[v] % 2 else even).add(v)
    return odd, even
