"""Rooted ordered trees in which every node has zero or exactly three children.

These trees index the terms of the cubic power-series expansion: a tree
with k internal nodes carries 2k+1 leaves and |T| = 3k+1 nodes total.
Node ids are preorder positions (root = 0), children are ordered, and a
tree serializes to its preorder string over {"I", "L"} (internal/leaf),
e.g. the one-internal-node tree is "ILLL".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "TernaryTree",
    "enumerate_trees",
    "fuss_catalan",
    "node_level",
    "odd_even_partition",
    "split_subtrees",
    "graft",
]


@dataclass(frozen=True)
class TernaryTree:
    """Immutable ordered ternary tree with preorder node ids.

    ``children[v]`` is a 3-tuple of ids or None for a leaf;
    ``parent[v]`` is None for the root.
    """

    children: tuple
    parent: tuple

    def __post_init__(self):
        n = len(self.children)
        if n != len(self.parent) or n == 0:
            raise ValueError("inconsistent node arrays")
        if self.parent[0] is not None:
            raise ValueError("node 0 must be the root")
        for v, ch in enumerate(self.children):
            if ch is None:
                continue
            if len(ch) != 3:
                raise ValueError(f"node {v} must have 0 or 3 children")
            for c in ch:
                if not (0 <= c < n) or self.parent[c] != v:
                    raise ValueError(f"bad child link {v} -> {c}")
        if self.size % 3 != 1:
            raise ValueError("node count must be 3k + 1")

    @property
    def size(self) -> int:
        return len(self.children)

    # cached: the tree is immutable, and the scalar reference paths read
    # these once per index assignment
    @cached_property
    def internal_nodes(self) -> tuple:
        return tuple(v for v, ch in enumerate(self.children) if ch is not None)

    @cached_property
    def leaves(self) -> tuple:
        return tuple(v for v, ch in enumerate(self.children) if ch is None)

    @property
    def internal_count(self) -> int:
        return len(self.internal_nodes)

    def is_leaf(self, v: int) -> bool:
        self._check_id(v)
        return self.children[v] is None

    def _check_id(self, v: int):
        if not (0 <= v < self.size):
            raise ValueError(f"node id {v} out of range")

    def to_string(self) -> str:
        return "".join("L" if ch is None else "I" for ch in self.children)

    @classmethod
    def leaf(cls) -> "TernaryTree":
        return cls((None,), (None,))

    @classmethod
    def from_string(cls, s: str) -> "TernaryTree":
        """Rebuild a tree from its preorder I/L string."""
        children = [None] * len(s)
        parent = [None] * len(s)
        pos = 0

        def build(par):
            nonlocal pos
            if pos >= len(s):
                raise ValueError("truncated tree string")
            v = pos
            parent[v] = par
            tag = s[pos]
            pos += 1
            if tag == "I":
                children[v] = tuple(build(v) for _ in range(3))
            elif tag != "L":
                raise ValueError(f"bad tag {tag!r}")
            return v

        build(None)
        if pos != len(s):
            raise ValueError("trailing characters in tree string")
        return cls(tuple(children), tuple(parent))


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
    return [TernaryTree.from_string(s) for s in _tree_strings(k)]


def node_level(tree: TernaryTree, v: int) -> int:
    """Path length from the root (root itself has level 0)."""
    tree._check_id(v)
    level = 0
    while tree.parent[v] is not None:
        v = tree.parent[v]
        level += 1
    return level


def odd_even_partition(tree: TernaryTree):
    """Split the internal nodes by level parity: (odd set, even set)."""
    odd, even = set(), set()
    for v in tree.internal_nodes:
        (odd if node_level(tree, v) % 2 else even).add(v)
    return odd, even


def _extract(tree: TernaryTree, root: int) -> TernaryTree:
    """Subtree rooted at ``root``, re-indexed to canonical preorder ids."""
    children = []
    parent = []

    def walk(v, par):
        new_id = len(children)
        children.append(None)
        parent.append(par)
        ch = tree.children[v]
        if ch is not None:
            children[new_id] = tuple(walk(c, new_id) for c in ch)
        return new_id

    walk(root, None)
    return TernaryTree(tuple(children), tuple(parent))


def split_subtrees(tree: TernaryTree):
    """The three subtrees hanging off the root, re-indexed canonically."""
    if tree.is_leaf(0):
        raise ValueError("cannot split a single-leaf tree")
    return tuple(_extract(tree, c) for c in tree.children[0])


def graft(t1: TernaryTree, t2: TernaryTree, t3: TernaryTree) -> TernaryTree:
    """Join three trees under a new root; inverse of split_subtrees."""
    return TernaryTree.from_string(
        "I" + t1.to_string() + t2.to_string() + t3.to_string()
    )
