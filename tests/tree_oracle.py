"""Per-tree reference for the balance indices: the ranked tree of an
F-matrix rebuilt as Python nodes from its merge pairs, and Sackin and
Colless read by walking it, where ``fmatrix`` reads them from arrays of
node sizes (see ``fmatrix._node_sizes``)."""

import math
from dataclasses import dataclass
from typing import Optional

from rankedcoal import ValidationError
from rankedcoal.kingman import merges


@dataclass
class TreeNode:
    """Internal node (rank 2..n) or leaf (rank None) of a ranked tree."""

    rank: Optional[int]
    size: int
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self):
        return self.rank is None


@dataclass
class RankedTree:
    """Ranked unlabelled tree; internal nodes ranked 2..n from the root down."""

    n: int
    root: TreeNode

    def internal_nodes(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                out.append(node)
                stack.append(node.left)
                stack.append(node.right)
        return sorted(out, key=lambda nd: nd.rank)


def _leaf():
    return TreeNode(rank=None, size=1)


def _join(rank, a, b):
    # canonical child order: larger subtree left, then smaller rank first
    ka = (-a.size, a.rank if a.rank is not None else math.inf)
    kb = (-b.size, b.rank if b.rank is not None else math.inf)
    if kb < ka:
        a, b = b, a
    return TreeNode(rank=rank, size=a.size + b.size, left=a, right=b)


def build_tree(fmat):
    """The ranked tree of a checked F-matrix, unique up to child order.

    Each column pair fixes the coalescence pair (i, k) of decremental
    indices; index n-1 refers to an external (leaf) lineage, anything
    smaller to the unique internal lineage with that decremental index.
    """
    n = fmat.n
    internal = {}
    externals = n
    for t, (i, k) in enumerate(merges(fmat.entries[:, ::-1].T).tolist()):
        rank = n - t
        if i == n - 1:
            externals -= 2
            node = _join(rank, _leaf(), _leaf())
        elif k == n - 1:
            externals -= 1
            node = _join(rank, internal.pop(i), _leaf())
        else:
            node = _join(rank, internal.pop(i), internal.pop(k))
        internal[n - 2 - t] = node
    rest = list(internal.values()) + [_leaf() for _ in range(externals)]
    if len(rest) != 2:
        raise ValidationError("reconstruction did not end with two lineages")
    return RankedTree(n, _join(2, rest[0], rest[1]))


def sackin(tree):
    """Sum of leaf depths."""
    total = 0
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            total += depth
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return total


def colless(tree):
    """Sum over internal nodes of |left leaf count - right leaf count|."""
    total = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            total += abs(node.left.size - node.right.size)
            stack.append(node.left)
            stack.append(node.right)
    return total
