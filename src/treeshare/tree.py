"""Immutable rooted trees for referral networks, with coalition trimming.

A referral tree records who invited whom: every node except the root has
exactly one parent (its referrer). Coalitions are plain sets of node ids;
"trimming" a coalition keeps only the members connected to the root through
other members, which is the part of a coalition that actually signed up.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from .allocation import excerpt

Coalition = frozenset[int]
"""A set of node ids, interpreted against a particular tree."""


class TreeError(ValueError):
    """The input does not describe a valid rooted tree."""


class UnknownNodeError(TreeError):
    """A node id that is not part of the tree."""


def _check_id(i: int) -> None:
    if not (i.__class__ is int and i > 0):  # not True, 2.0 or an IntEnum
        raise TreeError(f"node ids must be positive integers, got {excerpt(i)}")


class RootedTree:
    """A validated, immutable rooted tree over positive integer node ids.

    Nodes are stored densely in a canonical parent-before-child order, as a
    parent array and depths; the public surface always speaks original ids.
    An id is found by bisection in the ascending ids, whose ranks are
    ``range(n)`` when that is the canonical order. No child lists are kept:
    every bottom-up pass folds each child into its parent in reverse
    canonical order. Instances never change after construction and are safe
    to share across threads.
    """

    __slots__ = (
        "n",
        "root",
        "_ids",
        "_parents",
        "_depths",
        "_height",
        "_sorted_ids",
        "_sorted_ranks",
    )

    def __init__(self, edges: Iterable[tuple[int, int]], root: int):
        _check_id(root)
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)  # the walk reads them again if the pass declines
        order, parents, depths, sorted_ids, sorted_ranks = (
            _join_ordered(edges, root) or _walk(edges, root)
        )
        self.n = len(order)
        self.root = root
        self._ids = order
        self._parents = parents
        self._depths = depths
        self._height = max(depths)
        self._sorted_ids = sorted_ids
        self._sorted_ranks = sorted_ranks

    # -- basic queries -----------------------------------------------------

    def _position(self, i: int) -> int:
        """Index of ``i`` in the ascending ids, or -1 if it is no node."""
        if i.__class__ is int:
            ids = self._sorted_ids
            k = bisect_left(ids, i)
            if k < self.n and ids[k] == i:
                return k
        return -1

    def _rank_of(self, i: int) -> int:
        k = self._position(i)
        if k < 0:
            raise UnknownNodeError(f"unknown node id {excerpt(i)}")
        return self._sorted_ranks[k]

    def __contains__(self, i: int) -> bool:
        return self._position(i) >= 0

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self.root == other.root and self.edges() == other.edges()

    def __hash__(self) -> int:
        return hash((self.root, frozenset(self.edges())))

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node ids in ascending order."""
        return self._sorted_ids

    @property
    def height(self) -> int:
        return self._height

    def edges(self) -> frozenset[tuple[int, int]]:
        """All (child, parent) pairs."""
        ids = self._ids
        return frozenset(
            (ids[r], ids[p]) for r, p in enumerate(self._parents) if p >= 0
        )

    def parent(self, i: int) -> int | None:
        """Parent id of ``i``, or None for the root."""
        p = self._parents[self._rank_of(i)]
        return None if p < 0 else self._ids[p]

    def depth(self, i: int) -> int:
        """Number of edges between ``i`` and the root."""
        return self._depths[self._rank_of(i)]

    # -- trimming ----------------------------------------------------------

    def trim(self, members: Iterable[int]) -> Coalition:
        """Members of the coalition whose entire ancestor chain is inside it.

        Empty whenever the root is absent. The result is always parent-closed
        and contains the root when nonempty.
        """
        ranks = sorted(map(self._rank_of, members))
        parents = self._parents
        kept: set[int] = set()
        for r in ranks:
            if r == 0 or parents[r] in kept:
                kept.add(r)
        ids = self._ids
        return frozenset(ids[r] for r in kept)

    def is_trimmed(self, members: Iterable[int]) -> bool:
        """True when trimming the coalition changes nothing."""
        rset = set(map(self._rank_of, members))
        parents = self._parents
        return all(r == 0 or parents[r] in rset for r in rset)

    def enumerate_trimmed(self) -> Iterator[Coalition]:
        """Stream every parent-closed, root-connected coalition, plus the
        empty set, each exactly once.

        Sets are generated depth-first by extending with ever-later nodes in
        canonical order, so the stream is lexicographic over sorted member
        lists (exactly so whenever ids are parent-monotone, as in join-ordered
        data). Nothing close to the full power set is ever materialised.
        """
        yield frozenset()
        yield from self.enumerate_trimmed_containing(self.root)

    def enumerate_trimmed_containing(self, i: int) -> Iterator[Coalition]:
        """Stream every trimmed coalition that contains ``i`` (and therefore
        all of its ancestors), each exactly once.

        The root path of ``i`` is extended depth-first with ever-later nodes
        in canonical order, so the stream is lexicographic over the added
        members. An explicit stack holds the next rank to try at each depth,
        so no tree is too deep to enumerate.
        """
        n = self.n
        ids = self._ids
        parents = self._parents
        in_set = bytearray(n)
        members: list[int] = []
        r = self._rank_of(i)
        while r >= 0:
            in_set[r] = 1
            members.append(r)
            r = parents[r]
        yield frozenset(ids[r] for r in members)
        starts = [1]
        while starts:
            e = starts[-1]
            while e < n and (in_set[e] or not in_set[parents[e]]):
                e += 1
            if e == n:
                starts.pop()
                if starts:  # leave the member that opened this depth
                    in_set[members.pop()] = 0
                continue
            starts[-1] = e + 1
            starts.append(e + 1)
            in_set[e] = 1
            members.append(e)
            yield frozenset(ids[r] for r in members)


def _join_ordered(edges: list | tuple, root: int) -> tuple | None:
    """The tree's slots in one pass when its ids are join-ordered, else None.

    The slots are the canonical ids, the parent ranks and depths, and the
    ascending ids with their ranks, in that order.

    Sorted by child, the children must strictly ascend from above the root,
    and each parent must be a plain ``int`` below its child that is found
    among the ids before it. Ascending ids are then the canonical order.
    Any other input, malformed or not, is left to ``_walk``, so every
    message is the walk's.
    """
    try:
        # A tree whose ids are not in join order usually shows a parent at
        # or above its child among its first edges; declining there spares
        # the sort.
        if any(parent >= child for child, parent in edges[:16]):
            return None
        pairs = sorted(edges)  # ids that do not compare raise TypeError
        ids, parents, depths = [root], [-1], [0]
        for child, parent in pairs:
            if not (child.__class__ is int and parent.__class__ is int
                    and ids[-1] < child and root <= parent < child):
                return None
            # Ascending ids put a parent at rank parent - root at most, and
            # exactly there when no id below it is missing; otherwise bisect.
            r = parent - root
            if r >= len(ids) or ids[r] != parent:
                r = bisect_right(ids, parent) - 1
                if ids[r] != parent:
                    return None
            ids.append(child)
            parents.append(r)
            depths.append(depths[r] + 1)
    except (TypeError, ValueError):  # ids that do not compare, edges not pairs
        return None
    # One list at a time becomes a tuple, so the build peaks at one copy.
    del pairs
    ids = tuple(ids)
    parents = tuple(parents)
    depths = tuple(depths)
    return ids, parents, depths, ids, range(len(ids))


def _walk(edges: list | tuple, root: int) -> tuple:
    """The slots of ``_join_ordered`` for any valid tree, by walks up the
    parent chains; ``TreeError`` names the first defect they meet."""
    parent_of: dict[int, int] = {}
    for child, parent in edges:
        # Plain positive ints pass inline; _check_id judges the rest.
        if not (child.__class__ is int and child > 0):
            _check_id(child)
        if not (parent.__class__ is int and parent > 0):
            _check_id(parent)
        if child in parent_of:
            raise TreeError(f"duplicate parent for node {child}")
        if child == parent:
            raise TreeError(f"cycle detected at node {child}")
        parent_of[child] = parent

    # Parents that are neither the root nor a child are met by the walks.
    nodes = tuple(sorted({root, *parent_of}))

    # Walks start at the root, then at each child in ascending id order,
    # so a malformed tree's message names the first defect met that way;
    # for a cycle, the node where the walk re-enters it. A node whose
    # parent has a depth takes the next; any other walks up. A root with
    # a parent gets no depth and its walk always raises.
    depth: dict[int, int] = {} if root in parent_of else {root: 0}
    for start in itertools.chain((root,), nodes):
        if start in depth:
            continue
        base = depth.get(parent_of.get(start))
        if base is not None:
            depth[start] = base + 1
            continue
        walk: dict[int, None] = {}  # insertion-ordered set of the path
        cur = start
        while cur not in depth:
            if cur in walk:
                raise TreeError(f"cycle detected involving node {cur}")
            walk[cur] = None
            if cur not in parent_of:
                if root in walk:
                    raise TreeError(f"root {root} has a parent")
                raise TreeError(f"node {cur} unreachable from root {root}")
            cur = parent_of[cur]
        base = depth[cur]
        for offset, member in enumerate(reversed(walk), start=1):
            depth[member] = base + offset

    # A valid tree reaches the walk only when some parent id is above its
    # child's, so the canonical order is by (depth, id), which puts parents
    # before children and the root at rank 0.
    order = tuple(sorted(nodes, key=depth.__getitem__))  # stable: ids stay ascending
    depths = tuple(map(depth.__getitem__, order))
    del depth  # each table goes before the next is built
    rank = dict(zip(order, range(len(order))))
    parents = [-1]
    parents += map(rank.__getitem__, map(parent_of.__getitem__, order[1:]))
    del parent_of
    return order, tuple(parents), depths, nodes, tuple(map(rank.__getitem__, nodes))


def build_tree(edges: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build and validate a tree from (child, parent) pairs and a root id."""
    return RootedTree(edges, root)


def chain(n: int) -> RootedTree:
    """A path of ``n`` nodes: 1 -> 2 -> ... -> n (root at the top)."""
    if n < 1:
        raise TreeError("chain needs at least one node")
    return RootedTree([(k + 1, k) for k in range(1, n)], 1)


def star(n: int) -> RootedTree:
    """A root 1 with ``n - 1`` direct children, 2 to ``n``."""
    if n < 1:
        raise TreeError("star needs at least one node")
    return RootedTree([(k, 1) for k in range(2, n + 1)], 1)


def complete_binary_tree(height: int) -> RootedTree:
    """A perfect binary tree of the given height, heap-numbered from 1."""
    if height < 0:
        raise TreeError("height must be nonnegative")
    n = 2 ** (height + 1) - 1
    return RootedTree([(k, k // 2) for k in range(2, n + 1)], 1)
