"""Immutable rooted trees for referral networks, with coalition trimming.

A referral tree records who invited whom: every node except the root has
exactly one parent (its referrer). Coalitions are plain sets of node ids;
"trimming" a coalition keeps only the members connected to the root through
other members, which is the part of a coalition that actually signed up.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import lt

from .allocation import excerpt

Coalition = frozenset[int]
"""A set of node ids, interpreted against a particular tree."""


class TreeError(ValueError):
    """The input does not describe a valid rooted tree."""


class UnknownNodeError(TreeError):
    """A node id that is not part of the tree."""


def _check_id(i: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i <= 0:
        raise TreeError(f"node ids must be positive integers, got {excerpt(i)}")


class RootedTree:
    """A validated, immutable rooted tree over positive integer node ids.

    Nodes are stored densely in a canonical parent-before-child order, as a
    parent array and depths; the public surface always speaks original ids.
    No child lists are kept: every bottom-up pass folds each child into its
    parent in reverse canonical order. Instances never change after
    construction and are safe to share across threads; the one cache, of
    trimmed-coalition counts, is filled on first use with the same value
    whichever thread fills it.
    """

    __slots__ = (
        "n",
        "root",
        "_ids",
        "_rank",
        "_parents",
        "_depths",
        "_height",
        "_sorted_ids",
        "_counts",
    )

    def __init__(self, edges: Iterable[tuple[int, int]], root: int):
        _check_id(root)
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

        nodes = {root}
        nodes.update(parent_of)
        nodes.update(parent_of.values())

        # A node whose parent has a depth takes the next; any other walks up,
        # which doubles as cycle/reachability detection off the root. A root
        # with a parent gets no depth and starts the first walk, which always
        # raises: at a cycle through the root, or where the walk ends.
        depth: dict[int, int] = {} if root in parent_of else {root: 0}
        for start in itertools.chain((root,), nodes):
            if start in depth:
                continue
            base = depth.get(parent_of.get(start))
            if base is not None:
                depth[start] = base + 1
                continue
            chain: list[int] = []
            on_chain: set[int] = set()
            cur = start
            while cur not in depth:
                if cur in on_chain:
                    raise TreeError(f"cycle detected involving node {cur}")
                chain.append(cur)
                on_chain.add(cur)
                if cur not in parent_of:
                    if root in on_chain:
                        raise TreeError(f"root {root} has a parent")
                    raise TreeError(f"node {cur} unreachable from root {root}")
                cur = parent_of[cur]
            base = depth[cur]
            for offset, member in enumerate(reversed(chain), start=1):
                depth[member] = base + offset

        # Canonical order: ascending ids when every edge points id-upward
        # (the common case for join-ordered referral data, and the order the
        # deterministic enumeration contract is stated in), otherwise by
        # (depth, id). Both guarantee parents precede children, so the root
        # has rank 0.
        order = sorted_ids = tuple(sorted(nodes))
        if not all(map(lt, parent_of.values(), parent_of)):
            order = sorted(order, key=depth.__getitem__)  # stable: ids stay ascending
        n = len(order)
        rank = dict(zip(order, range(n)))
        parents = [-1]
        parents += map(rank.__getitem__, map(parent_of.__getitem__, order[1:]))

        self.n = n
        self.root = root
        self._ids = tuple(order)
        self._rank = rank
        self._parents = tuple(parents)
        self._depths = tuple(map(depth.__getitem__, order))
        self._height = max(self._depths)
        self._sorted_ids = sorted_ids
        self._counts: tuple[int, ...] | None = None

    # -- basic queries -----------------------------------------------------

    def _rank_of(self, i: int) -> int:
        try:
            return self._rank[i]
        except (KeyError, TypeError):
            raise UnknownNodeError(f"unknown node id {i!r}") from None

    def __contains__(self, i: int) -> bool:
        return i in self._rank

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

    def _subtree_heights(self) -> list[int]:
        """Per canonical rank, the height of that node's subtree. Not kept."""
        parents = self._parents
        heights = [0] * self.n
        for r in range(self.n - 1, 0, -1):
            heights[parents[r]] = max(heights[parents[r]], heights[r] + 1)
        return heights

    def _subtree_counts(self) -> list[int]:
        """Per canonical rank ``r``, ``t(r)``: how many parent-closed sets of
        r's subtree contain r. Each is r plus, at every child ``c``, nothing
        or one such set of c's subtree, so ``t(r) = prod(1 + t(c))``, filled
        bottom-up. Not kept."""
        parents = self._parents
        t = [1] * self.n
        for r in range(self.n - 1, 0, -1):
            t[parents[r]] *= 1 + t[r]
        return t

    def _trimmed_counts(self) -> tuple[int, ...]:
        """Per canonical rank, how many trimmed coalitions contain that node.

        ``count(root) = t(root)`` (see ``_subtree_counts``), and a child
        ``c`` splits its parent's count into the ``t(c)`` choices that
        include it and the one that does not, so
        ``count(c) = count(parent) * t(c) / (1 + t(c))`` top-down. Computed
        on first use and kept: building a tree pays nothing for it.
        """
        counts = self._counts
        if counts is None:
            n = self.n
            parents = self._parents
            t = self._subtree_counts()
            found = [t[0]] * n
            for r in range(1, n):
                found[r] = found[parents[r]] * t[r] // (1 + t[r])
            counts = self._counts = tuple(found)
        return counts


def build_tree(edges: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build and validate a tree from (child, parent) pairs and a root id."""
    return RootedTree(edges, root)


def chain(n: int, start: int = 1) -> RootedTree:
    """A path of ``n`` nodes: start -> start+1 -> ... (root at the top)."""
    if n < 1:
        raise TreeError("chain needs at least one node")
    return RootedTree(
        [(start + k, start + k - 1) for k in range(1, n)], start
    )


def star(n: int, start: int = 1) -> RootedTree:
    """A root with ``n - 1`` direct children."""
    if n < 1:
        raise TreeError("star needs at least one node")
    return RootedTree([(start + k, start) for k in range(1, n)], start)


def complete_binary_tree(height: int) -> RootedTree:
    """A perfect binary tree of the given height, heap-numbered from 1."""
    if height < 0:
        raise TreeError("height must be nonnegative")
    n = 2 ** (height + 1) - 1
    return RootedTree([(k, k // 2) for k in range(2, n + 1)], 1)
