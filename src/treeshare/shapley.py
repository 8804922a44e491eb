"""Shapley reward computation for referral-tree games.

Three routes to the same numbers, used to check each other:

* ``shapley_bruteforce`` -- the definition, summed over coalitions with
  permutation-count weights. Exponential; the oracle for small trees.
* ``shapley_general``    -- a sum over trimmed coalitions only, with exact
  factorial coefficients. Works for any value function.
* ``shapley_basic``      -- the linear-time closed form for the unit-per-member
  game: every node's reward is the sum of ``1/(depth+1)`` over its subtree.

``IncrementalState`` maintains the basic-game allocation as joins stream in,
paying one ``1/(depth+1)`` share to each node on the new member's root path.

The closed form and the streaming snapshot work in integers over
``lcm(1..height+1)``, which every ``1/(depth+1)`` share divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .allocation import Allocation, as_fraction
from .games import TreeGame, coalition_values_by_mask
from .tree import RootedTree, TreeError, UnknownNodeError, build_tree


class SizeLimitError(ValueError):
    """An exhaustive computation was asked to exceed its configured limit."""


def _depth_shares(height: int) -> tuple[int, list[int]]:
    """``L = lcm(1..height+1)`` and the numerator ``L/(d+1)`` per depth."""
    common = lcm(*range(1, height + 2))
    return common, [common // (d + 1) for d in range(height + 1)]


def shapley_basic(tree: RootedTree) -> Allocation:
    """Exact Shapley rewards for the unit-per-member game, in linear time.

    Each member of a node's subtree at absolute depth ``d`` contributes
    ``1/(d+1)``, so one bottom-up pass of subtree sums covers every node.
    The rewards always sum to ``n``.
    """
    n = tree.n
    children = tree._children
    common, share = _depth_shares(tree.height)
    acc = [share[d] for d in tree._depths]
    for r in range(n - 1, -1, -1):
        for c in children[r]:
            acc[r] += acc[c]
    return Allocation(zip(tree._ids, acc), common)


def shapley_bruteforce(game: TreeGame, limit: int = 10) -> Allocation:
    """Exact Shapley rewards straight from the definition.

    Sums marginal contributions over all coalitions, weighting each by the
    number of join orders that realise it. Exponential in ``n``; refuses to
    run past ``limit`` agents.
    """
    n = game.tree.n
    if n > limit:
        raise SizeLimitError(f"brute force over {n} agents exceeds limit {limit}")
    values = coalition_values_by_mask(game)
    n_fact = factorial(n)
    weights = [
        Fraction(factorial(size) * factorial(n - size - 1), n_fact)
        for size in range(n)
    ]
    totals = [Fraction(0)] * n
    for mask in range((1 << n) - 1):  # the full coalition has nobody left to join
        w = weights[mask.bit_count()]
        before = values[mask]
        for r in range(n):
            bit = 1 << r
            if mask & bit:
                continue
            gain = values[mask | bit] - before
            if gain:
                totals[r] += w * gain
    ids = game.tree._ids
    return Allocation({ids[r]: totals[r] for r in range(n)})


def shapley_general(game: TreeGame) -> Allocation:
    """Exact Shapley rewards via enumeration of trimmed coalitions only.

    For each node, its reward is a weighted sum over the trimmed coalitions
    containing it of the value lost by deleting the node's whole subtree from
    the coalition. The weight counts the join orders compatible with the
    coalition forming around the node, divided by ``n!``; coefficients are
    built from arbitrary-precision factorials, so there is no overflow.
    """
    tree = game.tree
    f = game.f
    child_count = {i: len(tree.children(i)) for i in tree.node_ids}
    rewards: dict[int, Fraction] = {}
    for i in tree.node_ids:
        subtree = tree.subtree_nodes(i)
        total = Fraction(0)
        for coalition in tree.enumerate_trimmed_containing(i):
            size = len(coalition)
            boundary = sum(child_count[m] for m in coalition) - (size - 1)
            without_subtree = coalition - subtree
            # Removing a whole subtree from a parent-closed set keeps it
            # parent-closed, so no re-trim is needed.
            assert tree.is_trimmed(without_subtree)
            gain = f.of(coalition) - f.of(without_subtree)
            if gain:
                total += Fraction(
                    factorial(boundary) * factorial(size - 1),
                    factorial(size + boundary),
                ) * gain
        rewards[i] = total
    return Allocation(rewards)


def shapley_value(game: TreeGame) -> Allocation:
    """Shapley rewards by the cheapest exact route for the game at hand.

    Unit-per-member games (at any scale) use the linear-time closed form and
    the linearity of the Shapley value under scaling; everything else goes
    through the trimmed-coalition sum.
    """
    if game.f.is_basic:
        base = shapley_basic(game.tree)
        return base if game.f.scale == 1 else base.scaled(game.f.scale)
    return shapley_general(game)


def root_adjust(
    allocation: Allocation, root: int, unit_value: Fraction | int | str = 1
) -> Allocation:
    """Deduct one referral unit from the root's reward.

    Models programs where signing up independently earns no referral bonus:
    the root is paid only for the members below it.
    """
    if root not in allocation:
        raise UnknownNodeError(f"allocation has no entry for root {root}")
    unit = as_fraction(unit_value)
    factor = unit.denominator // gcd(allocation.denominator, unit.denominator)
    numerators = {node: v * factor for node, v in allocation.numerators.items()}
    denominator = allocation.denominator * factor
    numerators[root] -= unit.numerator * (denominator // unit.denominator)
    return Allocation(numerators, denominator)


class IncrementalState:
    """Referral tree grown one join at a time, with its live allocation.

    Each join hands ``1/(depth+1)`` to every node on the path from the root
    to the new member, the new member included; that is exactly the change in
    the basic-game Shapley allocation, so ``allocation`` always matches the
    batch closed form on the current tree. Work per join is proportional to
    the new member's depth.

    Single-writer: callers serialise joins.
    """

    def __init__(self, root: int, root_adjust: bool = False):
        if not isinstance(root, int) or isinstance(root, bool) or root <= 0:
            raise TreeError(f"node ids must be positive integers, got {root!r}")
        self.root = root
        self.root_adjust = root_adjust
        # Insertion order is join order, so parents always precede children.
        self._parents: dict[int, int | None] = {root: None}
        self._depths: dict[int, int] = {root: 0}
        self._height = 0

    @property
    def n(self) -> int:
        return len(self._parents)

    def __contains__(self, node: int) -> bool:
        return node in self._parents

    def depth(self, node: int) -> int:
        try:
            return self._depths[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node!r}") from None

    def join(self, node: int, parent: int) -> Allocation:
        """Attach a new member under ``parent`` and return the reward delta.

        The delta pays ``1/(depth(node)+1)`` to every node on the root path,
        the new member included: numerators of 1 over ``depth(node)+1``. All
        other rewards are untouched.
        """
        parents = self._parents
        depths = self._depths
        depth = depths.get(parent)
        if depth is None:
            raise UnknownNodeError(f"unknown parent {parent!r}")
        if node in parents:
            raise TreeError(f"node {node} already joined")
        if node.__class__ is not int or node <= 0:
            raise TreeError(f"node ids must be positive integers, got {node!r}")
        depth += 1
        parents[node] = parent
        depths[node] = depth
        if depth > self._height:
            self._height = depth
        delta = {node: 1}
        cur: int | None = parent
        while cur is not None:
            delta[cur] = 1
            cur = parents[cur]
        # One delta per event: hand over the fresh dict without the
        # constructor's defensive copy, which would cost a few percent of
        # a join.
        result = object.__new__(Allocation)
        result.numerators = delta
        result.denominator = depth + 1
        return result

    @property
    def allocation(self) -> Allocation:
        """The full allocation for the current tree (root-adjusted if set).

        One bottom-up pass over ``lcm(1..height+1)``: every node starts with
        the numerator of its own ``1/(depth+1)`` share and folds its subtree
        total into its parent, children first because joins arrive
        parent-before-child.
        """
        parents = self._parents
        common, share = _depth_shares(self._height)
        numerators = {node: share[depth] for node, depth in self._depths.items()}
        for node in reversed(numerators):
            parent = parents[node]
            if parent is not None:
                numerators[parent] += numerators[node]
        if self.root_adjust:
            numerators[self.root] -= common
        return Allocation(numerators, common)

    def to_tree(self) -> RootedTree:
        """Materialise the current tree."""
        edges = [
            (child, parent)
            for child, parent in self._parents.items()
            if parent is not None
        ]
        return build_tree(edges, self.root)
