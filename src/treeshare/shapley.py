"""Shapley reward computation for referral-tree games.

Three routes to the same numbers, used to check each other:

* ``shapley_bruteforce`` -- the definition, summed over coalitions with
  permutation-count weights. Exponential; the oracle for small trees.
* ``shapley_general``    -- a sum over trimmed coalitions only, with exact
  factorial coefficients. Works for any value function; one pass visits
  each trimmed coalition once and evaluates ``f`` on it once, in integers.
* ``shapley_basic``      -- the linear-time closed form for the unit-per-member
  game: every node's reward is the sum of ``1/(depth+1)`` over its subtree.

``IncrementalState`` maintains the basic-game allocation as joins stream in,
paying one ``1/(depth+1)`` share to each node on the new member's root path.

The closed form and the streaming snapshot work in integers over
``lcm(1..height+1)``, which every ``1/(depth+1)`` share divides.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING

from .allocation import Allocation, as_fraction, common_numerators, excerpt
from .games import SizeLimitError, TreeGame, _Basic, _Linear, coalition_values_by_mask
from .tree import RootedTree, TreeError, UnknownNodeError, _check_id, build_tree

if TYPE_CHECKING:  # ``io`` imports this module
    from .io import JoinEvent


def _depth_shares(height: int) -> tuple[int, list[int]]:
    """``L = lcm(1..height+1)`` and the numerator ``L/(d+1)`` per depth."""
    common = lcm(*range(1, height + 2))
    return common, [common // (d + 1) for d in range(height + 1)]


def _subtree_sums(tree: RootedTree, start: list[int]) -> list[int]:
    """Per-rank ``start`` numerators, each plus its descendants', in place."""
    parents = tree._parents
    for r in range(tree.n - 1, 0, -1):
        start[parents[r]] += start[r]
    return start


def shapley_basic(tree: RootedTree) -> Allocation:
    """Exact Shapley rewards for the unit-per-member game, in linear time.

    Each member of a node's subtree at absolute depth ``d`` contributes
    ``1/(d+1)``, so one bottom-up pass of subtree sums covers every node.
    The rewards always sum to ``n``.
    """
    common, share = _depth_shares(tree.height)
    numerators = _subtree_sums(tree, [share[d] for d in tree._depths])
    return Allocation.owning(dict(zip(tree._ids, numerators)), common)


def _reduced(tree: RootedTree, numerators: list[int], denominator: int) -> Allocation:
    """Per-rank numerators over ``denominator``, divided by their common
    factor, so the denominator is the lcm of the rewards' denominators."""
    g = gcd(denominator, *numerators)
    return Allocation.owning(
        dict(zip(tree._ids, (v // g for v in numerators))), denominator // g
    )


def shapley_bruteforce(game: TreeGame, limit: int = 10) -> Allocation:
    """Exact Shapley rewards straight from the definition.

    Sums marginal contributions over all coalitions, weighting each by the
    number of join orders that realise it. Exponential in ``n``; refuses to
    run past ``limit`` agents. Values are integer numerators over their
    common denominator ``D`` and the weights integers over ``n!``, so the
    sums are in integers over ``n! * D``.
    """
    n = game.tree.n
    if n > limit:
        raise SizeLimitError(f"brute force over {n} agents exceeds limit {limit}")
    values, denominator = coalition_values_by_mask(game)
    weights = [factorial(size) * factorial(n - size - 1) for size in range(n)]
    totals = [0] * n
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
    return _reduced(game.tree, totals, factorial(n) * denominator)


def shapley_general(game: TreeGame) -> Allocation:
    """Exact Shapley rewards from one pass over the trimmed coalitions.

    A node's reward is a weighted sum, over the trimmed coalitions ``S``
    containing it, of the value lost by deleting the node's whole subtree
    from ``S``; the weight ``b! (|S|-1)! / (|S|+b)!``, where ``b`` counts
    the nodes just outside ``S`` (its boundary), counts the join orders in
    which ``S`` forms around the node. The weight depends on ``S`` only, so:

    * ``enumerate_trimmed`` visits each trimmed coalition once, and ``f`` is
      evaluated once per coalition, keyed by its rank bitmask as an integer
      numerator over the lcm ``D`` of the value denominators;
    * each member's gain ``f(S) - f(S minus subtree)`` is two lookups, since
      removing a whole subtree from a parent-closed set leaves one (a set
      that were not would raise ``KeyError``);
    * gains are summed per ``(|S|, b)`` class, and each class's weight,
      an integer over ``n!``, is applied once per member.
    """
    tree = game.tree
    n = tree.n
    f = game.f
    rank = dict(zip(tree._ids, range(n)))  # the enumeration keeps n small
    parents = tree._parents
    subtree = [1 << r for r in range(n)]
    kids = [0] * n
    for r in range(n - 1, 0, -1):
        subtree[parents[r]] |= subtree[r]
        kids[parents[r]] += 1

    masks: list[int] = []
    values: list[Fraction] = []
    classes: dict[tuple[int, int], list[int]] = {}
    for coalition in tree.enumerate_trimmed():
        mask = 0
        boundary = 1  # children of members, less the members except the root
        for m in coalition:
            r = rank[m]
            mask |= 1 << r
            boundary += kids[r] - 1
        masks.append(mask)
        values.append(f.of(coalition))
        if coalition:
            classes.setdefault((len(coalition), boundary), []).append(mask)
    numerators, denominator = common_numerators(values)
    value = dict(zip(masks, numerators))

    n_fact = factorial(n)
    totals = [0] * n
    for (size, boundary), group in classes.items():
        gains = [0] * n
        for mask in group:
            v = value[mask]
            rest = mask
            while rest:
                low = rest & -rest
                r = low.bit_length() - 1
                gains[r] += v - value[mask & ~subtree[r]]
                rest ^= low
        weight = (
            factorial(boundary)
            * factorial(size - 1)
            * (n_fact // factorial(size + boundary))
        )
        for r, gain in enumerate(gains):
            if gain:
                totals[r] += weight * gain
    return _reduced(tree, totals, n_fact * denominator)


def shapley_value(game: TreeGame) -> Allocation:
    """Shapley rewards by the cheapest exact route for the game at hand.

    Unit-per-member games take the closed form, scaled; linear games, sums
    of unanimity games on root paths, the same fold with each share times
    its member's scaled weight; the rest, the trimmed-coalition sum.
    """
    tree, f = game.tree, game.f
    if isinstance(f, _Basic):
        base = shapley_basic(tree)
        return base if f.scale == 1 else base.scaled(f.scale)
    if isinstance(f, _Linear):
        weights, denominator = common_numerators([f.scale * f.weights[i] for i in tree._ids])
        common, share = _depth_shares(tree.height)
        start = [w * share[d] for w, d in zip(weights, tree._depths)]
        return _reduced(tree, _subtree_sums(tree, start), denominator * common)
    return shapley_general(game)


def root_adjust(
    allocation: Allocation, root: int, unit_value: Fraction | int | str = 1
) -> Allocation:
    """Deduct one referral unit from the root's reward.

    Models programs where signing up independently earns no referral bonus:
    the root is paid only for the members below it. Works on any allocation,
    as its sum with a one-entry allocation of ``-unit_value`` at the root;
    ``compute`` and ``stream`` take the unit off the closed form instead.
    """
    if root not in allocation.numerators:
        raise UnknownNodeError(f"allocation has no entry for root {root}")
    return allocation + Allocation({root: -as_fraction(unit_value)})


class IncrementalState:
    """Referral tree grown one join at a time, with its live allocation.

    Each join hands ``1/(depth+1)`` to every node on the path from the root
    to the new member, the new member included; that is exactly the change in
    the basic-game Shapley allocation, so ``allocation`` always matches the
    batch closed form on the current tree. The state keeps one table, each
    member's parent: a depth is the length of a root path, so ``depth`` and
    ``join`` cost O(depth), and ``attach`` grows the tree without a delta in
    constant time, for callers that need only the final snapshot.

    Single-writer: callers serialise joins.
    """

    def __init__(self, root: int, root_adjust: bool = False):
        _check_id(root)
        self.root = root
        self.root_adjust = root_adjust
        # Insertion order is join order, so parents always precede children.
        self._parents: dict[int, int | None] = {root: None}

    @property
    def n(self) -> int:
        return len(self._parents)

    def depth(self, node: int) -> int:
        parents = self._parents
        if node.__class__ is not int or node not in parents:
            raise UnknownNodeError(f"unknown node id {excerpt(node)}")
        depth = 0
        while (node := parents[node]) is not None:
            depth += 1
        return depth

    def attach(self, node: int, parent: int) -> None:
        """Attach a new member under ``parent``.

        Rejects an unknown parent, an id that is not a positive int (``True``
        and ``2.0`` included) and a node that already joined; a rejected join
        changes nothing. The allocation is not touched here: ``allocation``
        derives it from the tree, so a replay that needs no deltas only attaches.
        """
        parents = self._parents
        if parent.__class__ is not int:  # the class first: [1] is unhashable
            _check_id(parent)
        if parent not in parents:
            raise UnknownNodeError(f"unknown parent {excerpt(parent)}")
        if node.__class__ is not int or node <= 0:
            _check_id(node)
        if node in parents:
            raise TreeError(f"node {node} already joined")
        parents[node] = parent

    def join(self, node: int, parent: int) -> Allocation:
        """Attach a new member under ``parent`` and return the reward delta.

        The delta pays ``1/(depth(node)+1)`` to every node on the root path,
        the new member included: numerators of 1 over the path's length. All
        other rewards are untouched.
        """
        self.attach(node, parent)
        parents = self._parents
        delta = {node: 1}
        while parent is not None:
            delta[parent] = 1
            parent = parents[parent]
        return Allocation.owning(delta, len(delta))

    @property
    def allocation(self) -> Allocation:
        """The full allocation for the current tree (root-adjusted if set).

        Over ``lcm(1..height+1)``: a forward pass writes each node's depth,
        parents first; each node then takes the numerator of its own
        ``1/(depth+1)`` share, and a bottom-up pass folds subtree totals into
        parents, children first.
        """
        parents = self._parents
        # The memory this takes sets the peak of ``stream``. A copy makes the
        # table once, at its final size, and the result is not copied again.
        numerators = parents.copy()
        numerators[self.root] = 0
        for node, parent in islice(parents.items(), 1, None):  # the root is first
            numerators[node] = numerators[parent] + 1
        common, share = _depth_shares(max(numerators.values()))
        for node, depth in numerators.items():  # in place: no new table
            numerators[node] = share[depth]
        for node, parent in islice(reversed(parents.items()), len(parents) - 1):
            # ``+`` leaves a spare digit in a sum of multi-digit ints, and
            # whether the shares have more than one digit depends on the
            # height; ``sum`` makes each int only as large as its value.
            numerators[parent] = sum((numerators[parent], numerators[node]))
        if self.root_adjust:
            numerators[self.root] -= common
        return Allocation.owning(numerators, common)

    def to_tree(self) -> RootedTree:
        """Materialise the current tree; the root is the table's first entry."""
        return build_tree(islice(self._parents.items(), 1, None), self.root)


def replay_events(
    events: Iterable[JoinEvent],
    root: int,
    root_adjust: bool = False,
    on_delta: Callable[[JoinEvent, Allocation], None] | None = None,
) -> IncrementalState:
    """Apply a join stream to a fresh tree rooted at ``root``.

    Each event goes through ``state.join``, whose reward delta is handed to
    ``on_delta``. Without ``on_delta`` no delta is built: a usual join is
    checked and stored here, and any other event goes through
    ``state.attach``, for its message. Errors are re-raised with the
    offending sequence number; deltas already handed to ``on_delta`` stand.

    Parents are stored as the int their member joined as, from a table that
    lives only for this replay, so that the state holds each id once.
    """
    state = IncrementalState(root, root_adjust=root_adjust)
    parents = state._parents
    joined = {root: root}  # each member's id -> the int it joined as
    step = state.attach if on_delta is None else state.join
    for event in events:
        seq, node, parent = event
        if parent.__class__ is int:  # the class first: [1] is unhashable
            known = joined.get(parent)
            if known is not None:
                if (on_delta is None and node.__class__ is int and node > 0
                        and node not in joined):
                    parents[node] = known
                    joined[node] = node
                    continue
                parent = known
        try:
            result = step(node, parent)
        except ValueError as exc:
            from .io import InputFormatError  # ``io`` imports this module
            raise InputFormatError(f"event {excerpt(seq)}: {exc}") from None
        joined[node] = node
        if on_delta is not None:
            on_delta(event, result)
    return state
