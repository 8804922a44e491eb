"""Referral payout mechanisms and side-by-side comparison.

Three schemes over the same tree, each with a spec type of its own:

* refer-a-friend (``ReferAFriend``): a fixed per-referral reward split
  between referrer and invitee, as run by the big cloud-storage signup
  programs.
* geometric (``Geometric``): each referral's reward decays by a fixed ratio
  up the ancestor chain; invitees get nothing at joining (the finder's-fee
  style).
* shapley (``EqualShares``): the referral value is shared equally among the
  invitee and all of its ancestors, optionally charging the root one unit
  for its free signup.

A spec carries only its own mechanism's parameters, coerced with
``as_fraction`` and checked when it is built, and never changes afterwards.
Its ``unit_value`` is the reward pool per successful referral (for example
1000 MB per 1 GB-valued referral).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .allocation import Allocation, as_fraction, common_numerators
from .games import RationalLike
from .io import GEOMETRIC, REFER_A_FRIEND, SHAPLEY, _json_bool
from .shapley import shapley_basic
from .tree import RootedTree


class ReferAFriend:
    """Refer-a-friend: ``referrer_share`` of each unit goes to the referrer."""

    kind = REFER_A_FRIEND

    def __init__(self, unit_value: RationalLike = 1,
                 referrer_share: RationalLike = Fraction(1, 2)) -> None:
        self.unit_value = as_fraction(unit_value)
        self.referrer_share = as_fraction(referrer_share)
        if not 0 <= self.referrer_share <= 1:
            raise ValueError("referrer share must lie in [0, 1]")


class Geometric:
    """Geometric: shares decay by ``ratio`` per level, optionally normalised."""

    kind = GEOMETRIC

    def __init__(self, unit_value: RationalLike = 1,
                 ratio: RationalLike = Fraction(1, 2),
                 normalize: bool = True) -> None:
        self.unit_value = as_fraction(unit_value)
        self.ratio = as_fraction(ratio)
        self.normalize = _json_bool(normalize, "normalize")
        if not 0 < self.ratio < 1:
            raise ValueError("geometric ratio must lie strictly between 0 and 1")


class EqualShares:
    """Equal shares (Shapley), optionally charging the root for its signup."""

    kind = SHAPLEY

    def __init__(self, unit_value: RationalLike = 1, root_adjust: bool = True) -> None:
        self.unit_value = as_fraction(unit_value)
        self.root_adjust = _json_bool(root_adjust, "root_adjust")


MechanismSpec = ReferAFriend | Geometric | EqualShares
"""One payout scheme with its parameters."""


def allocate_refer_a_friend(tree: RootedTree, spec: ReferAFriend) -> Allocation:
    """Fixed split per referral: the invitee and its referrer share one unit.

    The root earns nothing for its own signup, so the total paid is exactly
    ``unit_value * (n - 1)``.
    """
    to_referrer = spec.referrer_share * spec.unit_value
    to_invitee = spec.unit_value - to_referrer
    (referrer_share, invitee_share), denominator = common_numerators(
        [to_referrer, to_invitee]
    )
    ids, parents = tree._ids, tree._parents
    numerators = [invitee_share] * tree.n
    numerators[0] = 0  # the root, first in canonical order
    for r in range(1, tree.n):
        numerators[parents[r]] += referrer_share
    return Allocation.owning(dict(zip(ids, numerators)), denominator)


def _geometric_numerators(tree: RootedTree, ratio: Fraction) -> tuple[list[int], int]:
    """Each node's raw share, ``ratio**distance`` summed over its strict
    descendants (0 for a leaf), as integer numerators over ``q**height`` for
    ``ratio = p/q``, listed in canonical (rank) order.

    A node at depth ``k`` first sums ``p**d * q**(height-k-d)`` over its
    strict descendants at distance ``d``, which is integral because
    ``d <= height-k``; one bottom-up pass, then one multiply by ``q**k``.
    """
    p, q = ratio.numerator, ratio.denominator
    height = tree.height
    q_pow = [q**e for e in range(height + 1)]
    parents, depths = tree._parents, tree._depths
    acc = [0] * tree.n
    for r in range(tree.n - 1, 0, -1):
        pr = parents[r]
        acc[pr] += p * (q_pow[height - depths[pr] - 1] + acc[r])
    return [a * q_pow[k] for a, k in zip(acc, depths)], q_pow[height]


def allocate_geometric(tree: RootedTree, spec: Geometric) -> Allocation:
    """Geometrically decaying payouts up the ancestor chain.

    Normalized (the default), the pool ``unit_value * (n - 1)`` is split in
    proportion to the raw shares, so the whole referral budget is always paid
    out; unnormalized, each node is paid ``unit_value`` times its raw share.
    A tree with no referrals pays nothing either way.
    """
    raw, denominator = _geometric_numerators(tree, spec.ratio)
    unit = spec.unit_value
    if spec.normalize:
        # pool * raw_i / sum(raw), with pool = unit * (n - 1); a tree with no
        # referrals has every raw share 0 and pays nothing.
        denominator = sum(raw) or 1
        unit *= tree.n - 1
    p = unit.numerator
    return Allocation.owning(
        {i: p * v for i, v in zip(tree._ids, raw)}, unit.denominator * denominator
    )


def allocate_shapley_mechanism(tree: RootedTree, spec: EqualShares) -> Allocation:
    """Equal shares per referral among the invitee and all its ancestors.

    Identical to ``unit_value`` times the basic-game Shapley allocation; with
    ``root_adjust`` the root gives up one unit for its own free signup, which
    brings the total down to ``unit_value * (n - 1)``. As in
    ``IncrementalState.allocation``, the unit comes off the root's closed-form
    numerator, in place, before the one scaling.
    """
    allocation = shapley_basic(tree)
    if spec.root_adjust:
        allocation.numerators[tree.root] -= allocation.denominator
    return allocation.scaled(spec.unit_value)


_ALLOCATORS = {
    REFER_A_FRIEND: allocate_refer_a_friend,
    GEOMETRIC: allocate_geometric,
    SHAPLEY: allocate_shapley_mechanism,
}


def allocate(tree: RootedTree, spec: MechanismSpec) -> Allocation:
    """Run whichever mechanism the spec names."""
    return _ALLOCATORS[spec.kind](tree, spec)


class RewardReport(NamedTuple):
    """Allocations for several mechanisms over one tree, plus a summary."""

    n: int
    height: int
    results: tuple[tuple[MechanismSpec, Allocation], ...]

    def allocations(self) -> list[Allocation]:
        return [allocation for _, allocation in self.results]

    def nodes(self) -> list[int]:
        """The tree's nodes, ascending: ``compare`` pays each from one tree."""
        return sorted(self.results[0][1].numerators)


def compare(tree: RootedTree, specs: list[MechanismSpec]) -> RewardReport:
    """Evaluate every mechanism on the same tree, in the order given."""
    if not specs:
        raise ValueError("at least one mechanism spec is required")
    results = tuple((spec, allocate(tree, spec)) for spec in specs)
    return RewardReport(n=tree.n, height=tree.height, results=results)
