"""Referral payout mechanisms and side-by-side comparison.

Three schemes over the same tree:

* refer-a-friend: a fixed per-referral reward split between referrer and
  invitee, as run by the big cloud-storage signup programs.
* geometric: each referral's reward decays by a fixed ratio up the ancestor
  chain; invitees get nothing at joining (the finder's-fee style).
* shapley: the referral value is shared equally among the invitee and all of
  its ancestors, optionally charging the root one unit for its free signup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .allocation import Allocation, as_fraction
from .games import RationalLike
from .shapley import root_adjust, shapley_basic
from .tree import RootedTree

REFER_A_FRIEND = "refer_a_friend"
GEOMETRIC = "geometric"
SHAPLEY = "shapley"
MECHANISM_KINDS = (REFER_A_FRIEND, GEOMETRIC, SHAPLEY)


@dataclass(frozen=True)
class MechanismSpec:
    """One payout scheme with its parameters.

    ``unit_value`` is the reward pool per successful referral (for example
    1000 MB per 1 GB-valued referral); all other parameters are meaningful
    only for their own mechanism kind.
    """

    kind: str
    unit_value: Fraction = Fraction(1)
    root_adjust: bool = True
    referrer_share: Fraction = Fraction(1, 2)
    ratio: Fraction = Fraction(1, 2)
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(
                f"unknown mechanism {self.kind!r}; expected one of {MECHANISM_KINDS}"
            )
        object.__setattr__(self, "unit_value", as_fraction(self.unit_value))
        object.__setattr__(self, "referrer_share", as_fraction(self.referrer_share))
        object.__setattr__(self, "ratio", as_fraction(self.ratio))
        if not 0 <= self.referrer_share <= 1:
            raise ValueError("referrer share must lie in [0, 1]")
        if not 0 < self.ratio < 1:
            raise ValueError("geometric ratio must lie strictly between 0 and 1")

    @classmethod
    def refer_a_friend(
        cls, unit_value: RationalLike = 1, referrer_share: RationalLike = Fraction(1, 2)
    ) -> "MechanismSpec":
        return cls(REFER_A_FRIEND, unit_value=as_fraction(unit_value),
                   referrer_share=as_fraction(referrer_share))

    @classmethod
    def geometric(
        cls,
        unit_value: RationalLike = 1,
        ratio: RationalLike = Fraction(1, 2),
        normalize: bool = True,
    ) -> "MechanismSpec":
        return cls(GEOMETRIC, unit_value=as_fraction(unit_value),
                   ratio=as_fraction(ratio), normalize=normalize)

    @classmethod
    def shapley(
        cls, unit_value: RationalLike = 1, root_adjust: bool = True
    ) -> "MechanismSpec":
        return cls(SHAPLEY, unit_value=as_fraction(unit_value), root_adjust=root_adjust)


def allocate_refer_a_friend(tree: RootedTree, spec: MechanismSpec) -> Allocation:
    """Fixed split per referral: the invitee and its referrer share one unit.

    The root earns nothing for its own signup, so the total paid is exactly
    ``unit_value * (n - 1)``.
    """
    _expect_kind(spec, REFER_A_FRIEND)
    to_referrer = spec.referrer_share * spec.unit_value
    to_invitee = spec.unit_value - to_referrer
    denominator = lcm(to_referrer.denominator, to_invitee.denominator)
    referrer_share = to_referrer.numerator * (denominator // to_referrer.denominator)
    invitee_share = to_invitee.numerator * (denominator // to_invitee.denominator)
    ids, parents = tree._ids, tree._parents
    numerators = [invitee_share] * tree.n
    numerators[0] = 0  # the root, first in canonical order
    for r in range(1, tree.n):
        numerators[parents[r]] += referrer_share
    return Allocation(zip(ids, numerators), denominator)


def _geometric_numerators(tree: RootedTree, ratio: Fraction) -> tuple[list[int], int]:
    """Raw shares as integer numerators over ``q**height`` for ``ratio = p/q``,
    listed in canonical (rank) order.

    A node at depth ``k`` first sums ``p**d * q**(height-k-d)`` over its
    strict descendants at distance ``d``, which is integral because
    ``d <= height-k``; one bottom-up pass, then one multiply by ``q**k``.
    """
    p, q = ratio.numerator, ratio.denominator
    height = tree.height
    q_pow = [q**e for e in range(height + 1)]
    children, depths = tree._children, tree._depths
    acc = [0] * tree.n
    for r in range(tree.n - 1, -1, -1):
        kids = children[r]
        if kids:
            below = q_pow[height - depths[r] - 1]
            acc[r] = p * (below * len(kids) + sum(acc[c] for c in kids))
    return [a * q_pow[k] for a, k in zip(acc, depths)], q_pow[height]


def geometric_raw_shares(tree: RootedTree, ratio: Fraction) -> dict[int, Fraction]:
    """Each node's share: ``ratio**distance`` summed over strict descendants.

    Computed bottom-up in one pass; leaves always get 0 because invitees earn
    nothing at the time of joining.
    """
    numerators, denominator = _geometric_numerators(tree, as_fraction(ratio))
    return {i: Fraction(v, denominator) for i, v in zip(tree._ids, numerators)}


def allocate_geometric(tree: RootedTree, spec: MechanismSpec) -> Allocation:
    """Geometrically decaying payouts up the ancestor chain.

    Normalized (the default), the pool ``unit_value * (n - 1)`` is split in
    proportion to the raw shares, so the whole referral budget is always paid
    out; unnormalized, each node is paid ``unit_value`` times its raw share.
    A tree with no referrals pays nothing either way.
    """
    _expect_kind(spec, GEOMETRIC)
    raw, denominator = _geometric_numerators(tree, spec.ratio)
    unit = spec.unit_value
    if spec.normalize:
        # pool * raw_i / sum(raw), with pool = unit * (n - 1); a tree with no
        # referrals has every raw share 0 and pays nothing.
        denominator = sum(raw) or 1
        unit *= tree.n - 1
    p = unit.numerator
    return Allocation(
        ((i, p * v) for i, v in zip(tree._ids, raw)), unit.denominator * denominator
    )


def allocate_shapley_mechanism(tree: RootedTree, spec: MechanismSpec) -> Allocation:
    """Equal shares per referral among the invitee and all its ancestors.

    Identical to ``unit_value`` times the basic-game Shapley allocation; with
    ``root_adjust`` the root gives up one unit for its own free signup, which
    brings the total down to ``unit_value * (n - 1)``.
    """
    _expect_kind(spec, SHAPLEY)
    allocation = shapley_basic(tree).scaled(spec.unit_value)
    if spec.root_adjust:
        allocation = root_adjust(allocation, tree.root, spec.unit_value)
    return allocation


_ALLOCATORS = {
    REFER_A_FRIEND: allocate_refer_a_friend,
    GEOMETRIC: allocate_geometric,
    SHAPLEY: allocate_shapley_mechanism,
}


def allocate(tree: RootedTree, spec: MechanismSpec) -> Allocation:
    """Run whichever mechanism the spec names."""
    return _ALLOCATORS[spec.kind](tree, spec)


def _expect_kind(spec: MechanismSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} spec, got {spec.kind}")


@dataclass(frozen=True)
class RewardReport:
    """Allocations for several mechanisms over one tree, plus a summary."""

    n: int
    height: int
    referral_count: int
    results: tuple[tuple[MechanismSpec, Allocation], ...]

    def allocations(self) -> list[Allocation]:
        return [allocation for _, allocation in self.results]


def compare(tree: RootedTree, specs: list[MechanismSpec]) -> RewardReport:
    """Evaluate every mechanism on the same tree, in the order given."""
    if not specs:
        raise ValueError("at least one mechanism spec is required")
    results = tuple((spec, allocate(tree, spec)) for spec in specs)
    return RewardReport(
        n=tree.n,
        height=tree.height,
        referral_count=tree.n - 1,
        results=results,
    )
