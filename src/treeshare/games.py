"""Coalition values induced by a referral tree.

A tree game pairs a tree with a value function ``f`` defined on trimmed
coalitions. The worth of an arbitrary coalition is ``f`` applied to its
trimmed part: members cut off from the root contribute nothing, because they
never actually joined.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational

from .allocation import as_fraction, common_numerators
from .tree import Coalition, RootedTree

BASIC = "basic"
SIZE_BASED = "size_based"
LINEAR_WEIGHTS = "linear_weights"
EXPLICIT = "explicit"

RationalLike = Rational | int | str


# The exhaustive checks hold lists of 2**n entries, so a larger limit could
# ask for more memory than there is.
LIMIT_CEILING = 20


class SizeLimitError(ValueError):
    """An exhaustive computation was asked to exceed its configured limit."""


class MissingCoalitionValueError(LookupError):
    """An explicit value function was queried on a set it does not cover."""


@dataclass(frozen=True)
class ValueFunction:
    """A value assignment over trimmed coalitions.

    Variants:
      * ``basic``          -- one unit per connected member (value = size).
      * ``size_based``     -- table lookup by size; entry 0 must be 0.
      * ``linear_weights`` -- per-node weights summed over the members.
      * ``explicit``       -- a literal table keyed by trimmed sets. Querying
        an uncovered nonempty set is an error, never a silent 0.

    The empty set is worth 0 in every variant. ``scale`` multiplies every
    value and composes under repeated scaling.
    """

    variant: str
    size_weights: tuple[Fraction, ...] | None = None
    node_weights: Mapping[int, Fraction] | None = None
    table: Mapping[Coalition, Fraction] | None = None
    scale: Fraction = field(default=Fraction(1))

    @classmethod
    def basic(cls) -> "ValueFunction":
        return cls(BASIC)

    @classmethod
    def size_based(cls, weights: Iterable[RationalLike]) -> "ValueFunction":
        table = tuple(as_fraction(w) for w in weights)
        if not table or table[0] != 0:
            raise ValueError("size table must start with 0 for the empty set")
        return cls(SIZE_BASED, size_weights=table)

    @classmethod
    def linear(cls, weights: Mapping[int, RationalLike]) -> "ValueFunction":
        return cls(
            LINEAR_WEIGHTS,
            node_weights={int(i): as_fraction(w) for i, w in weights.items()},
        )

    @classmethod
    def explicit(
        cls,
        values: Mapping[Iterable[int], RationalLike]
        | Iterable[tuple[Iterable[int], RationalLike]],
    ) -> "ValueFunction":
        pairs = values.items() if isinstance(values, Mapping) else values
        table: dict[Coalition, Fraction] = {}
        for members, value in pairs:
            key = frozenset(members)
            if key in table:
                raise ValueError(f"duplicate value for coalition {sorted(key)}")
            table[key] = as_fraction(value)
        if table.get(frozenset(), Fraction(0)) != 0:
            raise ValueError("the empty coalition must be worth 0")
        table.pop(frozenset(), None)
        return cls(EXPLICIT, table=table)

    def scaled(self, k: RationalLike) -> "ValueFunction":
        return replace(self, scale=self.scale * as_fraction(k))

    def of(self, members: Coalition) -> Fraction:
        """Value of an already-trimmed coalition."""
        if self.variant == BASIC:
            base = Fraction(len(members))
        elif self.variant == SIZE_BASED:
            base = self.size_weights[len(members)]
        elif self.variant == LINEAR_WEIGHTS:
            base = sum((self.node_weights[i] for i in members), Fraction(0))
        else:
            if not members:
                return Fraction(0)
            try:
                base = self.table[frozenset(members)]
            except KeyError:
                raise MissingCoalitionValueError(
                    f"no value assigned to trimmed coalition {sorted(members)}"
                ) from None
        return base if self.scale == 1 else self.scale * base


@dataclass(frozen=True)
class TreeGame:
    """A tree plus a value function over its trimmed coalitions."""

    tree: RootedTree
    f: ValueFunction

    def __post_init__(self) -> None:
        n = self.tree.n
        f = self.f
        if f.variant == SIZE_BASED and len(f.size_weights) != n + 1:
            raise ValueError(
                f"size table must have {n + 1} entries (sizes 0..{n}), "
                f"got {len(f.size_weights)}"
            )
        if f.variant == LINEAR_WEIGHTS:
            missing = [i for i in self.tree.node_ids if i not in f.node_weights]
            if missing:
                raise ValueError(f"no weight for nodes {missing}")
            extra = [i for i in f.node_weights if i not in self.tree]
            if extra:
                raise ValueError(f"weights given for unknown nodes {sorted(extra)}")
        if f.variant == EXPLICIT:
            for key in f.table:
                if not self.tree.is_trimmed(key):
                    raise ValueError(
                        f"explicit value for {sorted(key)}, which is not a "
                        "trimmed coalition of this tree"
                    )


def basic_game(tree: RootedTree) -> TreeGame:
    """The game where every connected member is worth one unit."""
    return TreeGame(tree, ValueFunction.basic())


def coalition_value(game: TreeGame, members: Iterable[int]) -> Fraction:
    """Worth of an arbitrary coalition: ``f`` applied to its trimmed part."""
    return game.f.of(game.tree.trim(members))


def scale_game(game: TreeGame, k: RationalLike) -> TreeGame:
    """A new game with every coalition value multiplied by ``k``."""
    return TreeGame(game.tree, game.f.scaled(k))


def coalition_values_by_mask(game: TreeGame) -> tuple[list[int], int]:
    """Coalition values for all ``2**n`` subsets, indexed by bitmask, as
    integer numerators over the lcm of their denominators.

    Bit ``r`` of the mask selects the node with canonical rank ``r`` (bit 0
    is the root). The highest set bit of a mask has no child in it, so the
    trimmed part of a mask is that of the mask without its highest bit, plus
    that bit when its parent was kept: O(1) per mask. ``f`` is evaluated
    once per trimmed coalition, in ascending mask order, and every other
    mask shares the value of its trimmed part. For exhaustive checks on
    small trees: past ``LIMIT_CEILING`` nodes it refuses to build anything.
    """
    tree = game.tree
    n = tree.n
    if n > LIMIT_CEILING:
        raise SizeLimitError(f"{n} agents exceed the ceiling {LIMIT_CEILING}")
    ids = tree._ids
    parents = tree._parents
    f = game.f
    kept = [0] * (1 << n)  # the trimmed part of each mask
    trimmed = {0: f.of(frozenset()), 1: f.of(frozenset([tree.root]))}
    kept[1] = 1
    for mask in range(3, 1 << n, 2):  # root absent => trimmed part is empty
        top = mask.bit_length() - 1
        rest = kept[mask ^ (1 << top)]
        if rest >> parents[top] & 1:
            kept[mask] = mask_kept = rest | 1 << top
            if mask_kept == mask:
                trimmed[mask] = f.of(
                    frozenset(ids[r] for r in range(n) if mask >> r & 1)
                )
        else:
            kept[mask] = rest
    numerators, denominator = common_numerators(list(trimmed.values()))
    by_mask = dict(zip(trimmed, numerators))
    return [by_mask[k] for k in kept], denominator
