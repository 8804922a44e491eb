"""Coalition values induced by a referral tree.

A tree game pairs a tree with a value function ``f`` defined on trimmed
coalitions. The worth of an arbitrary coalition is ``f`` applied to its
trimmed part: members cut off from the root contribute nothing, because they
never actually joined.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational

from .allocation import as_fraction, common_numerators, excerpt
from .tree import Coalition, RootedTree, _check_id

RationalLike = Rational | int | str


# The exhaustive checks hold lists of 2**n entries, so a larger limit could
# ask for more memory than there is.
LIMIT_CEILING = 20


def _listed(members: Iterable) -> str:
    """A set's members for a message, sorted where they compare and else by
    their text, so that no hash seed orders them; cut by ``excerpt``."""
    try:
        return excerpt(sorted(members))
    except TypeError:  # (1, "a"): members of mixed types
        return excerpt(sorted(members, key=excerpt))


class SizeLimitError(ValueError):
    """An exhaustive computation was asked to exceed its configured limit."""


class MissingCoalitionValueError(LookupError):
    """An explicit value function was queried on a set it does not cover."""


class ValueFunction:
    """A value assignment over trimmed coalitions: one type per class.

    Build one with a constructor, which is the type itself: each coerces
    and checks only its own data when built, and checks that data against
    the tree when a ``TreeGame`` is made. Like a ``RootedTree``, it never
    changes after construction.

    * ``basic()`` -- one unit per connected member (value = size). Carries
      nothing. ``shapley_value`` takes the O(n) closed form, at any scale.
    * ``size_based(weights)`` -- ``weights[|S|]``; the table must start with
      0 and, in a game, hold one entry per size ``0..n``.
    * ``linear(weights)`` -- the members' node weights summed, keyed by
      positive int ids; a game needs a weight for every node and no other.
    * ``explicit(values)`` -- a literal table keyed by trimmed sets, with no
      duplicate keys and 0 for the empty set; in a game every key must be a
      trimmed coalition of the tree. Querying an uncovered nonempty set is
      an error, never a silent 0.

    ``shapley_value`` takes that closed form for ``linear``, shares weighted,
    and for the last two one ``f`` call per trimmed coalition. The empty set
    is worth 0 in every class. ``scale`` multiplies every value, composes
    under repeated scaling and keeps the type.
    """

    def __init__(self) -> None:
        if type(self) is ValueFunction:
            raise TypeError("build a ValueFunction with one of its constructors")
        self.scale = Fraction(1)

    def scaled(self, k: RationalLike) -> "ValueFunction":
        """The same type and data, checked once already, at ``scale * k``."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), scale=self.scale * as_fraction(k))
        return twin

    def of(self, members: Coalition) -> Fraction:
        """Value of an already-trimmed coalition."""
        if not members:
            return Fraction(0)
        base = self._value(members)
        return base if self.scale == 1 else self.scale * base

    def _check_fits(self, tree: RootedTree) -> None:
        """Raise ``ValueError`` if this function's data does not fit ``tree``."""


class _Basic(ValueFunction):
    def _value(self, members: Coalition) -> Fraction:
        return Fraction(len(members))


class _SizeBased(ValueFunction):
    def __init__(self, weights: Iterable[RationalLike]) -> None:
        super().__init__()
        self.weights = tuple(map(as_fraction, weights))
        if not self.weights or self.weights[0] != 0:
            raise ValueError("size table must start with 0 for the empty set")

    def _value(self, members: Coalition) -> Fraction:
        return self.weights[len(members)]

    def _check_fits(self, tree: RootedTree) -> None:
        if len(self.weights) != tree.n + 1:
            raise ValueError(
                f"size table must have {tree.n + 1} entries (sizes 0..{tree.n}), "
                f"got {len(self.weights)}"
            )


class _Linear(ValueFunction):
    def __init__(self, weights: Mapping[int, RationalLike]) -> None:
        super().__init__()
        for i in weights:
            _check_id(i)
        self.weights = {i: as_fraction(w) for i, w in weights.items()}

    def _value(self, members: Coalition) -> Fraction:
        return sum((self.weights[i] for i in members), Fraction(0))

    def _check_fits(self, tree: RootedTree) -> None:
        if missing := [i for i in tree.node_ids if i not in self.weights]:
            raise ValueError(f"no weight for nodes {_listed(missing)}")
        if extra := [i for i in self.weights if i not in tree]:
            raise ValueError(f"weights given for unknown nodes {_listed(extra)}")


class _Explicit(ValueFunction):
    def __init__(self, values: Mapping | Iterable[tuple]) -> None:
        super().__init__()
        pairs = values.items() if isinstance(values, Mapping) else values
        self.table: dict[Coalition, Fraction] = {}
        for members, value in pairs:
            key = frozenset(members)
            if key in self.table:
                raise ValueError(f"duplicate value for coalition {_listed(key)}")
            self.table[key] = as_fraction(value)
        if self.table.pop(frozenset(), 0) != 0:
            raise ValueError("the empty coalition must be worth 0")

    def _value(self, members: Coalition) -> Fraction:
        try:
            return self.table[frozenset(members)]
        except KeyError:
            raise MissingCoalitionValueError(
                f"no value assigned to trimmed coalition {_listed(members)}"
            ) from None

    def _check_fits(self, tree: RootedTree) -> None:
        for key in self.table:
            if not tree.is_trimmed(key):
                raise ValueError(
                    f"explicit value for {_listed(key)}, which is not a "
                    "trimmed coalition of this tree"
                )


ValueFunction.basic = _Basic
ValueFunction.size_based = _SizeBased
ValueFunction.linear = _Linear
ValueFunction.explicit = _Explicit


class TreeGame:
    """A tree plus a value function over its trimmed coalitions, checked to
    fit each other when built; neither changes afterwards."""

    def __init__(self, tree: RootedTree, f: ValueFunction) -> None:
        f._check_fits(tree)
        self.tree = tree
        self.f = f


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
