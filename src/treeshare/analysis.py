"""Stability checks and counting instrumentation for tree games.

Core membership and convexity are verified exhaustively on small trees; the
counting functions report, per node, how many coalitions each Shapley route
has to look at, which is what makes the dedicated routes worthwhile.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .allocation import Allocation, decimal_text, excerpt
from .games import TreeGame, basic_game, coalition_values_by_mask
from .shapley import SizeLimitError, shapley_basic, shapley_bruteforce, shapley_general
from .tree import Coalition, RootedTree


class CoreCheckResult(NamedTuple):
    """Outcome of an exhaustive core membership check."""

    in_core: bool
    violator: Coalition | None = None
    deficit: Fraction | None = None


def is_in_core(
    game: TreeGame, allocation: Allocation, limit: int = 16
) -> CoreCheckResult:
    """Check that no coalition is owed more than the allocation pays it.

    Exhaustive over all ``2**n`` coalitions. The reported violator, if any,
    is the lexicographically smallest one (by sorted member list), with the
    amount by which it is short-changed. The allocation must pay exactly
    the tree's nodes and distribute the grand coalition's value.
    """
    tree = game.tree
    n = tree.n
    if n > limit:
        raise SizeLimitError(f"core check over {n} agents exceeds limit {limit}")
    if allocation.numerators.keys() != set(tree.node_ids):
        raise ValueError(f"allocation pays nodes {excerpt(list(allocation.numerators))}"
                         ", not the tree's nodes")
    grand = game.f.of(tree.trim(tree.node_ids))
    if allocation.total != grand:
        raise ValueError(
            f"allocation total {allocation.total} does not distribute the "
            f"grand coalition value {grand}"
        )
    values, value_den = coalition_values_by_mask(game)
    # Payoffs and values as integers over one common denominator.
    denominator = lcm(value_den, allocation.denominator)
    pay_scale = denominator // allocation.denominator
    value_scale = denominator // value_den
    ids = tree._ids
    payoff = [allocation.numerators[ids[r]] * pay_scale for r in range(n)]

    paysum = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        paysum[mask] = paysum[mask ^ low] + payoff[low.bit_length() - 1]

    def members(mask: int) -> list[int]:
        return sorted(ids[r] for r in range(n) if mask >> r & 1)

    first = min(
        (m for m in range(1, 1 << n) if paysum[m] < values[m] * value_scale),
        key=members, default=None,
    )
    if first is None:
        return CoreCheckResult(in_core=True)
    return CoreCheckResult(
        in_core=False,
        violator=frozenset(members(first)),
        deficit=Fraction(values[first] * value_scale - paysum[first], denominator),
    )


class ConvexityResult(NamedTuple):
    """Outcome of a convexity check, with a counterexample when it fails."""

    convex: bool
    agent: int | None = None
    smaller: Coalition | None = None
    larger: Coalition | None = None


def is_convex(game: TreeGame, limit: int = 12) -> ConvexityResult:
    """Check that marginal contributions never shrink as coalitions grow.

    It suffices to compare each coalition against its one-element extensions;
    monotonicity along chains then covers every nested pair. That test is
    symmetric in its two agents, so each pair is tested once; the first
    violation (coalitions in ascending mask order, then pairs in canonical
    order) is returned as a witness, with the pair's later agent as ``agent``.
    """
    tree = game.tree
    n = tree.n
    if n > limit:
        raise SizeLimitError(f"convexity check over {n} agents exceeds limit {limit}")
    values, _ = coalition_values_by_mask(game)  # one positive denominator
    ids = tree._ids
    bits = [1 << r for r in range(n)]
    for mask in range(1 << n):
        free = [r for r in range(n) if not mask & bits[r]]
        base = values[mask]
        for k, j in enumerate(free):
            bigger = mask | bits[j]
            gain = values[bigger] - base  # what j adds to S
            for i in free[k + 1:]:  # j must add no less to S+i
                if values[bigger | bits[i]] - values[mask | bits[i]] < gain:
                    smaller = frozenset(ids[r] for r in range(n) if mask & bits[r])
                    return ConvexityResult(convex=False, agent=ids[i], smaller=smaller,
                                           larger=smaller | {ids[j]})
    return ConvexityResult(convex=True)


def count_trimmed_containing(tree: RootedTree, i: int) -> int:
    """How many trimmed coalitions contain node ``i``.

    ``t(r)`` counts the parent-closed sets of r's subtree that contain r:
    r and, at each child ``c``, nothing or one such set of c's subtree, so
    ``t(r) = prod(1 + t(c))``. Here i and its ancestors are forced in, so a
    child on i's root path gives ``t(c)`` choices, not ``1 + t(c)``; one
    bottom-up pass, and ``t(root)`` is the count.
    ``complexity_table`` counts for every node at once.
    """
    parents = tree._parents
    r = tree._rank_of(i)
    on_path = bytearray(tree.n)
    while r > 0:
        on_path[r] = 1
        r = parents[r]
    t = [1] * tree.n
    for r in range(tree.n - 1, 0, -1):
        t[parents[r]] *= t[r] + 1 - on_path[r]
    return t[0]


def trimmed_work(tree: RootedTree) -> int:
    """``count_trimmed_containing`` summed over every node: the total size
    of the nonempty trimmed coalitions, which is the work of the
    per-node trimmed-coalition sum.

    One bottom-up pass: ``t(r)`` (see ``count_trimmed_containing``) and
    ``s(r)``, the sum of the sizes of those sets, start from the set
    ``{r}``, and each child folds in by the product rule.
    """
    parents = tree._parents
    t, s = [1] * tree.n, [1] * tree.n
    for r in range(tree.n - 1, 0, -1):
        p = parents[r]
        s[p] = s[p] * (1 + t[r]) + t[p] * s[r]
        t[p] *= 1 + t[r]
    return s[0]


def binary_tree_count(h: int, d: int) -> int:
    """Trimmed coalitions containing a depth-``d`` node of a perfect binary
    tree of height ``h``, by the closed-form recurrence.

    Uses the sequence ``y_0 = 0`` and ``y_j = (y_{j-1} + 1)**2``; ``y_j``
    counts the root-containing parent-closed sets of a perfect subtree of
    height ``j - 1``.
    """
    if h < 0 or d < 0 or d > h:
        raise ValueError(f"need 0 <= d <= h, got h={h}, d={d}")
    y = [0] * (h + 1)
    for j in range(1, h + 1):
        y[j] = (y[j - 1] + 1) ** 2
    result = (y[h - d] + 1) ** 2
    for j in range(h - d + 1, h + 1):
        result *= y[j] + 1
    return result


def is_complete_binary_tree(tree: RootedTree) -> bool:
    """True for a perfect binary tree: every internal node has two children
    and every leaf sits at the bottom level. A tree of height ``h`` with at
    most two children per node has at most ``2**(h+1) - 1`` nodes, and only
    the perfect one has that many."""
    widest = max(Counter(tree._parents[1:]).values(), default=0)
    return tree.n == 2 ** (tree.height + 1) - 1 and widest <= 2


class ComplexityRow(NamedTuple):
    """Per-node coalition counts for the three Shapley routes."""

    node: int
    cfg_count: int
    tree_game_count: int
    basic_count: int


def complexity_table(tree: RootedTree) -> Iterator[ComplexityRow]:
    """Counts per node, in ascending id order: all coalitions without the
    node (generic route), trimmed coalitions containing it (tree-game
    route), and subtree levels (basic route).

    One bottom-up pass fills ``t`` (see ``count_trimmed_containing``) and
    the subtree heights. Then ``count(root) = t(root)``, and a child ``c``
    splits its parent's count into the ``t(c)`` choices that hold it and the
    one that does not: ``count(c) = count(parent) * t(c) / (1 + t(c))``,
    parents first.
    """
    cfg = 2 ** (tree.n - 1)
    parents = tree._parents
    heights, counts = [0] * tree.n, [1] * tree.n
    for r in range(tree.n - 1, 0, -1):
        p = parents[r]
        counts[p] *= 1 + counts[r]
        heights[p] = max(heights[p], heights[r] + 1)
    for r in range(1, tree.n):
        counts[r] = counts[parents[r]] * counts[r] // (1 + counts[r])
    for i in tree.node_ids:
        r = tree._rank_of(i)
        yield ComplexityRow(i, cfg, counts[r], heights[r] + 1)


# -- verification driver -------------------------------------------------

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# enumerate_trimmed_containing work allowed for the closed-form cross-check
# before it is skipped; keeps verify responsive on bushy trees.
GENERAL_CHECK_BUDGET = 200_000


class CheckOutcome(NamedTuple):
    name: str
    status: str
    detail: str = ""


class VerificationReport(NamedTuple):
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)


def run_verification(
    tree: RootedTree,
    limit_bruteforce: int = 10,
    limit_core: int = 16,
    limit_convex: int = 12,
) -> VerificationReport:
    """Cross-check every computation route on the basic game of one tree."""
    game = basic_game(tree)
    n = tree.n
    closed_form = shapley_basic(tree)
    checks: list[CheckOutcome] = []

    def check(name: str, skip: str | None, failure: Callable[[], str | None]) -> None:
        """Skip ``name`` for the reason ``skip``, if there is one; otherwise
        ``failure()`` is the detail of a failure, or None for a pass."""
        if skip is not None:
            checks.append(CheckOutcome(name, SKIPPED, skip))
        elif (detail := failure()) is None:
            checks.append(CheckOutcome(name, PASS))
        else:
            checks.append(CheckOutcome(name, FAIL, detail))

    def over(what: str, limit: int) -> str | None:
        return f"n={n} exceeds {what} limit {limit}" if n > limit else None

    def differs(allocation: Allocation) -> str | None:
        return None if allocation == closed_form else ""

    def core() -> str | None:
        result = is_in_core(game, closed_form, limit=limit_core)
        if not result.in_core:
            return f"coalition {sorted(result.violator)} short by {result.deficit}"

    def convexity() -> str | None:
        result = is_convex(game, limit=limit_convex)
        if not result.convex:
            return (f"agent {result.agent} loses by joining "
                    f"{sorted(result.larger)} vs {sorted(result.smaller)}")

    check("closed form vs brute force", over("brute-force", limit_bruteforce),
          lambda: differs(shapley_bruteforce(game, limit=limit_bruteforce)))
    work = trimmed_work(tree)
    check("closed form vs trimmed-coalition sum",
          f"{decimal_text(work)} trimmed coalitions exceed budget "
          f"{GENERAL_CHECK_BUDGET}" if work > GENERAL_CHECK_BUDGET else None,
          lambda: differs(shapley_general(game)))
    checks.append(CheckOutcome("efficiency (rewards sum to n)",
                               PASS if closed_form.total == n else FAIL,
                               f"total={closed_form.total}"))
    check("core membership", over("core", limit_core), core)
    check("convexity", over("convexity", limit_convex), convexity)
    return VerificationReport(tuple(checks))
