"""Stability checks and counting instrumentation for tree games.

Core membership and convexity are verified exhaustively on small trees; the
counting functions report, per node, how many coalitions each Shapley route
has to look at, which is what makes the dedicated routes worthwhile.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .allocation import Allocation, decimal_text
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
    amount by which it is short-changed.
    """
    tree = game.tree
    n = tree.n
    if n > limit:
        raise SizeLimitError(f"core check over {n} agents exceeds limit {limit}")
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
    monotonicity along chains then covers every nested pair. The first
    violation found (coalitions in ascending mask order, then agents in
    canonical order) is returned as a witness.
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
        gain = {i: values[mask | bits[i]] - base for i in free}
        for j in free:
            bigger = mask | bits[j]
            above = values[bigger]
            for i in free:
                if i != j and gain[i] > values[bigger | bits[i]] - above:
                    members = [ids[r] for r in range(n) if mask & bits[r]]
                    return ConvexityResult(
                        convex=False,
                        agent=ids[i],
                        smaller=frozenset(members),
                        larger=frozenset(members) | {ids[j]},
                    )
    return ConvexityResult(convex=True)


def count_trimmed_containing(tree: RootedTree, i: int) -> int:
    """How many trimmed coalitions contain node ``i``.

    A lookup: the tree computes every node's count in two linear passes on
    first use (see ``RootedTree._trimmed_counts``). Forcing ``i`` and its
    ancestors in leaves a free choice of ``1 + t(c)`` at each child ``c``
    hanging off the forced path, where ``t(c)`` counts the parent-closed
    sets of c's subtree through ``c``.
    """
    return tree._trimmed_counts()[tree._rank_of(i)]


def trimmed_work(tree: RootedTree) -> int:
    """``count_trimmed_containing`` summed over every node: the total size
    of the nonempty trimmed coalitions, which is the work of the
    per-node trimmed-coalition sum.

    Two bottom-up passes that keep no per-node count, so memory stays near
    the size of the tree. ``t(r)`` counts the parent-closed sets of r's
    subtree that contain r (see ``RootedTree._subtree_counts``) and ``s(r)``
    sums their sizes, so ``s(r) = t(r) + sum(s(c) * t(r) / (1 + t(c)))``.
    """
    parents = tree._parents
    t = tree._subtree_counts()
    s = t[:]
    for r in range(tree.n - 1, 0, -1):
        p = parents[r]
        s[p] += s[r] * (t[p] // (1 + t[r]))
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


def complexity_table(tree: RootedTree) -> list[ComplexityRow]:
    """Counts per node: all coalitions without the node (generic route),
    trimmed coalitions containing it (tree-game route), and subtree levels
    (basic route)."""
    cfg = 2 ** (tree.n - 1)
    heights = tree._subtree_heights()
    return [
        ComplexityRow(
            node=i,
            cfg_count=cfg,
            tree_game_count=count_trimmed_containing(tree, i),
            basic_count=heights[tree._rank[i]] + 1,
        )
        for i in tree.node_ids
    ]


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
