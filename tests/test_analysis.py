"""Core membership, convexity, counting, and the verification driver."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from treeshare import (
    Allocation,
    SizeLimitError,
    TreeGame,
    ValueFunction,
    basic_game,
    build_tree,
    coalition_values_by_mask,
    count_trimmed_containing,
    is_convex,
    is_in_core,
    shapley_basic,
    shapley_bruteforce,
)
from treeshare import analysis
from treeshare.analysis import (
    ConvexityResult,
    binary_tree_count,
    complexity_table,
    is_complete_binary_tree,
    run_verification,
)
from treeshare.games import scale_game
from treeshare.tree import chain, complete_binary_tree, star
from treeshare.analysis import trimmed_work

from conftest import (
    F9_EDGES,
    random_tree_edges,
    seeded_trees,
    shuffle_ids,
    trimmed_by_enumeration,
)


# -- core ---------------------------------------------------------------------

def test_shapley_allocation_in_core_for_example(example_tree):
    result = is_in_core(basic_game(example_tree), shapley_basic(example_tree))
    assert result.in_core
    assert result.violator is None


def test_core_violation_reports_witness():
    tree = chain(2)
    result = is_in_core(basic_game(tree), Allocation({1: Fraction(0), 2: Fraction(2)}))
    assert not result.in_core
    assert result.violator == {1}
    assert result.deficit == 1


def test_core_single_node():
    tree = build_tree([], 1)
    assert is_in_core(basic_game(tree), Allocation({1: Fraction(1)})).in_core


def test_core_checks_total():
    tree = chain(2)
    with pytest.raises(ValueError, match="grand coalition"):
        is_in_core(basic_game(tree), Allocation({1: Fraction(1), 2: Fraction(2)}))


def test_core_checks_the_allocation_pays_exactly_the_tree_nodes():
    game = basic_game(chain(2))
    for numerators in ({1: 1, 99: 1}, {1: 1, 2: 1, 99: 0}):  # totals are right
        with pytest.raises(ValueError) as info:
            is_in_core(game, Allocation(numerators, 1))
        assert str(info.value) == (
            f"allocation pays nodes {list(numerators)}, not the tree's nodes"
        )
    with pytest.raises(ValueError, match=r"nodes '\[1, 2, 3, 4.*… \(387 characters\),"):
        is_in_core(game, Allocation(dict.fromkeys(range(1, 100), 0), 1))


def test_core_respects_limit():
    tree = chain(17)
    with pytest.raises(SizeLimitError):
        is_in_core(basic_game(tree), shapley_basic(tree))


CHAIN21 = chain(21)
EXHAUSTIVE_PAST_THE_CEILING = {
    "coalition values": lambda: coalition_values_by_mask(basic_game(CHAIN21)),
    "brute force": lambda: shapley_bruteforce(basic_game(CHAIN21), limit=30),
    "core": lambda: is_in_core(basic_game(CHAIN21), shapley_basic(CHAIN21), limit=30),
    "convexity": lambda: is_convex(basic_game(CHAIN21), limit=30),
    "verify brute force": lambda: run_verification(CHAIN21, limit_bruteforce=30),
    "verify core": lambda: run_verification(CHAIN21, limit_core=30),
    "verify convexity": lambda: run_verification(CHAIN21, limit_convex=30),
}


@pytest.mark.parametrize("call", EXHAUSTIVE_PAST_THE_CEILING.values(),
                         ids=EXHAUSTIVE_PAST_THE_CEILING)
def test_exhaustive_checks_refuse_past_the_ceiling_before_allocating(call):
    # A list of 2**21 entries alone would take 16 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="ceiling 20"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_core_witness_is_lexicographically_first():
    # Pay everything to node 3: both {1} and {1,2} are short; {1} comes first.
    tree = chain(3)
    bad = Allocation({1: Fraction(0), 2: Fraction(0), 3: Fraction(3)})
    result = is_in_core(basic_game(tree), bad)
    assert result.violator == {1}


# -- convexity -------------------------------------------------------------------

def test_basic_games_are_convex_small():
    rng = random.Random(101)
    for _ in range(8):
        tree = build_tree(random_tree_edges(rng, rng.randint(1, 8)), 1)
        assert is_convex(basic_game(tree)).convex


def test_convexity_counterexample_reported():
    game = TreeGame(chain(2), ValueFunction.explicit({(1,): 2, (1, 2): 1}))
    result = is_convex(game)
    assert not result.convex
    assert result.agent == 2
    assert result.smaller == frozenset()
    assert result.larger == {1}


def test_null_game_is_convex():
    game = TreeGame(chain(3), ValueFunction.explicit(
        {(1,): 0, (1, 2): 0, (1, 2, 3): 0}
    ))
    assert is_convex(game).convex


def test_convexity_respects_limit():
    with pytest.raises(SizeLimitError):
        is_convex(basic_game(chain(13)))
    assert is_convex(basic_game(chain(13)), limit=13).convex


# -- counting ----------------------------------------------------------------------

def test_count_closed_forms_for_chain_and_star():
    for n in (4, 5, 2 * 10**4):
        # Every node of the small trees; at scale a few, since each count is
        # a pass over the whole tree.
        line = chain(n)
        for i in line.node_ids if n < 10 else (1, 2, n // 2, n):
            assert count_trimmed_containing(line, i) == n - line.depth(i)
        assert trimmed_work(line) == n * (n + 1) // 2
        hub = star(n)
        assert count_trimmed_containing(hub, 1) == 2 ** (n - 1)
        for leaf in (2, n):
            assert count_trimmed_containing(hub, leaf) == 2 ** (n - 2)
        assert trimmed_work(hub) == 2 ** (n - 1) + (n - 1) * 2 ** (n - 2)


def test_trimmed_work_on_a_wide_star_is_fast():
    # CPU time, not wall time: time spent descheduled on a loaded host does
    # not count. The bound is a multiple of a reference loop of the same
    # shape, one doubling per child, timed on the same host: the product
    # rule takes 3-6 times as long, a division of the root's count per
    # child 14-22 times.
    n = 10**5
    hub = star(n)
    start = time.process_time()
    t = 1
    for _ in range(n - 1):
        t *= 2
    reference = time.process_time() - start
    start = time.process_time()
    work = trimmed_work(hub)
    assert time.process_time() - start < 10 * reference
    assert work == 2 ** (n - 1) + (n - 1) * 2 ** (n - 2)


def test_count_fixture_node(f9):
    assert count_trimmed_containing(f9, 8) == 20


def test_count_matches_enumeration_everywhere(f9):
    rng = random.Random(103)
    trees = [f9] + [
        build_tree(random_tree_edges(rng, rng.randint(1, 9)), 1) for _ in range(8)
    ]
    for tree in trees:
        stream_total = 0
        for i in tree.node_ids:
            count = count_trimmed_containing(tree, i)
            assert count == sum(1 for _ in tree.enumerate_trimmed_containing(i))
            stream_total += count
        # cross-check against the full power-set filter
        everything = trimmed_by_enumeration(
            [(c, p) for c, p in tree.edges()], tree.root
        )
        assert stream_total == sum(len(s) for s in everything)


@settings(max_examples=150, deadline=None)
@given(seeded_trees(max_nodes=12))
def test_count_equals_enumeration_on_random_trees(tree):
    for i in tree.node_ids:
        assert count_trimmed_containing(tree, i) == len(
            list(tree.enumerate_trimmed_containing(i))
        )
    assert trimmed_work(tree) == sum(len(s) for s in tree.enumerate_trimmed())


def test_trimmed_work_sums_the_counts_on_larger_trees():
    rng = random.Random(109)
    for n, cap in ((60, None), (300, 4), (2000, 50)):
        tree = build_tree(random_tree_edges(rng, n, cap), 1)
        assert trimmed_work(tree) == sum(
            count_trimmed_containing(tree, i) for i in tree.node_ids
        )


def test_counting_leaves_the_tree_as_built():
    # The tree keeps no count: counting on it leaves every slot the very
    # object that construction stored there.
    tree = build_tree(random_tree_edges(random.Random(113), 500, 6), 1)
    before = {slot: getattr(tree, slot) for slot in type(tree).__slots__}
    first = count_trimmed_containing(tree, 1)
    rows = list(complexity_table(tree))
    assert rows[0].tree_game_count == first
    assert rows[-1].tree_game_count == count_trimmed_containing(tree, 500)
    assert all(getattr(tree, slot) is value for slot, value in before.items())


def test_binary_tree_count_base_cases():
    assert binary_tree_count(0, 0) == 1
    assert binary_tree_count(1, 0) == 4
    assert binary_tree_count(1, 1) == 2
    assert binary_tree_count(2, 1) == 20
    with pytest.raises(ValueError):
        binary_tree_count(1, 2)
    with pytest.raises(ValueError):
        binary_tree_count(-1, 0)


def test_binary_tree_count_matches_dp_counts():
    for h in range(5):
        tree = complete_binary_tree(h)
        by_depth: dict[int, set[int]] = {}
        for i in tree.node_ids:
            by_depth.setdefault(tree.depth(i), set()).add(
                count_trimmed_containing(tree, i)
            )
        for d in range(h + 1):
            assert by_depth[d] == {binary_tree_count(h, d)}  # same at equal depth


def test_is_complete_binary_tree():
    assert is_complete_binary_tree(complete_binary_tree(0))
    assert is_complete_binary_tree(complete_binary_tree(3))
    assert not is_complete_binary_tree(chain(3))
    assert not is_complete_binary_tree(star(4))
    assert not is_complete_binary_tree(build_tree([(2, 1), (3, 1), (4, 2)], 1))


def test_complexity_table_chain_and_star():
    rows = complexity_table(chain(3))
    assert [(r.cfg_count, r.tree_game_count, r.basic_count) for r in rows] == [
        (4, 3, 3),
        (4, 2, 2),
        (4, 1, 1),
    ]
    star_rows = {r.node: r for r in complexity_table(star(4))}
    assert (
        star_rows[2].cfg_count,
        star_rows[2].tree_game_count,
        star_rows[2].basic_count,
    ) == (8, 4, 1)
    single = next(complexity_table(build_tree([], 1)))
    assert (single.cfg_count, single.tree_game_count, single.basic_count) == (1, 1, 1)


def test_complexity_counts_are_ordered():
    rng = random.Random(107)
    for _ in range(6):
        tree = build_tree(random_tree_edges(rng, rng.randint(1, 12)), 1)
        for row in complexity_table(tree):
            assert row.basic_count <= row.tree_game_count <= row.cfg_count


# -- verification driver --------------------------------------------------------------

def test_run_verification_passes_on_example(example_tree):
    report = run_verification(example_tree)
    assert report.passed
    assert all(c.status == "pass" for c in report.checks)


def test_run_verification_skips_over_limits():
    tree = chain(20)
    report = run_verification(tree)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["closed form vs brute force"] == "skipped"
    assert statuses["core membership"] == "skipped"
    assert statuses["convexity"] == "skipped"
    # cross-check of the two closed-form routes still runs at n=20
    assert statuses["closed form vs trimmed-coalition sum"] == "pass"
    assert report.passed


def test_run_verification_skips_general_on_bushy_trees():
    report = run_verification(star(30))
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["closed form vs trimmed-coalition sum"] == "skipped"


def test_run_verification_detects_corrupted_allocation(example_tree, monkeypatch):
    bad = Allocation(
        {1: Fraction(0), 3: Fraction(10, 3), 6: Fraction(1, 3), 7: Fraction(1, 3)}
    )
    monkeypatch.setattr(analysis, "shapley_basic", lambda tree: bad)
    report = run_verification(example_tree)
    assert not report.passed
    core = next(c for c in report.checks if c.name == "core membership")
    assert core.status == "fail"
    assert "coalition [1]" in core.detail


# -- witnesses pinned from the Fraction-based checks ---------------------------
#
# The exhaustive checks work on integer numerators over one denominator; the
# witnesses below were recorded from the earlier implementation, which
# compared Fractions, and must not change.

def _explicit_game(rng: random.Random, tree) -> TreeGame:
    return TreeGame(tree, ValueFunction.explicit({
        s: Fraction(rng.randint(-20, 40), rng.randint(1, 7))
        for s in tree.enumerate_trimmed() if s
    }))


def _uniform_tree(rng: random.Random, n: int):
    """A tree where node k picks a uniform parent among 1..k-1."""
    return [(k, rng.randint(1, k - 1)) for k in range(2, n + 1)]


def _dented_f9() -> TreeGame:
    """Values |S|**2 on f9, except 5 less on {1, 2, 4, 9}."""
    f9 = build_tree(F9_EDGES, 1)
    dent = frozenset({1, 2, 4, 9})
    return TreeGame(f9, ValueFunction.explicit({
        s: len(s) ** 2 - (5 if s == dent else 0) for s in f9.enumerate_trimmed() if s
    }))


def _convexity_cases():
    f9 = build_tree(F9_EDGES, 1)
    rng = random.Random(7)
    shuffled = build_tree(*shuffle_ids(rng, _uniform_tree(rng, 7), 1))
    yield "size_f9", TreeGame(
        f9, ValueFunction.size_based([0, 1, 3, 4, 4, 5, 9, 9, 10, 10])
    ), (3, [1], [1, 2])
    yield "explicit_shuffled", _explicit_game(rng, shuffled), (5, [], [13])
    yield "explicit_10", _explicit_game(
        rng, build_tree(_uniform_tree(rng, 10), 1)
    ), (3, [1], [1, 2])
    yield "linear_f9", TreeGame(f9, ValueFunction.linear(
        {i: -3 if i in (4, 6) else 2 for i in f9.node_ids}
    )), (4, [1], [1, 2])
    yield "scaled_negative", scale_game(
        basic_game(chain(5)), Fraction(-2, 3)
    ), (2, [], [1])
    yield "dented_f9", _dented_f9(), (5, [1, 2, 4, 9], [1, 2, 3, 4, 9])


@pytest.mark.parametrize(
    "game,expected",
    [case[1:] for case in _convexity_cases()],
    ids=[case[0] for case in _convexity_cases()],
)
def test_convexity_witness_is_unchanged(game, expected):
    result = is_convex(game)
    assert not result.convex
    assert (result.agent, sorted(result.smaller), sorted(result.larger)) == expected


def _convex_by_ordered_pairs(game: TreeGame) -> ConvexityResult:
    """The reference: every ordered pair of non-members tested, with each
    agent's gain at the smaller coalition kept in a table."""
    tree = game.tree
    n = tree.n
    values, _ = coalition_values_by_mask(game)
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


def test_convexity_matches_the_ordered_pair_reference():
    rng = random.Random(18)
    games = 320
    convex = 0
    for k in range(games):
        n = rng.randint(2, 8)
        edges, root = random_tree_edges(rng, n), 1
        if k % 2:
            edges, root = shuffle_ids(rng, edges, root)
        tree = build_tree(edges, root)
        if k % 4 < 2:
            f = ValueFunction.size_based([0] + [rng.randint(-3, 12) for _ in range(n)])
        else:
            f = ValueFunction.linear({
                i: Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for i in tree.node_ids
            })
        game = TreeGame(tree, f)
        expected = _convex_by_ordered_pairs(game)
        assert is_convex(game) == expected
        convex += expected.convex
    assert convex < games // 4  # mostly witnesses, not passes


def _core_cases():
    f9 = build_tree(F9_EDGES, 1)
    leaves = {i: Fraction(9, 4) if i in (5, 6, 7, 8) else 0 for i in f9.node_ids}
    yield "leaves_f9", basic_game(f9), Allocation(leaves), ([1], 1)
    rng = random.Random(11)
    expected = [
        ([12, 13, 19, 24, 39, 58, 79], Fraction(53281, 5040)),
        ([2], Fraction(238751, 176400)),
        ([5, 14, 31], Fraction(1877, 1260)),
    ]
    for k, witness in enumerate(expected):
        tree = build_tree(*shuffle_ids(rng, _uniform_tree(rng, 8), 1))
        game = _explicit_game(rng, tree)
        yield f"explicit_shapley{k}", game, shapley_bruteforce(game), witness
    star_pay = {1: 0, 2: Fraction(3, 2), 3: Fraction(3, 2), 4: 1, 5: 1, 6: 1}
    yield "star_root_unpaid", basic_game(star(6)), Allocation(star_pay), ([1], 1)
    dented = _dented_f9()
    moved = dict(shapley_bruteforce(dented).rewards)
    moved[9] -= 4
    moved[5] += 4
    yield "dented_f9_moved", dented, Allocation(moved), ([9], Fraction(44, 105))


@pytest.mark.parametrize(
    "game,allocation,expected",
    [case[1:] for case in _core_cases()],
    ids=[case[0] for case in _core_cases()],
)
def test_core_witness_is_unchanged(game, allocation, expected):
    result = is_in_core(game, allocation)
    assert not result.in_core
    assert (sorted(result.violator), result.deficit) == expected
