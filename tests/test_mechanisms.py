"""Payout mechanisms: worked-example values, budgets, and equivalences."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeshare import (
    EqualShares,
    Geometric,
    ReferAFriend,
    allocate,
    build_tree,
    compare,
    shapley_basic,
)
from treeshare.allocation import Allocation
from treeshare.io import JoinEvent, replay_events
from treeshare.mechanisms import (
    allocate_geometric,
    allocate_refer_a_friend,
    allocate_shapley_mechanism,
)
from treeshare.shapley import root_adjust
from treeshare.tree import chain, star

from conftest import (
    children,
    random_tree_edges,
    root_path,
    shuffle_ids,
    subtree_height,
    subtree_level,
)


# -- refer-a-friend ------------------------------------------------------------

def test_refer_a_friend_example(example_tree):
    spec = ReferAFriend(1000)
    allocation = allocate_refer_a_friend(example_tree, spec)
    assert allocation.rewards == {1: 500, 3: 1500, 6: 500, 7: 500}


def test_refer_a_friend_degenerate_cases():
    spec = ReferAFriend(1000)
    single = allocate_refer_a_friend(build_tree([], 1), spec)
    assert single.rewards == {1: 0}
    pair = allocate_refer_a_friend(chain(2), spec)
    assert pair.rewards == {1: 500, 2: 500}


def test_refer_a_friend_uneven_split():
    spec = ReferAFriend(100, referrer_share="3/4")
    allocation = allocate_refer_a_friend(chain(2), spec)
    assert allocation.rewards == {1: 75, 2: 25}


def test_refer_a_friend_budget_is_unit_per_referral():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 40)
        tree = build_tree(random_tree_edges(rng, n), 1)
        spec = ReferAFriend(Fraction(7, 3))
        assert allocate_refer_a_friend(tree, spec).total == Fraction(7, 3) * (n - 1)


# -- geometric -----------------------------------------------------------------

def test_geometric_example_normalized(example_tree):
    spec = Geometric(1000)
    shares = allocate_geometric(example_tree, Geometric(1, spec.ratio, normalize=False))
    assert shares.rewards == {1: 1, 3: 1, 6: 0, 7: 0}
    allocation = allocate_geometric(example_tree, spec)
    assert allocation.rewards == {1: 1500, 3: 1500, 6: 0, 7: 0}


def test_geometric_unnormalized_chain():
    spec = Geometric(1, normalize=False)
    allocation = allocate_geometric(chain(3), spec)
    assert allocation.rewards == {
        1: Fraction(3, 4),
        2: Fraction(1, 2),
        3: 0,
    }


def test_geometric_single_node_is_all_zero():
    for normalize in (True, False):
        spec = Geometric(1000, normalize=normalize)
        assert allocate_geometric(build_tree([], 1), spec).rewards == {1: 0}


def test_geometric_budget_and_leaf_zeroes():
    rng = random.Random(79)
    for _ in range(10):
        n = rng.randint(2, 40)
        tree = build_tree(random_tree_edges(rng, n), 1)
        spec = Geometric(10, ratio="2/5")
        allocation = allocate_geometric(tree, spec)
        assert allocation.total == 10 * (n - 1)
        for i in tree.node_ids:
            if not children(tree, i):
                assert allocation[i] == 0


def test_geometric_share_bounds():
    rng = random.Random(83)
    ratio = Fraction(1, 2)
    for _ in range(10):
        tree = build_tree(random_tree_edges(rng, rng.randint(1, 30)), 1)
        shares = allocate_geometric(tree, Geometric(1, ratio, normalize=False))
        for i in tree.node_ids:
            descendants = set().union(*(
                subtree_level(tree, i, j)
                for j in range(1, subtree_height(tree, i) + 1)
            ))
            assert shares[i] <= len(descendants) * ratio
            assert (shares[i] == 0) == (not descendants)
            # the bound is tight exactly when all descendants are children
            if descendants and descendants == set(children(tree, i)):
                assert shares[i] == len(descendants) * ratio


def test_geometric_unnormalized_is_the_decayed_sum_over_descendants():
    rng = random.Random(89)
    unit = Fraction(5, 3)
    for k in range(30):
        edges = random_tree_edges(rng, rng.randint(1, 40), rng.choice([None, 2, 5]))
        root = 1
        if k % 2:  # canonical order by depth, not by id
            edges, root = shuffle_ids(rng, edges, root)
        ratio = Fraction(rng.randint(1, 6), 7)
        parent = dict(edges)
        expected = {i: Fraction(0) for i in {root, *parent}}
        for j in parent:  # ratio**distance to every ancestor of j
            i, weight = j, unit
            while i != root:
                i, weight = parent[i], weight * ratio
                expected[i] += weight
        spec = Geometric(unit, ratio, normalize=False)
        assert allocate_geometric(build_tree(edges, root), spec).rewards == expected


def test_geometric_ratio_validation():
    with pytest.raises(ValueError, match="strictly between"):
        Geometric(1, ratio=1)
    with pytest.raises(ValueError, match="strictly between"):
        Geometric(1, ratio=0)


# -- shapley mechanism -----------------------------------------------------------

def test_shapley_mechanism_example(example_tree):
    spec = EqualShares(1000)
    allocation = allocate_shapley_mechanism(example_tree, spec)
    assert allocation.rewards == {
        1: Fraction(7000, 6),
        3: Fraction(7000, 6),
        6: Fraction(1000, 3),
        7: Fraction(1000, 3),
    }
    assert allocation.display() == {1: 1167, 3: 1167, 6: 333, 7: 333}


def test_shapley_mechanism_no_adjust_single_node():
    spec = EqualShares(1, root_adjust=False)
    assert allocate_shapley_mechanism(build_tree([], 1), spec).rewards == {1: 1}


def _per_join_equal_shares(tree, unit: Fraction, root_adjust: bool) -> dict:
    # Forward construction: each non-root member hands 1/(depth+1) units to
    # every node on its root path, itself included.
    expected = {i: Fraction(0) for i in tree.node_ids}
    expected[tree.root] += unit  # the root's own membership
    for j in tree.node_ids:
        if j == tree.root:
            continue
        share = unit / (tree.depth(j) + 1)
        expected[j] += share
        for a in root_path(tree, j) - {j}:
            expected[a] += share
    if root_adjust:
        expected[tree.root] -= unit
    return expected


def test_shapley_mechanism_equals_per_join_equal_shares():
    # Exhaustive over every shape up to 8 nodes, then shuffled-id random
    # trees up to 200 nodes.
    from conftest import all_tree_edge_lists

    cases = [
        build_tree(edges, 1)
        for n in range(1, 9)
        for edges in all_tree_edge_lists(n)
    ]
    rng = random.Random(89)
    for _ in range(6):
        edges, root = shuffle_ids(
            rng, random_tree_edges(rng, rng.randint(2, 200)), 1
        )
        cases.append(build_tree(edges, root))
    for tree in cases:
        unit = Fraction(rng.randint(1, 2000))
        spec = EqualShares(unit)
        assert allocate_shapley_mechanism(tree, spec).rewards == (
            _per_join_equal_shares(tree, unit, root_adjust=True)
        )


def test_shapley_mechanism_totals():
    rng = random.Random(97)
    tree = build_tree(random_tree_edges(rng, 12), 1)
    on = allocate_shapley_mechanism(tree, EqualShares(5))
    off = allocate_shapley_mechanism(tree, EqualShares(5, root_adjust=False))
    assert on.total == 5 * (tree.n - 1)
    assert off.total == 5 * tree.n
    assert off.rewards == shapley_basic(tree).scaled(5).rewards


def test_shapley_mechanism_builds_two_allocations_the_size_of_the_tree(monkeypatch):
    rng = random.Random(101)
    tree = build_tree(*shuffle_ids(rng, random_tree_edges(rng, 300), 1))
    sizes = []
    init, owning = Allocation.__init__, Allocation.owning.__func__

    def counted_init(self, *args):
        init(self, *args)
        sizes.append(len(self.numerators))

    def counted_owning(cls, *args):
        allocation = owning(cls, *args)
        sizes.append(len(allocation.numerators))
        return allocation

    monkeypatch.setattr(Allocation, "__init__", counted_init)
    monkeypatch.setattr(Allocation, "owning", classmethod(counted_owning))
    allocate_shapley_mechanism(tree, EqualShares(Fraction(7, 3)))
    assert sizes.count(tree.n) <= 2


@pytest.mark.parametrize("unit", [1000, Fraction(7, 3), Fraction(-5, 2), 0])
def test_shapley_mechanism_matches_the_stream_to_the_integer(unit):
    rng = random.Random(103)
    for n in (1, 2, 9, 60, 300):
        edges, root = shuffle_ids(rng, random_tree_edges(rng, n), 1)
        tree = build_tree(edges, root)
        events = [JoinEvent(seq, c, p) for seq, (c, p) in enumerate(edges, 1)]
        streamed = replay_events(events, root, root_adjust=True).allocation.scaled(unit)
        for allocation in (
            allocate_shapley_mechanism(tree, EqualShares(unit)),
            root_adjust(shapley_basic(tree).scaled(unit), root, unit),
        ):
            assert allocation.denominator == streamed.denominator
            assert allocation.numerators == streamed.numerators


# -- comparison -------------------------------------------------------------------

TABLE_SPECS = [
    ReferAFriend(1000),
    Geometric(1000),
    EqualShares(1000),
]


def test_compare_reproduces_reward_table(example_tree):
    report = compare(example_tree, TABLE_SPECS)
    displays = [allocation.display() for allocation in report.allocations()]
    assert displays == [
        {1: 500, 3: 1500, 6: 500, 7: 500},
        {1: 1500, 3: 1500, 6: 0, 7: 0},
        {1: 1167, 3: 1167, 6: 333, 7: 333},
    ]
    assert report.n == 4
    assert report.height == 2


def test_compare_requires_specs(example_tree):
    with pytest.raises(ValueError, match="at least one"):
        compare(example_tree, [])


def test_compare_is_deterministic(example_tree):
    spec = EqualShares(1000)
    report = compare(example_tree, [spec, spec])
    first, second = report.allocations()
    assert first.rewards == second.rewards


def test_allocate_dispatches_on_the_spec_type(example_tree):
    for spec, allocator in [
        (ReferAFriend(1000), allocate_refer_a_friend),
        (Geometric(1000), allocate_geometric),
        (EqualShares(1000), allocate_shapley_mechanism),
    ]:
        assert allocate(example_tree, spec) == allocator(example_tree, spec)


def test_specs_carry_only_their_own_parameters():
    assert set(vars(ReferAFriend())) == {"unit_value", "referrer_share"}
    assert set(vars(Geometric())) == {"unit_value", "ratio", "normalize"}
    assert set(vars(EqualShares())) == {"unit_value", "root_adjust"}
    assert [spec.kind for spec in (ReferAFriend, Geometric, EqualShares)] == [
        "refer_a_friend", "geometric", "shapley"]


def test_spec_parameters_are_coerced_and_validated():
    spec = Geometric("5/2", ratio="0.25")
    assert (spec.unit_value, spec.ratio) == (Fraction(5, 2), Fraction(1, 4))
    assert isinstance(EqualShares(3).unit_value, Fraction)
    with pytest.raises(TypeError, match="float"):
        ReferAFriend(1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ReferAFriend(1, referrer_share="3/2")


def test_star_payouts_differ_by_mechanism():
    tree = star(5)
    report = compare(tree, TABLE_SPECS)
    raf, geo, shap = report.allocations()
    assert raf[1] == 4 * 500  # referrer share for each of 4 leaves
    assert geo[1] == 4000  # whole pool, leaves get nothing
    assert shap[1] == 1000 * (Fraction(1) + 4 * Fraction(1, 2) - 1)
    assert all(shap[leaf] == 500 for leaf in (2, 3, 4, 5))
