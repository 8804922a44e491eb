"""Tree construction, navigation, trimming, and enumeration."""

from __future__ import annotations

import random
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshare import TreeError, TreeGame, UnknownNodeError, ValueFunction, build_tree
from treeshare import tree as tree_module
from treeshare.analysis import complexity_table
from treeshare.tree import chain, complete_binary_tree, star

from conftest import (
    F9_EDGES,
    adjacent,
    all_subsets,
    children,
    random_tree_edges,
    root_path,
    shuffle_ids,
    trim_by_definition,
    trimmed_by_enumeration,
)


# -- construction ----------------------------------------------------------

def test_example_tree_builds(example_tree):
    assert example_tree.n == 4
    assert example_tree.height == 2
    assert example_tree.root == 1
    assert children(example_tree, 3) == (6, 7)
    assert example_tree.parent(1) is None


def test_single_node_tree():
    t = build_tree([], 1)
    assert t.n == 1
    assert t.height == 0
    assert t.node_ids == (1,)


def test_two_cycle_is_rejected_as_cycle():
    with pytest.raises(TreeError, match="cycle"):
        build_tree([(2, 1), (1, 2)], 1)


def test_root_with_parent_rejected():
    with pytest.raises(TreeError, match="root 1 has a parent"):
        build_tree([(1, 2)], 1)


@pytest.mark.parametrize("edges,root,message", [
    # A root with a parent is named before any other defect.
    ([(10, 11), (11, 12), (2, 3), (4, 10)], 10, "root 10 has a parent"),
    ([(5, 6), (6, 5), (2, 3), (7, 5)], 5, "cycle detected involving node 5"),
    ([(1, 2), (3, 4), (4, 3)], 1, "root 1 has a parent"),
    # Otherwise the walks from the children, in ascending id order, meet them.
    ([(2, 1), (3, 4), (4, 3), (5, 6)], 1, "cycle detected involving node 3"),
    ([(2, 1), (3, 4), (5, 6), (6, 5)], 1, "node 4 unreachable from root 1"),
])
def test_a_tree_with_two_defects_names_the_first_one_met(edges, root, message):
    with pytest.raises(TreeError, match=f"^{message}$"):
        build_tree(edges, root)


def _malformed_edges(rng: random.Random, cycle: bool, orphan: bool) -> list[tuple[int, int]]:
    """Shuffled edges under root 1 with ids from 2-199: a valid branch, plus
    a 2-cycle and/or a subtree under a node that is only a parent."""
    ids = iter(rng.sample(range(2, 200), 30))
    edges = []

    def grow(tops: list[int], least: int) -> None:
        for _ in range(rng.randint(least, 8)):
            node = next(ids)
            edges.append((node, rng.choice(tops)))
            tops.append(node)

    grow([1], 0)
    if cycle:
        a, b = next(ids), next(ids)
        edges.extend([(a, b), (b, a)])
        grow([a, b], 0)
    if orphan:
        grow([next(ids)], 1)
    rng.shuffle(edges)
    return edges


def _first_defect(edges: list[tuple[int, int]], root: int) -> str:
    """The first defect met walking up from each child in ascending id order,
    for a root without a parent (so its own walk meets nothing)."""
    parent_of = dict(edges)
    reached = {root}
    for start in sorted(parent_of):
        path: list[int] = []
        node = start
        while node not in reached:
            if node in path:
                return f"cycle detected involving node {node}"
            if node not in parent_of:
                return f"node {node} unreachable from root {root}"
            path.append(node)
            node = parent_of[node]
        reached.update(path)
    raise AssertionError("no defect")


@pytest.mark.parametrize("cycle, orphan", [(True, True), (True, False), (False, True)])
def test_a_malformed_tree_names_the_defect_met_from_its_lowest_child(cycle, orphan):
    rng = random.Random(f"{cycle} {orphan}")
    for _ in range(1000):
        edges = _malformed_edges(rng, cycle, orphan)
        with pytest.raises(TreeError) as raised:
            build_tree(edges, 1)
        assert str(raised.value) == _first_defect(edges, 1), edges


def test_self_loop_rejected():
    with pytest.raises(TreeError, match="cycle"):
        build_tree([(2, 2)], 1)


def test_cycle_away_from_root_rejected():
    with pytest.raises(TreeError, match="cycle"):
        build_tree([(2, 1), (3, 4), (4, 3)], 1)


def test_duplicate_parent_rejected():
    with pytest.raises(TreeError, match="duplicate parent"):
        build_tree([(2, 1), (2, 3), (3, 1)], 1)


def test_unreachable_node_rejected():
    # 5 hangs under 4, which has no parent and is not the root.
    with pytest.raises(TreeError, match="unreachable"):
        build_tree([(2, 1), (5, 4)], 1)


class _Id(IntEnum):
    TWO = 2


@pytest.mark.parametrize("bad", [0, -3, "x", 2.5, _Id.TWO,
                                 pytest.param(-10**5000, id="-10**5000")])
def test_bad_ids_rejected(bad):
    with pytest.raises(TreeError):
        build_tree([(bad, 1)], 1)


def test_equality_and_round_trip_of_edges(f9):
    again = build_tree(list(F9_EDGES), 1)
    assert again == f9
    assert again.edges() == f9.edges()
    assert build_tree([(2, 1)], 1) != f9


def test_repr_and_comparison_with_a_foreign_type():
    assert repr(chain(3)) == "RootedTree(n=3, root=1)"
    assert chain(3) != 1 and not chain(3) == 1


def test_equal_trees_hash_equal(f9):
    again = build_tree(reversed(F9_EDGES), 1)
    assert again is not f9 and hash(again) == hash(f9)
    assert len({f9, again, build_tree([(2, 1)], 1)}) == 2


def _slots_from_edges(edges, root):
    """Every slot of the tree on these valid edges, recomputed by walking
    each node's parent chain (depths, canonical order, ranks, height and
    ascending ids with their ranks), and each node's subtree height by id."""
    parent = dict(edges)
    nodes = sorted({root} | set(parent) | set(parent.values()))

    def chain_up(i):
        path = [i]
        while path[-1] != root:
            path.append(parent[path[-1]])
        return path

    depth = {i: len(chain_up(i)) - 1 for i in nodes}
    if all(p < c for c, p in edges):
        order = nodes
    else:
        order = sorted(nodes, key=lambda i: (depth[i], i))
    rank = {i: r for r, i in enumerate(order)}
    below = {i: [j for j in nodes if i in chain_up(j)] for i in nodes}
    slots = {
        "n": len(nodes),
        "root": root,
        "_ids": tuple(order),
        "_parents": tuple(rank[parent[i]] if i != root else -1 for i in order),
        "_depths": tuple(depth[i] for i in order),
        "_height": max(depth.values()),
        "_sorted_ids": tuple(nodes),
        "_sorted_ranks": (range(len(nodes)) if order == nodes
                          else tuple(rank[i] for i in nodes)),
    }
    heights = {i: max(depth[j] for j in below[i]) - depth[i] for i in nodes}
    return slots, heights


@st.composite
def tree_edge_lists(draw, min_nodes=1):
    """Edges and root of a random recursive tree, in a random edge order,
    join-ordered or with shuffled ids."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    edges = random_tree_edges(rng, draw(st.integers(min_nodes, 14)),
                              draw(st.sampled_from([None, 1, 3])))
    root = 1
    if draw(st.booleans()):
        edges, root = shuffle_ids(rng, edges, 1)
    rng.shuffle(edges)
    return edges, root


@settings(max_examples=200, deadline=None)
@given(tree_edge_lists())
def test_build_matches_a_recomputation_from_the_edges(case):
    edges, root = case
    tree = build_tree(edges, root)
    expected, heights = _slots_from_edges(edges, root)
    assert {slot: getattr(tree, slot) for slot in expected} == expected
    assert {row.node: row.basic_count - 1 for row in complexity_table(tree)} == heights
    assert tree.node_ids == tree._sorted_ids
    assert tree.height == tree._height


DEFECTS = ["duplicate child", "self-loop", "cycle through the root",
           "cycle away from the root", "unreachable node", "bad id"]


def _above(parent, i):
    """The nodes above ``i``, following ``parent`` until it ends or repeats."""
    seen = []
    while (i := parent.get(i)) is not None and i not in seen:
        seen.append(i)
    return seen


@settings(max_examples=300, deadline=None)
@given(tree_edge_lists(min_nodes=2), st.sampled_from(DEFECTS), st.data())
def test_build_rejects_a_defect_naming_a_node_that_has_it(case, defect, data):
    edges, root = case
    k = data.draw(st.integers(0, len(edges) - 1))
    child, parent = edges[k]
    fresh = max(max(edge) for edge in edges) + 1
    if defect == "duplicate child":
        edges.insert(data.draw(st.integers(k + 1, len(edges))), (child, fresh))
    elif defect == "self-loop":
        edges[k] = (child, child)
    elif defect == "cycle through the root":
        edges.append((root, child))
    elif defect == "cycle away from the root":
        below = [c for c, _ in edges if child in _above(dict(edges), c)]
        if below:
            edges[k] = (child, data.draw(st.sampled_from(below)))
        else:
            edges += [(fresh, fresh + 1), (fresh + 1, fresh)]
    elif defect == "unreachable node":
        edges.insert(k, (fresh, fresh + 1))
    else:
        bad = data.draw(st.sampled_from([True, 0, -1, "2"]))
        edges[k] = data.draw(st.sampled_from([(bad, parent), (child, bad)]))
        if data.draw(st.booleans()):
            edges, root = [(child, parent)], bad
    with pytest.raises(TreeError) as raised:
        build_tree(edges, root)
    message = str(raised.value)
    if defect == "bad id":
        assert message == f"node ids must be positive integers, got {bad!r}"
        return
    named = int(message.split()[-1] if "unreachable" not in message
                else message.split()[1])
    if defect == "duplicate child":
        assert message == f"duplicate parent for node {named}"
        assert sum(c == named for c, _ in edges) > 1
    elif defect == "self-loop":
        assert message == f"cycle detected at node {named}"
        assert (named, named) in edges
    elif defect == "unreachable node":
        assert message == f"node {named} unreachable from root {root}"
        assert named != root and named not in dict(edges)
    else:
        assert message == f"cycle detected involving node {named}"
        assert named in _above(dict(edges), named)


def _slots(tree):
    return {slot: getattr(tree, slot) for slot in type(tree).__slots__}


def _shape(ids, parents, depths, *_):
    """Each id's parent id and depth, whatever the canonical order."""
    return {i: (ids[p] if p >= 0 else None, d)
            for i, p, d in zip(ids, parents, depths)}


JOIN_ORDERED_IDS = {
    "1..n": lambda k: k,
    "sparse": lambda k: k * k + k,
    "past 2**64": lambda k: 2**64 * k + 1,
}


def _arranged(edges, order):
    if order == "ascending":
        return list(edges)
    if order == "descending":
        return edges[::-1]
    shuffled = random.Random(31).sample(edges, len(edges))
    return shuffled if order == "shuffled" else (edge for edge in shuffled)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "generator"])
@pytest.mark.parametrize("label", JOIN_ORDERED_IDS.values(), ids=JOIN_ORDERED_IDS)
def test_join_ordered_ids_build_in_one_pass_the_tree_the_walk_builds(label, order,
                                                                     monkeypatch):
    base = random_tree_edges(random.Random(29), 60, 5)
    edges = [(label(c), label(p)) for c, p in base]
    root = label(1)
    expected, _ = _slots_from_edges(edges, root)
    walked = tree_module._walk(edges, root)
    monkeypatch.setattr(tree_module, "_walk", None)  # the walk must not run
    tree = build_tree(_arranged(edges, order), root)
    assert _slots(tree) == expected
    assert _shape(tree._ids, tree._parents, tree._depths) == _shape(*walked)
    assert walked[3] == tree._sorted_ids


# Inputs the one pass turns down, each with the tree the walk builds (None)
# or the walk's message.
NOT_JOIN_ORDERED = {
    "child below the root": ([(3, 5), (7, 5), (9, 3)], 5, None),
    "child at the root": ([(2, 1), (1, 2)], 1, "cycle detected involving node 1"),
    "parent above its child": ([(2, 1), (3, 4), (4, 2)], 1, None),
    "parent above its child past 16 edges": (
        [(k, k - 1) for k in range(2, 19)] + [(19, 40), (40, 1)], 1, None),
    "parent that is no node": ([(2, 1), (4, 3)], 1, "node 3 unreachable from root 1"),
    "duplicate child": ([(2, 1), (3, 1), (3, 2)], 1, "duplicate parent for node 3"),
    "True id": ([(2, 1), (3, True)], 1, "node ids must be positive integers, got True"),
    "2.0 id": ([(2, 1), (2.0, 1)], 1, "node ids must be positive integers, got 2.0"),
    "str id": ([(2, 1), ("3", 1)], 1, "node ids must be positive integers, got '3'"),
}


@pytest.mark.parametrize("case", NOT_JOIN_ORDERED.values(), ids=NOT_JOIN_ORDERED)
def test_the_one_pass_leaves_any_other_input_to_the_walk(case):
    edges, root, message = case
    assert tree_module._join_ordered(edges, root) is None
    if message is None:
        assert _slots(build_tree(edges, root)) == _slots_from_edges(edges, root)[0]
    else:
        with pytest.raises(TreeError) as raised:
            build_tree(iter(edges), root)
        assert str(raised.value) == message


def test_a_join_ordered_build_peaks_near_the_tree_it_keeps():
    # The build's peak above the call against what the finished tree keeps
    # traced (its ids are the edges' own ints): a ratio, so no Python
    # version's object sizes enter the bound. Per-node hash tables put it
    # near 2; the one pass, turning each list into a tuple in turn, near 1.15.
    edges = random_tree_edges(random.Random(100_000), 100_000, 40)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tree = build_tree(edges, 1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / (kept - before) < 1.5
    walked = build_tree(*shuffle_ids(random.Random(7), edges[:500], 1))
    for built in (tree, walked):
        assert not any(isinstance(v, dict) for v in _slots(built).values())


# -- navigation ------------------------------------------------------------

def test_depths_on_fixture(f9):
    assert f9.depth(1) == 0
    assert f9.depth(3) == 1
    assert f9.depth(8) == 3
    assert f9.height == 3


def test_height_of_subtree(f9):
    heights = {row.node: row.basic_count - 1 for row in complexity_table(f9)}
    assert heights[2] == 2
    assert heights[9] == 0


def test_unknown_node_errors(f9):
    with pytest.raises(UnknownNodeError):
        f9.depth(42)
    with pytest.raises(UnknownNodeError):
        f9.trim({1, 42})
    # Members that can be read only once, and ids that are not even hashable.
    for members in ([1, 42], [3, 1, 42], [1, [2]]):
        with pytest.raises(UnknownNodeError):
            f9.trim(iter(members))
        with pytest.raises(UnknownNodeError):
            f9.is_trimmed(iter(members))
    # Only ints are ids, though True and 2.0 hash as nodes 1 and 2.
    for alias in (True, 2.0):
        assert alias not in f9
        with pytest.raises(UnknownNodeError):
            f9.depth(alias)
        with pytest.raises(UnknownNodeError):
            f9.trim([1, alias])
    with pytest.raises(UnknownNodeError) as raised:
        f9.depth("7" * 100)
    assert str(raised.value) == "unknown node id '77777777777777777777'… (100 characters)"
    # An int past the int-to-str digit limit is cut the same way.
    with pytest.raises(UnknownNodeError) as raised:
        f9.depth(10**5000)
    assert str(raised.value) == "unknown node id '10000000000000000000'… (5001 characters)"


@pytest.mark.parametrize("weights", [
    {1: 1, 2.7: 5, 3: 1}, {1: 1, "2": 5, 3: 1}, {True: 1, 2: 5, 3: 1},
])
def test_value_functions_take_the_tree_id_rule(weights):
    bad = next(i for i in weights if i.__class__ is not int)
    with pytest.raises(TreeError) as raised:
        ValueFunction.linear(weights)
    assert str(raised.value) == f"node ids must be positive integers, got {bad!r}"
    explicit = ValueFunction.explicit({(bad,): 1})
    with pytest.raises(UnknownNodeError):
        TreeGame(build_tree([(2, 1), (3, 1)], 1), explicit)


# -- trimming --------------------------------------------------------------

def test_trim_fixture_examples(f9):
    assert f9.trim({1, 3, 4, 6, 7, 8, 9}) == {1, 3, 6, 7}
    assert f9.trim({2, 5, 8}) == frozenset()
    assert f9.trim({1, 2, 5}) == {1, 2, 5}


def test_is_trimmed_fixture_examples(f9):
    assert f9.is_trimmed({1, 3, 6, 7})
    assert f9.is_trimmed({1, 2, 5})
    assert not f9.is_trimmed({1, 2, 8, 9})
    assert f9.is_trimmed(frozenset())


def test_trim_matches_definition_exhaustively(f9):
    for members in all_subsets(f9.node_ids):
        assert f9.trim(members) == trim_by_definition(F9_EDGES, 1, members)


def test_trim_matches_definition_on_shuffled_ids():
    rng = random.Random(7)
    for trial in range(20):
        base = random_tree_edges(rng, rng.randint(2, 8))
        edges, root = shuffle_ids(rng, base, 1)
        tree = build_tree(edges, root)
        for members in all_subsets(tree.node_ids):
            assert tree.trim(members) == trim_by_definition(edges, root, members)


# -- trim properties (randomised) -------------------------------------------

@st.composite
def tree_and_members(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    edges = random_tree_edges(rng, n)
    if draw(st.booleans()):
        edges, root = shuffle_ids(rng, edges, 1)
    else:
        root = 1
    tree = build_tree(edges, root)
    members = draw(st.sets(st.sampled_from(sorted(tree.node_ids))))
    return tree, frozenset(members)


@settings(max_examples=200, deadline=None)
@given(tree_and_members())
def test_trim_is_a_parent_closed_subset_and_idempotent(case):
    tree, members = case
    trimmed = tree.trim(members)
    assert trimmed <= members
    assert tree.is_trimmed(trimmed)
    assert tree.trim(trimmed) == trimmed
    if tree.root not in members:
        assert trimmed == frozenset()
    else:
        assert tree.root in trimmed


# -- enumeration -----------------------------------------------------------

def test_enumerate_trimmed_chain_order():
    t = chain(3)
    assert list(t.enumerate_trimmed()) == [
        frozenset(),
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
    ]


def test_enumerate_trimmed_star_is_lexicographic():
    t = star(4)
    got = [tuple(sorted(s)) for s in t.enumerate_trimmed()]
    assert got == sorted(got)
    assert len(got) == 2 ** 3 + 1


def test_enumerate_trimmed_matches_exhaustive(f9):
    assert set(f9.enumerate_trimmed()) == trimmed_by_enumeration(F9_EDGES, 1)


def test_enumerate_trimmed_matches_exhaustive_random():
    rng = random.Random(11)
    for trial in range(15):
        base = random_tree_edges(rng, rng.randint(1, 8))
        edges, root = shuffle_ids(rng, base, 1)
        tree = build_tree(edges, root)
        everything = trimmed_by_enumeration(edges, root)
        assert set(tree.enumerate_trimmed()) == everything
        for i in tree.node_ids:
            got = list(tree.enumerate_trimmed_containing(i))
            assert len(got) == len(set(got))
            assert set(got) == {s for s in everything if i in s}


def test_enumerate_trimmed_counts_for_standard_shapes():
    for n in range(1, 10):
        assert sum(1 for _ in chain(n).enumerate_trimmed()) == n + 1
        assert sum(1 for _ in star(n).enumerate_trimmed()) == 2 ** (n - 1) + 1


def test_enumerate_containing_star_leaf():
    t = star(4)
    sets = list(t.enumerate_trimmed_containing(2))
    assert len(sets) == 4
    assert all({1, 2} <= s for s in sets)
    assert len(set(sets)) == 4


def test_enumerate_containing_single_node():
    t = build_tree([], 5)
    assert list(t.enumerate_trimmed_containing(5)) == [frozenset({5})]


def test_enumerate_containing_matches_filter(f9):
    everything = set(f9.enumerate_trimmed())
    for i in f9.node_ids:
        expected = {s for s in everything if i in s}
        got = list(f9.enumerate_trimmed_containing(i))
        assert len(got) == len(set(got))
        assert set(got) == expected


# -- trim classes ------------------------------------------------------

def test_trim_classes_partition_the_power_set_by_size_formula(f9):
    # Group the whole power set by trim image; a nonempty class C has
    # 2**(n - |C| - |adjacent(C)|) members, trim classes partition
    # everything, and the root-free class accounts for the remainder.
    classes: dict[frozenset, int] = {}
    for members in all_subsets(f9.node_ids):
        classes[f9.trim(members)] = classes.get(f9.trim(members), 0) + 1
    total = 0
    for image, size in classes.items():
        if image:
            assert size == 2 ** (f9.n - len(image) - len(adjacent(f9, image)))
        else:
            assert size == 2 ** (f9.n - 1)
        total += size
    assert total == 2 ** f9.n
    assert set(classes) == trimmed_by_enumeration(F9_EDGES, 1)


def test_same_trim_class_is_supersets_avoiding_adjacent(f9):
    # Membership characterisation: D trims to C exactly when D contains C
    # and avoids every node adjacent to C.
    for image in f9.enumerate_trimmed():
        if not image:
            continue
        blocked = adjacent(f9, image)
        for members in all_subsets(f9.node_ids):
            same = f9.trim(members) == image
            characterised = image <= members and not (members & blocked)
            assert same == characterised


def test_union_of_classes_containing_node_is_trim_membership(f9):
    # The coalitions whose trim contains i are exactly those in some
    # trim class around a trimmed set containing i.
    for i in f9.node_ids:
        by_membership = {
            members
            for members in all_subsets(f9.node_ids)
            if i in f9.trim(members)
        }
        by_classes = set()
        for image in f9.enumerate_trimmed_containing(i):
            blocked = adjacent(f9, image)
            for members in all_subsets(f9.node_ids):
                if image <= members and not (members & blocked):
                    by_classes.add(members)
        assert by_classes == by_membership


# -- convenience constructors -------------------------------------------------

def test_complete_binary_tree_shape():
    t = complete_binary_tree(2)
    assert t.n == 7
    assert t.height == 2
    assert children(t, 1) == (2, 3)
    assert children(t, 3) == (6, 7)


def test_chain_and_star_roots():
    assert chain(1).n == 1
    assert star(1).n == 1
    assert chain(4).depth(4) == 3
    assert star(5).height == 1


@pytest.mark.parametrize("make, message", [
    (lambda: chain(0), "chain needs at least one node"),
    (lambda: star(0), "star needs at least one node"),
    (lambda: complete_binary_tree(-1), "height must be nonnegative"),
])
def test_constructors_reject_an_empty_shape(make, message):
    with pytest.raises(TreeError, match=message):
        make()


def _canonical_key(tree):
    """Sort key of a coalition in canonical order: ascending ids when every
    edge points id-upward, otherwise (depth, id)."""
    monotone = all(tree.parent(i) < i for i in tree.node_ids if i != tree.root)
    order = (lambda i: i) if monotone else (lambda i: (tree.depth(i), i))
    return lambda coalition: sorted(map(order, coalition))


def test_enumeration_order_is_lexicographic_in_canonical_order():
    rng = random.Random(23)
    for trial in range(12):
        edges = random_tree_edges(rng, rng.randint(1, 9))
        root = 1
        if trial % 2:
            edges, root = shuffle_ids(rng, edges, 1)
        tree = build_tree(edges, root)
        key = _canonical_key(tree)
        everything = list(tree.enumerate_trimmed())
        assert everything[0] == frozenset()
        assert everything[1:] == sorted(everything[1:], key=key)
        for i in tree.node_ids:
            # ordered by the members added to the root path of i
            path = root_path(tree, i)
            got = list(tree.enumerate_trimmed_containing(i))
            assert got == sorted(got, key=lambda s: key(s - path))


def test_enumeration_of_a_deep_chain_does_not_recurse():
    t = chain(1500)
    assert sum(1 for _ in t.enumerate_trimmed()) == 1501
    assert list(t.enumerate_trimmed_containing(1500)) == [frozenset(range(1, 1501))]
    assert sum(1 for _ in t.enumerate_trimmed_containing(1)) == 1500
