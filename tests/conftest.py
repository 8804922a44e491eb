"""Shared fixtures and independent oracles.

The oracles here recompute everything from first principles (raw edge lists,
full permutation or power-set enumeration) so that library results are always
checked against something that does not share their code path.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from treeshare import RootedTree, build_tree, coalition_value

Edges = list[tuple[int, int]]


@pytest.fixture
def f9() -> RootedTree:
    """The nine-node fixture tree used throughout: root 1, children (2, 3),
    4 and 5 under 2, 6 and 7 under 3, 8 and 9 under 4."""
    return build_tree(F9_EDGES, 1)


F9_EDGES: Edges = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 4)]

EXAMPLE_EDGES: Edges = [(3, 1), (6, 3), (7, 3)]


@pytest.fixture
def example_tree() -> RootedTree:
    """The worked example: 1 invites 3, who invites 6 and 7."""
    return build_tree(EXAMPLE_EDGES, 1)


# -- independent oracles ---------------------------------------------------

def trim_by_definition(edges: Edges, root: int, members) -> frozenset[int]:
    """Members whose whole ancestor chain lies inside the set, from raw edges."""
    parent = {c: p for c, p in edges}
    kept = set()
    for i in members:
        cur = i
        ok = True
        while cur != root:
            cur = parent.get(cur)
            if cur is None or cur not in members:
                ok = False
                break
        if ok and (i == root or i in members):
            kept.add(i)
    return frozenset(kept)


def all_subsets(nodes) -> list[frozenset[int]]:
    nodes = sorted(nodes)
    return [
        frozenset(combo)
        for size in range(len(nodes) + 1)
        for combo in itertools.combinations(nodes, size)
    ]


def trimmed_by_enumeration(edges: Edges, root: int) -> set[frozenset[int]]:
    """Every trimmed coalition (including the empty one), the slow way."""
    nodes = {root} | {c for c, _ in edges} | {p for _, p in edges}
    return {
        s for s in all_subsets(nodes) if trim_by_definition(edges, root, s) == s
    }


def shapley_by_permutations(game) -> dict[int, Fraction]:
    """The definition, literally: average marginal contribution over every
    join order. Usable up to six or so agents."""
    ids = game.tree.node_ids
    totals = {i: Fraction(0) for i in ids}
    count = 0
    for order in itertools.permutations(ids):
        prefix: set[int] = set()
        before = coalition_value(game, frozenset())
        for i in order:
            prefix.add(i)
            after = coalition_value(game, frozenset(prefix))
            totals[i] += after - before
            before = after
        count += 1
    return {i: total / count for i, total in totals.items()}


# -- tree navigation ---------------------------------------------------------

def root_path(tree: RootedTree, i: int) -> frozenset[int]:
    """``i`` and every ancestor of ``i``, up to the root."""
    path = {i}
    while (i := tree.parent(i)) is not None:
        path.add(i)
    return frozenset(path)


def children(tree: RootedTree, i: int) -> tuple[int, ...]:
    """Child ids of ``i`` in ascending order, from every node's parent."""
    return tuple(c for c in tree.node_ids if tree.parent(c) == i)


def subtree_height(tree: RootedTree, i: int) -> int:
    """Height of the subtree hanging from ``i`` (0 for a leaf): the deepest
    node whose root path passes through ``i``, less the depth of ``i``."""
    return max(tree.depth(j) for j in tree.node_ids
               if i in root_path(tree, j)) - tree.depth(i)


def adjacent(tree: RootedTree, members) -> frozenset[int]:
    """Nodes outside the coalition with an edge into it."""
    edges = set()
    for i in members:
        edges.update(children(tree, i))
        edges.add(tree.parent(i))
    return frozenset(edges - set(members) - {None})


def subtree_level(tree: RootedTree, i: int, j: int) -> frozenset[int]:
    """The nodes ``j`` levels below ``i``."""
    level = {i}
    for _ in range(j):
        level = {c for k in level for c in children(tree, k)}
    return frozenset(level)


def marginal_contribution(game, i: int, members) -> Fraction:
    """What ``i`` adds by joining ``members``, which it is not part of."""
    base = frozenset(members)
    return coalition_value(game, base | {i}) - coalition_value(game, base)


# -- tree generators -------------------------------------------------------

def random_tree_edges(
    rng: random.Random, n: int, max_depth: int | None = None
) -> Edges:
    """A random recursive tree on ids 1..n: each new node picks a uniform
    parent among the eligible earlier nodes."""
    edges: Edges = []
    depth = {1: 0}
    eligible = [1]
    for node in range(2, n + 1):
        parent = rng.choice(eligible)
        edges.append((node, parent))
        depth[node] = depth[parent] + 1
        if max_depth is None or depth[node] < max_depth:
            eligible.append(node)
    return edges


def shuffle_ids(rng: random.Random, edges: Edges, root: int) -> tuple[Edges, int]:
    """Relabel nodes with random ids, breaking parent-before-child numbering."""
    nodes = sorted({root} | {c for c, _ in edges} | {p for _, p in edges})
    new_ids = rng.sample(range(1, 10 * len(nodes) + 1), len(nodes))
    mapping = dict(zip(nodes, new_ids))
    return [(mapping[c], mapping[p]) for c, p in edges], mapping[root]


@st.composite
def seeded_trees(draw, max_nodes: int = 9) -> RootedTree:
    """A random recursive tree on 1..max_nodes nodes, sometimes depth-capped
    and sometimes with shuffled ids (breaking parent-before-child order)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    edges = random_tree_edges(rng, n, draw(st.sampled_from([None, 1, 2, 4])))
    if draw(st.booleans()):
        return build_tree(*shuffle_ids(rng, edges, 1))
    return build_tree(edges, 1)


@lru_cache(maxsize=None)
def _forests(total: int) -> tuple:
    """All canonical forests (sorted tuples of shapes) of ``total`` nodes.

    A shape is a sorted tuple of child shapes; sorting makes isomorphic
    trees identical, so sets deduplicate them.
    """
    if total == 0:
        return ((),)
    out = set()
    for first_size in range(1, total + 1):
        for first in tree_shapes(first_size):
            for rest in _forests(total - first_size):
                out.add(tuple(sorted((first,) + rest)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple:
    """All rooted tree shapes on ``n`` unlabeled nodes, up to isomorphism."""
    if n < 1:
        return ()
    return tuple(_forests(n - 1))


def shape_to_edges(shape) -> Edges:
    """Number a shape's nodes 1..n in breadth-first order."""
    edges: Edges = []
    next_id = 2
    queue = [(1, shape)]
    while queue:
        node, children = queue.pop(0)
        for child_shape in children:
            edges.append((next_id, node))
            queue.append((next_id, child_shape))
            next_id += 1
    return edges


def all_tree_edge_lists(n: int) -> list[Edges]:
    """Edge lists for every rooted tree shape with ``n`` nodes."""
    return [shape_to_edges(shape) for shape in tree_shapes(n)]


@contextlib.contextmanager
def _int_digit_limit(limit: int):
    """Set the int-to-str digit limit (0 lifts it) for this block only; on
    Pythons without the limit (before 3.10.7) ``str`` writes every int."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
