"""Seeded inputs, CLI invocations and independent output checks.

Every workload is a list of ``treeshare`` CLI invocations (one *pass*).
Inputs are random recursive trees with join-ordered ids and depth capped at
50: each new member picks a uniform referrer among the earlier members that
are still shallower than the cap. They are generated from the workload seed
into files before any timing starts; the program sees only those files.

Each check takes a route other than the one it checks (integer sums grouped
by denominator, a linear recount, the batch closed form for a streamed
result), so a wrong output is caught rather than reproduced.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEPTH_CAP = 50
UNIT = 1000

# Sizes are chosen so that a pass of each workload takes 1.5 to 4 seconds on
# one core of a 2.1 GHz Xeon: a run holds several passes.
STREAM_QUIET_JOINS = 100_000
STREAM_DELTA_JOINS = 40_000
COMPUTE_NODES = 30_000
SMALL_VERIFY_NODES = 12          # brute force, core and convexity all run
GENERAL_VERIFY_NODES = 20        # the trimmed-coalition route dominates
GENERAL_WORK_RANGE = (50_000, 100_000)
GENERAL_WORK_TARGET = 75_000
GENERAL_CANDIDATES = 400
COUNTING_NODES = 2_000           # quadratic per-node counting dominates

WORKLOADS = {
    "stream-100k": "10^5 streamed joins, final allocation only: parse, join, "
                   "snapshot, scale and render; bypasses tree, mechanisms, analysis",
    "stream-deltas": "4x10^4 joins printing every delta: per-join output and "
                     "delta cost dominate, the final snapshot is a small share",
    "compute-30k": "all three mechanisms on a 3x10^4-node tree file: JSON parse, "
                   "tree build, allocators and report rendering; bypasses streaming",
    "analysis": "verify on 12-, 20- and 2000-node trees and count on 2000: brute "
                "force, core, convexity, the general route and coalition counting",
}

Check = Callable[[bytes, int], "str | None"]


@dataclass
class Invocation:
    """One CLI run: its arguments, its output check and its item count."""

    label: str
    argv: list[str]
    check: Check
    items: int


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    inputs: dict[str, str]  # file name -> sha256


# -- generation ------------------------------------------------------------

def recursive_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """(child, parent) edges of a random recursive tree on ids 1..n."""
    depth = [0] * (n + 1)
    eligible = [1]
    edges = []
    for node in range(2, n + 1):
        parent = eligible[rng.randrange(len(eligible))]
        edges.append((node, parent))
        d = depth[parent] + 1
        depth[node] = d
        if d < DEPTH_CAP:
            eligible.append(node)
    return edges


def trimmed_counts(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Trimmed coalitions containing each node, indexed by id, in one pass.

    ``t(i)`` counts the parent-closed sets of i's subtree that contain i;
    then ``count(root) = t(root)`` and ``count(i) = count(parent) * t(i) /
    (1 + t(i))``. Needs join-ordered ids (parents before children).
    """
    parent = [0] * (n + 1)
    for child, p in edges:
        parent[child] = p
    t = [1] * (n + 1)
    for node in range(n, 1, -1):
        t[parent[node]] *= 1 + t[node]
    count = [0] * (n + 1)
    count[1] = t[1]
    for node in range(2, n + 1):
        count[node] = count[parent[node]] * t[node] // (1 + t[node])
    return count


def _write(workdir: Path, name: str, text: str, inputs: dict[str, str]) -> str:
    data = text.encode("utf-8")
    path = workdir / name
    path.write_bytes(data)
    inputs[name] = hashlib.sha256(data).hexdigest()
    return str(path)


def _log_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{seq} {c} {p}\n" for seq, (c, p) in enumerate(edges, start=1))


def _tree_text(edges: list[tuple[int, int]]) -> str:
    return json.dumps(
        {"root": 1, "edges": [{"child": c, "parent": p} for c, p in edges]}
    )


def _general_route_tree(rng: random.Random) -> list[tuple[int, int]]:
    """The candidate whose trimmed-coalition work is nearest the target.

    Work varies several-fold between random 20-node trees, so picking by
    work rather than by seed keeps the pass time steady across seeds.
    """
    lo, hi = GENERAL_WORK_RANGE
    best, best_gap = None, None
    for _ in range(GENERAL_CANDIDATES):
        edges = recursive_tree(rng, GENERAL_VERIFY_NODES)
        work = sum(trimmed_counts(GENERAL_VERIFY_NODES, edges))
        gap = abs(work - GENERAL_WORK_TARGET)
        if lo <= work <= hi and (best_gap is None or gap < best_gap):
            best, best_gap = edges, gap
    if best is None:
        raise RuntimeError(f"no candidate tree with work in {GENERAL_WORK_RANGE}")
    return best


def _stream(rng: random.Random, workdir: Path, inputs: dict[str, str],
            quiet: bool) -> list[Invocation]:
    """Quiet, the final snapshot, scaling and rendering weigh most; verbose,
    every join's delta is formatted and printed, so a change that trades one
    cost for the other shows on one of the two."""
    label = "stream-quiet" if quiet else "stream-deltas"
    joins = STREAM_QUIET_JOINS if quiet else STREAM_DELTA_JOINS
    edges = recursive_tree(rng, joins + 1)
    log = _write(workdir, f"{label}.log", _log_text(edges), inputs)
    argv = ["stream", *(["--quiet"] if quiet else []),
            "--format", "csv", "--unit", str(UNIT), log]
    return [Invocation(label, argv,
                       stream_check(edges, deltas=not quiet, batch=quiet), joins)]


def _compute(rng: random.Random, workdir: Path,
             inputs: dict[str, str]) -> list[Invocation]:
    edges = recursive_tree(rng, COMPUTE_NODES)
    path = _write(workdir, "compute.json", _tree_text(edges), inputs)
    return [Invocation("compute",
                       ["compute", "--unit", str(UNIT), "--format", "csv", path],
                       compute_check(COMPUTE_NODES), COMPUTE_NODES)]


def _analysis(rng: random.Random, workdir: Path,
              inputs: dict[str, str]) -> list[Invocation]:
    """verify and count on trees sized so that each analysis route
    dominates one invocation."""
    small = recursive_tree(rng, SMALL_VERIFY_NODES)
    general = _general_route_tree(rng)
    counting = recursive_tree(rng, COUNTING_NODES)
    small_path = _write(workdir, "small.json", _tree_text(small), inputs)
    general_path = _write(workdir, "general.json", _tree_text(general), inputs)
    counting_path = _write(workdir, "counting.json", _tree_text(counting), inputs)
    return [
        Invocation("verify-small",
                   ["verify", "--limit-bruteforce", str(SMALL_VERIFY_NODES),
                    small_path],
                   verify_check(require_all_pass=True), SMALL_VERIFY_NODES),
        Invocation("verify-general", ["verify", general_path],
                   verify_check(require_general_pass=True), GENERAL_VERIFY_NODES),
        Invocation("verify-counting", ["verify", counting_path],
                   verify_check(), COUNTING_NODES),
        Invocation("count", ["count", counting_path],
                   count_check(COUNTING_NODES, counting), COUNTING_NODES),
    ]


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of one workload and describe its pass."""
    rng = random.Random(f"{name}:{seed}")
    inputs: dict[str, str] = {}
    if name == "stream-100k":
        invocations = _stream(rng, workdir, inputs, quiet=True)
    elif name == "stream-deltas":
        invocations = _stream(rng, workdir, inputs, quiet=False)
    elif name == "compute-30k":
        invocations = _compute(rng, workdir, inputs)
    else:
        invocations = _analysis(rng, workdir, inputs)
    return Workload(name, invocations, inputs)


# -- checks ----------------------------------------------------------------

def _rounded(exact: str) -> int:
    """Half-away-from-zero rounding of a "p/q" string, in integers."""
    num, _, den = exact.partition("/")
    p, q = int(num), int(den or 1)
    magnitude = (2 * abs(p) + q) // (2 * q)
    return magnitude if p >= 0 else -magnitude


def _csv_rows(lines: list[str], header: str) -> tuple[int, list[list[str]]]:
    """Index of the csv header and the rows after it."""
    start = lines.index(header)
    return start, [line.split(",") for line in lines[start + 1:]]


def _exact_total(rows: list[list[str]], column: int) -> Fraction:
    """Exact sum of a "p/q" column, numerators summed per denominator."""
    by_den: dict[int, int] = {}
    for row in rows:
        num, _, den = row[column].partition("/")
        d = int(den or 1)
        by_den[d] = by_den.get(d, 0) + int(num)
    return sum((Fraction(s, d) for d, s in by_den.items()), Fraction(0))


def _display_problem(rows: list[list[str]], exact: int, display: int) -> str | None:
    for row in rows:
        if _rounded(row[exact]) != int(row[display]):
            return f"display {row[display]} is not {row[exact]} rounded"
    return None


def stream_check(edges: list[tuple[int, int]], deltas: bool, batch: bool) -> Check:
    n = len(edges) + 1

    def check(out: bytes, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.decode("utf-8").splitlines()
        try:
            start, rows = _csv_rows(lines, "node,exact,display")
        except ValueError:
            return "no csv header"
        if deltas:
            if start != len(edges) or not all(
                line.startswith("seq ") for line in lines[:start]
            ):
                return f"{start} delta lines for {len(edges)} joins"
        elif start != 0:
            return "unexpected lines before the final allocation"
        if len(rows) != n:
            return f"{len(rows)} rows for {n} nodes"
        total = _exact_total(rows, 1)
        if total != UNIT * (n - 1):
            return f"rewards sum to {total}, not {UNIT * (n - 1)}"
        problem = _display_problem(rows, 1, 2)
        if problem or not batch:
            return problem
        expected = _batch_allocation(edges)
        for node, exact, _ in rows:
            if expected.get(int(node)) != exact:
                return f"node {node}: streamed {exact}, batch {expected.get(int(node))}"
        return None

    return check


def _batch_allocation(edges: list[tuple[int, int]]) -> dict[int, str]:
    """The batch route for a streamed result: closed form on the rebuilt
    tree, scaled and root-adjusted."""
    from treeshare.shapley import root_adjust, shapley_basic
    from treeshare.tree import build_tree

    tree = build_tree(edges, 1)
    allocation = root_adjust(shapley_basic(tree).scaled(UNIT), 1, UNIT)
    return {node: str(value) for node, value in allocation.rewards.items()}


def compute_check(n: int) -> Check:
    def check(out: bytes, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.decode("utf-8").splitlines()
        try:
            _, rows = _csv_rows(lines, "mechanism,node,exact,display")
        except ValueError:
            return "no csv header"
        by_mechanism: dict[str, list[list[str]]] = {}
        for row in rows:
            by_mechanism.setdefault(row[0], []).append(row)
        if sorted(by_mechanism) != ["geometric", "refer_a_friend", "shapley"]:
            return f"mechanisms {sorted(by_mechanism)}"
        for mechanism, mrows in by_mechanism.items():
            if len(mrows) != n:
                return f"{mechanism}: {len(mrows)} rows for {n} nodes"
            total = _exact_total(mrows, 2)
            if total != UNIT * (n - 1):
                return f"{mechanism} pays {total}, not {UNIT * (n - 1)}"
        return _display_problem(rows, 2, 3)

    return check


GENERAL_CHECK_NAME = "closed form vs trimmed-coalition sum"


def verify_check(require_all_pass: bool = False,
                 require_general_pass: bool = False) -> Check:
    def check(out: bytes, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        statuses = {}
        for line in out.decode("utf-8").splitlines():
            status, _, rest = line.partition(" ")
            statuses[rest.strip().split(" (")[0]] = status
        if len(statuses) != 5:
            return f"{len(statuses)} check lines, expected 5"
        if require_all_pass and set(statuses.values()) != {"PASS"}:
            return f"not every check ran and passed: {statuses}"
        if require_general_pass and statuses.get(GENERAL_CHECK_NAME) != "PASS":
            return f"general route reads {statuses.get(GENERAL_CHECK_NAME)}"
        return None

    return check


def count_check(n: int, edges: list[tuple[int, int]]) -> Check:
    counts = trimmed_counts(n, edges)
    parent = {c: p for c, p in edges}
    depth = [0] * (n + 1)
    for node in range(2, n + 1):
        depth[node] = depth[parent[node]] + 1
    sub_height = [0] * (n + 1)
    for node in range(n, 1, -1):
        p = parent[node]
        sub_height[p] = max(sub_height[p], sub_height[node] + 1)
    cfg = 2 ** (n - 1)
    expected = [
        [node, depth[node], cfg, counts[node], sub_height[node] + 1]
        for node in range(1, n + 1)
    ]

    def check(out: bytes, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.decode("utf-8").splitlines()
        if not lines or lines[0].split() != ["node", "depth", "cfg", "tree_game",
                                             "basic"]:
            return "unexpected count header"
        rows = sorted([int(cell) for cell in line.split()] for line in lines[1:])
        if rows != expected:
            return "count rows disagree with the linear recount"
        return None

    return check
