"""File formats, run configuration, and report rendering.

Tree files are JSON documents with an explicit root and child -> parent
edges, mirroring how referral data arrives (each signup knows its referrer):

    {"root": 1,
     "edges": [{"child": 3, "parent": 1}, {"child": 6, "parent": 3}],
     "labels": {"3": "carol"}}

Event logs are line-delimited ``seq node parent`` records so they can be
streamed without bound; blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import chain

from .allocation import Allocation
from .mechanisms import (
    GEOMETRIC,
    MECHANISM_KINDS,
    REFER_A_FRIEND,
    SHAPLEY,
    MechanismSpec,
    RewardReport,
)
from .shapley import IncrementalState
from .tree import RootedTree, build_tree


class InputFormatError(ValueError):
    """A document or stream that does not match its expected format."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a finite decimal string into an exact rational."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"not a rational number: {text!r} ({exc})") from None


# -- tree files ----------------------------------------------------------

@dataclass(frozen=True)
class TreeDocument:
    """A parsed tree file: the validated tree plus optional display labels."""

    tree: RootedTree
    labels: dict[int, str]


def parse_tree_document(data: dict, strict: bool = True) -> TreeDocument:
    """Validate an already-decoded tree document."""
    if not isinstance(data, dict):
        raise InputFormatError("tree document must be a JSON object")
    known = {"root", "edges", "labels"}
    if strict:
        unknown = set(data) - known
        if unknown:
            raise InputFormatError(f"unknown fields {sorted(unknown)} in tree document")
    if "root" not in data:
        raise InputFormatError("tree document is missing the 'root' field")
    edges_field = data.get("edges", [])
    if not isinstance(edges_field, list):
        raise InputFormatError("'edges' must be a list of {child, parent} objects")
    edges = []
    for idx, entry in enumerate(edges_field):
        if not isinstance(entry, dict) or "child" not in entry or "parent" not in entry:
            raise InputFormatError(
                f"edge #{idx}: expected an object with 'child' and 'parent'"
            )
        if strict:
            unknown = set(entry) - {"child", "parent"}
            if unknown:
                raise InputFormatError(f"edge #{idx}: unknown fields {sorted(unknown)}")
        edges.append((entry["child"], entry["parent"]))
    tree = build_tree(edges, data["root"])
    labels: dict[int, str] = {}
    for key, name in (data.get("labels") or {}).items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise InputFormatError(f"label key {key!r} is not a node id") from None
        if node not in tree:
            raise InputFormatError(f"label for unknown node {node}")
        labels[node] = str(name)
    return TreeDocument(tree=tree, labels=labels)


def parse_tree_file(text: str, strict: bool = True) -> TreeDocument:
    """Parse a JSON tree document from text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"tree file is not valid JSON: {exc}") from None
    return parse_tree_document(data, strict=strict)


def render_tree_file(tree: RootedTree, labels: dict[int, str] | None = None) -> str:
    """Serialise a tree back to the document format; round-trips exactly."""
    doc: dict = {
        "root": tree.root,
        "edges": [
            {"child": child, "parent": parent}
            for child, parent in sorted(tree.edges())
        ],
    }
    if labels:
        doc["labels"] = {str(k): v for k, v in sorted(labels.items())}
    return json.dumps(doc, indent=2) + "\n"


# -- event logs ----------------------------------------------------------

@dataclass(frozen=True)
class JoinEvent:
    """One streamed referral: at sequence ``seq``, ``node`` joins under
    ``parent``."""

    seq: int
    node: int
    parent: int


def parse_event_log(lines: Iterable[str]) -> Iterator[JoinEvent]:
    """Stream ``seq node parent`` records, validating as they arrive.

    Sequence numbers must be strictly increasing; errors carry the line
    number. Parsing is incremental, so a consumer can apply events while the
    log is still being read.
    """
    last_seq: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputFormatError(
                f"line {lineno}: expected 'seq node parent', got {line!r}"
            )
        try:
            seq, node, parent = (int(p) for p in parts)
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: fields must be integers, got {line!r}"
            ) from None
        if last_seq is not None and seq <= last_seq:
            raise InputFormatError(
                f"line {lineno}: sequence {seq} does not increase past {last_seq}"
            )
        last_seq = seq
        yield JoinEvent(seq=seq, node=node, parent=parent)


def replay_events(
    events: Iterable[JoinEvent],
    root: int,
    root_adjust: bool = False,
    on_delta: Callable[[JoinEvent, Allocation], None] | None = None,
) -> IncrementalState:
    """Apply a join stream to a fresh tree rooted at ``root``.

    Errors are re-raised with the offending sequence number; deltas already
    handed to ``on_delta`` stand.
    """
    state = IncrementalState(root, root_adjust=root_adjust)
    for event in events:
        try:
            delta = state.join(event.node, event.parent)
        except ValueError as exc:
            raise InputFormatError(f"event {event.seq}: {exc}") from None
        if on_delta is not None:
            on_delta(event, delta)
    return state


# -- run configuration ---------------------------------------------------

_MECHANISM_ALIASES = {
    "refer-a-friend": REFER_A_FRIEND,
    "refer_a_friend": REFER_A_FRIEND,
    "geometric": GEOMETRIC,
    "shapley": SHAPLEY,
}

OUTPUT_FORMATS = ("table", "records", "csv")


def normalize_mechanism_name(name: str) -> str:
    try:
        return _MECHANISM_ALIASES[str(name).strip().lower()]
    except KeyError:
        raise InputFormatError(
            f"unknown mechanism {name!r}; expected one of "
            f"{sorted(set(_MECHANISM_ALIASES))}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run needs, merged from config file and flags."""

    mechanisms: tuple[str, ...] = MECHANISM_KINDS
    unit: Fraction = Fraction(1)
    root_adjust: bool = True
    ratio: Fraction = Fraction(1, 2)
    normalize: bool = True
    referrer_share: Fraction = Fraction(1, 2)
    limit_bruteforce: int = 10
    limit_core: int = 16
    limit_convex: int = 12
    output_format: str = "table"
    exact: bool = False

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise InputFormatError(
                f"unknown output format {self.output_format!r}; "
                f"expected one of {OUTPUT_FORMATS}"
            )
        object.__setattr__(
            self,
            "mechanisms",
            tuple(normalize_mechanism_name(m) for m in self.mechanisms),
        )

    def mechanism_specs(self) -> list[MechanismSpec]:
        specs = []
        for kind in self.mechanisms:
            if kind == REFER_A_FRIEND:
                specs.append(
                    MechanismSpec.refer_a_friend(self.unit, self.referrer_share)
                )
            elif kind == GEOMETRIC:
                specs.append(
                    MechanismSpec.geometric(self.unit, self.ratio, self.normalize)
                )
            else:
                specs.append(MechanismSpec.shapley(self.unit, self.root_adjust))
        return specs

    def updated(self, **overrides) -> "RunConfig":
        """A copy with the non-None overrides applied."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


def _json_bool(value: object) -> bool:
    """Only JSON ``true``/``false``; strings and numbers are not booleans."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _json_count(value: object) -> int:
    """An integral JSON number such as ``3`` or ``3.0``, never a truncation."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_CONFIG_PARSERS: dict[str, Callable] = {
    "mechanisms": lambda v: tuple(v) if isinstance(v, (list, tuple)) else (v,),
    "unit": parse_rational,
    "root_adjust": _json_bool,
    "ratio": parse_rational,
    "normalize": _json_bool,
    "referrer_share": parse_rational,
    "limit_bruteforce": _json_count,
    "limit_core": _json_count,
    "limit_convex": _json_count,
    "output_format": str,
    "exact": _json_bool,
}


def config_from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise InputFormatError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise InputFormatError(f"unknown config fields {sorted(unknown)}")
    parsed = {}
    for key, value in data.items():
        try:
            parsed[key] = _CONFIG_PARSERS[key](value)
        except InputFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"config field {key!r}: {exc}") from None
    return RunConfig(**parsed)


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"config file is not valid JSON: {exc}") from None
    return config_from_mapping(data)


# -- rendering -----------------------------------------------------------

def render_report(
    report: RewardReport,
    output_format: str = "table",
    exact: bool = False,
    labels: dict[int, str] | None = None,
) -> str:
    """Render a mechanism comparison in the chosen format.

    The table is the human grid (mechanisms by nodes); records are one JSON
    object per allocation entry; csv is the same entries comma-separated.
    Display values are exact rationals rounded half-away-from-zero.
    """
    nodes = sorted(
        {node for allocation in report.allocations() for node in allocation.numerators}
    )
    if output_format == "records":
        # json.dumps layout, written directly: no field needs escaping.
        lines = (
            f'{{"mechanism": "{spec.kind}", "node": {node}, '
            f'"exact": "{value}", "display": {display}}}'
            for spec, allocation in report.results
            for node, value, display in allocation.rows(nodes)
        )
        return "\n".join(lines) + "\n"
    if output_format == "csv":
        lines = (
            f"{spec.kind},{node},{value},{display}"
            for spec, allocation in report.results
            for node, value, display in allocation.rows(nodes)
        )
        return "\n".join(chain(["mechanism,node,exact,display"], lines)) + "\n"

    labels = labels or {}
    headers = [f"{n}:{labels[n]}" if n in labels else str(n) for n in nodes]
    rows = [
        (spec.kind, [value if exact else str(display)
                     for _, value, display in allocation.rows(nodes)])
        for spec, allocation in report.results
    ]
    name_width = max(len("mechanism"), *(len(name) for name, _ in rows))
    widths = [
        max(len(headers[k]), *(len(cells[k]) for _, cells in rows))
        for k in range(len(nodes))
    ]
    lines = [
        "  ".join(
            ["mechanism".ljust(name_width)]
            + [headers[k].rjust(widths[k]) for k in range(len(nodes))]
        )
    ]
    for name, cells in rows:
        lines.append(
            "  ".join(
                [name.ljust(name_width)]
                + [cells[k].rjust(widths[k]) for k in range(len(nodes))]
            )
        )
    summary = (
        f"nodes={report.n} height={report.height} referrals={report.referral_count}"
    )
    return "\n".join(lines + [summary]) + "\n"


def render_allocation(
    allocation: Allocation, output_format: str = "table", exact: bool = False
) -> str:
    """Render a single allocation (used for stream finals)."""
    rows = allocation.rows()
    if output_format == "records":
        lines = (
            f'{{"node": {node}, "exact": "{value}", "display": {display}}}'
            for node, value, display in rows
        )
    elif output_format == "csv":
        lines = chain(
            ["node,exact,display"],
            (f"{node},{value},{display}" for node, value, display in rows),
        )
    else:
        lines = (
            f"{node}\t{value if exact else display}" for node, value, display in rows
        )
    return "\n".join(lines) + "\n"
