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
import re
import sys
from collections.abc import Callable, Generator, Iterable, Iterator
from fractions import Fraction
from itertools import count, islice, repeat
from operator import lt
from typing import TYPE_CHECKING, NamedTuple

from .allocation import Allocation, as_fraction, exact_and_display, excerpt
from .games import LIMIT_CEILING
from .shapley import IncrementalState
from .tree import RootedTree, build_tree

if TYPE_CHECKING:  # loaded on use, so that only ``compute`` loads the allocators
    from .mechanisms import MechanismSpec, RewardReport


class InputFormatError(ValueError):
    """A document or stream that does not match its expected format."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", a finite decimal string or a JSON number into an exact
    rational, as ``as_fraction`` reads its text."""
    try:
        return as_fraction(str(text))
    except (ArithmeticError, ValueError) as exc:
        raise InputFormatError(
            f"cannot read {excerpt(text)} as a rational: {exc}"
        ) from None


def read_text(path: str) -> str:
    """The UTF-8 text of a file; an unreadable path or a file that is not
    UTF-8 is an input error naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _decode_json(text: str, what: str) -> object:
    """Decode one JSON document; malformed or too deeply nested text is an
    input error naming ``what`` was being read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise InputFormatError(
            f"{what} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise InputFormatError(f"{what} is nested too deeply to decode") from None


# -- tree files ----------------------------------------------------------

class TreeDocument(NamedTuple):
    """A parsed tree file: the validated tree plus optional display labels."""

    tree: RootedTree
    labels: dict[int, str]


def parse_tree_file(text: str, strict: bool = True) -> TreeDocument:
    """Parse and validate a JSON tree document from text."""
    data = _decode_json(text, "tree file")
    if not isinstance(data, dict):
        raise InputFormatError("tree document must be a JSON object")
    known = {"root", "edges", "labels"}
    if strict:
        unknown = set(data) - known
        if unknown:
            raise InputFormatError(
                f"unknown fields {excerpt(sorted(unknown))} in tree document"
            )
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
        if strict and len(entry) != 2:
            unknown = set(entry) - {"child", "parent"}
            raise InputFormatError(
                f"edge #{idx}: unknown fields {excerpt(sorted(unknown))}"
            )
        edges.append((entry["child"], entry["parent"]))
    root, labels_field = data["root"], data.get("labels")
    del data, edges_field  # the decoded document, freed before the tree is built
    tree = build_tree(edges, root)
    if labels_field is None:
        labels_field = {}
    elif not isinstance(labels_field, dict):
        raise InputFormatError("'labels' must be an object mapping node ids to names")
    labels: dict[int, str] = {}
    for key, name in labels_field.items():
        # Only the canonical text of an id names it ("7", not "07", " 7 " or
        # "7_0"), so no two keys can name one node.
        try:
            node = int(key)
            canonical = str(node) == key
        except (TypeError, ValueError):
            canonical = False
        if not canonical:
            raise InputFormatError(f"label key {excerpt(key)} is not a node id")
        if node not in tree:
            raise InputFormatError(f"label for unknown node {node}")
        if not isinstance(name, str):
            raise InputFormatError(f"label for node {node} must be a JSON string")
        if not name.isprintable():  # a newline or an escape would break the table
            raise InputFormatError(f"unprintable label for node {node}: {excerpt(name)}")
        labels[node] = name
    return TreeDocument(tree=tree, labels=labels)


# -- event logs ----------------------------------------------------------

class JoinEvent(NamedTuple):
    """One streamed referral: at sequence ``seq``, ``node`` joins under
    ``parent``."""

    seq: int
    node: int
    parent: int


_BLOCK_LINES = 1024  # lines read and checked at a time
# Plain ``seq node parent`` lines; ``\d`` would also match non-ASCII digits.
_PLAIN_BLOCK = re.compile(r"(?:-?[0-9]+ -?[0-9]+ -?[0-9]+\n)*")
_INTEGER = re.compile(r"-?[0-9]+")


def parse_event_log(lines: Iterable[str]) -> Iterator[JoinEvent]:
    """Stream ``seq node parent`` records, validating as they arrive.

    Each field is an optional ``-`` followed by ASCII digits: ``int`` alone
    would also read ``+1``, ``1_0`` and non-ASCII digits. Sequence numbers
    must be strictly increasing; errors carry the line number. Parsing is
    incremental, in blocks of ``_BLOCK_LINES`` lines: a block of plain lines
    is converted whole, any other block line by line. The events, messages,
    and events yielded before a bad line or a read error are the same.
    """
    lines = iter(lines)
    last_seq: int | None = None
    for start in count(1, _BLOCK_LINES):
        block, error = [], None
        try:
            block.extend(islice(lines, _BLOCK_LINES))  # keeps what it read
        except Exception as exc:  # such as a UnicodeDecodeError
            error = exc
        fields = _plain_fields(block, last_seq)
        if fields is None:
            last_seq = yield from _parse_lines(block, start, last_seq)
        else:
            last_seq = fields[-3]
            yield from map(JoinEvent._make, zip(*[iter(fields)] * 3))
        if error is not None:
            raise error
        if len(block) < _BLOCK_LINES:
            return


def _plain_fields(block: list[str], last_seq: int | None) -> list[int] | None:
    """The fields of a block of plain lines, one per item, whose sequence
    numbers increase past ``last_seq``; None for any other block."""
    text = "".join(block)
    if (not _PLAIN_BLOCK.fullmatch(text if text.endswith("\n") else text + "\n")
            or text.splitlines(True) != block):
        return None
    try:
        fields = list(map(int, text.split()))
    except ValueError:  # a field past the int-to-str digit limit
        return None
    seqs = fields[::3]
    if last_seq is not None and seqs[0] <= last_seq or not all(map(lt, seqs, seqs[1:])):
        return None
    return fields


def _parse_lines(lines: list[str], lineno: int, last_seq: int | None) -> Generator:
    """Parse line by line from line number ``lineno``, after sequence number
    ``last_seq``; returns the last sequence number."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputFormatError(
                f"line {lineno}: expected 'seq node parent', got {excerpt(line)}"
            )
        if not line.isascii() or not all(map(_INTEGER.fullmatch, parts)):
            raise InputFormatError(
                f"line {lineno}: fields must be integers, got {excerpt(line)}"
            )
        try:
            seq, node, parent = map(int, parts)
        except ValueError:  # a field past the int-to-str digit limit
            raise InputFormatError(
                f"line {lineno}: a field has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if last_seq is not None and seq <= last_seq:
            raise InputFormatError(
                f"line {lineno}: sequence {seq} does not increase past {last_seq}"
            )
        last_seq = seq
        yield JoinEvent(seq, node, parent)
    return last_seq


def replay_events(
    events: Iterable[JoinEvent],
    root: int,
    root_adjust: bool = False,
    on_delta: Callable[[JoinEvent, Allocation], None] | None = None,
) -> IncrementalState:
    """Apply a join stream to a fresh tree rooted at ``root``.

    Each event goes through ``state.join``, whose reward delta is handed to
    ``on_delta``; without ``on_delta`` it goes through ``state.attach``, which
    builds no delta. Errors are re-raised with the offending sequence number;
    deltas already handed to ``on_delta`` stand.
    """
    state = IncrementalState(root, root_adjust=root_adjust)
    step = state.attach if on_delta is None else state.join
    for event in events:
        seq, node, parent = event
        try:
            result = step(node, parent)
        except ValueError as exc:
            raise InputFormatError(f"event {excerpt(seq)}: {exc}") from None
        if on_delta is not None:
            on_delta(event, result)
    return state


# -- run configuration ---------------------------------------------------

# The mechanism kinds, in their default order. ``mechanisms`` names its spec
# types by these, so a config is read without loading the allocators.
REFER_A_FRIEND = "refer_a_friend"
GEOMETRIC = "geometric"
SHAPLEY = "shapley"
MECHANISM_KINDS = (REFER_A_FRIEND, GEOMETRIC, SHAPLEY)

_MECHANISM_ALIASES = {
    "refer-a-friend": REFER_A_FRIEND,
    "refer_a_friend": REFER_A_FRIEND,
    "geometric": GEOMETRIC,
    "shapley": SHAPLEY,
}

OUTPUT_FORMATS = ("table", "records", "csv")


def _mechanism_names(value: object) -> tuple[str, ...]:
    """One mechanism name or a list of them, each read through its aliases."""
    kinds = []
    for name in value if isinstance(value, (list, tuple)) else (value,):
        kind = _MECHANISM_ALIASES.get(str(name).strip().lower())
        if kind is None:
            raise ValueError(f"unknown mechanism {excerpt(name)}; expected one of "
                             f"{sorted(_MECHANISM_ALIASES)}")
        kinds.append(kind)
    return tuple(kinds)


def _output_format(value: object) -> str:
    """One of ``OUTPUT_FORMATS``, as text."""
    text = str(value)
    if text not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {excerpt(text)}; "
                         f"expected one of {OUTPUT_FORMATS}")
    return text


class RunConfig(NamedTuple):
    """Everything a command run needs, merged from config file and flags.

    A bare ``RunConfig(...)`` checks nothing: input is read through
    ``config_from_mapping`` and ``updated``, whose field parsers check it.
    """

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

    def mechanism_specs(self) -> list[MechanismSpec]:
        """One spec per requested mechanism, in order. All three are built,
        so that each spec type checks its own fields, requested or not."""
        from .mechanisms import EqualShares, Geometric, ReferAFriend

        specs = {spec.kind: spec for spec in (
            ReferAFriend(self.unit, self.referrer_share),
            Geometric(self.unit, self.ratio, self.normalize),
            EqualShares(self.unit, self.root_adjust),
        )}
        return [specs[kind] for kind in self.mechanisms]

    def updated(self, **entries) -> "RunConfig":
        """A copy with the entries parsed and applied as config-file entries
        are; an entry that is None or empty (a flag not given) keeps its field.
        """
        given = {k: v for k, v in entries.items() if v is not None and v != ()}
        return self._replace(**_parse_fields(given)) if given else self


def _json_bool(value: object) -> bool:
    """Only JSON ``true``/``false``; strings and numbers are not booleans."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {excerpt(value)}")
    return value


def _json_limit(value: object) -> int:
    """A check's size limit: an integral JSON number such as ``3`` or
    ``3.0``, never a truncation, from 0 to ``LIMIT_CEILING``."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {excerpt(value)}")
    if value < 0:
        raise ValueError(f"expected at least 0, got {excerpt(value)}")
    if value > LIMIT_CEILING:
        raise ValueError(f"expected at most {LIMIT_CEILING}, got {excerpt(value)}")
    return int(value)


_CONFIG_PARSERS: dict[str, Callable] = {
    "mechanisms": _mechanism_names,
    "unit": parse_rational,
    "root_adjust": _json_bool,
    "ratio": parse_rational,
    "normalize": _json_bool,
    "referrer_share": parse_rational,
    "limit_bruteforce": _json_limit,
    "limit_core": _json_limit,
    "limit_convex": _json_limit,
    "output_format": _output_format,
    "exact": _json_bool,
}


def _parse_fields(entries: dict) -> dict:
    """Each entry parsed by its field's parser, rejecting unknown keys."""
    unknown = set(entries) - set(_CONFIG_PARSERS)
    if unknown:
        raise InputFormatError(f"unknown config fields {excerpt(sorted(unknown))}")
    parsed = {}
    for key, value in entries.items():
        try:
            parsed[key] = _CONFIG_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"config field {key!r}: {exc}") from None
    return parsed


def config_from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise InputFormatError("config must be a JSON object")
    return RunConfig(**_parse_fields(data))


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    return config_from_mapping(_decode_json(read_text(path), "config file"))


# -- rendering -----------------------------------------------------------

def _texts(allocation: Allocation, nodes: list[int], template: str) -> list[str]:
    """``template`` filled with the exact and display text of each node's
    reward, in the order of ``nodes``; a node without an entry reads 0.
    Each distinct numerator's text is made once."""
    denominator = allocation.denominator
    values = list(map(allocation.numerators.get, nodes, repeat(0)))
    texts = {v: template.format(*exact_and_display(v, denominator)) for v in set(values)}
    return list(map(texts.__getitem__, values))


def _entries(
    output_format: str,
    results: list[tuple[str | None, Allocation]],
    nodes: list[int],
    header: bool,
) -> str:
    """The records or csv text of ``(mechanism, allocation)`` pairs, a line
    per node; a mechanism of None leaves its field out."""
    records = output_format == "records"
    lines = [] if records or not header else [
        ("mechanism," if results[0][0] else "") + "node,exact,display"
    ]
    for kind, allocation in results:
        if records:
            # json.dumps layout, written directly: no field needs escaping.
            head = (f'{{"mechanism": "{kind}", ' if kind else "{") + '"node": '
            tail = ', "exact": "{}", "display": {}}}'
        else:
            head = f"{kind}," if kind else ""
            tail = ",{},{}"
        lines.extend(f"{head}{node}{text}"
                     for node, text in zip(nodes, _texts(allocation, nodes, tail)))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def render_report(
    report: RewardReport,
    output_format: str = "table",
    exact: bool = False,
    labels: dict[int, str] | None = None,
    header: bool = True,
) -> str:
    """Render a mechanism comparison of ``report.nodes()`` in the chosen format.

    The table is the human grid (mechanisms by nodes); records are one JSON
    object per allocation entry; csv is the same entries comma-separated.
    Display values are exact rationals rounded half-away-from-zero.
    ``header=False`` leaves out the csv header, for a piece after the first.
    """
    nodes = report.nodes()
    if output_format != "table":
        results = [(spec.kind, allocation) for spec, allocation in report.results]
        return _entries(output_format, results, nodes, header)

    labels = labels or {}
    headers = [f"{n}:{labels[n]}" if n in labels else str(n) for n in nodes]
    grid = [("mechanism", headers)]
    grid.extend((spec.kind, _texts(allocation, nodes, "{0}" if exact else "{1}"))
                for spec, allocation in report.results)
    name_width = max(len(name) for name, _ in grid)
    widths = [max(len(cells[k]) for _, cells in grid) for k in range(len(nodes))]
    lines = [
        "  ".join([name.ljust(name_width), *map(str.rjust, cells, widths)])
        for name, cells in grid
    ]
    summary = (
        f"nodes={report.n} height={report.height} referrals={report.n - 1}"
    )
    return "\n".join(lines + [summary]) + "\n"


def render_allocation(
    allocation: Allocation,
    output_format: str = "table",
    exact: bool = False,
    header: bool = True,
) -> str:
    """Render a single allocation (used for stream finals); ``header=False``
    leaves out the csv header, for a piece after the first."""
    nodes = sorted(allocation.numerators)
    if output_format != "table":
        return _entries(output_format, [(None, allocation)], nodes, header)
    texts = _texts(allocation, nodes, "\t{0}\n" if exact else "\t{1}\n")
    return "".join(f"{node}{text}" for node, text in zip(nodes, texts))
