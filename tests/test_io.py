"""Tree documents, event logs, config parsing, and rendering."""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from treeshare import (
    EqualShares,
    Geometric,
    InputFormatError,
    JoinEvent,
    ReferAFriend,
    TreeError,
    build_tree,
    compare,
    parse_event_log,
    parse_tree_file,
    replay_events,
    shapley_basic,
)
from treeshare.io import RunConfig, parse_rational, render_report
from treeshare.io import config_from_mapping, load_config, read_text, render_allocation

from conftest import EXAMPLE_EDGES, _int_digit_limit, random_tree_edges, shuffle_ids

EXAMPLE_DOC = json.dumps(
    {
        "root": 1,
        "edges": [
            {"child": 3, "parent": 1},
            {"child": 6, "parent": 3},
            {"child": 7, "parent": 3},
        ],
    }
)


# -- tree files -----------------------------------------------------------------

def test_parse_example_document(example_tree):
    document = parse_tree_file(EXAMPLE_DOC)
    assert document.tree == example_tree
    assert document.labels == {}


def test_parse_single_node_document():
    document = parse_tree_file('{"root": 1, "edges": []}')
    assert document.tree.n == 1


def test_parse_rejects_root_with_parent():
    doc = '{"root": 1, "edges": [{"child": 1, "parent": 3}]}'
    with pytest.raises(TreeError, match="root 1 has a parent"):
        parse_tree_file(doc)


def test_parse_rejects_bad_json_and_shape():
    with pytest.raises(InputFormatError, match="not valid JSON"):
        parse_tree_file("{root: 1")
    with pytest.raises(InputFormatError, match="JSON object"):
        parse_tree_file("[1, 2]")
    with pytest.raises(InputFormatError, match="missing the 'root'"):
        parse_tree_file('{"edges": []}')
    with pytest.raises(InputFormatError, match="edge #0"):
        parse_tree_file('{"root": 1, "edges": [{"child": 2}]}')


def test_strict_mode_rejects_unknown_fields():
    doc = '{"root": 1, "edges": [], "color": "red"}'
    with pytest.raises(InputFormatError, match="unknown fields"):
        parse_tree_file(doc)
    assert parse_tree_file(doc, strict=False).tree.n == 1
    edge_doc = '{"root": 1, "edges": [{"child": 2, "parent": 1, "w": 3}]}'
    with pytest.raises(InputFormatError, match="unknown fields"):
        parse_tree_file(edge_doc)
    assert parse_tree_file(edge_doc, strict=False).tree.n == 2


def test_labels_parsed_and_validated():
    doc = '{"root": 1, "edges": [{"child": 2, "parent": 1}], "labels": {"2": "bo"}}'
    document = parse_tree_file(doc)
    assert document.labels == {2: "bo"}
    bad = '{"root": 1, "edges": [], "labels": {"9": "x"}}'
    with pytest.raises(InputFormatError, match="unknown node"):
        parse_tree_file(bad)


@pytest.mark.parametrize("labels", ["[1]", '"x"', "3", "true", "[]"])
def test_labels_that_are_not_an_object_are_rejected(labels):
    doc = f'{{"root": 1, "edges": [], "labels": {labels}}}'
    with pytest.raises(InputFormatError, match="'labels' must be an object"):
        parse_tree_file(doc)


@pytest.mark.parametrize("name", ['{"a": [1]}', "[1]", "7", "null", "false"])
def test_label_values_that_are_not_strings_are_rejected(name):
    doc = ('{"root": 1, "edges": [{"child": 2, "parent": 1}], '
           f'"labels": {{"2": {name}}}}}')
    with pytest.raises(InputFormatError, match="label for node 2 must be a JSON string"):
        parse_tree_file(doc)


@pytest.mark.parametrize("name", ["a\nb", "a\tb", "\x1b[31mred"])
def test_labels_that_would_break_the_table_are_rejected(name):
    doc = json.dumps({"root": 1, "edges": [], "labels": {"1": name}})
    message = f"unprintable label for node 1: {name!r}"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        parse_tree_file(doc)


@pytest.mark.parametrize("name", ["carol", "José", "a b", ""])
def test_printable_labels_are_kept(name):
    doc = json.dumps({"root": 1, "edges": [], "labels": {"1": name}})
    assert parse_tree_file(doc).labels == {1: name}


@pytest.mark.parametrize("key", ["1_0", " 1 ", "01", "+1", "\uff11", "1.0", "", "None"])
def test_label_keys_must_be_the_canonical_text_of_an_id(key):
    # int() would read each of these (but the last three) as node 1 or 10.
    doc = json.dumps({"root": 1, "edges": [{"child": 10, "parent": 1}],
                      "labels": {key: "x"}})
    message = f"label key {key!r} is not a node id"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        parse_tree_file(doc)


def test_two_keys_cannot_name_one_node():
    doc = '{"root": 1, "edges": [], "labels": {"1": "one", "01": "uno"}}'
    with pytest.raises(InputFormatError, match="label key '01'"):
        parse_tree_file(doc)


def test_negative_label_key_is_an_unknown_node():
    doc = '{"root": 1, "edges": [], "labels": {"-1": "x"}}'
    with pytest.raises(InputFormatError, match="label for unknown node -1"):
        parse_tree_file(doc)


def test_too_long_integer_in_a_tree_file_names_the_file():
    doc = '{"root": 1' + "0" * 5000 + ', "edges": []}'
    with _int_digit_limit(4300), pytest.raises(
        InputFormatError, match=r"^tree file holds an integer of more than \d+ digits$"
    ):
        parse_tree_file(doc)


def test_too_long_integer_in_a_config_file_names_the_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"limit_core": 1' + "0" * 5000 + "}")
    with _int_digit_limit(4300), pytest.raises(
        InputFormatError, match=r"^config file holds an integer of more than \d+ digits$"
    ):
        load_config(str(path))


def test_null_or_empty_labels_mean_no_labels():
    for labels in ("null", "{}"):
        doc = f'{{"root": 1, "edges": [], "labels": {labels}}}'
        assert parse_tree_file(doc).labels == {}


def test_read_text_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"root": 1, "labels": {"1": "\xe9"}}')
    with pytest.raises(InputFormatError, match=f"^cannot read {path}: 'utf-8' codec"):
        read_text(str(path))


def test_shuffled_ids_parse_to_the_same_tree():
    rng = random.Random(109)
    for _ in range(10):
        edges, root = shuffle_ids(rng, random_tree_edges(rng, rng.randint(1, 25)), 1)
        tree = build_tree(edges, root)
        again = parse_tree_file(json.dumps({
            "root": root, "edges": [{"child": c, "parent": p} for c, p in edges],
        }))
        assert again.tree == tree
        assert again.tree.root == tree.root
        assert again.tree.edges() == tree.edges()


# -- event logs ------------------------------------------------------------------

def test_parse_event_log_basic():
    lines = ["1 3 1", "2 6 3", "# comment", "", "3 7 3"]
    events = list(parse_event_log(lines))
    assert events == [JoinEvent(1, 3, 1), JoinEvent(2, 6, 3), JoinEvent(3, 7, 3)]


def test_parse_event_log_is_streaming():
    def endless():
        seq = 0
        while True:
            seq += 1
            yield f"{seq} {seq + 1} 1"

    stream = parse_event_log(endless())
    first = [next(stream) for _ in range(5)]
    assert first[4].seq == 5  # consumed lazily, no end required


def test_parse_event_log_rejects_bad_lines():
    with pytest.raises(InputFormatError, match="line 1"):
        list(parse_event_log(["1 2"]))
    with pytest.raises(InputFormatError, match="integers"):
        list(parse_event_log(["1 two 1"]))
    with pytest.raises(InputFormatError, match="does not increase"):
        list(parse_event_log(["2 2 1", "1 3 1"]))


@pytest.mark.parametrize("line", [
    "\uff11 2 1",           # fullwidth digit one
    "1 1_0 1",              # underscore between digits
    "1 \u0662 1",           # Arabic-Indic digit two
    "1 +2 1",               # explicit plus sign
    "1\u00a02 1",           # no-break space between fields
    "1 2 1e0",
])
def test_parse_event_log_takes_only_ascii_decimal_fields(line):
    message = f"line 2: fields must be integers, got {line!r}"
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        list(parse_event_log(["1 5 1", line]))


def test_parse_event_log_reads_minus_signs_and_leading_zeros():
    events = list(parse_event_log(["-5 007 -1"]))
    assert events == [JoinEvent(-5, 7, -1)]


def test_join_event_is_an_immutable_named_triple():
    event = JoinEvent(1, 3, 1)
    assert event == JoinEvent(seq=1, node=3, parent=1) == (1, 3, 1)
    assert (event.seq, event.node, event.parent) == (1, 3, 1)
    assert JoinEvent._fields == ("seq", "node", "parent")
    assert hash(event) == hash(JoinEvent(1, 3, 1))
    with pytest.raises(AttributeError):
        event.node = 4


def test_parse_event_log_empty():
    assert list(parse_event_log([])) == []


def _events_line_by_line(lines) -> tuple[list, str | None]:
    """The documented rules applied one line at a time: the events before
    the first bad line, and that line's message (None if there is none)."""
    events: list = []
    last_seq = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            return events, f"line {lineno}: expected 'seq node parent', got {line!r}"
        if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
            return events, f"line {lineno}: fields must be integers, got {line!r}"
        try:
            seq, node, parent = map(int, parts)
        except ValueError:  # a field past the int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            return events, f"line {lineno}: a field has more than {limit} digits"
        if last_seq is not None and seq <= last_seq:
            return events, f"line {lineno}: sequence {seq} does not increase past {last_seq}"
        last_seq = seq
        events.append(JoinEvent(seq, node, parent))
    return events, None


def _parsed(lines) -> tuple[list, str | None]:
    events: list = []
    try:
        events.extend(parse_event_log(lines))
    except InputFormatError as exc:
        return events, str(exc)
    return events, None


# What the plain line of sequence number ``seq`` can be changed into: each
# change either breaks it or sends its block off the plain-block route.
LINE_EDITS = {
    "comment": lambda line, seq: "# a comment\n",
    "blank": lambda line, seq: " \n",
    "crlf": lambda line, seq: line[:-1] + "\r\n",
    "tab": lambda line, seq: line.replace(" ", "\t", 1),
    "plus": lambda line, seq: "+" + line,
    "underscore": lambda line, seq: line.replace(" ", "_0 ", 1),
    "non-ascii digit": lambda line, seq: line.replace(" ", " \u0663", 1),
    "4301 digits": lambda line, seq: f"{seq} 1{'0' * 4300} 1\n",
    "two fields": lambda line, seq: line.partition(" ")[2],
    "seq repeated": lambda line, seq: f"{seq - 1} {line.partition(' ')[2]}",
    "no newline": lambda line, seq: line[:-1],
}
# The lines around the edges of 1024-line blocks.
EDGE_LINES = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 2049]


def _plain_line(seq: int) -> str:
    return f"{seq} {seq + 1} {seq // 2 + 1}\n"


@st.composite
def event_logs(draw) -> list[str]:
    """A list of log lines: plain ones, then a few edited at chosen places
    (often at a block edge), with the final newline sometimes missing."""
    n = draw(st.sampled_from([0, 1, 5, 1023, 1024, 1025, 2048, 2049, 2050])
             | st.integers(0, 2100))
    lines = [_plain_line(seq) for seq in range(1, n + 1)]
    if n:
        for _ in range(draw(st.integers(0, 3))):
            at = min(draw(st.sampled_from(EDGE_LINES) | st.integers(0, n - 1)), n - 1)
            edit = LINE_EDITS[draw(st.sampled_from(sorted(LINE_EDITS)))]
            lines[at] = edit(_plain_line(at + 1), at + 1)
        if draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\n")
    return lines


def _with_seq_repeated(n: int, at: int) -> list[str]:
    lines = [_plain_line(seq) for seq in range(1, n + 1)]
    lines[at] = LINE_EDITS["seq repeated"](lines[at], at + 1)
    return lines


@settings(max_examples=150, deadline=None)
@given(event_logs())
@example(_with_seq_repeated(1100, 1024))  # the first line of a block
@example(_with_seq_repeated(1100, 1023))  # the last line of a block
def test_parse_event_log_matches_a_line_by_line_parse(lines):
    with _int_digit_limit(4300):
        events, message = _parsed(lines)
        assert (events, message) == _events_line_by_line(lines)
    assert all(type(event) is JoinEvent for event in events)


@pytest.mark.parametrize("lines", [
    ["1 2 1", "2 3 1"],                # list items without newlines
    ["1 2", " 1\n2 3 1\n"],            # a line split across two items
    ["1 2 1\n2 3 1\n"],               # two lines in one item
], ids=["no-newlines", "split", "joined"])
def test_parse_event_log_reads_list_items_as_lines(lines):
    assert _parsed(lines) == _events_line_by_line(lines)


def test_replay_events_matches_batch():
    events = [JoinEvent(i + 1, child, parent) for i, (child, parent) in enumerate(EXAMPLE_EDGES)]
    seen = []
    state = replay_events(events, root=1, on_delta=lambda e, d: seen.append((e.seq, d)))
    assert state.allocation.rewards == shapley_basic(state.to_tree()).rewards
    assert [s for s, _ in seen] == [1, 2, 3]
    assert seen[0][1].rewards == {1: Fraction(1, 2), 3: Fraction(1, 2)}


def test_replay_events_reports_seq_on_error():
    events = [JoinEvent(1, 3, 1), JoinEvent(2, 5, 99)]
    deltas = []
    with pytest.raises(InputFormatError, match="event 2"):
        replay_events(events, root=1, on_delta=lambda e, d: deltas.append(d))
    assert len(deltas) == 1  # the delta before the failure already went out


REPLAY_ERRORS = [
    ([(1, 3, 1), (2, 5, 99)], "event 2: unknown parent 99"),
    ([(1, 3, 1), (2, 3, 1)], "event 2: node 3 already joined"),
    ([(4, 0, 1)], "event 4: node ids must be positive integers, got 0"),
    ([(1, 3, 1), (7, -2, 3)], "event 7: node ids must be positive integers, got -2"),
]


@pytest.mark.parametrize("triples,message", REPLAY_ERRORS)
def test_replay_without_deltas_fails_like_the_join_route(triples, message):
    events = [JoinEvent(*t) for t in triples]
    for on_delta in (None, lambda e, d: None):
        with pytest.raises(InputFormatError) as info:
            replay_events(events, root=1, on_delta=on_delta)
        assert str(info.value) == message


def test_replay_without_deltas_matches_batch():
    rng = random.Random(113)
    edges = random_tree_edges(rng, 300)
    events = [JoinEvent(seq, c, p) for seq, (c, p) in enumerate(edges, start=1)]
    for adjust in (False, True):
        quiet = replay_events(events, root=1, root_adjust=adjust)
        loud = replay_events(events, root=1, root_adjust=adjust,
                             on_delta=lambda e, d: None)
        assert quiet.allocation == loud.allocation
        assert quiet.to_tree() == loud.to_tree()


def test_replay_empty_log_keeps_root_alone():
    state = replay_events([], root=7)
    assert state.allocation.rewards == {7: Fraction(1)}
    assert state.to_tree().n == 1


# -- rationals and config -----------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("7/6") == Fraction(7, 6)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-3") == -3
    with pytest.raises(InputFormatError):
        parse_rational("one half")
    with pytest.raises(InputFormatError):
        parse_rational("1/0")


DIGITS = st.sampled_from("0123456789") | st.sampled_from("\uff11\u0663\u0967")
SHORT_DIGITS = st.text(DIGITS, max_size=3)
# Digit runs of any length, "_" between digits or misplaced.
DIGIT_RUNS = (
    SHORT_DIGITS
    | st.builds(str.__mul__, DIGITS, st.integers(4290, 4310))
    | st.builds("{}_{}".format, SHORT_DIGITS, SHORT_DIGITS)
)
# Exponents stay short: Fraction would write out 10**exponent.
EXPONENTS = st.builds("{}{}{}".format, st.sampled_from("eE"),
                      st.sampled_from(["", "-", "+"]), SHORT_DIGITS)
# Text near the grammar of Fraction's literals.
RATIONAL_LITERALS = st.builds(
    "{0}{1}{2}{3}{0}".format,
    st.sampled_from(["", " ", "\t", "\u3000"]),
    st.sampled_from(["", "-", "+"]),
    DIGIT_RUNS,
    st.builds("/{}".format, DIGIT_RUNS)
    | st.builds(".{}{}".format, DIGIT_RUNS, st.just("") | EXPONENTS)
    | EXPONENTS
    | st.sampled_from(["", "/-2", " / 2", "/0", "d", ".d", "inf", "nan"]),
)


@settings(max_examples=200, deadline=None)
@given(RATIONAL_LITERALS)
def test_parse_rational_reads_what_fraction_reads_at_any_length(text):
    # Fraction reads "_" between digits from Python 3.11 on; the parser reads
    # it on every version.
    assume(sys.version_info >= (3, 11) or "_" not in text)
    with _int_digit_limit(0):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
    with _int_digit_limit(4300):
        try:
            value = parse_rational(text)
        except InputFormatError:
            value = None
    assert value == expected


def test_config_defaults_and_overrides():
    config = RunConfig()
    assert config.mechanisms == ("refer_a_friend", "geometric", "shapley")
    assert config.unit == 1
    updated = config.updated(unit=Fraction(1000), exact=True, root_adjust=None)
    assert updated.unit == 1000
    assert updated.exact
    assert updated.root_adjust  # None means "keep"


def test_config_mechanism_aliases_and_validation():
    config = config_from_mapping({"mechanisms": ["refer-a-friend", "SHAPLEY"]})
    assert config.mechanisms == ("refer_a_friend", "shapley")
    with pytest.raises(InputFormatError,
                       match="^config field 'mechanisms': unknown mechanism"):
        config_from_mapping({"mechanisms": ["lottery"]})
    with pytest.raises(InputFormatError,
                       match="^config field 'output_format': unknown output format"):
        config_from_mapping({"output_format": "xml"})


def test_config_from_mapping():
    config = config_from_mapping(
        {"unit": "1000", "ratio": "1/3", "mechanisms": ["geometric"], "exact": True}
    )
    assert config.unit == 1000
    assert config.ratio == Fraction(1, 3)
    assert config.mechanisms == ("geometric",)
    with pytest.raises(InputFormatError, match="unknown config"):
        config_from_mapping({"units": 5})


@pytest.mark.parametrize("key", ["root_adjust", "normalize", "exact"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], "0"])
def test_config_bool_fields_take_only_json_booleans(key, value):
    with pytest.raises(InputFormatError, match=f"config field '{key}'"):
        config_from_mapping({key: value})


def test_config_bool_fields_keep_json_booleans():
    config = config_from_mapping({"root_adjust": False, "exact": True,
                                  "normalize": False})
    assert (config.root_adjust, config.exact, config.normalize) == (False, True, False)


@pytest.mark.parametrize("key", ["limit_bruteforce", "limit_core", "limit_convex"])
@pytest.mark.parametrize("value", [2.9, "3", True, None, float("inf"), float("nan"),
                                   -1])
def test_config_limits_take_only_integral_numbers(key, value):
    with pytest.raises(InputFormatError, match=f"config field '{key}'"):
        config_from_mapping({key: value})


def test_config_limits_keep_integral_numbers():
    config = config_from_mapping({"limit_core": 3, "limit_convex": 4.0,
                                  "limit_bruteforce": 0})
    assert (config.limit_core, config.limit_convex, config.limit_bruteforce) == (3, 4, 0)
    assert isinstance(config.limit_convex, int)


def test_config_specs_carry_parameters():
    config = RunConfig(unit=Fraction(1000), root_adjust=False, ratio=Fraction(1, 3))
    specs = {spec.kind: spec for spec in config.mechanism_specs()}
    assert specs["shapley"].unit_value == 1000
    assert not specs["shapley"].root_adjust
    assert specs["geometric"].ratio == Fraction(1, 3)


# -- rendering -------------------------------------------------------------------------

def _example_report(example_tree):
    return compare(
        example_tree,
        [
            ReferAFriend(1000),
            Geometric(1000),
            EqualShares(1000),
        ],
    )


def test_render_table_contains_grid(example_tree):
    text = render_report(_example_report(example_tree))
    lines = text.splitlines()
    assert lines[0].split() == ["mechanism", "1", "3", "6", "7"]
    assert lines[1].split() == ["refer_a_friend", "500", "1500", "500", "500"]
    assert lines[2].split() == ["geometric", "1500", "1500", "0", "0"]
    assert lines[3].split() == ["shapley", "1167", "1167", "333", "333"]
    assert "referrals=3" in lines[4]


def test_render_exact_mode_shows_rationals(example_tree):
    text = render_report(_example_report(example_tree), exact=True)
    assert "3500/3" in text
    assert "1000/3" in text


def test_render_records_round_trip(example_tree):
    text = render_report(_example_report(example_tree), output_format="records")
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == 12
    shapley_root = next(
        r for r in records if r["mechanism"] == "shapley" and r["node"] == 1
    )
    assert shapley_root["exact"] == "3500/3"
    assert shapley_root["display"] == 1167
    # every printed display value is the half-away rounding of its exact value
    from treeshare.allocation import round_half_away_from_zero

    for record in records:
        exact = Fraction(record["exact"])
        assert record["display"] == round_half_away_from_zero(exact)


def test_render_csv(example_tree):
    text = render_report(_example_report(example_tree), output_format="csv")
    lines = text.splitlines()
    assert lines[0] == "mechanism,node,exact,display"
    assert "shapley,1,3500/3,1167" in lines


def test_render_table_uses_labels(example_tree):
    text = render_report(_example_report(example_tree), labels={3: "carol"})
    assert "3:carol" in text


def test_render_allocation_formats(example_tree):
    allocation = shapley_basic(example_tree).scaled(1000)
    table = render_allocation(allocation, exact=True)
    assert "6500/3" in table  # root: 13/6 * 1000
    records = render_allocation(allocation, output_format="records")
    first = json.loads(records.splitlines()[0])
    assert first == {"node": 1, "exact": "6500/3", "display": 2167}
    csv_text = render_allocation(allocation, output_format="csv")
    assert csv_text.splitlines()[0] == "node,exact,display"
