"""Tree documents, event logs, config parsing, and rendering."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from treeshare import (
    InputFormatError,
    JoinEvent,
    MechanismSpec,
    RunConfig,
    TreeError,
    build_tree,
    compare,
    parse_event_log,
    parse_rational,
    parse_tree_file,
    render_report,
    render_tree_file,
    replay_events,
    shapley_basic,
)
from treeshare.io import config_from_mapping, render_allocation

from conftest import EXAMPLE_EDGES, random_tree_edges, shuffle_ids

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


def test_round_trip_preserves_tree():
    rng = random.Random(109)
    for _ in range(10):
        edges, root = shuffle_ids(rng, random_tree_edges(rng, rng.randint(1, 25)), 1)
        tree = build_tree(edges, root)
        again = parse_tree_file(render_tree_file(tree))
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


def test_parse_event_log_empty():
    assert list(parse_event_log([])) == []


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


def test_config_defaults_and_overrides():
    config = RunConfig()
    assert config.mechanisms == ("refer_a_friend", "geometric", "shapley")
    assert config.unit == 1
    updated = config.updated(unit=Fraction(1000), exact=True, root_adjust=None)
    assert updated.unit == 1000
    assert updated.exact
    assert updated.root_adjust  # None means "keep"


def test_config_mechanism_aliases_and_validation():
    config = RunConfig(mechanisms=("refer-a-friend", "SHAPLEY"))
    assert config.mechanisms == ("refer_a_friend", "shapley")
    with pytest.raises(InputFormatError, match="unknown mechanism"):
        RunConfig(mechanisms=("lottery",))
    with pytest.raises(InputFormatError, match="output format"):
        RunConfig(output_format="xml")


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
@pytest.mark.parametrize("value", [2.9, "3", True, None, float("inf"), float("nan")])
def test_config_limits_take_only_integral_numbers(key, value):
    with pytest.raises(InputFormatError, match=f"config field '{key}'"):
        config_from_mapping({key: value})


def test_config_limits_keep_integral_numbers():
    config = config_from_mapping({"limit_core": 3, "limit_convex": 4.0})
    assert (config.limit_core, config.limit_convex) == (3, 4)
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
            MechanismSpec.refer_a_friend(1000),
            MechanismSpec.geometric(1000),
            MechanismSpec.shapley(1000),
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
    from treeshare import round_half_away_from_zero

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
