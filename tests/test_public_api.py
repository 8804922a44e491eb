"""The package's top-level names are the ones README documents."""

from __future__ import annotations

import re
from pathlib import Path

import treeshare
from treeshare import Allocation

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_matches_the_public_api_list_in_readme():
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    bullets = section.split("\n\n")[2]  # after the heading and the intro
    documented = set(re.findall(r"`(\w+)`", bullets))
    assert documented == set(treeshare.__all__)
    assert all(hasattr(treeshare, name) for name in treeshare.__all__)


def test_allocation_members_in_readme_exist():
    text = README.read_text(encoding="utf-8")
    paragraph = next(p for p in text.split("\n\n")
                     if p.startswith("An `Allocation` stores"))
    members = set(re.findall(r"`(?:allocation\.)?([a-z_]\w*)`", paragraph))
    assert {"numerators", "denominator", "rewards", "display"} <= members
    allocation = Allocation({1: 1, 2: 3}, 2)
    assert [name for name in sorted(members) if not hasattr(allocation, name)] == []
