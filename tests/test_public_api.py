"""The package's top-level names are the ones README documents, and its
quick tour runs as written."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
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


def test_readme_quick_tour_shows_what_it_computes():
    # Each bare expression followed by ``# <result>`` lines must equal that
    # result; the other statements only have to run.
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                     namespace)
        result = []
        for line in lines[statement.end_lineno:]:
            if not line.startswith("# "):
                break
            result.append(line[2:])
        if result:
            assert value == eval("\n".join(result), {"Fraction": Fraction}), result
            checked += 1
    assert checked == 4
