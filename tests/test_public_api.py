"""The package's top-level names are the ones README documents, they load
their modules on first use, each command loads only the modules it runs and
no third-party module, no module loads ``dataclasses``, and README's quick
tour runs as written."""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import treeshare
from treeshare import Allocation

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GOLDEN = ROOT / "tests" / "golden"


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


def _child(code: str, *args: str) -> object:
    """What ``code`` prints as JSON when run by a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('treeshare.'))"
PACKAGES = "sorted({m.partition('.')[0] for m in sys.modules})"


def test_importing_the_package_loads_no_module_and_dir_lists_every_name():
    loaded, names = _child(
        f"import json, sys, treeshare; print(json.dumps([{LOADED}, dir(treeshare)]))")
    assert loaded == []
    assert set(treeshare.__all__) <= set(names)


RUN_COMMAND = f"""
import contextlib, io, json, sys
from treeshare.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, {LOADED}, {PACKAGES}]))
"""
SHARED = ["allocation", "cli", "games", "io", "shapley", "tree"]


@pytest.mark.parametrize("args, also", [
    (["stream", "--quiet", "f9.log"], []),
    (["compute", "f9.json"], ["mechanisms"]),
    (["verify", "f9.json"], ["analysis"]),
    (["count", "f9.json"], ["analysis"]),
], ids=["stream", "compute", "verify", "count"])
def test_each_command_loads_only_the_modules_it_runs(args, also):
    *flags, name = args
    code, loaded, packages = _child(RUN_COMMAND, *flags, str(GOLDEN / name))
    assert code == 0
    assert loaded == [f"treeshare.{m}" for m in sorted(SHARED + also)]
    # What the interpreter loads before any import (``site`` may load
    # packages through ``.pth`` files) does not count.
    before = _child(f"import json, sys; print(json.dumps({PACKAGES}))")
    third_party = set(packages) - set(before) - set(sys.stdlib_module_names)
    assert third_party == {"treeshare"}


def test_no_module_loads_dataclasses():
    names = sorted(m.name for m in pkgutil.iter_modules(treeshare.__path__))
    loaded, dataclasses = _child(
        "import importlib, json, sys\n"
        "for name in sys.argv[1:]: importlib.import_module('treeshare.' + name)\n"
        f"print(json.dumps([{LOADED}, 'dataclasses' in sys.modules]))", *names)
    assert loaded == [f"treeshare.{m}" for m in names]
    assert not dataclasses


def test_every_public_name_is_the_object_its_module_defines():
    for name, module in treeshare._EXPORTS.items():
        assert getattr(treeshare, name) is getattr(
            import_module(f"treeshare.{module}"), name)
    namespace: dict = {}
    exec("from treeshare import *", namespace)
    assert {n: namespace[n] for n in treeshare.__all__} == {
        n: getattr(treeshare, n) for n in treeshare.__all__}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        treeshare.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from treeshare import no_such_name", {})
