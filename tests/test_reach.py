"""Every function and class in the package has a caller outside the tests.

A test-only function stays when tests use it to build or check other package
code, and goes when its only test is of itself.  The check reads the syntax
trees of the package (``__init__.py`` aside, since it only re-exports),
``demos/`` and ``perfbench/``.  A definition ``module.name`` in
``src/slopeforge/*.py`` is reached by a ``Name`` that resolves to it: in its
own module, or bound by ``from ... import name [as alias]`` from its module
or from a re-export of the package.  Methods and module attributes are not
resolved, so an ``Attribute`` ``.name``, or a dotted part ``name`` of a
string constant (``perfbench/tracing.py`` names the functions it wraps so),
reaches every definition called ``name``.  Dunders are called by Python and
``cmd_*`` by ``cli.main``, which looks them up by name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slopeforge"

# module.name -> why it stays with no caller outside the tests
TEST_ONLY = {
    "groups.direct_power": "builds the S3^3 and C3^2 fixtures of the group tests",
    "reptheory.regular_character": "r_G, the regular character that the Swan "
                                   "character Sw = sum (b_i - b_(i-1)) (r_G - pi_(H_i)) "
                                   "is built on",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined() -> set[tuple[str, str]]:
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")
                        or name.startswith("cmd_")):
                    out.add((path.stem, name))
    return out


def _imports(tree, reexported) -> dict[str, tuple[str, str] | None]:
    """Local name -> (module, name) it was imported as from the package, or
    None when it is bound to something else: a module or an outside name."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "slopeforge":
                module = None
            else:
                module = ".".join(parts[1:] if node.level == 0 else parts)
            for alias in node.names:
                local = alias.asname or alias.name
                if module is None:
                    out[local] = None
                elif module:
                    out[local] = (module, alias.name)
                else:
                    out[local] = reexported.get(alias.name)
    return out


def _references() -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs reached by a Name, and the names reached as an
    attribute or a string part, in any module."""
    reexported = _imports(_tree(PACKAGE / "__init__.py"), {})
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list((ROOT / "demos").rglob("*.py"))
    paths += list((ROOT / "perfbench").rglob("*.py"))
    names, anywhere = set(), set()
    for path in paths:
        tree = _tree(path)
        imported = _imports(tree, reexported)
        here = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                target = imported.get(node.id, here and (here, node.id))
                if target:
                    names.add(target)
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+(\.\w+)*", node.value):
                    anywhere.update(node.value.split("."))
    return names, anywhere


def test_only_the_allowlisted_names_lack_a_caller():
    names, anywhere = _references()
    unreached = {f"{module}.{name}" for module, name in _defined() - names
                 if name not in anywhere}
    assert unreached == set(TEST_ONLY)
