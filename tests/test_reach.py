"""Every function and class in the package has a caller outside the tests.

A test-only function stays when tests use it to build or check other package
code, and goes when its only test is of itself.  The check is lexical: a
name defined in ``src/slopeforge/*.py`` is reached when the word occurs more
often in the package (``__init__.py`` aside, since it only re-exports),
``demos/`` and ``perfbench/`` than it is defined.  Dunders are called by
Python and ``cmd_*`` by ``cli.main``, which looks them up by name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slopeforge"

# name -> why it stays with no caller outside the tests
TEST_ONLY = {
    "direct_power": "builds the S3^3 and C3^2 fixtures of the group tests",
    "regular_character": "r_G, the regular character that the Swan character "
                         "Sw = sum (b_i - b_(i-1)) (r_G - pi_(H_i)) is built on",
}


def _defined_names() -> Counter:
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")
                        or name.startswith("cmd_")):
                    names[name] += 1
    return names


def _word_counts() -> Counter:
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list((ROOT / "demos").rglob("*.py"))
    paths += list((ROOT / "perfbench").rglob("*.py"))
    words = Counter()
    for path in paths:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_only_the_allowlisted_names_lack_a_caller():
    words = _word_counts()
    unreached = {name for name, k in _defined_names().items() if words[name] <= k}
    assert unreached == set(TEST_ONLY)
