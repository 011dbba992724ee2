"""Every function and class in the package is reached from outside the tests.

A test-only function stays when tests use it to build or check other package
code, and goes when its only test is of itself.  The check reads the syntax
trees of the package (``__init__.py`` aside, since it only re-exports),
``demos/`` and ``perfbench/``, and follows reach transitively from its roots:
the module-level statements of each package module, every file under
``demos/`` and ``perfbench/``, dunders (called by Python) and ``cmd_*`` (looked
up by name in ``cli.main``).  Only the bodies of the definitions reached are
followed; the statements of a class body that are not definitions belong to
the class, and a nested definition is reached only through a reference.

A ``Name`` in a package module reaches the definition ``module.name`` it
resolves to: in its own module, or bound by ``from ... import name [as
alias]`` from its module or from a re-export of the package.  A method is
the definition ``module.Class.name``.  Inside a class, ``self.name`` and
``cls.name`` reach the method ``name`` of that class when it has one (no
package class overrides a method of another).  Other attributes and module
attributes are not resolved, so any other ``Attribute`` ``.name``, or a
dotted part ``name`` of a string constant (``perfbench/tracing.py`` names the
functions it wraps so), reaches every definition called ``name``.

The same trees show the locals that nothing reads: a name a package function
binds (``_`` aside) that neither it nor a definition nested in it reads.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slopeforge"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# module.name -> why it stays with no caller outside the tests
TEST_ONLY = {
    "reptheory.regular_character": "r_G, the regular character that the Swan "
                                   "character Sw = sum (b_i - b_(i-1)) (r_G - pi_(H_i)) "
                                   "is built on",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_root(name: str) -> bool:
    return name.startswith("__") and name.endswith("__") or name.startswith("cmd_")


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


def _own_nodes(node: ast.AST):
    """node and the nodes under it, down to but not into nested definitions."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(child for child in ast.iter_child_nodes(current)
                     if not isinstance(child, DEFINITIONS))


def _definitions(node: ast.AST, owner: str | None = None, cls: str | None = None):
    """(key, definition, class) for the definitions under node: the key is
    ``Class.name`` for a method and ``name`` otherwise, and the class is the
    innermost one the definition sits in, if any."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield (f"{owner}.{child.name}" if owner else child.name), child, cls
            inner = child.name if isinstance(child, ast.ClassDef) else None
            yield from _definitions(child, inner, inner or cls)
        else:
            yield from _definitions(child, owner, cls)


def _references(nodes, imported, here, methods=frozenset()):
    """(module, name) pairs reached by a Name among `nodes`, or by a
    ``self.x``/``cls.x`` with ``x`` among the ``Class.x`` keys `methods`, and
    the names reached as another attribute or a string part."""
    names, anywhere = set(), set()
    for node in nodes:
        if isinstance(node, ast.Name):
            target = imported.get(node.id, here and (here, node.id))
            if target:
                names.add(target)
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            method = next((key for key in methods
                           if key.rpartition(".")[2] == node.attr), None)
            if owner in ("self", "cls") and method:
                names.add((here, method))
            else:
                anywhere.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                anywhere.update(node.value.split("."))
    return names, anywhere


def _unreached() -> set[str]:
    reexported = _imports(_tree(PACKAGE / "__init__.py"), {})
    # (module, key) -> what the definitions of that key reach
    edges: dict[tuple[str, str], tuple[set, set]] = {}
    names, anywhere = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        imported = _imports(tree, reexported)
        module = path.stem
        roots = _references(_own_nodes(tree), imported, module)
        names |= roots[0]
        anywhere |= roots[1]
        definitions = list(_definitions(tree))
        methods = {}  # class -> the Class.x keys of its methods
        for key, _, _ in definitions:
            if "." in key:
                methods.setdefault(key.partition(".")[0], set()).add(key)
        for key, node, cls in definitions:
            found = _references(_own_nodes(node), imported, module,
                                methods.get(cls, frozenset()))
            reached = edges.setdefault((module, key), (set(), set()))
            reached[0].update(found[0])
            reached[1].update(found[1])
            if _is_root(node.name):
                names.add((module, key))
    for path in sorted([*(ROOT / "demos").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")]):
        tree = _tree(path)
        found = _references(ast.walk(tree), _imports(tree, reexported), None)
        names |= found[0]
        anywhere |= found[1]

    seen: set[tuple[str, str]] = set()
    while True:
        frontier = {key for key in edges if key not in seen
                    and (key in names or key[1].rpartition(".")[2] in anywhere)}
        if not frontier:
            break
        seen |= frontier
        for key in frontier:
            names |= edges[key][0]
            anywhere |= edges[key][1]
    return {f"{module}.{name}" for module, name in edges.keys() - seen}


def test_only_the_allowlisted_names_lack_a_caller():
    assert _unreached() == set(TEST_ONLY)


def _unread_locals() -> set[str]:
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(fn))
            bound = {node.id for node in own if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Store)}
            shared = {name for node in own
                      if isinstance(node, (ast.Global, ast.Nonlocal))
                      for name in node.names}
            read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            out |= {f"{path.stem}.{fn.name}.{name}"
                    for name in bound - read - shared - {"_"}}
    return out


def test_every_local_is_read():
    assert _unread_locals() == set()
