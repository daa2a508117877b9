"""Every public name in the package is reached from the package itself.

A public top-level function or class, or a public method, that only tests
call is surface no command runs. This scan lists each such definition in
``src/summinglab`` (``__init__.py`` only re-exports) and requires a use of
its name, as a name or an attribute, somewhere in ``src/summinglab``
outside its own definition. Imports and re-exports are not uses.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "summinglab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Known test-only names awaiting their own removal. Each entry needs a reason;
# the list may only shrink.
KNOWN_UNREACHED = {
    # conjugate exponent; only the exponent tests call it, and deleting it
    # deletes those tests, which is a change of its own
    "spaces.Exponent.dual",
}


def _public_definitions(tree):
    """(qualified name, bare name, first line, last line) of each public def."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _uses(tree):
    """(bare name, line) of every name read or attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = [(name, module, line) for module, tree in trees.items()
            for name, line in _uses(tree)]
    unreached = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for qualname, name, first, last in _public_definitions(tree):
            if not any(used == name and not (where == module and first <= line <= last)
                       for used, where, line in uses):
                unreached.append(f"{module[:-3]}.{qualname}")
    return unreached


def test_every_public_name_is_reached_from_the_package():
    # an entry of KNOWN_UNREACHED whose name got a use, or was deleted,
    # must leave the list too
    assert sorted(unreached_names()) == sorted(KNOWN_UNREACHED)
