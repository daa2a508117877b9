"""Every name the package defines is reached from the package itself.

A top-level function or class, public or private, or a public method,
that only tests call is surface no command runs. This scan lists each such
definition in ``src/summinglab`` (``__init__.py`` only re-exports) and
requires a use of its name, as a name or an attribute, somewhere in
``src/summinglab`` outside its own definition. Imports and re-exports are
not uses.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "summinglab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Known test-only names awaiting their own removal. Each entry needs a reason;
# the list may only shrink.
KNOWN_UNREACHED: set[str] = set()


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of each top-level
    def and each public method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
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
        for qualname, name, first, last in _definitions(tree):
            if not any(used == name and not (where == module and first <= line <= last)
                       for used, where, line in uses):
                unreached.append(f"{module[:-3]}.{qualname}")
    return unreached


def _is_private(qualname: str) -> bool:
    return qualname.rpartition(".")[2].startswith("_")


def test_every_public_name_is_reached_from_the_package():
    # an entry of KNOWN_UNREACHED whose name got a use, or was deleted,
    # must leave the list too
    public = [name for name in unreached_names() if not _is_private(name)]
    assert sorted(public) == sorted(KNOWN_UNREACHED)


def test_every_private_helper_is_used_by_the_package():
    # a private helper that only tests call is code no command runs; no
    # allowance list: delete it, or fold what the tests check into a path
    # the package takes
    assert [name for name in unreached_names() if _is_private(name)] == []
