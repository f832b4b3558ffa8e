"""Every name in a ``gpt_lab`` module's ``__all__`` has a reader in the program.

A reader is a name or attribute reference, per ``ast``, anywhere in
``src/`` outside the name's own top-level definition, or in the
benchmark's ``benchmarks/*.py``. Tests do not count, so a name that only
tests use is surface to delete or to move into the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpt_lab"

# The writer of the documented graph file format, public for its users.
UNREAD = {("graphs", "write_graph_file")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node
    return None


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes referenced in ``tree``, outside the ``skip`` subtree."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


MODULES = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
READS = {module: _reads(tree) for module, tree in MODULES.items()}
BENCHMARK_READS = set().union(*(_reads(_tree(path))
                                for path in sorted((ROOT / "benchmarks").glob("*.py"))))


def test_listed_exceptions_are_public_names():
    for module, name in UNREAD:
        assert name in _exports(MODULES[module])


@pytest.mark.parametrize("module", [m for m, tree in MODULES.items() if _exports(tree)])
def test_every_public_name_has_a_reader(module):
    tree = MODULES[module]
    elsewhere = BENCHMARK_READS.union(*(reads for other, reads in READS.items()
                                        if other != module))
    unread = [name for name in _exports(tree)
              if (module, name) not in UNREAD and name not in elsewhere
              and name not in _reads(tree, skip=_definition(tree, name))]
    assert not unread, f"{module}: no reader in src/ or benchmarks/ for {unread}"
