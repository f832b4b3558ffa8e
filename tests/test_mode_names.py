"""A tuning mode's name is compared only in ``prompt.py``.

Other ``gpt_lab`` modules pass a mode name on, and validate it against
``prompt.MODES``, but none compares it (``==``, ``!=``, ``in``,
``not in``) with a mode's string, so what a mode trains and which
backbone it runs on are decided in one module.
"""

import ast
from pathlib import Path

import pytest

from gpt_lab.prompt import MODES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gpt_lab"
_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _strings(node: ast.AST) -> list:
    """The constants an operand names: itself, or a literal tuple, list or set's items."""
    if isinstance(node, ast.Constant):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [e.value for e in node.elts if isinstance(e, ast.Constant)]
    return []


def mode_comparisons(source: str) -> list[tuple[int, str]]:
    """(line, mode) for each mode name that a comparison in ``source`` tests against."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, _OPS) for op in node.ops):
            found += [(node.lineno, value)
                      for operand in (node.left, *node.comparators)
                      for value in _strings(operand) if value in MODES]
    return found


def test_the_guard_sees_each_form_of_comparison():
    source = ('a = config.mode == "lightweight"\n'
              'b = "ft" != mode\n'
              'c = mode in ("ft", "deepgpt")\n'
              'd = mode not in ["virtual_node"]\n'
              'e = mode in MODES or mode == "bogus" or mode is "ft"\n')
    assert mode_comparisons(source) == [(1, "lightweight"), (2, "ft"), (3, "ft"),
                                        (3, "deepgpt"), (4, "virtual_node")]
    assert mode_comparisons((PACKAGE / "prompt.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "prompt"))
def test_no_module_but_prompt_compares_a_mode_name(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert not mode_comparisons(source), f"{module}.py compares mode names"
