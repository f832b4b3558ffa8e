"""Statement coverage of ``src/gpt_lab`` by the Tier-1 suite, standard library only.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
recording the lines that run in ``src/gpt_lab/*.py``, then lists every
statement that never ran. A statement is an AST statement other than a
docstring, a ``def``/``class`` or an import; a compound statement (``if``,
``for``, ``try``, ...) counts as run when its header or any statement in it
ran, so an unrun branch is listed by the statements of that branch. Code that
runs only in a forked pool worker or a subprocess is not seen, which is why
acceptance 8 (its folds run in a process pool) is left out of the run.

Exit status: 0 when every unrun statement is on ``ALLOWED``, 1 otherwise (and
the pytest status when the suite itself fails). Allowlist entries that match
no unrun statement are listed, so the list cannot go stale unnoticed.

Usage, from the repository root, with no arguments:

    python tools/linecov.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpt_lab"
SLOW_TEST = "tests/test_acceptance.py::test_08_end_to_end_protocol"

# (file, qualified name of the enclosing function or "<module>", first line of
# the statement stripped, why Tier-1 cannot run it)
ALLOWED = [
    ("cli.py", "<module>", "sys.exit(main())",
     "the __main__ guard runs only when the module is executed as a script"),
    ("training.py", "steady_heap", "return False",
     "the fallback for a C library without glibc's mallopt"),
    ("graphs.py", "_gen_community_count",
     'raise DataError("community generator produced an inconsistent sample")',
     "a generator's self-check: it fires only if the generator is wrong"),
    ("graphs.py", "_gen_multi_motif",
     'raise DataError("multi-motif generator produced an inconsistent sample")',
     "a generator's self-check: it fires only if the generator is wrong"),
    ("tensor.py", "Tensor.__repr__",
     'return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"',
     "diagnostic, read only in a failing test's output or a debugger"),
]

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside ``node``, in every block it has."""
    if not isinstance(node, (ast.Module, ast.stmt)):
        return []
    out = []
    for name in ("body", "orelse", "finalbody"):
        out.extend(getattr(node, name, []) or [])
    for handler in getattr(node, "handlers", []) or []:
        out.extend(handler.body)
    for case in getattr(node, "cases", []) or []:
        out.extend(case.body)
    return out


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[str, ast.stmt]]:
    """The statements of ``path`` (as defined above) none of whose lines are in
    ``ran``, each with the qualified name of its enclosing function or class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missed: list[tuple[str, ast.stmt]] = []

    def visit(node: ast.stmt, parent: ast.AST, scope: str) -> bool:
        """Whether ``node`` ran; appends each unrun counted statement in it."""
        children = _children(node)
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
        reached = [visit(child, node, inner) for child in children]
        if children:
            header = range(node.lineno, children[0].lineno)
            return any(reached) or any(line in ran for line in header)
        done = any(line in ran for line in range(node.lineno, node.end_lineno + 1))
        if not done and not isinstance(node, _SKIPPED) and not _is_docstring(node, parent):
            missed.append((scope, node))
        return done

    for node in tree.body:
        visit(node, tree, "<module>")
    return sorted(missed, key=lambda item: item[1].lineno)


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; the exit status and the lines run per file."""
    prefix = str(PACKAGE) + "/"
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), lines


def main() -> int:
    status, lines = trace_suite(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                                 "--deselect", SLOW_TEST])
    reasons = {entry[:3]: entry[3] for entry in ALLOWED}
    unlisted, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for scope, node in unrun_statements(path, lines.get(str(path), set())):
            key = (path.name, scope, source[node.lineno - 1].strip())
            where = f"{rel}:{node.lineno} in {scope}: {key[2]}"
            if key in reasons:
                used.add(key)
                print(f"allowed  {where}  ({reasons[key]})")
            else:
                unlisted.append(where)
    for line in unlisted:
        print(f"UNRUN    {line}")
    for key in sorted(reasons.keys() - used):
        print(f"stale allowlist entry: {key[0]} in {key[1]}: {key[2]}")
    print(f"linecov: {len(unlisted)} unrun statement(s) outside the allowlist")
    if status:
        print(f"linecov: pytest exited {status}")
        return status
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
