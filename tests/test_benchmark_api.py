"""Every call that the benchmark's workloads make into ``gpt_lab`` binds to the
current signature.

``benchmarks/workloads.py`` drives the library through its public entry
points and does not change with it, so an API change that breaks one of
its calls fails here, not only in a benchmark run. Each call is bound with
``inspect.signature(...).bind``, or ``bind_partial`` when it passes
``**`` keywords, whose names only a run would show.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"

# The entry points the workloads are known to call; the parse must find each.
EXPECTED = {"training.train", "training.pretrain", "training.evaluate_fold",
            "checkpoint.save_prompt", "checkpoint.load_prompt", "checkpoint.fingerprint",
            "graphs.gen_pretext", "graphs.gen_downstream", "TuningConfig", "BackboneConfig"}


def _import(module: str, name: str):
    """What ``from module import name`` binds, or None when it binds nothing."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def _library_names(tree: ast.Module) -> dict[str, object]:
    """Each local name that the module imports from ``gpt_lab``, and its object."""
    return {alias.asname or alias.name: _import(node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "gpt_lab"
            for alias in node.names}


def _library_calls() -> list[tuple[str, int, ast.Call, object]]:
    """(name, line, call, target) of every call into ``gpt_lab`` in the workloads."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), filename=str(WORKLOADS))
    names = _library_names(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            name = func.id
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            name = f"{func.value.id}.{func.attr}"
            target = getattr(names[func.value.id], func.attr, None)
        else:
            continue
        calls.append((name, node.lineno, node, target))
    return calls


CALLS = _library_calls()


def test_the_parse_finds_every_known_entry_point():
    assert EXPECTED <= {name for name, *_ in CALLS}


@pytest.mark.parametrize("name, line, call, target", CALLS,
                         ids=[f"{name}@{line}" for name, line, *_ in CALLS])
def test_a_workload_call_binds_to_the_current_signature(name, line, call, target):
    assert target is not None, f"workloads.py:{line} calls {name}, which no longer exists"
    assert not any(isinstance(a, ast.Starred) for a in call.args), \
        f"workloads.py:{line}: a *args call cannot be bound without running it"
    signature = inspect.signature(target)
    args = [object()] * len(call.args)
    kwargs = {k.arg: object() for k in call.keywords if k.arg is not None}
    spread = any(k.arg is None for k in call.keywords)
    bind = signature.bind_partial if spread else signature.bind
    try:
        bind(*args, **kwargs)
    except TypeError as exc:
        pytest.fail(f"workloads.py:{line}: {name}{signature} does not take this call: {exc}")


# ---------------------------------------------------------------------------
# What ``benchmarks/tracer.py`` wraps
# ---------------------------------------------------------------------------

TRACER = WORKLOADS.parent / "tracer.py"

# Tracer targets that no longer exist; their per-layer metrics read 0 until
# the tracer stops naming them.
GONE = {("gpt_lab.tensor", "masked_pool_rows"), ("gpt_lab.tensor", "softmax_masked"),
        ("gpt_lab.prompt", "deepgpt_transform")}


def _pairs(node: ast.Dict) -> list[tuple[str, str]]:
    return [tuple(ast.literal_eval(key)) for key in node.keys]


def _tracer_targets() -> list[tuple[str, str, str | None]]:
    """(module, name, method) of every function and method the tracer wraps:
    the keys of ``FUNCTION_SPANS`` and of ``install``'s ``special`` map, and
    each ``_replace_method(cls, "method", ...)`` call on a class that
    ``install`` reads as ``sys.modules["module"].Name``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    targets, classes = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        bound = getattr(node.targets[0], "id", None)
        if isinstance(node.value, ast.Dict) and bound in ("FUNCTION_SPANS", "special"):
            targets += [(module, name, None) for module, name in _pairs(node.value)]
        elif isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Subscript):
            classes[bound] = (ast.literal_eval(node.value.value.slice), node.value.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "_replace_method":
            owner, method = node.args[0].id, ast.literal_eval(node.args[1])
            targets.append((*classes[owner], method))
    return targets


TARGETS = _tracer_targets()


def _resolves(module: str, name: str, method: str | None) -> bool:
    found = getattr(importlib.import_module(module), name, None)
    return found is not None and (method is None or method in vars(found))


def test_the_parse_finds_the_tracers_special_targets_and_methods():
    found = {(module.split(".")[-1], name, method) for module, name, method in TARGETS}
    assert {("models", "backbone_forward", None), ("training", "_run_fold", None),
            ("models", "PredictionHead", "forward"), ("training", "AdamW", "step"),
            ("tensor", "Tape", "__enter__"), ("tensor", "Tape", "__exit__")} <= found
    assert GONE <= {(module, name) for module, name, _ in TARGETS}


@pytest.mark.parametrize("module, name, method", TARGETS,
                         ids=[".".join(filter(None, (m.split(".")[-1], n, f)))
                              for m, n, f in TARGETS])
def test_every_tracer_target_resolves(module, name, method):
    """A rename or deletion of a wrapped name would silently zero its metric."""
    if (module, name) in GONE:
        assert not _resolves(module, name, method), f"{module}.{name} is back; drop it from GONE"
    else:
        assert _resolves(module, name, method), f"tracer.py wraps {module}.{name}, which is gone"
