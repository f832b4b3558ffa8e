"""Outside-in tracing of gpt_lab: spans and exact work counts.

``Tracer.install`` replaces public gpt_lab functions with wrappers in
every gpt_lab module namespace that holds them, which is where their
callers look them up, and wraps a few methods on their classes. Each
wrapper records a span (name, start, end, parent) in memory; a handful
also add exact work counts. ``uninstall`` puts the originals back. The
wrapped functions receive the same arguments and return the same
objects, so a traced run computes bit-identical results.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

import numpy as np

from gpt_lab.tensor import Tensor

# (module, attribute) -> span name. The function object found there is
# replaced wherever any gpt_lab module refers to it.
FUNCTION_SPANS = {
    ("gpt_lab.graphs", "with_rwpe"): "graphs.with_rwpe",
    ("gpt_lab.graphs", "batch"): "graphs.batch",
    ("gpt_lab.tensor", "matmul"): "tensor.matmul",
    ("gpt_lab.tensor", "layer_norm"): "tensor.layer_norm",
    ("gpt_lab.tensor", "neighbor_max"): "tensor.neighbor_max",
    ("gpt_lab.tensor", "backward"): "tensor.backward",
    ("gpt_lab.models", "transformer_layer_forward"): "models.transformer_layer_forward",
    ("gpt_lab.models", "mpgnn_layer_forward"): "models.mpgnn_layer_forward",
    ("gpt_lab.tensor", "masked_pool_rows"): "models.readout",
    ("gpt_lab.training", "clip_global_norm"): "training.clip_global_norm",
    ("gpt_lab.training", "pretrain"): "training.pretrain",
    ("gpt_lab.training", "evaluate_fold"): "training.evaluate_fold",
    ("gpt_lab.prompt", "init_prompts"): "prompt.setup",
    ("gpt_lab.prompt", "build_registry"): "prompt.setup",
    ("gpt_lab.prompt", "count_params"): "prompt.setup",
    ("gpt_lab.prompt", "deepgpt_transform"): "prompt.setup",
    ("gpt_lab.prompt", "apply_graph_prompt"): "prompt.apply_graph_prompt",
    ("gpt_lab.prompt", "inject_prefix"): "prompt.inject_prefix",
    ("gpt_lab.checkpoint", "save_prompt"): "checkpoint.save_prompt",
    ("gpt_lab.checkpoint", "load_prompt"): "checkpoint.load_prompt",
}


def _mask_count(mask) -> int:
    data = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    return int(np.count_nonzero(data))


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._tape_depth = 0
        self._last_mask = (None, 0)
        self._undo: list[tuple] = []
        self.first_round: tuple[int, dict] | None = None

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def mark_first_round(self) -> None:
        """Remember how many spans and counts the first traced round left."""
        self.first_round = (len(self.spans), dict(self.counts))

    def dump(self, path) -> None:
        """Write every span as gzip'd JSON: a name table plus index rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent] for n, start, end, parent in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": names, "spans": rows}, fh)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _softmax_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(scores, mask=None):
            out = self.call("tensor.softmax_masked", fn, scores, mask)
            rows, cols = scores.shape
            self.counts["softmax.entries"] += rows * cols
            if mask is None:
                useful = rows * cols
            elif mask is self._last_mask[0]:
                useful = self._last_mask[1]
            else:
                useful = _mask_count(mask)
                self._last_mask = (mask, useful)
            self.counts["softmax.useful"] += useful
            return out
        return wrapper

    def _forward_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = "training.train_forward" if self._tape_depth else "training.eval_forward"
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _encode_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call("models.encode_nodes", fn, *args, **kwargs)
            if self._tape_depth:
                self.counts["step.rows"] += out[0].shape[0]
            return out
        return wrapper

    def _fold_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(job):
            return self.call(f"training.fold.{job[0].mode.lower()}", fn, job)
        return wrapper

    def _adamw_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(opt, params, grads, lr_t):
            out = self.call("training.AdamW.step", fn, opt, params, grads, lr_t)
            self.counts["adamw.entries"] += sum(g.size for g in grads.values())
            return out
        return wrapper

    def _tape_enter(self, fn):
        @functools.wraps(fn)
        def wrapper(tape):
            self.begin("training.train_step")
            self._tape_depth += 1
            return fn(tape)
        return wrapper

    def _tape_exit(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, *exc):
            try:
                return fn(tape, *exc)
            finally:
                self._tape_depth -= 1
                self.end()
                self.counts["tape.nodes"] += len(tape.nodes)
                self.counts["tape.steps"] += 1
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gpt_lab" or mod_name.startswith("gpt_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        special = {
            ("gpt_lab.tensor", "softmax_masked"): self._softmax_wrapper,
            ("gpt_lab.models", "backbone_forward"): self._forward_wrapper,
            ("gpt_lab.models", "encode_nodes"): self._encode_wrapper,
            ("gpt_lab.training", "_run_fold"): self._fold_wrapper,
        }
        for mod_name, attr in [*FUNCTION_SPANS, *special]:
            # A function that a later version renames or removes reads as zero.
            fn = getattr(sys.modules[mod_name], attr, None)
            if fn is None:
                continue
            make = special.get((mod_name, attr))
            wrapper = make(fn) if make else self._span_wrapper(FUNCTION_SPANS[mod_name, attr], fn)
            self._replace_everywhere(fn, wrapper)
        head = sys.modules["gpt_lab.models"].PredictionHead
        self._replace_method(head, "forward",
                             self._span_wrapper("models.head", head.__dict__["forward"]))
        adamw = sys.modules["gpt_lab.training"].AdamW
        self._replace_method(adamw, "step", self._adamw_wrapper(adamw.__dict__["step"]))
        tape = sys.modules["gpt_lab.tensor"].Tape
        self._replace_method(tape, "__enter__", self._tape_enter(tape.__dict__["__enter__"]))
        self._replace_method(tape, "__exit__", self._tape_exit(tape.__dict__["__exit__"]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._last_mask = (None, 0)
