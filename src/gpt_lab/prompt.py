"""Task-specific prompt parameters and the freeze/trainable partition.

A prompt set bundles the graph token (one vector added to every node, at
model width after the input projection or at input width before it),
per-layer prefix matrices, whose p rows every sample of a prompted
transformer layer attends to as shared keys and values, and virtual
token rows that join every sample and, in an MPGNN, are wired to every
original node. A set's ``p_len`` is read from its tensors: the row
count of its prefixes or virtual tokens.
``init_prompts`` is the one map from a tuning mode to the prompt
parameters it trains, and with ``trains_backbone`` the only code that
reads a mode name, besides the validation of a name against ``MODES``.
``PromptSet.check`` is the one validator of a
prompt set against a backbone: ``init_prompts`` returns its set through
it, and ``models.encode_nodes`` calls it through ``check_group``. A
forward takes its prompts in one form, a group: k ``(PromptSet,
count)`` pairs, the samples of each set contiguous and in set order, so
one batch can mix the samples of k tasks (one pair for one task).
``encode_nodes`` applies the sets through ``apply_graph_prompt`` and
``inject_prefix``, so those functions are the forward's prompt hooks.
The freeze registry splits all named parameters into a frozen backbone
part and the trainable prompt + head part; frozen tensors never enter a
gradient map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpt_lab.seeding import rng_for
from gpt_lab.tensor import ContractError, ShapeError, Tensor, add, concat_rows, gather_rows

__all__ = [
    "MODES",
    "TOKEN_STAGES",
    "PromptSet",
    "FreezeRegistry",
    "init_prompts",
    "trains_backbone",
    "build_registry",
    "check_group",
    "apply_graph_prompt",
    "inject_prefix",
    "count_params",
]

MODES = ("ft", "lightweight", "prefix_only", "deepgpt", "virtual_node")
TOKEN_STAGES = ("post_projection", "pre_projection")


@dataclass
class PromptSet:
    """The trainable prompt parameters for one task."""

    graph_token: Tensor | None = None
    prefixes: dict[int, Tensor] = field(default_factory=dict)
    token_stage: str = "post_projection"
    virtual_tokens: Tensor | None = None

    @property
    def p_len(self) -> int:
        """The row count of the prefixes or of the virtual tokens, 0 with neither."""
        if self.virtual_tokens is not None:
            return self.virtual_tokens.shape[0]
        return next(iter(self.prefixes.values())).shape[0] if self.prefixes else 0

    @property
    def prompted_layers(self) -> tuple[int, ...]:
        return tuple(sorted(self.prefixes))

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        if self.graph_token is not None:
            out["prompt.token"] = self.graph_token
        for layer in self.prompted_layers:
            out[f"prompt.prefix{layer}"] = self.prefixes[layer]
        if self.virtual_tokens is not None:
            out["prompt.virtual"] = self.virtual_tokens
        return out

    def check(self, cfg) -> "PromptSet":
        """Validate the prompts against a ``BackboneConfig``; return them unchanged.

        Every forward that takes a prompt set calls this first. Prefixes
        need a transformer and one row count, ``p_len``; virtual tokens run
        on either backbone kind.
        """
        if self.token_stage not in TOKEN_STAGES:
            raise ContractError(f"unknown token stage {self.token_stage!r}")
        if self.virtual_tokens is not None and self.prefixes:
            raise ContractError("virtual tokens and prefixes are exclusive")
        if self.prefixes and cfg.kind != "transformer":
            raise ContractError("prefix tokens require the transformer backbone")
        for layer, p in self.prefixes.items():
            if not 0 <= layer < cfg.layers:
                raise ContractError(f"prompted layer {layer} out of range for "
                                    f"{cfg.layers}-layer backbone")
            if p.shape != (self.p_len, cfg.dim):
                raise ShapeError(f"prefix for layer {layer} has shape {p.shape}, "
                                 f"expected (p_len={self.p_len}, dim={cfg.dim})")
        if self.graph_token is not None:
            want = cfg.dim if self.token_stage == "post_projection" else cfg.input_width
            if self.graph_token.shape != (want,):
                raise ShapeError(f"graph token shape {self.graph_token.shape} "
                                 f"!= expected ({want},)")
        if self.virtual_tokens is not None and (
                self.virtual_tokens.ndim != 2 or self.virtual_tokens.shape[1] != cfg.dim):
            raise ShapeError(f"virtual tokens must be (p, {cfg.dim}), "
                             f"got shape {self.virtual_tokens.shape}")
        for name, t in self.named_params().items():
            if not t.requires_grad:
                raise ContractError(f"prompt parameter {name} must require gradients")
        return self


def _layout(prompts: PromptSet) -> tuple:
    return (prompts.token_stage, prompts.p_len,
            [(name, t.shape) for name, t in prompts.named_params().items()])


def check_group(group, cfg, samples: int) -> tuple[list[PromptSet], np.ndarray]:
    """The prompt sets of one forward over ``samples`` samples, each checked
    with ``PromptSet.check(cfg)``, and the count of samples that read each.

    ``group`` is a sequence of k ``(PromptSet, count)`` pairs: the first
    count samples read the first set, the next count the second, and so
    on. None is one empty set read by every sample. The sets share one
    layout (the same parameters, shapes, p_len and token stage), and the
    counts are non-negative ints that sum to ``samples``; a count may be 0.
    """
    group = [(PromptSet(), samples)] if group is None else list(group)
    sets = [s.check(cfg) for s, _ in group]
    if not sets or any(_layout(s) != _layout(sets[0]) for s in sets):
        raise ContractError("the prompt sets of one forward need one layout (the same "
                            "parameters, shapes, p_len and token stage)")
    counts = np.asarray([count for _, count in group])
    if not np.issubdtype(counts.dtype, np.integer) or (counts < 0).any() \
            or counts.sum() != samples:
        raise ContractError(f"the sample counts of a prompt group must be non-negative "
                            f"ints that sum to {samples}, got {counts.tolist()}")
    return sets, counts


def _interval(prompted_layers, n_layers: int) -> tuple[int, ...]:
    if prompted_layers is None:
        lo, hi = 0, n_layers - 1
    else:
        lo, hi = prompted_layers
    if not (0 <= lo <= hi < n_layers):
        raise ContractError(f"prompted interval [{lo}, {hi}] invalid for "
                            f"{n_layers} layers")
    return tuple(range(lo, hi + 1))


def init_prompts(mode: str, cfg, p_len: int, seed: int,
                 prompted_layers: tuple[int, int] | None = None,
                 token_stage: str = "post_projection") -> PromptSet:
    """Fresh prompt parameters for a tuning mode, checked against ``cfg``.

    This is the one map from a mode to the prompt parameters it trains:
    none for ft and lightweight, p_len virtual token rows for
    virtual_node, and a prefix per prompted layer for prefix_only and
    deepgpt, which adds a graph token of model width (post_projection)
    or of the ``BackboneConfig``'s input width (pre_projection).
    ``prompted_layers`` is an inclusive (first, last) layer interval and
    defaults to all layers. virtual_node wires its tokens through the
    MPGNN's adjacency, so it needs the MPGNN. The set is returned through
    ``PromptSet.check(cfg)``, so drawing it checks every rule that ties a
    mode to a backbone.
    """
    rng = rng_for(seed, "init-prompts")
    if mode in ("ft", "lightweight"):
        prompts = PromptSet()
    elif p_len < 1:
        raise ContractError(f"{mode} mode needs p_len >= 1")
    elif mode == "virtual_node":
        if cfg.kind != "mpgnn":
            raise ContractError("virtual_node mode requires the mpgnn backbone")
        tokens = Tensor(rng.normal(0.0, 0.02, size=(p_len, cfg.dim)), requires_grad=True)
        prompts = PromptSet(virtual_tokens=tokens)
    elif mode in ("prefix_only", "deepgpt"):
        prefixes = {li: Tensor(rng.normal(0.0, 0.02, size=(p_len, cfg.dim)),
                               requires_grad=True)
                    for li in _interval(prompted_layers, cfg.layers)}
        token = None
        if mode == "deepgpt":
            width = cfg.dim if token_stage == "post_projection" else cfg.input_width
            token = Tensor(rng.normal(0.0, 0.02, size=width), requires_grad=True)
        prompts = PromptSet(graph_token=token, prefixes=prefixes, token_stage=token_stage)
    else:
        raise ContractError(f"unknown tuning mode {mode!r}")
    return prompts.check(cfg)


def trains_backbone(mode: str) -> bool:
    """ft trains the backbone; every other mode tunes against a frozen one."""
    return mode == "ft"


@dataclass(frozen=True)
class FreezeRegistry:
    """Total, disjoint split of every named parameter into frozen/trainable."""

    frozen: dict[str, Tensor]
    trainable: dict[str, Tensor]

    def __post_init__(self):
        overlap = set(self.frozen) & set(self.trainable)
        if overlap:
            raise ContractError(f"parameters both frozen and trainable: {sorted(overlap)}")


def build_registry(backbone, head, prompts: PromptSet, *,
                   train_backbone: bool = False) -> FreezeRegistry:
    """Partition backbone, head and prompt parameters into frozen and trainable.

    The head and the prompts are always trainable; the backbone is
    trainable only with ``train_backbone`` (full fine-tuning and
    pretraining) and frozen otherwise. Also sets ``requires_grad`` flags
    so frozen parameters can never show up in a gradient map.
    """
    trainable = dict(head.named_params())
    trainable.update(prompts.named_params())
    frozen = {}
    if train_backbone:
        trainable.update(backbone.named_params())
    else:
        frozen = dict(backbone.named_params())
    for t in frozen.values():
        t.requires_grad = False
    for t in trainable.values():
        t.requires_grad = True
    return FreezeRegistry(frozen=frozen, trainable=trainable)


def count_params(registry: FreezeRegistry) -> dict[str, float]:
    """Exact frozen/trainable entry counts and the trainable fraction."""
    frozen = sum(t.data.size for t in registry.frozen.values())
    trainable = sum(t.data.size for t in registry.trainable.values())
    total = frozen + trainable
    return {
        "frozen_count": int(frozen),
        "trainable_count": int(trainable),
        "ratio": trainable / total if total else 0.0,
    }


# ---------------------------------------------------------------------------
# Prompt application
# ---------------------------------------------------------------------------


def apply_graph_prompt(x: Tensor, tokens: Tensor, owner) -> Tensor:
    """Add a graph token to every row of ``x``: ``tokens`` is a (k, w)
    matrix of the k sets' tokens, and row i of ``x`` gets row ``owner[i]``.
    """
    return add(x, gather_rows(tokens, owner))


def inject_prefix(e: Tensor, *prefixes: Tensor) -> Tensor:
    """A layer's prefixes stacked ahead of the rows of ``e``: ``[prefix; e]``,
    or ``[prefix_0; ...; prefix_{k-1}; e]`` for the k sets of a mixed batch.

    The p rows of each prefix become keys and values that the attention
    groups of its samples share, so the layer projects them once for the
    whole batch. Each prefix gets the gradient of its own rows and ``e``
    that of the rest.
    """
    return concat_rows([*prefixes, e])
