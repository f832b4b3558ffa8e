"""Task-specific prompt parameters and the freeze/trainable partition.

A prompt set bundles the graph token (one vector added to every node, at
model width after the input projection or at input width before it),
per-layer prefix matrices, whose p rows every sample of a prompted
transformer layer attends to as shared keys and values, and virtual
token rows that join every sample and, in an MPGNN, are wired to every
original node.
``PromptSet.check`` is the one validator of a prompt set against a
backbone. ``models.encode_nodes`` calls it and then applies the set
through ``apply_graph_prompt`` and ``inject_prefix``, so those functions
are the forward's prompt hooks. The freeze registry splits all named
parameters into a frozen backbone part and the trainable prompt + head
part; frozen tensors never enter a gradient map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gpt_lab.seeding import rng_for
from gpt_lab.tensor import ContractError, ShapeError, Tensor, add, concat_rows

__all__ = [
    "MODES",
    "TOKEN_STAGES",
    "PromptSet",
    "FreezeRegistry",
    "init_prompts",
    "build_registry",
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
    p_len: int = 0
    token_stage: str = "post_projection"
    virtual_tokens: Tensor | None = None

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
        need a transformer; virtual tokens run on either backbone kind.
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


def _interval(prompted_layers, n_layers: int) -> tuple[int, ...]:
    if prompted_layers is None:
        lo, hi = 0, n_layers - 1
    else:
        lo, hi = prompted_layers
    if not (0 <= lo <= hi < n_layers):
        raise ContractError(f"prompted interval [{lo}, {hi}] invalid for "
                            f"{n_layers} layers")
    return tuple(range(lo, hi + 1))


def init_prompts(mode: str, dim: int, n_layers: int, p_len: int, seed: int,
                 prompted_layers: tuple[int, int] | None = None,
                 token_stage: str = "post_projection",
                 token_width: int | None = None) -> PromptSet:
    """Fresh prompt parameters for a tuning mode.

    ``prompted_layers`` is an inclusive (first, last) layer interval and
    defaults to all layers. ``token_width`` only matters for the
    pre-projection token stage, where the token lives at input width.
    """
    mode = mode.lower()
    if mode not in MODES:
        raise ContractError(f"unknown tuning mode {mode!r}")
    rng = rng_for(seed, "init-prompts")
    if mode in ("ft", "lightweight"):
        return PromptSet()
    if mode == "virtual_node":
        if p_len < 1:
            raise ContractError("virtual_node mode needs p_len >= 1")
        tokens = Tensor(rng.normal(0.0, 0.02, size=(p_len, dim)), requires_grad=True)
        return PromptSet(virtual_tokens=tokens, p_len=p_len)
    if p_len < 1:
        raise ContractError(f"{mode} mode needs p_len >= 1")
    layers = _interval(prompted_layers, n_layers)
    prefixes = {li: Tensor(rng.normal(0.0, 0.02, size=(p_len, dim)), requires_grad=True)
                for li in layers}
    token = None
    if mode == "deepgpt":
        if token_stage == "pre_projection" and token_width is None:
            raise ContractError("the pre_projection token stage needs token_width, "
                                "the backbone's input width")
        width = int(token_width) if token_stage == "pre_projection" else dim
        token = Tensor(rng.normal(0.0, 0.02, size=width), requires_grad=True)
    return PromptSet(graph_token=token, prefixes=prefixes, p_len=p_len,
                     token_stage=token_stage)


@dataclass(frozen=True)
class FreezeRegistry:
    """Total, disjoint split of every named parameter into frozen/trainable."""

    frozen: dict[str, Tensor]
    trainable: dict[str, Tensor]

    def __post_init__(self):
        overlap = set(self.frozen) & set(self.trainable)
        if overlap:
            raise ContractError(f"parameters both frozen and trainable: {sorted(overlap)}")


def build_registry(backbone, head, prompts: PromptSet, mode: str) -> FreezeRegistry:
    """Partition backbone, head and prompt parameters for a tuning mode.

    Also sets ``requires_grad`` flags so frozen parameters can never show
    up in a gradient map. The prediction head is trainable in every mode.
    """
    mode = mode.lower()
    if mode not in MODES:
        raise ContractError(f"unknown tuning mode {mode!r}")
    backbone_params = backbone.named_params()
    head_params = head.named_params()
    prompt_params = prompts.named_params()
    if mode == "ft" and prompt_params:
        raise ContractError("full fine-tuning does not use prompt parameters")
    if mode in ("prefix_only", "deepgpt") and not prompts.prefixes:
        raise ContractError(f"{mode} mode needs prefix parameters")
    if mode == "prefix_only" and prompts.graph_token is not None:
        raise ContractError("prefix_only mode must not carry a graph token")
    if mode == "virtual_node" and prompts.virtual_tokens is None:
        raise ContractError("virtual_node mode needs virtual tokens")

    trainable = dict(head_params)
    trainable.update(prompt_params)
    if mode == "ft":
        trainable.update(backbone_params)
        frozen = {}
    else:
        frozen = dict(backbone_params)
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


def apply_graph_prompt(x: Tensor, token: Tensor) -> Tensor:
    """Add the graph token to every row of ``x``."""
    return add(x, token)


def inject_prefix(e: Tensor, prefix: Tensor, layer: int, prompts: PromptSet) -> Tensor:
    """This layer's prefix stacked ahead of the rows of ``e``: ``[prefix; e]``.

    The p prefix rows become keys and values that every sample's
    attention group shares, so the layer projects them once for the
    whole batch. The prefix gets the gradient of the first p rows and
    ``e`` that of the rest.
    """
    if layer not in prompts.prefixes:
        raise ContractError(f"layer {layer} is not in the prompted set "
                            f"{prompts.prompted_layers}")
    if e.ndim != 2 or prefix.shape != (prompts.p_len, e.shape[-1]):
        raise ShapeError(f"inject_prefix: a prefix of shape {prefix.shape} does not fit "
                         f"p_len={prompts.p_len} rows over rows of shape {e.shape}")
    return concat_rows([prefix, e])
