"""Freezable backbones: a graph transformer, an MPGNN, readout and head.

A ``BatchedGraph`` already stacks every sample's node rows into one tall
matrix, sample b owning rows ``offsets[b]:offsets[b + 1]``;
``encode_nodes`` reads it as it is. Row-wise work, such as projections,
layer norms, the FFN and residuals, runs on that matrix with no padding.
Work across rows is per sample: the transformer's attention gathers each
sample's rows into one padded group and attends within it (an
``AttentionGroups`` plan of the block sizes, built once per forward),
the MPGNN aggregates over one graph adjacency of the node rows that
never joins two samples, built in sorted order once per forward, and
readout pools each sample's segment of node rows, all samples in one
``pool_rows``. The MPGNN's rows are ``[hubs; node rows]``: a sample's
virtual tokens, block by block, ahead of every node row. Max plans the
adjacency once with each sample as a block whose hubs its node rows
share, so a sample's virtual rows are read once per layer, not once per
node row; for sum and mean, hubs are nodes of the one sorted adjacency.
When the first layer's node rows carry no gradient (a frozen input stage
and no graph token), that layer takes their part of the max as constants
(``first_layer_maxima``, which ``train`` computes once per call) and
reads the hubs alone. A batched forward therefore agrees with
per-sample forwards.

Prompts arrive in one form, a group of k ``(PromptSet, count)`` pairs:
the first count samples read the first set, the next count the second,
and so on, so one batch mixes the samples of k tasks (the folds of a
lockstep ``train`` step, and their eval splits, share one forward this
way; one task is a group of one pair, and None is the plain backbone).
``encode_nodes`` validates the group with ``prompt.check_group`` and
applies it through ``gpt_lab.prompt``'s hooks (``apply_graph_prompt``
for the graph token, ``inject_prefix`` for the prefixes). Virtual tokens
are p rows per sample copied from the sample's own set: the MPGNN's
hubs, and in the transformer p prompt rows at the head of each sample
block, so the offsets and p locate every row. A prefix is p
rows of keys and values that the groups of its set's samples share: a
prompted layer reads ``[prefix_0; ...; prefix_{k-1}; h]``, projects the
prefixes once and asks queries of the node rows only. A transformer
layer outputs the node rows, plus the prompt rows only when a later
layer reads them, and the MPGNN's last layer computes node rows only,
so ``encode_nodes`` returns node rows only, laid out by the batch's
offsets. With no prompt set, or an empty one, the executed operation
sequence is that of a prompt-free build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from gpt_lab.graphs import BatchedGraph, GraphSample, batch, rwpe
from gpt_lab.prompt import PromptSet, apply_graph_prompt, check_group, inject_prefix
from gpt_lab.seeding import rng_for
from gpt_lab.tensor import (
    AttentionGroups,
    ContractError,
    ShapeError,
    SourceBuckets,
    Tensor,
    add,
    block_attention,
    concat_rows,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    matmul,
    neighbor_max,
    pool_rows,
    spmm,
    stack_rows,
)

__all__ = [
    "BackboneConfig",
    "TransformerLayerParams",
    "MpgnnLayerParams",
    "Backbone",
    "load_params",
    "PredictionHead",
    "transformer_layer_forward",
    "aggregation_operand",
    "mpgnn_layer_forward",
    "first_layer_maxima",
    "encode_nodes",
    "backbone_forward",
    "encode_graphs",
    "LN_EPS",
]

LN_EPS = 1e-5

_KINDS = ("transformer", "mpgnn")
_READOUTS = ("sum", "mean")
_AGGREGATIONS = ("sum", "mean", "max")


@dataclass(frozen=True)
class BackboneConfig:
    kind: str
    feature_dim: int
    dim: int
    heads: int = 4
    layers: int = 6
    ffn_mult: int = 4
    readout: str = "mean"
    rwpe_steps: int = 0
    degree_embed: bool = False
    max_degree: int = 8
    aggregation: str = "sum"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown backbone kind {self.kind!r}")
        if self.readout not in _READOUTS:
            raise ContractError(f"unknown readout {self.readout!r}")
        if self.aggregation not in _AGGREGATIONS:
            raise ContractError(f"unknown aggregation {self.aggregation!r}")
        if self.layers < 1:
            raise ContractError("need at least one layer")
        for key, low in (("heads", 1), ("ffn_mult", 1), ("rwpe_steps", 0)):
            if getattr(self, key) < low:
                raise ContractError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.degree_embed and self.max_degree < 1:
            raise ContractError(f"max_degree must be at least 1 with degree_embed, "
                                f"got {self.max_degree}")
        if self.kind == "transformer" and self.dim % self.heads != 0:
            raise ContractError(f"dim {self.dim} not divisible by {self.heads} heads")
        if self.kind == "transformer" and self.head_width == 1:
            raise ContractError(f"head width {self.head_width} (dim {self.dim} // {self.heads} "
                                "heads) must be at least 2")
        if self.feature_dim < 1 or self.dim < 1:
            raise ContractError("feature_dim and dim must be positive")

    @property
    def input_width(self) -> int:
        return self.feature_dim + self.rwpe_steps

    @property
    def head_width(self) -> int:
        return self.dim // self.heads


@dataclass
class TransformerLayerParams:
    qkv_weight: Tensor  # (dim, 3 * dim): the q heads, then the k heads, then the v heads
    out_weight: Tensor
    out_bias: Tensor
    ffn1_weight: Tensor
    ffn1_bias: Tensor
    ffn2_weight: Tensor
    ffn2_bias: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor


@dataclass
class MpgnnLayerParams:
    weight: Tensor
    bias: Tensor


def _init_matrix(rng, rows, cols) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / math.sqrt(rows), size=(rows, cols)),
                  requires_grad=True)


def _zeros(n) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def _ones(n) -> Tensor:
    return Tensor(np.ones(n), requires_grad=True)


class Backbone:
    """Input projection, optional degree table and a stack of layers."""

    def __init__(self, cfg: BackboneConfig, w_in: Tensor, b_in: Tensor,
                 degree_table: Tensor | None, layers: list):
        self.cfg = cfg
        self.w_in = w_in
        self.b_in = b_in
        self.degree_table = degree_table
        self.layers = layers

    @classmethod
    def init(cls, cfg: BackboneConfig, seed: int) -> "Backbone":
        rng = rng_for(seed, "init-backbone")
        return cls._build(cfg, lambda rows, cols: _init_matrix(rng, rows, cols).data,
                          lambda shape: rng.normal(0.0, 0.02, size=shape))

    @classmethod
    def _build(cls, cfg: BackboneConfig, matrix, table) -> "Backbone":
        """The backbone of ``cfg`` with every weight matrix drawn by ``matrix(rows,
        cols)`` and the degree table by ``table(shape)``, in one fixed order;
        biases start at zero and norm gains at one."""
        def weight(rows, cols):
            return Tensor(matrix(rows, cols), requires_grad=True)

        w_in = weight(cfg.input_width, cfg.dim)
        b_in = _zeros(cfg.dim)
        degrees = None
        if cfg.degree_embed:
            degrees = Tensor(table((cfg.max_degree + 1, cfg.dim)), requires_grad=True)
        layers = []
        for _ in range(cfg.layers):
            if cfg.kind == "transformer":
                # Each head's (dim, dq) q, k and v blocks are drawn in column order.
                blocks = [matrix(cfg.dim, cfg.head_width) for _ in range(3 * cfg.heads)]
                layers.append(TransformerLayerParams(
                    qkv_weight=Tensor(np.concatenate(blocks, axis=1), requires_grad=True),
                    out_weight=weight(cfg.dim, cfg.dim),
                    out_bias=_zeros(cfg.dim),
                    ffn1_weight=weight(cfg.dim, cfg.ffn_mult * cfg.dim),
                    ffn1_bias=_zeros(cfg.ffn_mult * cfg.dim),
                    ffn2_weight=weight(cfg.ffn_mult * cfg.dim, cfg.dim),
                    ffn2_bias=_zeros(cfg.dim),
                    norm1_gain=_ones(cfg.dim), norm1_bias=_zeros(cfg.dim),
                    norm2_gain=_ones(cfg.dim), norm2_bias=_zeros(cfg.dim),
                ))
            else:
                layers.append(MpgnnLayerParams(weight=weight(cfg.dim, cfg.dim),
                                               bias=_zeros(cfg.dim)))
        return cls(cfg, w_in, b_in, degrees, layers)

    def named_params(self) -> dict[str, Tensor]:
        """Every parameter by its checkpoint name: field ``a_b`` of layer i is
        ``layer{i}.a.b``, in the order of the layer's fields."""
        out = {"input_proj.weight": self.w_in, "input_proj.bias": self.b_in}
        if self.degree_table is not None:
            out["degree_table"] = self.degree_table
        for i, layer in enumerate(self.layers):
            for f in fields(layer):
                out[f"layer{i}.{f.name.replace('_', '.')}"] = getattr(layer, f.name)
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_params().items()}

    @classmethod
    def from_state(cls, cfg: BackboneConfig, arrays: dict[str, np.ndarray]) -> "Backbone":
        """The backbone of ``cfg`` holding the stored ``arrays`` (see ``load_params``).

        Its tensors start empty, with no random draws, and ``load_params``
        fills every one of them.
        """
        backbone = cls._build(cfg, lambda rows, cols: np.empty((rows, cols)), np.empty)
        load_params(backbone.named_params(), arrays)
        return backbone


def load_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Write the stored array of each name into its parameter's array, in place.

    The names must match exactly (``ContractError``) and each array must
    have its parameter's shape (``ShapeError``). A parameter keeps its
    array, so one that views an ``AdamW`` buffer still does.
    """
    if set(arrays) != set(params):
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        raise ContractError(f"parameter name mismatch: missing={sorted(missing)}, "
                            f"unexpected={sorted(extra)}")
    for name, t in params.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != t.shape:
            raise ShapeError(f"{name}: stored shape {arr.shape} != {t.shape}")
        t.data[...] = arr


class PredictionHead:
    """Linear map from graph embedding to task outputs, optionally one hidden layer."""

    def __init__(self, w: Tensor, b: Tensor,
                 w_hidden: Tensor | None = None, b_hidden: Tensor | None = None):
        self.w = w
        self.b = b
        self.w_hidden = w_hidden
        self.b_hidden = b_hidden

    @classmethod
    def init(cls, dim: int, out_dim: int, seed: int, hidden: bool = False) -> "PredictionHead":
        rng = rng_for(seed, "init-head")
        w_hidden = b_hidden = None
        if hidden:
            w_hidden = _init_matrix(rng, dim, dim)
            b_hidden = _zeros(dim)
        return cls(_init_matrix(rng, dim, out_dim), _zeros(out_dim), w_hidden, b_hidden)

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        if self.w_hidden is not None:
            out["head.hidden.weight"] = self.w_hidden
            out["head.hidden.bias"] = self.b_hidden
        out["head.weight"] = self.w
        out["head.bias"] = self.b
        return out

    def forward(self, hg: Tensor) -> Tensor:
        if self.w_hidden is not None:
            hg = gelu(linear(hg, self.w_hidden, self.b_hidden))
        return linear(hg, self.w, self.b)


# ---------------------------------------------------------------------------
# Layer forwards
# ---------------------------------------------------------------------------


def transformer_layer_forward(x: Tensor, groups: AttentionGroups,
                              params: TransformerLayerParams, heads: int) -> Tensor:
    """Pre-norm block: multi-head attention within groups, then the FFN, with residuals.

    One matmul by ``qkv_weight`` projects every row of ``x`` for ``heads``
    heads; attention, the residual, the second norm and the FFN run on
    the query rows only, so the result has one row per row of
    ``groups.query_rows``, and the residual gathers those rows of ``x``
    when some rows are keys only. A single sequence of n rows is the
    one-group case, ``AttentionGroups([n])``.
    """
    h = layer_norm(x, params.norm1_gain, params.norm1_bias, LN_EPS)
    attn = block_attention(matmul(h, params.qkv_weight), groups, heads)
    if groups.query_rows.size < x.shape[0]:
        x = gather_rows(x, groups.query_rows)
    x1 = add(x, linear(attn, params.out_weight, params.out_bias))
    h2 = layer_norm(x1, params.norm2_gain, params.norm2_bias, LN_EPS)
    ff = gelu(linear(h2, params.ffn1_weight, params.ffn1_bias))
    return add(x1, linear(ff, params.ffn2_weight, params.ffn2_bias))


def aggregation_operand(indptr: np.ndarray, indices: np.ndarray, columns: int,
                        aggregation: str):
    """What ``mpgnn_layer_forward`` aggregates with, built once per (m, columns) 0/1
    matrix given by its CSR arrays, ``indptr`` and ``indices``.

    Sum takes the matrix itself, whose stored diagonal gives
    self-aggregation; mean divides each row by its entry count; max takes
    the arrays' ``SourceBuckets``.
    """
    if aggregation == "max":
        return SourceBuckets(indptr, indices, columns)
    data = np.ones(indices.size)
    if aggregation == "mean":
        counts = np.diff(indptr)
        data /= np.repeat(counts, counts)
    return sparse.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, columns))


def mpgnn_layer_forward(h: Tensor, operand, params: MpgnnLayerParams,
                        graph: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Aggregate over each row of the (m, n) ``operand`` the rows of the n-row
    ``h`` it stores, then linear + GELU: one output row per operand row.

    ``operand`` comes from ``aggregation_operand``: ``SourceBuckets`` runs
    ``neighbor_max``, a sparse matrix runs ``spmm``; each raises a
    ``ShapeError`` when n is not h's row count. With ``graph``, the
    constant maxima of a blocked plan's column rows, ``h`` holds the
    plan's hubs alone (see ``neighbor_max``).
    """
    if isinstance(operand, SourceBuckets):
        agg = neighbor_max(h, operand, graph)
    else:
        agg = spmm(operand, h)
    return gelu(linear(agg, params.weight, params.bias))


# ---------------------------------------------------------------------------
# Batched forward with prompt hooks
# ---------------------------------------------------------------------------


def _insert_prompt_rows(stacked: Tensor, offsets: np.ndarray, p: int,
                        owner: np.ndarray) -> Tensor:
    """Copy p prompt rows of ``stacked`` to the head of every sample block.

    ``stacked`` is ``[rows; h]``: p prompt rows per prompt set, in set
    order, followed by the node rows that ``offsets`` describes. Sample b
    takes the p rows of set ``owner[b]``. One ``gather_rows`` builds the
    result, laid out with p prompt rows per block.
    """
    lead = stacked.shape[0] - offsets[-1]          # h starts at this row
    index = np.insert(lead + np.arange(offsets[-1]), np.repeat(offsets[:-1], p),
                      (p * owner[:, None] + np.arange(p)).ravel())
    return gather_rows(stacked, index)


def _mpgnn_adjacency(batch: BatchedGraph, p: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays, ``indptr`` and ``indices`` in sorted order, of the 0/1
    adjacency of the MPGNN's rows ``[hubs; node rows]``, H = p * B hubs block
    by block and then the N node rows. Hubs are nodes of this one sorted
    adjacency: it holds the diagonal and, in both directions, each edge and
    each join of a hub to a node row of its sample. The entries are sorted
    by one argsort of ``row * (H + N) + column``, a stable one, since they
    come in runs already in that order and a stable sort merges such runs.
    """
    hubs = p * batch.size
    m = hubs + batch.offsets[-1]
    a, b = batch.edges.T
    if p:                     # node row i joined to hub j of its sample, one run per j
        hub = p * np.repeat(np.arange(batch.size), np.diff(batch.offsets)) + np.arange(p)[:, None]
        node = np.tile(np.arange(hubs, m), p)
        a, b = np.concatenate([hubs + a, hub.ravel()]), np.concatenate([hubs + b, node])
    rows, cols = np.concatenate([np.arange(m), a, b]), np.concatenate([np.arange(m), b, a])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    return indptr, cols[np.argsort(rows * m + cols, kind="stable")]


def _mpgnn_operands(batch: BatchedGraph, p: int, aggregation: str) -> tuple:
    """The aggregation operands of the MPGNN's layers over its rows ``[hubs;
    node rows]``, H = p * B virtual-token rows block by block and then the
    node rows: one over every row, and one over the node rows alone, the
    rows after H, which the last layer computes.

    Max takes one ``SourceBuckets`` of the graph adjacency (p = 0), with the
    samples as its blocks when p > 0, and its ``tail()``. Sum and mean take
    ``aggregation_operand`` of ``_mpgnn_adjacency(batch, p)``, in which hubs
    are nodes of the one sorted adjacency, and its tail slice ``H:``.
    """
    n, hubs = batch.offsets[-1], p * batch.size
    if aggregation == "max":
        plan = SourceBuckets(*_mpgnn_adjacency(batch), n, batch.offsets if p else None)
        return plan, plan.tail()
    indptr, indices = _mpgnn_adjacency(batch, p)
    every = aggregation_operand(indptr, indices, hubs + n, aggregation)
    if not p:
        return every, every
    tail = indptr[hubs:]
    return every, aggregation_operand(tail - tail[0], indices[tail[0]:], hubs + n, aggregation)


def encode_graphs(graphs: Sequence[GraphSample], cfg: BackboneConfig) -> BatchedGraph:
    """The samples as one batch, with the encodings this backbone expects
    appended to its feature rows: the ``rwpe_steps`` random-walk columns
    when it asks for them, computed once for the whole batch. A forward
    over any of the samples gathers them with ``BatchedGraph.take``."""
    encoded = batch(graphs)
    if cfg.rwpe_steps > 0:
        features = np.concatenate([encoded.features, rwpe(encoded, cfg.rwpe_steps)], axis=1)
        encoded = replace(encoded, features=features)
    return encoded


def _input_rows(batch: BatchedGraph, backbone: Backbone, stage: str | None = None,
                tokens: Tensor | None = None, row_owner: np.ndarray | None = None) -> Tensor:
    """The input stage of the batch's node rows: the projection and the degree
    embedding, with row i's graph token ``tokens[row_owner[i]]`` added before
    or after the projection as ``stage`` says (None: no token)."""
    x = Tensor(batch.features)
    if stage == "pre_projection":
        x = apply_graph_prompt(x, tokens, row_owner)
    h = linear(x, backbone.w_in, backbone.b_in)
    if backbone.degree_table is not None:
        ids = np.minimum(batch.degrees, backbone.cfg.max_degree)
        h = add(h, gather_rows(backbone.degree_table, ids))
    if stage == "post_projection":
        h = apply_graph_prompt(h, tokens, row_owner)
    return h


def first_layer_maxima(batch: BatchedGraph, backbone: Backbone
                       ) -> tuple[np.ndarray, np.ndarray]:
    """What the first layer of a max MPGNN reads of the batch's node rows when
    their input stage is frozen: each node row's max over its graph sources
    (itself and its neighbours, in row order) and each sample's max over its
    node rows, of the input stage's rows.

    Neither depends on the other samples of a batch or on its virtual
    tokens, so ``train`` computes them once for the dataset, and a forward
    over samples ``idx`` of it passes their rows, ``(rows[batch.rows(idx)],
    samples[idx])``, to ``encode_nodes``.
    """
    plan = SourceBuckets(*_mpgnn_adjacency(batch), batch.offsets[-1], batch.offsets)
    return plan.graph_maxima(_input_rows(batch, backbone).data)


def encode_nodes(batch: BatchedGraph, backbone: Backbone,
                 group: Iterable[tuple[PromptSet, int]] | None = None,
                 maxima: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Tensor, np.ndarray]:
    """Final-layer embeddings of the batch's node rows, and the batch's ``offsets``.

    Row i of the result belongs to node row i of ``batch``, so sample b
    owns rows ``offsets[b]:offsets[b + 1]``; prompt rows are never
    returned. ``group`` is k ``(PromptSet, count)`` pairs: the first
    count samples read the first set, the next count the second, and so
    on; None is one empty set. ``prompt.check_group`` validates it. The
    sets are applied through the hooks of ``gpt_lab.prompt``:
    ``apply_graph_prompt`` adds each row's own graph token, before or
    after the input projection as its stage says; virtual tokens are p
    rows per sample after the projection, the MPGNN's hubs ahead of the
    node rows and the transformer's prompt rows at the head of each
    sample block. A prompted layer reads ``inject_prefix``'s ``[prefix_0;
    ...; prefix_{k-1}; h]``: each set's p prefix rows are keys and values
    that the groups of its samples share, projected once. An empty
    prompt set runs the same operations as no prompt set.

    A transformer layer outputs the node rows, plus the prompt rows only
    when a later layer reads them, that is when the next layer exists
    and is unprompted. So a prompted layer followed by an unprompted one
    copies each sample's prefix into its block (``_insert_prompt_rows``)
    and runs on all rows; the next prompted layer, or the last layer,
    asks queries of the node rows only and drops the prompt rows.

    Attention groups are the sample blocks: ``AttentionGroups(sizes,
    shared, skip, counts)`` with each block's size (nodes plus p
    prompt rows), the p_len shared prefix rows per set of a prompted
    layer that drops its prompt rows, and ``skip = p`` key-only prompt
    rows when a layer drops prompt rows that are in the blocks. Each
    distinct plan is built, and checked, once per forward. The MPGNN
    runs on every row, hubs then node rows, over one aggregation operand,
    except in its last layer, which computes node rows only: its operand
    is the same matrix's rows after the hubs (a CSR tail slice, or for max
    the ``tail()`` of the same plan).

    When a max MPGNN's first layer reads virtual tokens and node rows that
    carry no gradient (its input stage is frozen and there is no graph
    token), that layer reads the node rows' part of its max as constants:
    ``maxima``, the batch's rows of ``first_layer_maxima``, or without
    them the same maxima taken from the forward's own plan. It then reads
    the hubs alone and sends its gradient to them, with the same values
    and gradients. ``maxima`` is ignored
    when that layer's node rows carry a gradient.
    """
    cfg = backbone.cfg
    sets, counts = check_group(group, cfg, batch.size)
    if batch.features.shape[1] != cfg.input_width:
        raise ShapeError(f"batch feature width {batch.features.shape[1]} does not match "
                         f"input projection width {cfg.input_width}")
    offsets = batch.offsets
    owner = np.repeat(np.arange(len(sets)), counts)   # each sample's set
    prompts = sets[0]                             # the layout every set shares
    p = 0                                         # virtual-token rows per sample
    if prompts.virtual_tokens is not None:
        p = prompts.virtual_tokens.shape[0]

    stage = tokens = row_owner = None
    if prompts.graph_token is not None:
        stage = prompts.token_stage
        tokens = stack_rows([s.graph_token for s in sets])
        row_owner = np.repeat(owner, np.diff(offsets))
    if cfg.kind == "mpgnn":
        every, nodes = _mpgnn_operands(batch, p, cfg.aggregation)
        if p:                                     # the hubs, block by block
            hubs = gather_rows(concat_rows([s.virtual_tokens for s in sets]),
                               (p * owner[:, None] + np.arange(p)).ravel())
        inputs = (backbone.w_in, backbone.b_in, backbone.degree_table)
        if cfg.aggregation == "max" and p and stage is None and not any(
                t is not None and t.requires_grad for t in inputs):
            # The first layer reads the node rows as constants, and h is its hubs.
            if maxima is None:
                maxima = every.graph_maxima(_input_rows(batch, backbone).data)
            h = hubs
        else:
            maxima = None
            h = _input_rows(batch, backbone, stage, tokens, row_owner)
            if p:
                h = concat_rows([hubs, h])
        for li, params in enumerate(backbone.layers):   # the last computes node rows only
            h = mpgnn_layer_forward(h, nodes if li + 1 == cfg.layers else every, params, maxima)
            maxima = None
        return h, offsets
    h = _input_rows(batch, backbone, stage, tokens, row_owner)
    if p:
        h = _insert_prompt_rows(concat_rows([*(s.virtual_tokens for s in sets), h]),
                                offsets, p, owner)
    built: dict[tuple, AttentionGroups] = {}      # each distinct set of groups
    prefixes = prompts.prefixes
    for li, params in enumerate(backbone.layers):
        keep = li + 1 < cfg.layers and li + 1 not in prefixes   # a later layer reads prompt rows
        shared, skip = 0, 0 if keep else p
        if li in prefixes:            # the rows are node rows only here
            h = inject_prefix(h, *(s.prefixes[li] for s in sets))
            if keep:
                p = prompts.p_len
                h = _insert_prompt_rows(h, offsets, p, owner)
            else:
                shared = prompts.p_len
        key = (p, shared, skip)
        if key not in built:
            built[key] = AttentionGroups(np.diff(offsets) + p, shared, skip, counts)
        h = transformer_layer_forward(h, built[key], params, cfg.heads)
        if not keep:
            p = 0
    return h, offsets


def backbone_forward(batch: BatchedGraph, backbone: Backbone,
                     group: Iterable[tuple[PromptSet, int]] | None = None,
                     maxima: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Per-sample graph embeddings (B x dim), which a ``PredictionHead`` maps
    to predictions.

    ``group`` and ``maxima`` are those of ``encode_nodes``.
    Readout pools each sample's segment of node rows, so prompt rows never
    change which positions are averaged.
    """
    h, offsets = encode_nodes(batch, backbone, group, maxima)
    return pool_rows(h, offsets, backbone.cfg.readout)
