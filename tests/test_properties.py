"""Property tests over random small batches.

Batches hold 1 to 4 graphs of 1 to 6 nodes (1 to 6 graphs of 1 to 8
nodes against the slot oracle, up to 8 graphs of 1 to 6 nodes against
the plain max plans, and up to 8 graphs of 1 to 12 nodes for batch
gathers and the random-walk encoding), drawn with edgeless graphs,
isolated nodes and repeated samples. Runs are derandomized, so
the suite stays deterministic.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.stats import rankdata

from gpt_lab.graphs import GraphSample, rwpe
from gpt_lab.graphs import batch as batch_graphs
from gpt_lab.models import (
    Backbone,
    BackboneConfig,
    PredictionHead,
    _insert_prompt_rows,
    _mpgnn_adjacency,
    _mpgnn_operands,
    aggregation_operand,
    backbone_forward,
    encode_graphs,
    encode_nodes,
    first_layer_maxima,
    mpgnn_layer_forward,
    transformer_layer_forward,
)
from gpt_lab.prompt import TOKEN_STAGES, PromptSet, build_registry, init_prompts
from gpt_lab.tensor import (
    AttentionGroups,
    SourceBuckets,
    Tape,
    Tensor,
    add,
    backward,
    bce_with_logits,
    block_attention,
    concat_rows,
    gather_rows,
    linear,
    matmul,
    mul,
    neighbor_max,
    pool_rows,
    spmm,
    tsum,
)
from gpt_lab.training import _average_ranks

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                             database=None)


@st.composite
def graphs(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    seed = draw(st.integers(0, 2**16))
    feats = np.random.default_rng(seed).normal(size=(n, 3))
    edges = tuple(pair for pair, k in zip(pairs, keep) if k)
    return GraphSample(n, feats, edges, np.array([float(seed % 2)]))


@st.composite
def batches(draw, max_graphs=4, max_nodes=6):
    """1 to ``max_graphs`` samples picked, with repeats, from up to 3 distinct graphs."""
    pool = draw(st.lists(graphs(max_nodes), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_graphs))
    return [pool[i] for i in picks]


def _model(kind, aggregation="sum", mode=None):
    cfg = BackboneConfig(kind=kind, feature_dim=3, dim=8, heads=2, layers=3, ffn_mult=2,
                         rwpe_steps=2, degree_embed=True, max_degree=3,
                         aggregation=aggregation)
    bb = Backbone.init(cfg, seed=1)
    head = PredictionHead.init(cfg.dim, 1, seed=2)
    prompts = PromptSet()
    if mode is not None:
        prompts = init_prompts(mode, cfg, p_len=2, seed=3,
                               prompted_layers=(1, 2) if mode == "prefix_only" else None)
    return cfg, bb, head, prompts


MODELS = {
    "transformer": _model("transformer"),
    "transformer_deepgpt": _model("transformer", mode="deepgpt"),
    "transformer_prefix_only": _model("transformer", mode="prefix_only"),
    **{f"mpgnn_{agg}": _model("mpgnn", agg) for agg in ("sum", "mean", "max")},
    **{f"mpgnn_{agg}_virtual": _model("mpgnn", agg, "virtual_node")
       for agg in ("sum", "mean", "max")},
}


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY_SETTINGS
@given(batch=batches())
def test_batched_forward_equals_per_sample_forwards(name, batch):
    cfg, bb, head, prompts = MODELS[name]
    _assert_node_rows_only(batch, cfg, bb, prompts)
    together = head.forward(backbone_forward(encode_graphs(batch, cfg), bb,
                                             group=[(prompts, len(batch))])).data
    alone = np.concatenate([
        head.forward(backbone_forward(encode_graphs([g], cfg), bb,
                                      group=[(prompts, 1)])).data
        for g in batch])
    assert np.abs(together - alone).max() <= 1e-10


def _assert_node_rows_only(batch, cfg, bb, prompts):
    """encode_nodes returns one row per node, laid out by the batch's offsets."""
    prepared = encode_graphs(batch, cfg)
    h, offsets = encode_nodes(prepared, bb, group=[(prompts, prepared.size)])
    assert offsets is prepared.offsets and h.shape == (offsets[-1], cfg.dim)


_SINGLE = GraphSample(1, np.ones((1, 3)), ())
_EDGELESS = GraphSample(3, np.ones((3, 3)), ())
_PATH = GraphSample(4, np.ones((4, 3)), ((0, 1), (1, 2), (2, 3)))


@PROPERTY_SETTINGS
@given(batch=batches(), p=st.integers(0, 3))
@example(batch=[_SINGLE], p=0)
@example(batch=[_SINGLE, _EDGELESS, _PATH, _SINGLE], p=3)
def test_mpgnn_adjacency_rows_equal_the_neighbour_lists(batch, p):
    """The graph adjacency holds each node row's own row and neighbours; the
    matrix that sum aggregates with p virtual tokens per sample, over the rows
    ``[hubs; node rows]``, wires each sample's p hub rows to its node rows and
    back. The CSR arrays of that adjacency are those of ``_wired``'s dense
    oracle, entry for entry."""
    prepared = encode_graphs(batch, MODELS["mpgnn_sum"][0])
    offsets, hubs = prepared.offsets, p * len(batch)
    graph, want = [], [{row, *(hubs + offsets[b] + i for i in range(g.n))}
                        for b, g in enumerate(batch) for row in range(p * b, p * b + p)]
    for b, g in enumerate(batch):
        for i, nb in enumerate(g.neighbors()):
            graph.append({offsets[b] + i, *(offsets[b] + j for j in nb)})
            want.append({hubs + offsets[b] + i, *(hubs + offsets[b] + j for j in nb),
                         *range(p * b, p * b + p)})
    every = _mpgnn_operands(prepared, p, "sum")[0]
    wired = (every.indptr, every.indices)
    for (indptr, indices), rows, total in ((_mpgnn_adjacency(prepared), graph, offsets[-1]),
                                           (wired, want, hubs + offsets[-1])):
        assert indptr.shape == (total + 1,) and indptr[0] == 0 and indptr[-1] == indices.size
        assert indices.min() >= 0 and indices.max() < total
        for row, expected in enumerate(rows):
            stored = indices[indptr[row]:indptr[row + 1]]
            assert (np.diff(stored) > 0).all() and set(stored.tolist()) == expected
    indptr, indices = _mpgnn_adjacency(prepared, p)
    oracle = _wired(batch, p)[0]
    assert np.array_equal(indptr, oracle.indptr) and np.array_equal(indices, oracle.indices)


def _wired(batch, p):
    """The CSR matrix of the MPGNN's rows ``[hubs; node rows]`` with p hubs per
    sample, and its node rows, the rows after the hubs. It is built apart from
    ``gpt_lab.models``: a dense 0/1 matrix set from each sample's own edge
    list and hub membership, then ``sparse.csr_matrix``, whose columns ascend
    in each row."""
    hubs = p * len(batch)
    dense = np.eye(hubs + sum(g.n for g in batch))
    start = hubs
    for b, g in enumerate(batch):
        for i, j in g.edges:
            dense[start + i, start + j] = dense[start + j, start + i] = 1
        dense[p * b:p * b + p, start:start + g.n] = 1
        dense[start:start + g.n, p * b:p * b + p] = 1
        start += g.n
    every = sparse.csr_matrix(dense)
    return every, every[hubs:]


def _mpgnn_every_row(batch, prepared, bb, tokens):
    """The MPGNN forward of ``encode_nodes`` on the samples ``batch``, encoded as
    ``prepared``, with its last layer run on every row, the hubs too, over the
    plain operand of the whole matrix (for max, the ``SourceBuckets`` of its
    rows, with no star), and the node rows gathered after it."""
    cfg, offsets = bb.cfg, prepared.offsets
    h = linear(Tensor(prepared.features), bb.w_in, bb.b_in)
    h = add(h, gather_rows(bb.degree_table, np.minimum(prepared.degrees, cfg.max_degree)))
    p = 0 if tokens is None else tokens.shape[0]
    if p:
        h = concat_rows([gather_rows(tokens, np.tile(np.arange(p), prepared.size)), h])
    matrix = _wired(batch, p)[0]
    operand = aggregation_operand(matrix.indptr, matrix.indices, h.shape[0], cfg.aggregation)
    for params in bb.layers:
        h = mpgnn_layer_forward(h, operand, params)
    return gather_rows(h, np.arange(p * prepared.size, h.shape[0]))


@pytest.mark.parametrize("aggregation", ["sum", "mean", "max"])
@PROPERTY_SETTINGS
@given(batch=batches(), p=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_mpgnn_last_layer_on_node_rows_equals_every_row_then_gather(aggregation, batch,
                                                                    p, seed):
    """The node rows, and the gradients of p virtual tokens and of the input
    stage, which trains here, equal bit for bit those of a last layer that
    computes every row before the node rows are gathered."""
    cfg, bb = MODELS[f"mpgnn_{aggregation}"][:2]
    prepared = encode_graphs(batch, cfg)
    rng = np.random.default_rng(seed)
    tokens = Tensor(rng.normal(size=(p, cfg.dim)), requires_grad=True) if p else None
    weights = Tensor(rng.normal(size=(prepared.offsets[-1], cfg.dim)))
    group = None if tokens is None else [(PromptSet(virtual_tokens=tokens), prepared.size)]
    inputs = (bb.w_in, bb.b_in, bb.degree_table)
    runs = []
    for forward in (lambda: encode_nodes(prepared, bb, group)[0],
                    lambda: _mpgnn_every_row(batch, prepared, bb, tokens)):
        with Tape():
            h = forward()
            grads = backward(tsum(mul(h, weights)))
        runs.append((h.data, grads.get(tokens), [grads[t] for t in inputs]))
    (h, grad, input_grads), (want_h, want_grad, want_input_grads) = runs
    assert np.array_equal(h, want_h)
    assert p == 0 or np.array_equal(grad, want_grad)
    for got, want in zip(input_grads, want_input_grads):
        assert np.array_equal(got, want)


def _max_plans(batch, p):
    """The max operands of ``encode_nodes``, one star plan for every row and
    its node rows, each paired with its oracle: the plain ``SourceBuckets`` of
    ``_wired``'s whole matrix, and of its node rows."""
    prepared = batch_graphs(batch)
    plain = [aggregation_operand(m.indptr, m.indices, m.shape[1], "max")
             for m in _wired(batch, p)]
    return list(zip(_mpgnn_operands(prepared, p, "max"), plain))


def _max_and_grad(plan, h, g):
    x = Tensor(h, requires_grad=True)
    with Tape(), np.errstate(invalid="ignore"):
        out = neighbor_max(x, plan)
        grad = backward(tsum(mul(out, Tensor(g))))[x]
    return out.data, grad


def _assert_same_max(star, plain, h, g):
    """Equal values, with the sign of each zero, and equal gradients."""
    (out, grad), (want, want_grad) = _max_and_grad(star, h, g), _max_and_grad(plain, h, g)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert np.array_equal(grad, want_grad)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(batch=batches(max_graphs=8), p=st.integers(1, 8), seed=st.integers(0, 2**16))
@example(batch=[_SINGLE, _EDGELESS, _PATH, _SINGLE], p=8, seed=0)
def test_star_max_equals_the_max_over_the_whole_matrix(batch, p, seed):
    """1 to 8 graphs, p from 1 to 8, and values from +-inf, +-1 and +-0 with
    an occasional NaN: the star plan of every row and that of the node rows
    give the values, signs of zero and gradients of the plain CSR plans of
    the whole matrix and of its node rows."""
    rng = np.random.default_rng(seed)
    h = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf],
                   size=(sum(g.n for g in batch) + p * len(batch), 3))
    h[rng.random(h.shape) < 0.02] = np.nan
    for star, plain in _max_plans(batch, p):
        _assert_same_max(star, plain, h, rng.normal(size=(plain.shape[0], 3)))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(batch=batches(max_graphs=8), p=st.integers(1, 8), seed=st.integers(0, 2**16))
@example(batch=[_SINGLE, _EDGELESS, _PATH, _SINGLE], p=8, seed=0)
def test_star_max_of_the_hubs_over_constant_spokes_equals_the_star_max(batch, p, seed):
    """1 to 8 graphs, p from 1 to 8, and values from +-inf, +-1 and +-0 with
    an occasional NaN. ``graph_maxima`` of the node rows gives each node row's
    max over its graph sources and each sample's max over its node rows,
    each reduced in order with its sign of zero; the hubs alone, read with
    them, give the values and signs of zero of the plain CSR plans of the
    whole matrix and of its node rows, and the gradients they send to the
    hubs."""
    rng = np.random.default_rng(seed)
    hubs = p * len(batch)
    h = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf],
                   size=(sum(g.n for g in batch) + hubs, 3))
    h[rng.random(h.shape) < 0.02] = np.nan
    prepared = batch_graphs(batch)
    plans = _max_plans(batch, p)
    graph = plans[0][0].graph_maxima(h[hubs:])
    indptr, indices = _mpgnn_adjacency(prepared)
    node_rows = np.split(np.arange(prepared.offsets[-1]), prepared.offsets[1:-1])
    for got, sources in zip(graph, (np.split(indices, indptr[1:-1]), node_rows)):
        want = np.array([functools.reduce(np.maximum, h[hubs + rows]) for rows in sources])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for plan, plain in plans:
        g = rng.normal(size=(plain.shape[0], 3))
        want, want_grad = _max_and_grad(plain, h, g)
        x = Tensor(h[:hubs], requires_grad=True)
        with Tape(), np.errstate(invalid="ignore"):
            out = neighbor_max(x, plan, graph)
            grad = backward(tsum(mul(out, Tensor(g))))[x]
        assert np.array_equal(out.data, want, equal_nan=True)
        assert np.array_equal(np.signbit(out.data), np.signbit(want))
        assert np.array_equal(grad, want_grad[:hubs])


@pytest.mark.parametrize("aggregation", ["sum", "mean", "max"])
@settings(PROPERTY_SETTINGS, max_examples=60)
@given(batch=batches(max_graphs=8), p=st.integers(0, 4), seed=st.integers(0, 2**16))
@example(batch=[_SINGLE, _EDGELESS, _PATH, _SINGLE], p=4, seed=0)
@example(batch=[_SINGLE], p=0, seed=0)
def test_the_node_row_operand_is_the_tail_of_the_every_row_operand(aggregation, batch, p,
                                                                    seed):
    """Over the rows ``[hubs; node rows]``, H = p * B hubs: the last layer's
    operand gives rows H: of what the every-row operand gives, and the same
    gradient when the hub rows send none, bit for bit. Values come from
    +-inf, +-1 and +-0 with an occasional NaN for max."""
    rng = np.random.default_rng(seed)
    hubs = p * len(batch)
    every, nodes = _mpgnn_operands(batch_graphs(batch), p, aggregation)
    shape = (sum(g.n for g in batch) + hubs, 3)
    if aggregation == "max":
        h = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=shape)
        h[rng.random(shape) < 0.02] = np.nan
    else:
        h = rng.normal(size=shape)
    g = rng.normal(size=(shape[0] - hubs, 3))
    runs = []
    for operand, upstream in ((every, np.concatenate([np.zeros((hubs, 3)), g])), (nodes, g)):
        x = Tensor(h, requires_grad=True)
        with Tape(), np.errstate(invalid="ignore"):
            out = neighbor_max(x, operand) if aggregation == "max" else spmm(operand, x)
            runs.append((out.data, backward(tsum(mul(out, Tensor(upstream))))[x]))
    (out, grad), (tail, tail_grad) = runs
    assert np.array_equal(out[hubs:], tail, equal_nan=True)
    assert np.array_equal(np.signbit(out[hubs:]), np.signbit(tail))
    assert np.array_equal(grad, tail_grad)


def _special(rng, shape):
    """Values from -1, -0, +0 and 1, each entry +inf, -inf or NaN at a rate of 2%."""
    values = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
    draw = rng.random(shape)
    values[draw < 0.06] = np.inf
    values[draw < 0.04] = -np.inf
    values[draw < 0.02] = np.nan
    return values


@st.composite
def pooled(draw):
    """1 to 4 graphs of 1 to 6 nodes, and 1 to 8 picks of them with repeats."""
    pool = draw(st.lists(graphs(), min_size=1, max_size=4))
    return pool, draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))


@pytest.mark.parametrize("layers", [1, 2])
@settings(PROPERTY_SETTINGS, max_examples=60)
@given(case=pooled(), p=st.integers(1, 8), seed=st.integers(0, 2**16))
@example(case=([_SINGLE, _EDGELESS, _PATH], [0, 1, 2, 0, 1, 2, 1, 0]), p=8, seed=0)
def test_a_frozen_max_mpgnn_equals_the_plain_star_path(layers, case, p, seed):
    """A frozen max MPGNN's first layer reads its node rows as constants: from
    the forward's own plan, or as rows of ``first_layer_maxima`` of the
    pool that the batch picks from. Both give the node rows, signs of zero
    included, and the virtual-token gradients of the plain star path, which
    the same backbone takes when its input stage trains. The input rows are
    the degree table's rows (the projection is zero), drawn with the virtual
    tokens from +-1 and +-0 and an occasional +-inf or NaN, so ties abound."""
    pool, chosen = case
    cfg = BackboneConfig(kind="mpgnn", feature_dim=3, dim=8, layers=layers, rwpe_steps=2,
                         degree_embed=True, max_degree=3, aggregation="max")
    bb = Backbone.init(cfg, seed=1)
    bb.w_in.data[:] = bb.b_in.data[:] = 0.0
    rng = np.random.default_rng(seed)
    bb.degree_table.data = _special(rng, bb.degree_table.shape)
    tokens = Tensor(_special(rng, (p, cfg.dim)), requires_grad=True)
    prompts, head = PromptSet(virtual_tokens=tokens), PredictionHead.init(cfg.dim, 1, seed=2)
    encoded = encode_graphs(pool, cfg)
    batch = encoded.take(chosen)
    weights = Tensor(rng.normal(size=(batch.offsets[-1], cfg.dim)))

    def run(maxima=None):
        with Tape(), np.errstate(invalid="ignore", over="ignore"):
            h = encode_nodes(batch, bb, [(prompts, batch.size)], maxima)[0]
            grads = backward(tsum(mul(h, weights)))
        return h.data, grads[tokens], len(grads)

    build_registry(bb, head, prompts)
    with np.errstate(invalid="ignore"):
        rows, samples = first_layer_maxima(encoded, bb)
    frozen = [run(), run((rows[encoded.rows(chosen)], samples[chosen]))]
    build_registry(bb, head, prompts, train_backbone=True)
    want_h, want_grad, _ = run()
    for h, grad, leaves in frozen:
        assert leaves == 1                       # the virtual tokens alone
        assert np.array_equal(h, want_h, equal_nan=True)
        assert np.array_equal(np.signbit(h), np.signbit(want_h))
        assert np.array_equal(grad, want_grad, equal_nan=True)


def test_star_max_sends_a_nan_of_the_graph_part_to_virtual_row_0():
    """A node row's NaN in its graph part, with finite virtual rows, sends the
    row's gradient to its first source, virtual row 0; a virtual row whose
    node max is NaN keeps its own gradient."""
    h = np.array([[1.0], [2.0], [np.nan], [0.5]])   # virtual rows 0 and 1, then two nodes
    wants = ([[3.0], [1.0], [0.0], [0.0]], [[2.0], [0.0], [0.0], [0.0]])
    for (star, plain), want in zip(_max_plans([GraphSample(2, np.ones((2, 3)), ((0, 1),))], 2),
                                   wants):
        g = np.ones((plain.shape[0], 1))
        _assert_same_max(star, plain, h, g)
        assert np.array_equal(_max_and_grad(star, h, g)[1], want)


def test_star_max_keeps_the_sign_of_a_zero_node_max():
    """Samples of 3, 2 and 1 nodes whose node max is a zero that +0.0 and -0.0
    both reach: each virtual row keeps the sign of a max over its sources in
    column order, itself first."""
    batch = [_EDGELESS, GraphSample(2, np.ones((2, 3)), ()), _SINGLE]
    columns = [[-1.0, -1.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0],
               [-1.0, -1.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0]]
    h = np.array(columns).T                       # the 3 virtual rows, then the 6 nodes
    (star, plain), _ = _max_plans(batch, 1)
    _assert_same_max(star, plain, h, np.ones(h.shape))
    out = _max_and_grad(star, h, np.ones(h.shape))[0]
    for b, (first, last) in enumerate(((3, 6), (6, 8), (8, 9))):
        want = functools.reduce(np.maximum, [h[b], *h[first:last]])
        assert np.array_equal(np.signbit(out[b]), np.signbit(want))


PROMPTED = {"deepgpt": "transformer", "prefix_only": "transformer",
            "virtual_node": "mpgnn_max"}


@pytest.mark.parametrize("mode", sorted(PROMPTED))
@PROPERTY_SETTINGS
@given(batch=batches(), p_len=st.integers(1, 8))
def test_batched_equals_per_sample_for_any_prompt_length(mode, batch, p_len):
    """Prompt lengths up to 8 exceed the 1-to-6-node graphs."""
    cfg, bb, head, _ = MODELS[PROMPTED[mode]]
    prompts = init_prompts(mode, cfg, p_len=p_len, seed=4,
                           prompted_layers=(1, 2) if mode == "prefix_only" else None)
    _assert_node_rows_only(batch, cfg, bb, prompts)
    together = head.forward(backbone_forward(encode_graphs(batch, cfg), bb,
                                             group=[(prompts, len(batch))])).data
    alone = np.concatenate([
        head.forward(backbone_forward(encode_graphs([g], cfg), bb,
                                      group=[(prompts, 1)])).data
        for g in batch])
    assert np.abs(together - alone).max() <= 1e-10


def _random_graph(rng, n, width=3):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < 0.4
    return GraphSample(n, rng.normal(size=(n, width)),
                       tuple(pair for pair, k in zip(pairs, keep) if k))


# 60 graphs of 4 to 9 nodes, with graphs of 2 and 3 nodes among them.
_ROW_RNG = np.random.default_rng(8)
_ROW_GRAPHS = [_random_graph(_ROW_RNG, n) for n in _ROW_RNG.integers(4, 10, size=60)]
for _i, _n in ((3, 2), (17, 3), (30, 2), (44, 3), (59, 3)):
    _ROW_GRAPHS.insert(_i, _random_graph(_ROW_RNG, _n))
# Each case: backbone kind, aggregation, tuning mode and its prompted layers.
ROW_CASES = {
    "transformer": ("transformer", "sum", None, None),
    "transformer_deepgpt": ("transformer", "sum", "deepgpt", None),
    "transformer_prefix_before_last_layer": ("transformer", "sum", "prefix_only", (0, 1)),
    **{f"mpgnn_{agg}{suffix}": ("mpgnn", agg, mode, None)
       for agg in ("sum", "mean", "max")
       for suffix, mode in (("", None), ("_virtual", "virtual_node"))},
}


def _row_model(case, dim):
    kind, aggregation, mode, interval = ROW_CASES[case]
    cfg = BackboneConfig(kind=kind, feature_dim=3, dim=dim, heads=2, layers=3, ffn_mult=2,
                         rwpe_steps=2, degree_embed=True, max_degree=3,
                         aggregation=aggregation)
    prompts = PromptSet()
    if mode is not None:
        prompts = init_prompts(mode, cfg, p_len=3, seed=5, prompted_layers=interval)
    return cfg, Backbone.init(cfg, seed=dim), prompts


def _rows_alone_and_together(graphs, cfg, bb, prompts):
    """Each graph's ``encode_nodes`` rows run alone, and its rows in the batch of all."""
    encoded = encode_graphs(graphs, cfg)
    together = encode_nodes(encoded, bb, group=[(prompts, encoded.size)])[0].data
    offsets = encoded.offsets
    return [(encode_nodes(encoded.take([i]), bb, group=[(prompts, 1)])[0].data,
             together[offsets[i]:offsets[i + 1]]) for i in range(encoded.size)]


@pytest.mark.parametrize("dim", [8, 16, 32])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_node_rows_alone_equal_the_rows_in_the_batch_exactly(case, dim):
    """A graph of two or more nodes gets the same node rows, bit for bit,
    whichever graphs share its batch."""
    for i, (alone, together) in enumerate(
            _rows_alone_and_together(_ROW_GRAPHS, *_row_model(case, dim))):
        assert np.array_equal(alone, together), f"graph {i} of {_ROW_GRAPHS[i].n} nodes"


@pytest.mark.parametrize("dim", [8, 16, 32])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_a_lone_single_node_graph_equals_its_rows_in_the_batch_to_1e_12(case, dim):
    """A one-row product is computed as the first row of a two-row one, so a
    single-node graph alone gets its rows in the batch exactly, within 1e-12
    a fortiori."""
    lone = _random_graph(np.random.default_rng(9), 1)
    pairs = _rows_alone_and_together([*_ROW_GRAPHS[:10], lone], *_row_model(case, dim))
    alone, together = pairs[-1]
    assert np.array_equal(alone, together)


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY_SETTINGS
@given(g=graphs(max_nodes=1))
def test_two_copies_of_a_single_node_graph_equal_it_alone_exactly(name, g):
    """A batch of one single-node graph has one row in every product; it
    rounds as the same row of a batch of two copies, bit for bit."""
    cfg, bb, head, prompts = MODELS[name]
    alone, twice = (head.forward(backbone_forward(encode_graphs(graphs, cfg), bb,
                                                  group=[(prompts, len(graphs))])).data
                    for graphs in ([g], [g, g]))
    assert np.array_equal(twice, np.concatenate([alone, alone]))


def _permuted(g, perm):
    """``g`` with node ``perm[i]`` renamed to ``i``."""
    new = np.argsort(perm)
    edges = tuple((int(new[i]), int(new[j])) for i, j in g.edges)
    return GraphSample(g.n, g.features[perm], edges, g.label)


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY_SETTINGS
@given(g=graphs(), seed=st.integers(0, 2**16))
def test_node_order_leaves_the_prediction_unchanged(name, g, seed):
    cfg, bb, head, prompts = MODELS[name]
    perm = np.random.default_rng(seed).permutation(g.n)
    base = head.forward(backbone_forward(encode_graphs([g], cfg), bb,
                                         group=[(prompts, 1)])).data
    moved = head.forward(backbone_forward(encode_graphs([_permuted(g, perm)], cfg), bb,
                                          group=[(prompts, 1)])).data
    assert np.abs(base - moved).max() <= 1e-10


@pytest.mark.parametrize("name", ["transformer", "mpgnn_sum", "mpgnn_max"])
@PROPERTY_SETTINGS
@given(batch=batches())
def test_empty_prompt_set_changes_nothing(name, batch):
    cfg, bb, head, _ = MODELS[name]
    prepared = encode_graphs(batch, cfg)
    plain = head.forward(backbone_forward(prepared, bb)).data
    empty = head.forward(backbone_forward(prepared, bb, group=[(PromptSet(), prepared.size)])).data
    assert np.abs(plain - empty).max() == 0.0


@PROPERTY_SETTINGS
@given(batch=batches(), p=st.integers(0, 3), k=st.integers(1, 3), seed=st.integers(0, 99))
def test_insert_prompt_rows_equals_a_per_sample_oracle(batch, p, k, seed):
    """Each sample's block opens with the p rows of its own set among k."""
    rng = np.random.default_rng(seed)
    offsets = batch_graphs(batch).offsets
    h = rng.normal(size=(offsets[-1], 4))
    rows = rng.normal(size=(k, p, 4))
    owner = np.sort(rng.integers(0, k, size=len(batch)))
    out = _insert_prompt_rows(Tensor(np.concatenate([*rows, h])), offsets, p, owner)
    want = np.concatenate([np.concatenate([rows[o], h[s:e]])
                           for o, s, e in zip(owner, offsets[:-1], offsets[1:])])
    assert np.array_equal(out.data, want)


# A single-node graph, an edgeless one and a 12-node one, each picked twice.
_MIXED = [GraphSample(1, np.ones((1, 3)), ()), GraphSample(4, np.ones((4, 3)), ()),
          GraphSample(12, np.arange(36.0).reshape(12, 3),
                      tuple((i, j) for i in range(12) for j in range(i + 1, 12) if (i + j) % 3))]


@st.composite
def picks(draw):
    """Up to 5 graphs of 1 to 12 nodes, and 1 to 8 picks of them with repeats."""
    pool = draw(st.lists(graphs(max_nodes=12), min_size=1, max_size=5))
    return pool, draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))


@PROPERTY_SETTINGS
@given(case=picks())
@example(case=(_MIXED, [2, 0, 1, 0, 2, 1]))
def test_take_equals_encoding_the_picked_samples(case):
    """Gathering samples from an encoded batch, repeats and any order included,
    gives what encoding those samples as a new batch gives."""
    pool, chosen = case
    cfg = MODELS["transformer"][0]
    encoded = encode_graphs(pool, cfg)
    got = encoded.take(chosen)
    want = encode_graphs([pool[i] for i in chosen], cfg)
    for name in ("features", "degrees", "edges", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(encoded.features[encoded.rows(chosen)], want.features)


def _rwpe_oracle(g: GraphSample, k: int) -> np.ndarray:
    """The diagonals of (D^-1 A)^s for s = 1..k of one graph, from its edge list;
    an isolated node's row of D^-1 A, and so its encoding, is zero."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    m = np.zeros_like(a)
    for i in range(g.n):
        if a[i].any():
            m[i] = a[i] / a[i].sum()
    cols, power = [], m
    for _ in range(k):
        cols.append(np.diagonal(power).copy())
        power = power @ m
    return np.stack(cols, axis=1)


@PROPERTY_SETTINGS
@given(pool=st.lists(graphs(max_nodes=12), min_size=1, max_size=8), k=st.integers(1, 6))
@example(pool=_MIXED + _MIXED[::-1], k=6)
def test_batched_rwpe_equals_a_per_graph_oracle(pool, k):
    """One stacked product per node count gives each graph's own encoding,
    bit for bit."""
    want = np.concatenate([_rwpe_oracle(g, k) for g in pool])
    assert np.array_equal(rwpe(batch_graphs(pool), k), want)


@PROPERTY_SETTINGS
@given(first=st.integers(2, 40), rest=st.lists(st.integers(1, 40), max_size=11),
       extra=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_neighbor_max_equals_a_per_row_oracle(first, rest, extra, seed):
    """1 to 40 sources per row, several power-of-two buckets, and values
    from a few integers and +-inf, so ties are common. Each (row, column)
    gradient goes to the lowest column holding the max."""
    rng = np.random.default_rng(seed)
    counts = [first, *rest]
    n, d = max(counts) + extra, 3
    cols = [np.sort(rng.choice(n, size=k, replace=False)) for k in counts]
    adj = sparse.csr_matrix((np.ones(sum(counts)), np.concatenate(cols),
                             np.concatenate([[0], np.cumsum(counts)])), shape=(len(counts), n))
    h = rng.choice([-np.inf, -2.0, -1.0, 0.0, np.inf], size=(n, d))
    g = rng.normal(size=(len(counts), d))
    x = Tensor(h, requires_grad=True)
    with Tape(), np.errstate(invalid="ignore"):
        out = neighbor_max(x, SourceBuckets(adj.indptr, adj.indices, n))
        grad = backward(tsum(mul(out, Tensor(g))))[x]
    want = np.array([h[c].max(axis=0) for c in cols])
    want_grad = np.zeros((n, d))
    for r, c in enumerate(cols):
        for j in range(d):
            want_grad[c[h[c, j] == want[r, j]].min(), j] += g[r, j]
    assert np.array_equal(out.data, want)
    assert np.array_equal(grad, want_grad)


@PROPERTY_SETTINGS
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
       mode=st.sampled_from(["sum", "mean"]), seed=st.integers(0, 2**16))
def test_pool_rows_equals_a_per_segment_oracle(sizes, mode, seed):
    """1 to 12 segments of 1 to 40 rows: values and gradients equal a
    per-segment numpy loop bit for bit."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum([0, *sizes])
    rows, weights = rng.normal(size=(offsets[-1], 3)), rng.normal(size=(len(sizes), 3))
    x = Tensor(rows, requires_grad=True)
    with Tape():
        pooled = pool_rows(x, offsets, mode)
        grad = backward(tsum(mul(pooled, Tensor(weights))))[x]
    for b, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        want = rows[s:e].sum(axis=0)
        scale = 1.0
        if mode == "mean":
            want, scale = want / (e - s), 1.0 / (e - s)
        assert np.array_equal(pooled.data[b], want)
        assert np.array_equal(grad[s:e], np.tile(weights[b] * scale, (e - s, 1)))


@PROPERTY_SETTINGS
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5), shared=st.integers(0, 3),
       skip=st.integers(0, 2), heads=st.integers(1, 2), dq=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_block_attention_equals_a_dense_per_group_reference(sizes, shared, skip, heads, dq,
                                                          seed):
    """Random block layouts: the output and the qkv gradient equal dense
    per-group numpy attention to 1e-12. Shared rows' key and value gradients
    are summed over every group, and key-only rows get zero query gradient."""
    rng = np.random.default_rng(seed)
    sizes = [size + skip for size in sizes]
    groups = AttentionGroups(np.array(sizes), shared, skip)
    rows, w = shared + sum(sizes), heads * dq
    data = rng.normal(size=(rows, 3 * w))
    upstream = rng.normal(size=(groups.query_rows.size, w))
    qkv = Tensor(data, requires_grad=True)
    with Tape():
        out = block_attention(qkv, groups, heads)
        grad = backward(tsum(mul(out, Tensor(upstream))))[qkv]

    want, want_grad = np.zeros((rows, w)), np.zeros((rows, 3 * w))
    start = shared
    for size in sizes:
        keys = np.r_[:shared, start:start + size]
        queries = np.arange(start + skip, start + size)
        for h in range(heads):
            q, k, v = (np.s_[part * w + h * dq:part * w + (h + 1) * dq] for part in range(3))
            scores = data[queries, q] @ data[keys, k].T / np.sqrt(dq)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            want[queries, q] = probs @ data[keys, v]
            g = upstream[np.searchsorted(groups.query_rows, queries), h * dq:(h + 1) * dq]
            dp = g @ data[keys, v].T
            ds = probs * (dp - (dp * probs).sum(axis=1, keepdims=True)) / np.sqrt(dq)
            want_grad[queries, q] += ds @ data[keys, k]
            want_grad[keys, k] += ds.T @ data[queries, q]
            want_grad[keys, v] += probs.T @ g
        start += size
    asks = np.zeros(rows, dtype=bool)
    asks[groups.query_rows] = True
    assert np.abs(out.data - want[asks]).max() <= 1e-12
    assert np.abs(grad - want_grad).max() <= 1e-12
    assert not grad[~asks, :w].any()


def _slot_oracle(g, cfg, bb, prompts):
    """One sample's node rows with prompt rows carried through every layer.

    p prompt rows sit at the head of the sequence from the first prompted
    layer on (or from the input projection, for virtual tokens); each
    prompted layer replaces them with its prefix; every layer runs full
    self-attention over the whole sequence.
    """
    prepared = encode_graphs([g], cfg)
    x = Tensor(prepared.features)
    token, pre = prompts.graph_token, prompts.token_stage == "pre_projection"
    if token is not None and pre:
        x = add(x, token)
    h = add(matmul(x, bb.w_in), bb.b_in)
    h = add(h, gather_rows(bb.degree_table, np.minimum(prepared.degrees, cfg.max_degree)))
    if token is not None and not pre:
        h = add(h, token)
    p = 0
    if prompts.virtual_tokens is not None:
        h, p = concat_rows([prompts.virtual_tokens, h]), prompts.virtual_tokens.shape[0]
    for li, params in enumerate(bb.layers):
        if li in prompts.prefixes:
            h = concat_rows([prompts.prefixes[li], gather_rows(h, np.arange(p, h.shape[0]))])
            p = prompts.p_len
        h = transformer_layer_forward(h, AttentionGroups(np.array([h.shape[0]])), params,
                                      cfg.heads)
    return gather_rows(h, np.arange(p, h.shape[0]))


@pytest.mark.parametrize("interval", [(0, 2), (0, 1), (1, 2), (1, 1), "virtual"],
                         ids=["all", "early", "late", "single", "virtual"])
@PROPERTY_SETTINGS
@given(batch=batches(max_graphs=6, max_nodes=8), p_len=st.integers(1, 5),
       stage=st.sampled_from(TOKEN_STAGES), seed=st.integers(0, 99))
def test_prompted_forward_equals_a_per_sample_slot_oracle(interval, batch, p_len, stage, seed):
    """Prefixes as shared keys, with outputs only for rows a later layer
    reads, give the node rows and gradients of carrying the prompt rows."""
    cfg, bb, head, _ = MODELS["transformer"]
    rng = np.random.default_rng(seed)
    if interval == "virtual":        # virtual tokens on a transformer: no mode draws them
        prompts = PromptSet(virtual_tokens=Tensor(np.zeros((p_len, cfg.dim)),
                                                  requires_grad=True))
    else:
        prompts = init_prompts("deepgpt", cfg, p_len=p_len, seed=seed,
                               prompted_layers=interval, token_stage=stage)
    for t in prompts.named_params().values():
        t.data = rng.normal(size=t.shape)
    weights = Tensor(rng.normal(size=(len(batch), 1)))
    tracked = {**prompts.named_params(), **head.named_params()}

    with Tape():
        h, offsets = encode_nodes(encode_graphs(batch, cfg), bb,
                                  group=[(prompts, len(batch))])
        pooled = pool_rows(h, offsets, cfg.readout)
        grads = backward(tsum(mul(head.forward(pooled), weights)))
    with Tape():
        alone = [_slot_oracle(g, cfg, bb, prompts) for g in batch]
        pooled = concat_rows([pool_rows(r, [0, r.shape[0]], cfg.readout) for r in alone])
        want = backward(tsum(mul(head.forward(pooled), weights)))

    assert np.abs(h.data - np.concatenate([r.data for r in alone])).max() <= 1e-12
    for name, t in tracked.items():
        scale = max(1.0, np.abs(want[t]).max())
        assert np.abs(grads[t] - want[t]).max() <= 1e-10 * scale, name


FD_CASES = {"deepgpt": "transformer_deepgpt", "virtual_node_sum": "mpgnn_sum_virtual",
            "virtual_node_max": "mpgnn_max_virtual"}


@pytest.mark.parametrize("case", sorted(FD_CASES))
@settings(PROPERTY_SETTINGS, max_examples=5)
@given(batch=batches())
def test_prompt_and_head_gradients_match_central_differences(case, batch):
    """The graphs' features are seeded normals, so no max aggregation sees a tie."""
    cfg, bb, head, prompts = MODELS[FD_CASES[case]]
    prepared = encode_graphs(batch, cfg)
    weights = Tensor(np.random.default_rng(0).normal(size=(len(batch), 1)))

    def loss():
        out = head.forward(backbone_forward(prepared, bb, group=[(prompts, prepared.size)]))
        return tsum(mul(out, weights))

    with Tape():
        grads = backward(loss())
    step = 1e-6
    for name, t in {**prompts.named_params(), **head.named_params()}.items():
        fd = np.empty(t.shape)
        for i in np.ndindex(t.shape):
            orig = t.data[i]
            t.data[i] = orig + step
            up = float(loss().data)
            t.data[i] = orig - step
            down = float(loss().data)
            t.data[i] = orig
            fd[i] = (up - down) / (2 * step)
        assert np.abs(grads[t] - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), name


@PROPERTY_SETTINGS
@given(rows=st.integers(1, 6), cols=st.integers(1, 3), seed=st.integers(0, 2**16),
       fill=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_masked_label_changes_neither_the_bce_loss_nor_its_gradient(rows, cols, seed, fill):
    """A missing label, any non-finite value, is ignored whatever its logit."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(rows, cols)) * 3
    labels = (rng.random((rows, cols)) < 0.5).astype(float)
    mask = rng.random((rows, cols)) < 0.6
    mask.flat[0] = True

    def loss_and_grad(x, y):
        x = Tensor(x, requires_grad=True)
        with Tape():
            loss = bce_with_logits(x, y)
            return loss.data, backward(loss)[x]

    want_loss, want_grad = loss_and_grad(logits, np.where(mask, labels, np.nan))
    moved = np.where(mask, logits, rng.normal(size=(rows, cols)) * 3)
    loss, grad = loss_and_grad(moved, np.where(mask, labels, fill))
    assert np.array_equal(loss, want_loss)
    assert np.array_equal(grad, want_grad)
    assert (grad[~mask] == 0.0).all()


TIED_SCORES = st.lists(
    st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]),
              st.floats(allow_nan=False)),
    min_size=1, max_size=40)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(TIED_SCORES)
def test_average_ranks_equal_scipy_rankdata(scores):
    s = np.array(scores)
    got, want = _average_ranks(s), rankdata(s, method="average")
    assert got.dtype == want.dtype and np.array_equal(got, want)
