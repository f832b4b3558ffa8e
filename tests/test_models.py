import math

import numpy as np
import pytest
from scipy import sparse

from gpt_lab import models
from gpt_lab.graphs import GraphSample, batch
from gpt_lab.models import (
    Backbone,
    BackboneConfig,
    MpgnnLayerParams,
    PredictionHead,
    aggregation_operand,
    backbone_forward,
    encode_graphs,
    encode_nodes,
    mpgnn_layer_forward,
    transformer_layer_forward,
)
from gpt_lab.prompt import build_registry, init_prompts
from gpt_lab.seeding import rng_for
from gpt_lab.tensor import (
    AttentionGroups,
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    mul,
    pool_rows,
    tsum,
)

RNG = np.random.default_rng(100)


def make_graph(n, edges, d=3, rng=RNG, label=(1.0,)):
    return GraphSample(n, rng.normal(size=(n, d)), tuple(edges), np.array(label))


def random_graph(n, p, rng, d=3):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges, d=d, rng=rng)


def permute_graph(g, perm):
    inv = np.argsort(perm)
    return GraphSample(g.n, g.features[inv],
                       tuple((int(perm[i]), int(perm[j])) for i, j in g.edges),
                       g.label)


# ---------------------------------------------------------------------------
# Independent scalar oracle for the transformer layer (plain Python loops)
# ---------------------------------------------------------------------------


def _oracle_ln(row, gain, bias, eps=1e-5):
    d = len(row)
    mu = sum(row) / d
    var = sum((v - mu) ** 2 for v in row) / d
    return [(v - mu) / math.sqrt(var + eps) * g + b
            for v, g, b in zip(row, gain, bias)]


def _oracle_matvec(row, w):
    return [sum(row[a] * w[a][c] for a in range(len(row))) for c in range(len(w[0]))]


def _oracle_gelu(z):
    return 0.5 * z * (1.0 + math.erf(z / math.sqrt(2.0)))


def oracle_transformer_layer(x, mask, p, heads):
    """Naive re-implementation: returns (output, per-head attention rows)."""
    n, d = x.shape
    gain1, bias1 = p.norm1_gain.data.tolist(), p.norm1_bias.data.tolist()
    gain2, bias2 = p.norm2_gain.data.tolist(), p.norm2_bias.data.tolist()
    h = [_oracle_ln(list(x[i]), gain1, bias1) for i in range(n)]
    dq = d // heads
    head_cols = []
    attn_all = []
    for head in range(heads):
        # Head ``head``'s q, k and v columns in the fused (d, 3d) weight.
        wq, wk, wv = (p.qkv_weight.data[:, part * d + head * dq:part * d + (head + 1) * dq].tolist()
                      for part in range(3))
        q = [_oracle_matvec(h[i], wq) for i in range(n)]
        k = [_oracle_matvec(h[i], wk) for i in range(n)]
        v = [_oracle_matvec(h[i], wv) for i in range(n)]
        attn = []
        for i in range(n):
            scores = [sum(q[i][c] * k[j][c] for c in range(dq)) / math.sqrt(dq)
                      if mask[i][j] else None for j in range(n)]
            top = max(s for s in scores if s is not None)
            exps = [math.exp(s - top) if s is not None else 0.0 for s in scores]
            z = sum(exps)
            attn.append([e / z for e in exps])
        head_cols.append([[sum(attn[i][j] * v[j][c] for j in range(n))
                           for c in range(dq)] for i in range(n)])
        attn_all.append(attn)
    concat = [[c for head in head_cols for c in head[i]] for i in range(n)]
    mixed = [[m + b for m, b in zip(_oracle_matvec(concat[i], p.out_weight.data.tolist()),
                                    p.out_bias.data.tolist())] for i in range(n)]
    x1 = [[x[i][c] + mixed[i][c] for c in range(d)] for i in range(n)]
    out = []
    for i in range(n):
        h2 = _oracle_ln(x1[i], gain2, bias2)
        ff1 = [_oracle_gelu(z + b) for z, b in
               zip(_oracle_matvec(h2, p.ffn1_weight.data.tolist()), p.ffn1_bias.data.tolist())]
        ff2 = [z + b for z, b in
               zip(_oracle_matvec(ff1, p.ffn2_weight.data.tolist()), p.ffn2_bias.data.tolist())]
        out.append([x1[i][c] + ff2[c] for c in range(d)])
    return np.array(out), attn_all


def layout_mask(sizes, shared=0):
    """The oracle's mask of a block layout: a block's rows attend to the shared
    rows and to their own block, and a shared row to the shared rows."""
    owner = np.repeat(np.arange(-1, len(sizes)), [shared, *sizes])
    return (owner[:, None] == owner[None, :]) | (owner[None, :] == -1)


def _layer_params(dim, heads, seed=0, ffn_mult=2):
    cfg = BackboneConfig(kind="transformer", feature_dim=dim, dim=dim,
                         heads=heads, layers=1, ffn_mult=ffn_mult)
    return Backbone.init(cfg, seed=seed).layers[0]


class TestTransformerLayer:
    def test_matches_scalar_oracle(self):
        """Row 0 is a shared key, and rows 1 and 3 are key-only block rows."""
        p = _layer_params(dim=6, heads=2, seed=3)
        x = RNG.normal(size=(6, 6))
        groups = AttentionGroups(np.array([2, 3]), shared=1, skip=1)
        got = transformer_layer_forward(Tensor(x), groups, p, 2).data
        want, _ = oracle_transformer_layer(x, layout_mask([2, 3], shared=1), p, 2)
        assert groups.query_rows.tolist() == [2, 4, 5]
        assert np.abs(got - want[groups.query_rows]).max() <= 1e-10

    def test_single_node_attention_weight_is_one(self):
        p = _layer_params(dim=4, heads=2, seed=1)
        x = RNG.normal(size=(1, 4))
        _, attn = oracle_transformer_layer(x, np.ones((1, 1), dtype=bool), p, 2)
        for head in attn:
            assert head[0][0] == pytest.approx(1.0, abs=0)
        got = transformer_layer_forward(Tensor(x), AttentionGroups(np.array([1])), p, 2).data
        want, _ = oracle_transformer_layer(x, np.ones((1, 1), dtype=bool), p, 2)
        assert np.abs(got - want).max() <= 1e-12

    def test_zero_query_key_gives_uniform_attention_over_unmasked(self):
        p = _layer_params(dim=4, heads=2, seed=2)
        p.qkv_weight.data[:, :8] = 0.0     # every q and k column
        x = RNG.normal(size=(6, 4))
        mask = layout_mask([2, 3], shared=1)
        _, attn = oracle_transformer_layer(x, mask, p, 2)
        for head in attn:
            for i in range(6):
                alive = [head[i][j] for j in range(6) if mask[i][j]]
                assert np.allclose(alive, 1.0 / len(alive), atol=1e-15)
        got = transformer_layer_forward(Tensor(x), AttentionGroups(np.array([2, 3]), shared=1),
                                        p, 2).data
        want, _ = oracle_transformer_layer(x, mask, p, 2)
        assert np.abs(got - want[1:]).max() <= 1e-10

    def test_two_groups_of_different_sizes_match_the_oracle_per_group(self):
        p = _layer_params(dim=6, heads=2, seed=4)
        x = RNG.normal(size=(8, 6))
        got = transformer_layer_forward(Tensor(x), AttentionGroups(np.array([3, 5])), p, 2).data
        want_small, _ = oracle_transformer_layer(x[:3], np.ones((3, 3), dtype=bool), p, 2)
        want_large, _ = oracle_transformer_layer(x[3:], np.ones((5, 5), dtype=bool), p, 2)
        assert np.abs(got[:3] - want_small).max() <= 1e-10
        assert np.abs(got[3:] - want_large).max() <= 1e-10

    def test_a_taped_layer_records_ten_nodes(self):
        """LN1, the QKV matmul, attention, the out linear, the residual, LN2,
        linear, GELU, linear and the residual."""
        p = _layer_params(dim=4, heads=2, seed=1)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            transformer_layer_forward(x, AttentionGroups(np.array([3])), p, 2)
            assert len(tape.nodes) == 10

    def test_fused_qkv_holds_the_per_head_draws_in_column_order(self):
        """Init draws each head's (dim, dq) q, then k, then v matrix in turn."""
        cfg = BackboneConfig(kind="transformer", feature_dim=3, dim=6, heads=3, layers=2,
                             ffn_mult=2)
        bb = Backbone.init(cfg, seed=5)
        rng = rng_for(5, "init-backbone")

        def draw(rows, cols):
            return rng.normal(0.0, 1.0 / math.sqrt(rows), size=(rows, cols))

        draw(3, 6)                                    # the input projection
        for layer in bb.layers:
            heads = [draw(6, 2) for _ in range(9)]
            assert np.array_equal(layer.qkv_weight.data, np.concatenate(heads, axis=1))
            draw(6, 6), draw(6, 12), draw(12, 6)        # out, ffn1, ffn2


# ---------------------------------------------------------------------------
# MPGNN layer vs a naive double loop
# ---------------------------------------------------------------------------


def oracle_mpgnn_layer(h, neighbors, weight, bias, mode):
    n, d = h.shape
    agg = np.zeros_like(h)
    for i in range(n):
        rows = [h[i]] + [h[j] for j in neighbors[i]]
        if mode == "sum":
            agg[i] = np.sum(rows, axis=0)
        elif mode == "mean":
            agg[i] = np.mean(rows, axis=0)
        else:
            agg[i] = np.max(rows, axis=0)
    lin = agg @ weight + bias
    return np.array([[_oracle_gelu(v) for v in row] for row in lin])


def operand(neighbors, mode, rows=None):
    """The aggregation operand of neighbour lists: the diagonal plus every listed
    pair, at the given rows (every row by default)."""
    n = len(neighbors)
    at = [i for i, nb in enumerate(neighbors) for _ in range(len(nb) + 1)]
    cols = [j for i, nb in enumerate(neighbors) for j in (i, *nb)]
    adj = sparse.csr_matrix((np.ones(len(at)), (at, cols)), shape=(n, n))
    if rows is not None:
        adj = adj[rows]
    return aggregation_operand(adj.indptr, adj.indices, n, mode)


class TestMpgnnLayer:
    @pytest.mark.parametrize("mode", ["sum", "mean", "max"])
    def test_matches_double_loop_oracle(self, mode):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(5, 4))
        neighbors = [[1, 2], [0], [0, 3, 4], [2], [2]]
        params = MpgnnLayerParams(weight=Tensor(rng.normal(size=(4, 4))),
                                  bias=Tensor(rng.normal(size=4)))
        got = mpgnn_layer_forward(Tensor(h), operand(neighbors, mode), params).data
        want = oracle_mpgnn_layer(h, neighbors, params.weight.data,
                                  params.bias.data, mode)
        assert np.abs(got - want).max() <= 1e-12

    def test_isolated_node_sum_is_self_only(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 4))
        params = MpgnnLayerParams(weight=Tensor(rng.normal(size=(4, 4))),
                                  bias=Tensor(np.zeros(4)))
        out = mpgnn_layer_forward(Tensor(h), operand([[1], [0], []], "sum"), params).data
        lin = h[2] @ params.weight.data
        want = np.array([_oracle_gelu(v) for v in lin])
        assert np.abs(out[2] - want).max() <= 1e-12

    def test_symmetric_inputs_give_identical_outputs(self):
        h = np.tile(np.array([0.3, -0.7, 1.1]), (3, 1))
        params = MpgnnLayerParams(weight=Tensor(np.eye(3)), bias=Tensor(np.zeros(3)))
        tri = [[1, 2], [0, 2], [0, 1]]
        out = mpgnn_layer_forward(Tensor(h), operand(tri, "mean"), params).data
        assert np.abs(out - out[0]).max() == 0.0

    @pytest.mark.parametrize("mode", ["sum", "mean", "max"])
    def test_an_operand_of_some_rows_computes_those_rows(self, mode):
        rng = np.random.default_rng(6)
        h = Tensor(rng.normal(size=(5, 4)))
        neighbors = [[1, 2], [0], [0, 3, 4], [2], [2]]
        params = MpgnnLayerParams(weight=Tensor(rng.normal(size=(4, 4))),
                                  bias=Tensor(rng.normal(size=4)))
        every = mpgnn_layer_forward(h, operand(neighbors, mode), params).data
        some = mpgnn_layer_forward(h, operand(neighbors, mode, rows=[4, 0, 2]), params).data
        assert np.array_equal(some, every[[4, 0, 2]])


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------


class TestReadout:
    """One call pools every sample's segment of rows; the per-sample loop is the reference."""

    def test_single_node_both_modes(self):
        h = Tensor(RNG.normal(size=(2, 4)))
        for mode in ("sum", "mean"):
            assert np.array_equal(pool_rows(h, [0, 1, 2], mode).data, h.data)

    def test_mean_of_two_rows(self):
        h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 4.0], [0.0, 2.0]]))
        assert np.array_equal(pool_rows(h, [0, 2, 4], "mean").data, [[0.5, 0.5], [1.0, 3.0]])

    def test_padding_excluded_matches_stripped(self):
        """Two segments of different sizes, the shorter one padded inside the
        pool: forward values and gradients equal the per-sample loop bit for bit."""
        rows = RNG.normal(size=(8, 5))
        offsets = np.array([0, 3, 8])
        weights = RNG.normal(size=(2, 5))
        h = Tensor(rows, requires_grad=True)
        for mode in ("sum", "mean"):
            with Tape():
                pooled = pool_rows(h, offsets, mode)
                grad = backward(tsum(mul(pooled, Tensor(weights))))[h]
            want_grad = np.zeros_like(rows)
            for b, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
                want = rows[s:e].sum(axis=0)
                if mode == "mean":
                    want = want / (e - s)
                assert np.array_equal(pooled.data[b], want)
                want_grad[s:e] = weights[b] * (1.0 if mode == "sum" else 1.0 / (e - s))
            assert np.array_equal(grad, want_grad)

    def test_empty_inclusion_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            pool_rows(Tensor(RNG.normal(size=(2, 2))), [0, 2, 2], "mean")


# ---------------------------------------------------------------------------
# Whole-backbone properties
# ---------------------------------------------------------------------------


def _build(kind, rng_seed=0, **kw):
    defaults = dict(feature_dim=3, dim=8, heads=2, layers=2, ffn_mult=2,
                    readout="mean", rwpe_steps=3, degree_embed=True, max_degree=4)
    defaults.update(kw)
    cfg = BackboneConfig(kind=kind, **defaults)
    bb = Backbone.init(cfg, seed=rng_seed)
    head = PredictionHead.init(cfg.dim, 1, seed=rng_seed)
    return cfg, bb, head


class TestBackboneForward:
    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(11)
        cfg, bb, head = _build(kind)
        g = random_graph(6, 0.5, rng)
        perm = rng.permutation(6)
        base = head.forward(backbone_forward(encode_graphs([g], cfg), bb)).data
        moved = head.forward(backbone_forward(encode_graphs([permute_graph(g, perm)], cfg),
                                              bb)).data
        assert np.abs(base - moved).max() <= 1e-9

    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    def test_batched_equals_per_sample(self, kind):
        rng = np.random.default_rng(12)
        cfg, bb, head = _build(kind)
        graphs = [random_graph(int(rng.integers(3, 8)), 0.4, rng) for _ in range(5)]
        batched = head.forward(backbone_forward(encode_graphs(graphs, cfg), bb)).data
        for i, g in enumerate(graphs):
            solo = head.forward(backbone_forward(encode_graphs([g], cfg), bb)).data
            assert np.abs(batched[i] - solo[0]).max() <= 1e-10

    @pytest.mark.parametrize("mode, prompted_layers", [("deepgpt", None),
                                                        ("prefix_only", (1, 2))])
    def test_batched_equals_per_sample_with_prompts(self, mode, prompted_layers):
        """Prompt slots pad each group differently; outputs and prompt grads still agree."""
        rng = np.random.default_rng(18)
        cfg, bb, head = _build("transformer", layers=3)
        prompts = init_prompts(mode, cfg, p_len=2, seed=7,
                               prompted_layers=prompted_layers)
        graphs = [random_graph(n, 0.4, rng) for n in (3, 8, 5, 4, 7)]
        named = prompts.named_params()
        with Tape():
            batched = head.forward(backbone_forward(encode_graphs(graphs, cfg), bb,
                                                    group=[(prompts, len(graphs))]))
            batched_grads = backward(tsum(batched))
        summed = {name: np.zeros_like(t.data) for name, t in named.items()}
        for i, g in enumerate(graphs):
            with Tape():
                solo = head.forward(backbone_forward(encode_graphs([g], cfg), bb,
                                                     group=[(prompts, 1)]))
                grads = backward(tsum(solo))
            assert np.abs(batched.data[i] - solo.data[0]).max() <= 1e-10
            for name, t in named.items():
                summed[name] += grads[t]
        for name, t in named.items():
            assert np.abs(batched_grads[t] - summed[name]).max() <= 1e-10, name

    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    @pytest.mark.parametrize("readout", ["sum", "mean"])
    def test_readout_pools_each_sample_of_the_node_rows(self, kind, readout):
        rng = np.random.default_rng(19)
        cfg, bb, _ = _build(kind, readout=readout)
        prepared = encode_graphs([random_graph(n, 0.5, rng) for n in (3, 6, 4)], cfg)
        rows, offsets = encode_nodes(prepared, bb)
        pooled = backbone_forward(prepared, bb).data
        for b, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
            want = rows.data[s:e].sum(axis=0)
            assert np.array_equal(pooled[b], want if readout == "sum" else want / (e - s))

    def test_duplicate_sample_gives_identical_rows(self):
        rng = np.random.default_rng(13)
        cfg, bb, head = _build("transformer")
        g = random_graph(5, 0.5, rng)
        out = head.forward(backbone_forward(encode_graphs([g, g], cfg), bb)).data
        assert np.abs(out[0] - out[1]).max() <= 1e-12

    def test_structure_blind_without_encodings(self):
        cfg, bb, head = _build("transformer", rwpe_steps=0, degree_embed=False)
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(5, 3))
        a = GraphSample(5, feats, ((0, 1), (1, 2)), np.array([0.0]))
        b = GraphSample(5, feats, ((0, 4), (2, 3), (3, 4)), np.array([0.0]))
        out_a = head.forward(backbone_forward(encode_graphs([a], cfg), bb)).data
        out_b = head.forward(backbone_forward(encode_graphs([b], cfg), bb)).data
        assert np.array_equal(out_a, out_b)

    def test_structure_visible_with_encodings(self):
        cfg, bb, head = _build("transformer", rwpe_steps=4)
        rng = np.random.default_rng(15)
        feats = rng.normal(size=(5, 3))
        a = GraphSample(5, feats, ((0, 1), (1, 2)), np.array([0.0]))
        b = GraphSample(5, feats, ((0, 1), (1, 2), (0, 2)), np.array([0.0]))
        out_a = head.forward(backbone_forward(encode_graphs([a], cfg), bb)).data
        out_b = head.forward(backbone_forward(encode_graphs([b], cfg), bb)).data
        assert np.abs(out_a - out_b).max() > 1e-8

    def test_feature_width_mismatch_rejected(self):
        cfg, bb, head = _build("transformer")
        bad = batch([random_graph(4, 0.5, np.random.default_rng(1))])
        with pytest.raises(Exception, match="width"):
            head.forward(backbone_forward(bad, bb))

    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    def test_no_dead_parameters_under_full_tuning(self, kind):
        """Directional finite-difference sensitivity is nonzero for every tensor."""
        rng = np.random.default_rng(16)
        cfg, bb, head = _build(kind, rng_seed=5)
        graphs = [random_graph(5, 0.6, rng), random_graph(4, 0.6, rng)]
        prepared = encode_graphs(graphs, cfg)
        weights = rng.normal(size=(2, 1))

        def value():
            out = head.forward(backbone_forward(prepared, bb))
            return float((out.data * weights).sum())

        params = {**bb.named_params(), **head.named_params()}
        h = 1e-4
        for name, t in params.items():
            direction = np.random.default_rng(abs(hash(name)) % 2**32).normal(size=t.shape)
            t.data += h * direction
            up = value()
            t.data -= 2 * h * direction
            down = value()
            t.data += h * direction
            assert abs(up - down) / (2 * h) > 1e-10, f"parameter {name} is dead"

    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    def test_gradients_cover_all_params_under_full_tuning(self, kind):
        rng = np.random.default_rng(17)
        cfg, bb, head = _build(kind, rng_seed=6)
        prepared = encode_graphs([random_graph(5, 0.6, rng)], cfg)
        params = {**bb.named_params(), **head.named_params()}
        with Tape():
            grads = backward(tsum(head.forward(backbone_forward(prepared, bb))))
        for name, t in params.items():
            assert t in grads, f"no gradient for {name}"


class TestTapeSize:
    """Prompt rows enter by one gather, so a step's tape does not grow with the batch."""

    @pytest.mark.parametrize("kind, mode", [("transformer", "deepgpt"),
                                            ("mpgnn", "virtual_node")])
    def test_a_step_records_as_many_nodes_at_bs_2_as_at_bs_16(self, kind, mode):
        rng = np.random.default_rng(19)
        cfg, bb, head = _build(kind, layers=3)
        prompts = init_prompts(mode, cfg, p_len=2, seed=8)
        build_registry(bb, head, prompts)
        graphs = [random_graph(int(rng.integers(3, 8)), 0.4, rng) for _ in range(16)]
        nodes = []
        for bs in (2, 16):
            with Tape() as tape:
                out = head.forward(backbone_forward(encode_graphs(graphs[:bs], cfg), bb,
                                                    group=[(prompts, bs)]))
                backward(tsum(out))
            nodes.append(len(tape.nodes))
        assert nodes[0] == nodes[1]


class TestStateRoundTrip:
    @pytest.mark.parametrize("kind, degree_embed, names", [
        ("transformer", True,
         ["input_proj.weight", "input_proj.bias", "degree_table",
          *(f"layer{i}.{suffix}" for i in range(2)
            for suffix in ("qkv.weight", "out.weight", "out.bias", "ffn1.weight", "ffn1.bias",
                           "ffn2.weight", "ffn2.bias", "norm1.gain", "norm1.bias",
                           "norm2.gain", "norm2.bias"))]),
        ("mpgnn", False,
         ["input_proj.weight", "input_proj.bias", "layer0.weight", "layer0.bias",
          "layer1.weight", "layer1.bias"]),
    ])
    def test_checkpoint_names_in_order(self, kind, degree_embed, names):
        """The array names, and their order, that checkpoint files store and
        that clipping and the optimizer state follow."""
        cfg = BackboneConfig(kind=kind, feature_dim=3, dim=8, heads=2, layers=2, ffn_mult=2,
                             degree_embed=degree_embed)
        assert list(Backbone.init(cfg, seed=0).named_params()) == names

    def test_state_arrays_round_trip(self):
        cfg, bb, _ = _build("transformer")
        state = bb.state_arrays()
        other = Backbone.from_state(cfg, state)
        for name, t in other.named_params().items():
            assert np.array_equal(t.data, state[name])

    def test_load_rejects_name_mismatch(self):
        cfg, bb, _ = _build("transformer")
        state = bb.state_arrays()
        state.pop("input_proj.bias")
        with pytest.raises(ContractError, match="mismatch"):
            Backbone.from_state(cfg, state)

    @pytest.mark.parametrize("kind", ["transformer", "mpgnn"])
    def test_from_state_draws_nothing_and_copies_every_array(self, kind, monkeypatch):
        cfg, bb, _ = _build(kind)
        state = bb.state_arrays()

        def no_draws(*args):
            raise AssertionError("from_state drew a random initialisation")

        monkeypatch.setattr(models, "rng_for", no_draws)
        other = Backbone.from_state(cfg, state)
        assert other.state_arrays().keys() == state.keys()
        for name, t in other.named_params().items():
            assert np.array_equal(t.data, state[name]) and t.data is not state[name]
            assert t.requires_grad

    def test_from_state_rejects_a_misshapen_array(self):
        cfg, bb, _ = _build("mpgnn")
        state = bb.state_arrays()
        state["layer1.bias"] = state["layer1.bias"][:3]
        with pytest.raises(ShapeError, match=r"layer1.bias: stored shape \(3,\) != \(8,\)"):
            Backbone.from_state(cfg, state)


def _layer_over(mode):
    """An MPGNN layer over 2 rows whose operand reads 3."""
    params = MpgnnLayerParams(weight=Tensor(np.eye(3)), bias=Tensor(np.zeros(3)))
    two_rows = operand([[1], [0], []], mode, rows=[0, 1])
    return mpgnn_layer_forward(Tensor(np.zeros((2, 3))), two_rows, params)


# Each input check of the model layers that no other test trips: the call,
# and the exception type and message it raises.
INPUT_ERRORS = {
    "mpgnn_operand_columns_sum": (lambda: _layer_over("sum"), ShapeError,
                                  "spmm: cannot multiply shapes (2, 3) and (2, 3)"),
    "mpgnn_operand_columns_max": (lambda: _layer_over("max"), ShapeError,
                                  "neighbor_max: cannot aggregate shape (2, 3) over (2, 3)"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_check_names_its_cause(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
