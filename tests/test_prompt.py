import numpy as np
import pytest

from gpt_lab import models
from gpt_lab.graphs import GraphSample
from gpt_lab.models import (
    Backbone,
    BackboneConfig,
    PredictionHead,
    backbone_forward,
    encode_graphs,
    encode_nodes,
)
from gpt_lab.prompt import (
    FreezeRegistry,
    PromptSet,
    apply_graph_prompt,
    build_registry,
    check_group,
    count_params,
    init_prompts,
    inject_prefix,
)
from gpt_lab.tensor import ContractError, ShapeError, Tape, Tensor, backward, mul, tsum

RNG = np.random.default_rng(21)


def random_graph(n, p, rng, d=3, label=(1.0,)):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return GraphSample(n, rng.normal(size=(n, d)), tuple(edges), np.array(label))


def small_setup(kind="transformer", layers=3, dim=8, seed=0, **kw):
    cfg = BackboneConfig(kind=kind, feature_dim=3, dim=dim, heads=2, layers=layers,
                         ffn_mult=2, rwpe_steps=2, degree_embed=True, max_degree=4, **kw)
    bb = Backbone.init(cfg, seed=seed)
    head = PredictionHead.init(dim, 1, seed=seed)
    return cfg, bb, head


class TestApplyGraphPrompt:
    def test_zero_token_is_identity(self):
        x = Tensor(RNG.normal(size=(4, 5)))
        out = apply_graph_prompt(x, Tensor(np.zeros((1, 5))), np.zeros(4, dtype=np.intp))
        assert np.array_equal(out.data, x.data)

    def test_zero_features_become_token(self):
        v = RNG.normal(size=5)
        out = apply_graph_prompt(Tensor(np.zeros((3, 5))), Tensor(v[None]),
                                 np.zeros(3, dtype=np.intp))
        assert np.array_equal(out.data, np.tile(v, (3, 1)))

    def test_constant_shift_equivalence_linear_model(self):
        """Setting the token to the shift constant reproduces the shifted input."""
        rng = np.random.default_rng(33)
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        c = rng.normal(size=3)

        def linear_sum_readout(x_np):
            from gpt_lab.tensor import add, matmul, pool_rows
            h = add(matmul(Tensor(x_np), w), b)
            return pool_rows(h, [0, x_np.shape[0]], "sum").data

        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 7)), 3))
            prompted = apply_graph_prompt(Tensor(x), Tensor(c[None]),
                                          np.zeros(len(x), dtype=np.intp)).data
            shifted = x + c
            assert np.abs(linear_sum_readout(prompted)
                          - linear_sum_readout(shifted)).max() <= 1e-10


class TestInjectPrefix:
    def test_prefix_rows_come_first(self):
        e = Tensor(RNG.normal(size=(7, 4)))
        p = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
        out = inject_prefix(e, p).data
        assert out.shape == (9, 4)
        assert np.array_equal(out[:2], p.data)
        assert np.array_equal(out[2:], e.data)

    def test_prefix_gets_the_leading_gradient_rows(self):
        e = Tensor(RNG.normal(size=(7, 4)), requires_grad=True)
        p = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
        g = RNG.normal(size=(9, 4))
        with Tape():
            grads = backward(tsum(mul(inject_prefix(e, p), Tensor(g))))
        assert np.array_equal(grads[p], g[:2])
        assert np.array_equal(grads[e], g[2:])

    @pytest.mark.parametrize("rows, prefix", [
        ((7, 4), (2, 3)),
        ((4,), (2, 4)),
    ], ids=["width", "not_a_matrix"])
    def test_prefix_must_fit_the_rows(self, rows, prefix):
        p = Tensor(RNG.normal(size=prefix), requires_grad=True)
        with pytest.raises(ShapeError, match="expected .*-column matrices"):
            inject_prefix(Tensor(RNG.normal(size=rows)), p)

    def test_empty_prompt_set_is_noop_forward(self):
        cfg, bb, head = small_setup()
        g = random_graph(5, 0.5, np.random.default_rng(1))
        prepared = encode_graphs([g], cfg)
        plain = head.forward(backbone_forward(prepared, bb)).data
        empty_group = [(PromptSet().check(bb.cfg), prepared.size)]
        empty = head.forward(backbone_forward(prepared, bb, group=empty_group)).data
        assert np.array_equal(plain, empty)

    def test_early_prefix_reaches_later_layers_through_attention(self):
        cfg, bb, head = small_setup(layers=3)
        g = random_graph(5, 0.5, np.random.default_rng(2))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("prefix_only", cfg, p_len=2, seed=3)
        base, _ = encode_nodes(prepared, bb, group=[(prompts, prepared.size)])
        # layer 0's prefix rows are keys only and never reach layers 1
        # and 2, so any influence on final real-node rows went through
        # attention
        prompts.prefixes[0].data[0, 0] += 0.5
        bumped, _ = encode_nodes(prepared, bb, group=[(prompts, prepared.size)])
        delta = np.abs(base.data - bumped.data).max()
        assert delta > 1e-8


class TestDeepgptForward:
    def test_gradient_keys_are_exactly_the_trainable_set(self):
        cfg, bb, head = small_setup()
        g = random_graph(5, 0.5, np.random.default_rng(4))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("deepgpt", cfg, p_len=2, seed=5)
        registry = build_registry(bb, head, prompts)
        with Tape():
            out = head.forward(backbone_forward(prepared, bb,
                                                group=[(prompts.check(bb.cfg), prepared.size)]))
            grads = backward(tsum(out))
        expected = {id(t) for t in registry.trainable.values()}
        got = {id(t) for t in grads}
        assert got == expected

    def test_frozen_params_not_in_gradient_map(self):
        cfg, bb, head = small_setup()
        g = random_graph(4, 0.5, np.random.default_rng(5))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("deepgpt", cfg, p_len=2, seed=6)
        registry = build_registry(bb, head, prompts)
        with Tape():
            out = head.forward(backbone_forward(prepared, bb,
                                                group=[(prompts.check(bb.cfg), prepared.size)]))
            grads = backward(tsum(out))
        for t in registry.frozen.values():
            assert t not in grads

    def test_prompt_validation_against_backbone(self):
        cfg, bb, _ = small_setup(layers=2)
        deeper, _, _ = small_setup(layers=5)
        bad = init_prompts("prefix_only", deeper, p_len=2, seed=7, prompted_layers=(0, 4))
        with pytest.raises(ContractError, match="out of range"):
            bad.check(bb.cfg)


class TestVirtualNodes:
    def test_zero_tokens_is_identity(self):
        cfg, bb, head = small_setup(kind="mpgnn")
        g = random_graph(5, 0.5, np.random.default_rng(7))
        prepared = encode_graphs([g], cfg)
        plain = head.forward(backbone_forward(prepared, bb)).data
        ctx = PromptSet(virtual_tokens=Tensor(np.zeros((0, cfg.dim)), requires_grad=True))
        via = head.forward(backbone_forward(prepared, bb, group=[(ctx, prepared.size)])).data
        assert np.array_equal(plain, via)

    def test_augmented_graph_structure(self, monkeypatch):
        """The MPGNN forward wires each token row to every original node and back."""
        cfg, bb, _ = small_setup(kind="mpgnn", layers=2)
        rng = np.random.default_rng(8)
        graphs = [random_graph(4, 0.5, rng), random_graph(6, 0.5, rng)]
        tokens = Tensor(RNG.normal(size=(2, cfg.dim)), requires_grad=True)
        seen = []
        layer_forward = models.mpgnn_layer_forward
        monkeypatch.setattr(models, "mpgnn_layer_forward",
                            lambda h, adj, *rest: seen.append(adj) or layer_forward(h, adj, *rest))
        _, offsets = encode_nodes(encode_graphs(graphs, cfg), bb,
                                  group=[(PromptSet(virtual_tokens=tokens), len(graphs))])
        assert len(seen) == cfg.layers
        adj = seen[0]
        hubs = 2 * len(graphs)                # 2 token rows per sample, ahead of the nodes
        total = offsets[-1] + hubs
        # The last layer computes node rows only: its operand is adj's rows after the hubs.
        assert seen[-1].shape == (offsets[-1], total)
        assert (seen[-1] != adj[hubs:]).nnz == 0
        assert adj.diagonal().tolist() == [1.0] * total
        neighbors = [set(adj[row].indices.tolist()) - {row} for row in range(total)]
        for b, g in enumerate(graphs):
            token_rows = {2 * b, 2 * b + 1}
            nodes = list(range(hubs + offsets[b], hubs + offsets[b] + g.n))
            for row in token_rows:
                assert sorted(neighbors[row]) == nodes
            for local, nb in enumerate(g.neighbors()):
                assert set(neighbors[nodes[local]]) == {nodes[j] for j in nb} | token_rows

    def test_prefix_equals_virtual_nodes_on_full_attention_transformer(self):
        """Same token values, single prompted layer: real-node rows agree."""
        cfg, bb, _ = small_setup(layers=3)
        g = random_graph(5, 0.6, np.random.default_rng(9))
        prepared = encode_graphs([g], cfg)
        values = RNG.normal(size=(2, cfg.dim))
        prefix_ctx = PromptSet(prefixes={0: Tensor(values.copy(), requires_grad=True)})
        virtual_ctx = PromptSet(virtual_tokens=Tensor(values.copy(), requires_grad=True))
        h_prefix, _ = encode_nodes(prepared, bb, group=[(prefix_ctx, prepared.size)])
        h_virtual, _ = encode_nodes(prepared, bb, group=[(virtual_ctx, prepared.size)])
        assert h_prefix.shape == h_virtual.shape == (g.n, cfg.dim)
        assert np.abs(h_prefix.data - h_virtual.data).max() <= 1e-10

    def test_readout_pools_original_nodes_only_with_prompts(self):
        """Prompt rows never change which positions the readout averages."""
        cfg, bb, _ = small_setup(layers=3)
        g = random_graph(5, 0.5, np.random.default_rng(19))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("deepgpt", cfg, p_len=3, seed=20)
        ctx = prompts.check(bb.cfg)
        pooled = backbone_forward(prepared, bb, group=[(ctx, prepared.size)]).data
        h, _ = encode_nodes(prepared, bb, group=[(ctx, prepared.size)])
        assert h.shape == (g.n, cfg.dim)
        manual = h.data.mean(axis=0)
        assert np.abs(pooled[0] - manual).max() <= 1e-15

    def test_mpgnn_token_perturbation_reaches_every_node(self):
        cfg, bb, _ = small_setup(kind="mpgnn", layers=2)
        g = random_graph(5, 0.4, np.random.default_rng(10))
        prepared = encode_graphs([g], cfg)
        tokens = Tensor(RNG.normal(size=(2, cfg.dim)), requires_grad=True)
        group = [(PromptSet(virtual_tokens=tokens), 1)]
        base, _ = encode_nodes(prepared, bb, group=group)
        tokens.data[0, 0] += 0.25
        bumped, _ = encode_nodes(prepared, bb, group=group)
        assert base.shape == (g.n, cfg.dim)
        delta = np.abs(base.data - bumped.data)
        assert np.all(delta.max(axis=1) > 1e-10)


class TestForwardRunsThePromptHooks:
    """encode_nodes applies prompts through prompt.py's hooks, looked up in models."""

    @pytest.mark.parametrize("mode, calls", [("deepgpt", (1, 3)), ("prefix_only", (0, 3)),
                                             ("lightweight", (0, 0))])
    def test_hook_calls_per_forward(self, monkeypatch, mode, calls):
        cfg, bb, head = small_setup(layers=4)
        rng = np.random.default_rng(22)
        graphs = [random_graph(5, 0.5, rng), random_graph(3, 0.5, rng)]
        prepared = encode_graphs(graphs, cfg)
        prompts = init_prompts(mode, cfg, p_len=2, seed=23,
                               prompted_layers=(0, 2))
        counts = {"apply_graph_prompt": 0, "inject_prefix": 0}
        for name in counts:
            def counted(*args, _hook=getattr(models, name), _name=name):
                counts[_name] += 1
                return _hook(*args)
            monkeypatch.setattr(models, name, counted)
        head.forward(backbone_forward(prepared, bb, group=[(prompts, prepared.size)]))
        assert (counts["apply_graph_prompt"], counts["inject_prefix"]) == calls


class TestCheck:
    def test_rejections(self):
        cfg, _, _ = small_setup(layers=2)
        mpgnn_cfg, _, _ = small_setup(kind="mpgnn", layers=2)
        prefix = {0: Tensor(np.zeros((2, cfg.dim)), requires_grad=True)}
        unequal = {**prefix, 1: Tensor(np.zeros((3, cfg.dim)), requires_grad=True)}
        virtual = Tensor(np.zeros((2, cfg.dim)), requires_grad=True)
        cases = [
            (PromptSet(prefixes=prefix), mpgnn_cfg, "transformer"),
            (PromptSet(prefixes=prefix, virtual_tokens=virtual), cfg, "exclusive"),
            (PromptSet(prefixes=unequal), cfg, "prefix for layer 1"),
            (PromptSet(graph_token=Tensor(np.zeros(cfg.dim), requires_grad=True),
                       token_stage="pre_projection"), cfg, "graph token"),
            (PromptSet(virtual_tokens=Tensor(np.zeros((2, 3)), requires_grad=True)), cfg,
             "virtual tokens"),
            (PromptSet(virtual_tokens=Tensor(np.zeros((2, cfg.dim)))), cfg, "require gradients"),
            (PromptSet(token_stage="input"), cfg, "token stage"),
        ]
        for prompts, against, message in cases:
            with pytest.raises((ContractError, ShapeError), match=message):
                prompts.check(against)

    def test_p_len_is_the_row_count_of_the_prompt_rows(self):
        cfg, _, _ = small_setup(layers=2)

        def rows(n):
            return Tensor(np.zeros((n, cfg.dim)), requires_grad=True)

        assert PromptSet(virtual_tokens=rows(3)).p_len == 3
        assert PromptSet(prefixes={0: rows(2), 1: rows(2)}).p_len == 2
        token = Tensor(np.zeros(cfg.dim), requires_grad=True)
        assert PromptSet().p_len == PromptSet(graph_token=token).p_len == 0

    def test_virtual_tokens_allowed_on_both_kinds(self):
        for kind in ("transformer", "mpgnn"):
            cfg, _, _ = small_setup(kind=kind)
            prompts = PromptSet(virtual_tokens=Tensor(np.zeros((2, cfg.dim)), requires_grad=True))
            assert prompts.check(cfg) is prompts


class TestMixedPromptSets:
    """One forward over the samples of k prompt sets, given as (set, count) pairs."""

    @pytest.mark.parametrize("kind, mode, kw", [
        ("transformer", "deepgpt", {}),
        ("transformer", "deepgpt", {"token_stage": "pre_projection"}),
        ("transformer", "prefix_only", {"prompted_layers": (0, 0)}),
        ("transformer", "prefix_only", {"prompted_layers": (1, 1)}),
        ("mpgnn", "virtual_node", {}),
    ])
    def test_each_sample_reads_its_own_set(self, kind, mode, kw):
        cfg, bb, _ = small_setup(kind=kind, layers=3)
        build_registry(bb, PredictionHead.init(cfg.dim, 1, seed=0), PromptSet())
        rng = np.random.default_rng(26)
        graphs = [random_graph(int(rng.integers(3, 8)), 0.5, rng) for _ in range(7)]
        sets = [init_prompts(mode, cfg, p_len=2, seed=s, **kw) for s in (1, 2, 3, 4)]
        counts = [2, 0, 1, 4]             # the second set is read by no sample
        ups = rng.normal(size=(7, cfg.dim))
        with Tape():
            mixed = backbone_forward(encode_graphs(graphs, cfg), bb,
                                     group=zip(sets, counts))
            grads = backward(tsum(mul(mixed, Tensor(ups))))
        ends = np.cumsum(counts)
        for prompts, count, end in zip(sets, counts, ends):
            if not count:
                for name, t in prompts.named_params().items():
                    assert not grads[t].any(), name
                continue
            rows = np.arange(end - count, end)
            with Tape():
                alone = backbone_forward(
                    encode_graphs([graphs[i] for i in rows], cfg), bb,
                    group=[(prompts, count)])
                want = backward(tsum(mul(alone, Tensor(ups[rows]))))
            assert np.abs(mixed.data[rows] - alone.data).max() < 1e-12
            for name, t in prompts.named_params().items():
                assert np.abs(grads[t] - want[t]).max() < 1e-12, name

    def test_rejections(self):
        cfg, _, _ = small_setup(layers=2)
        a, b = [init_prompts("deepgpt", cfg, p_len=2, seed=s) for s in (1, 2)]
        cases = [
            (([(a, 1), (b, 1)], 3), "sum to 3"),
            (([(a, 2), (b, 2)], 3), "sum to 3"),
            (([(a, -1), (b, 4)], 3), "non-negative"),
            (([(a, 1.0), (b, 2.0)], 3), "ints"),
            (([(a, 1), (init_prompts("prefix_only", cfg, p_len=2, seed=1), 1)], 2),
             "one layout"),
            (([(a, 1), (init_prompts("deepgpt", cfg, p_len=3, seed=1), 1)], 2), "one layout"),
            (([], 2), "one layout"),
        ]
        for (group, samples), message in cases:
            with pytest.raises(ContractError, match=message):
                check_group(group, cfg, samples)

    def test_none_is_one_empty_set_and_a_count_may_be_zero(self):
        cfg, _, _ = small_setup(layers=2)
        a, b = [init_prompts("deepgpt", cfg, p_len=2, seed=s) for s in (1, 2)]
        sets, counts = check_group(None, cfg, 2)
        assert sets == [PromptSet()] and counts.tolist() == [2]
        sets, counts = check_group(iter([(a, 0), (b, 3), (a, 0)]), cfg, 3)
        assert sets == [a, b, a] and counts.tolist() == [0, 3, 0]


class TestPreProjectionToken:
    """The input-space graph token: added to raw features before the projection."""

    def _prompts(self, cfg, seed=24):
        return init_prompts("deepgpt", cfg, p_len=2, seed=seed,
                            token_stage="pre_projection")

    def test_token_gradient_matches_central_differences(self):
        cfg, bb, head = small_setup(layers=2)
        rng = np.random.default_rng(25)
        graphs = [random_graph(5, 0.5, rng), random_graph(3, 0.5, rng)]
        prepared = encode_graphs(graphs, cfg)
        prompts = self._prompts(cfg)
        token = prompts.graph_token
        token.data = rng.normal(size=cfg.input_width)
        with Tape():
            out = head.forward(backbone_forward(prepared, bb, group=[(prompts, prepared.size)]))
            grad = backward(tsum(out))[token]
        fd = np.zeros_like(grad)
        eps = 1e-6
        for i in range(fd.size):
            orig = token.data[i]
            values = []
            for shifted in (orig + eps, orig - eps):
                token.data[i] = shifted
                out = head.forward(backbone_forward(prepared, bb,
                                                    group=[(prompts, prepared.size)]))
                values.append(float(tsum(out).data))
            token.data[i] = orig
            fd[i] = (values[0] - values[1]) / (2 * eps)
        assert np.abs(fd).max() > 1e-3
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_equals_post_projection_token_times_input_weight(self):
        """A pre-projection token c shifts the projection by c @ W_in."""
        cfg, bb, head = small_setup(layers=2)
        rng = np.random.default_rng(26)
        graphs = [random_graph(6, 0.5, rng), random_graph(4, 0.5, rng)]
        prepared = encode_graphs(graphs, cfg)
        pre = self._prompts(cfg)
        pre.graph_token.data = rng.normal(size=cfg.input_width)
        post = PromptSet(graph_token=Tensor(pre.graph_token.data @ bb.w_in.data,
                                            requires_grad=True),
                         prefixes=pre.prefixes)
        out_pre = head.forward(backbone_forward(prepared, bb, group=[(pre, prepared.size)])).data
        out_post = head.forward(backbone_forward(prepared, bb, group=[(post, prepared.size)])).data
        assert np.abs(out_pre - out_post).max() <= 1e-10


class TestInitPrompts:
    @pytest.mark.parametrize("mode", ["virtual_node", "prefix_only", "deepgpt"])
    def test_prompted_modes_need_a_positive_length(self, mode):
        cfg, _, _ = small_setup()
        with pytest.raises(ContractError, match=f"{mode} mode needs p_len >= 1"):
            init_prompts(mode, cfg, p_len=0, seed=0)

    def test_unknown_mode_rejected(self):
        cfg, _, _ = small_setup()
        with pytest.raises(ContractError, match="unknown tuning mode 'bogus'"):
            init_prompts("bogus", cfg, p_len=2, seed=0)

    @pytest.mark.parametrize("mode", ["prefix_only", "deepgpt"])
    def test_prefix_modes_rejected_on_an_mpgnn(self, mode):
        cfg, _, _ = small_setup(kind="mpgnn")
        with pytest.raises(ContractError, match="prefix tokens require the transformer"):
            init_prompts(mode, cfg, p_len=2, seed=0)


class TestRegistryAndCounts:
    def test_partition_total_and_disjoint(self):
        cfg, bb, head = small_setup()
        prompts = init_prompts("deepgpt", cfg, p_len=2, seed=11)
        registry = build_registry(bb, head, prompts)
        names = set(registry.frozen) | set(registry.trainable)
        expected = set(bb.named_params()) | set(head.named_params()) \
            | set(prompts.named_params())
        assert names == expected
        assert not (set(registry.frozen) & set(registry.trainable))

    def test_overlap_rejected(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ContractError, match="both frozen and trainable"):
            FreezeRegistry(frozen={"a": t}, trainable={"a": t})

    def test_lightweight_trainable_is_head_only(self):
        cfg, bb, head = small_setup()
        registry = build_registry(bb, head, PromptSet())
        assert set(registry.trainable) == {"head.weight", "head.bias"}
        counts = count_params(registry)
        assert counts["trainable_count"] == cfg.dim * 1 + 1

    def test_desk_scale_deepgpt_count(self):
        # d=64, 6 layers, p_len=10, scalar head: 6*10*64 + 64 + (64+1) = 3969
        cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=64,
                             heads=4, layers=6)
        bb = Backbone.init(cfg, seed=0)
        head = PredictionHead.init(64, 1, seed=0)
        prompts = init_prompts("deepgpt", cfg, p_len=10, seed=0)
        counts = count_params(build_registry(bb, head, prompts))
        assert counts["trainable_count"] == 3969

    def test_ft_mode_trains_everything(self):
        cfg, bb, head = small_setup()
        registry = build_registry(bb, head, PromptSet(), train_backbone=True)
        assert not registry.frozen
        counts = count_params(registry)
        assert counts["ratio"] == 1.0

    def test_a_positional_mode_does_not_reach_the_registry(self):
        """A mode string in the old fourth position must not train the backbone."""
        cfg, bb, head = small_setup()
        with pytest.raises(TypeError):
            build_registry(bb, head, PromptSet(), "ft")

    def test_prefix_only_and_deepgpt_differ_by_token_only(self):
        cfg, bb, head = small_setup()
        deep = build_registry(bb, head, init_prompts("deepgpt", cfg, 2, seed=1))
        pref = build_registry(bb, head, init_prompts("prefix_only", cfg, 2, seed=1))
        assert set(deep.trainable) - set(pref.trainable) == {"prompt.token"}
        assert set(pref.trainable) - set(deep.trainable) == set()


class TestSweepWellFormedness:
    @pytest.mark.parametrize("interval", [(0, 0), (0, 2), (1, 1), (2, 2), (1, 2)])
    def test_contiguous_intervals_runnable(self, interval):
        cfg, bb, head = small_setup(layers=3)
        g = random_graph(4, 0.5, np.random.default_rng(12))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("deepgpt", cfg, p_len=2, seed=13,
                               prompted_layers=interval)
        out = head.forward(backbone_forward(prepared, bb,
                                            group=[(prompts.check(bb.cfg), prepared.size)]))
        assert out.shape == (1, 1) and np.isfinite(out.data).all()

    @pytest.mark.parametrize("p_len", [10, 60, 110])
    def test_long_prefixes_runnable(self, p_len):
        cfg, bb, head = small_setup(layers=2)
        g = random_graph(4, 0.5, np.random.default_rng(14))
        prepared = encode_graphs([g], cfg)
        prompts = init_prompts("deepgpt", cfg, p_len=p_len, seed=15)
        out = head.forward(backbone_forward(prepared, bb,
                                            group=[(prompts.check(bb.cfg), prepared.size)]))
        assert np.isfinite(out.data).all()

    def test_bad_interval_rejected(self):
        cfg, _, _ = small_setup(layers=3)
        with pytest.raises(ContractError, match="interval"):
            init_prompts("deepgpt", cfg, p_len=2, seed=0, prompted_layers=(2, 1))
