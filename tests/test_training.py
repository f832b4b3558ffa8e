import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from gpt_lab import graphs, models, training
from gpt_lab import tensor as T
from gpt_lab.graphs import DataError, GraphSample, gen_downstream, gen_pretext, make_folds
from gpt_lab.models import (Backbone, BackboneConfig, PredictionHead, backbone_forward,
                            encode_graphs, load_params)
from gpt_lab.prompt import build_registry, init_prompts
from gpt_lab.tensor import ContractError, Tape, Tensor, backward, bce_with_logits
from gpt_lab.training import (
    AdamW,
    NonFiniteError,
    TuningConfig,
    UndefinedMetricError,
    auroc,
    average_precision,
    clip_global_norm,
    lr_at,
    mse_loss,
    rmse,
    steady_heap,
    train,
)

RNG = np.random.default_rng(55)


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_params(self):
        p = {"w": Tensor(RNG.normal(size=(3, 2)), requires_grad=True)}
        before = p["w"].data.copy()
        opt = AdamW(p, weight_decay=0.0)
        opt.step(p, {"w": np.zeros((3, 2))}, lr_t=0.1)
        assert np.array_equal(p["w"].data, before)

    def test_single_step_hand_value(self):
        # g=1, betas=(0.9, 0.999), lr=0.1: bias-corrected m^=v^=1 so the
        # update is -0.1/(1+eps)
        p = {"w": Tensor(np.array([[2.0]]), requires_grad=True)}
        opt = AdamW(p, betas=(0.9, 0.999), eps=1e-8)
        opt.step(p, {"w": np.array([[1.0]])}, lr_t=0.1)
        assert p["w"].data[0, 0] == pytest.approx(2.0 - 0.1, abs=1e-6)

    def test_weight_decay_is_decoupled(self):
        p = {"w": Tensor(np.array([4.0]), requires_grad=True)}
        opt = AdamW(p, weight_decay=0.5)
        opt.step(p, {"w": np.array([0.0])}, lr_t=0.2)
        # zero gradient: only the (1 - lr*wd) shrink applies
        assert p["w"].data[0] == pytest.approx(4.0 * (1 - 0.2 * 0.5), abs=1e-15)

    def test_key_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros(2), requires_grad=True)}
        opt = AdamW(p)
        with pytest.raises(ContractError, match="mismatch"):
            opt.step(p, {"other": np.zeros(2)}, lr_t=0.1)

    def test_matches_plain_adam_oracle_with_zero_decay(self):
        rng = np.random.default_rng(9)
        shapes = {"a": (3, 2), "b": (4,)}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        reference = {k: params[k].data.copy() for k in params}
        opt = AdamW(params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        lr, b1, b2, eps = 3e-2, 0.9, 0.999, 1e-8
        for step in range(1, 11):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            opt.step(params, grads, lr_t=lr)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1 ** step)
                vhat = v[k] / (1 - b2 ** step)
                reference[k] = reference[k] - lr * mhat / (np.sqrt(vhat) + eps)
            for k in params:
                assert np.abs(params[k].data - reference[k]).max() <= 1e-12

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_flat_buffer_steps_as_each_array_alone(self, weight_decay):
        """25 steps of one flat buffer give every array the bits of the
        per-array loop, for arrays of three shapes and for a second
        optimiser that has taken a different number of steps."""
        rng = np.random.default_rng(31)
        shapes = {"w": (3, 5), "b": (5,), "row": (1, 4)}
        opts, refs = [], []
        for _ in range(2):
            params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                      for k, s in shapes.items()}
            refs.append(_PerArrayAdamW({k: t.data.copy() for k, t in params.items()},
                                       betas=(0.9, 0.95), eps=1e-8, weight_decay=weight_decay))
            opts.append((params, AdamW(params, betas=(0.9, 0.95), eps=1e-8,
                                       weight_decay=weight_decay)))
        for step in range(25):
            for i, ((params, opt), ref) in enumerate(zip(opts, refs)):
                if i == 1 and step % 3 == 0:
                    continue                       # the second optimiser skips some steps
                grads = {k: rng.normal(size=s) for k, s in reversed(shapes.items())}
                lr = 1e-2 * (1 + step % 4)
                opt.step(params, grads, lr_t=lr)
                ref.step(grads, lr)
                for k, t in params.items():
                    assert np.array_equal(t.data, ref.params[k])
        assert opts[0][1].step_count == 25 and opts[1][1].step_count == 16

    def test_parameters_view_the_buffer_after_construction_and_after_loading(self):
        head = PredictionHead.init(6, 2, seed=3, hidden=4)
        params = head.named_params()
        opt = AdamW(params)
        for t in params.values():
            assert np.shares_memory(t.data, opt.flat)
        stored = {k: RNG.normal(size=t.shape) for k, t in params.items()}
        load_params(params, stored)
        for k, t in params.items():
            assert np.shares_memory(t.data, opt.flat)
            assert np.array_equal(t.data, stored[k])
        # A step after the load moves the loaded values.
        ref = _PerArrayAdamW({k: a.copy() for k, a in stored.items()}, betas=opt.betas,
                             eps=opt.eps, weight_decay=0.0)
        grads = {k: RNG.normal(size=t.shape) for k, t in params.items()}
        opt.step(params, grads, lr_t=0.1)
        ref.step(grads, 0.1)
        for k, t in params.items():
            assert np.array_equal(t.data, ref.params[k])


class _PerArrayAdamW:
    """The per-array AdamW loop that the flat buffer replaced, kept as its oracle."""

    def __init__(self, params, betas, eps, weight_decay):
        self.params, self.betas, self.eps, self.weight_decay = params, betas, eps, weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads, lr_t):
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, g in grads.items():
            p = self.params[name]
            if self.weight_decay:
                p *= 1.0 - lr_t * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def schedule(lr, warmup_epochs, epochs, decay="cosine"):
    return TuningConfig("deepgpt", lr=lr, warmup_epochs=warmup_epochs, epochs=epochs,
                        decay=decay)


class TestSchedule:
    """``TuningConfig`` holds the schedule and ``lr_at`` reads it."""

    def test_ramp_starts_at_zero(self):
        s = schedule(1e-3, 5, 50)
        assert lr_at(0, s) == 0.0

    def test_warmup_end_reaches_base(self):
        s = schedule(1e-3, 5, 50)
        assert lr_at(5, s) == pytest.approx(1e-3, abs=0)

    def test_cosine_midpoint_is_half_base(self):
        s = schedule(2e-3, 0, 100)
        assert lr_at(50, s) == pytest.approx(1e-3, rel=1e-12)

    def test_linear_decay_to_zero(self):
        s = schedule(1e-3, 0, 10, decay="linear")
        assert lr_at(9, s) == pytest.approx(1e-4, rel=1e-12)

    def test_continuity_at_warmup_boundary(self):
        s = schedule(1e-3, 5, 50)
        eps = 1e-9
        below = lr_at(5 - eps, s)
        above = lr_at(5 + eps, s)
        assert abs(below - above) < 1e-9 * s.lr * 10

    def test_invalid_warmup_rejected(self):
        with pytest.raises(ContractError, match=r"need 0 <= warmup \(10\) < total \(10\)"):
            schedule(1e-3, 10, 10)
        with pytest.raises(ContractError, match="unknown decay 'step'"):
            schedule(1e-3, 0, 10, decay="step")


class TestLosses:
    def test_bce_logit_zero_label_one_is_ln2(self):
        loss = bce_with_logits(Tensor(np.array([[0.0]])), np.array([[1.0]]))
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_bce_large_logit_goes_to_zero(self):
        loss = bce_with_logits(Tensor(np.array([[40.0]])), np.array([[1.0]]))
        assert float(loss.data) < 1e-15

    def test_bce_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-4, 4, size=(6, 3))
        y = (rng.random((6, 3)) < 0.5).astype(float)
        mask = rng.random((6, 3)) < 0.8
        mask[0, 0] = True
        got = float(bce_with_logits(Tensor(x), np.where(mask, y, np.nan)).data)
        sig = 1 / (1 + np.exp(-x))
        naive = -(y * np.log(sig) + (1 - y) * np.log(1 - sig))
        assert got == pytest.approx(naive[mask].mean(), abs=1e-10)

    def test_mse_trivials_and_oracle(self):
        preds = Tensor(RNG.normal(size=(4, 2)))
        assert float(mse_loss(preds, preds.data).data) == 0.0
        shifted = preds.data + 2.0
        assert float(mse_loss(preds, shifted).data) == pytest.approx(4.0, abs=1e-12)
        assert rmse(preds.data, shifted) == pytest.approx(2.0, abs=1e-12)
        y = RNG.normal(size=(4, 2))
        naive = sum((float(a) - float(b)) ** 2
                    for a, b in zip(preds.data.ravel(), y.ravel())) / 8
        assert float(mse_loss(preds, y).data) == pytest.approx(naive, abs=1e-12)

    def test_bce_backward_drives_logits(self):
        x = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        y = np.array([[1.0], [0.0], [1.0]])
        with Tape():
            grads = backward(bce_with_logits(x, y))
        sig = 1 / (1 + np.exp(-x.data))
        assert np.abs(grads[x] - (sig - y) / 3).max() <= 1e-12


def oracle_auroc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def oracle_average_precision(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


class TestMetrics:
    def test_auroc_perfect_and_inverted(self):
        assert auroc([0.1, 0.9], [0, 1]) == 1.0
        assert auroc([0.9, 0.1], [0, 1]) == 0.0

    def test_auroc_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=0)

    def test_auroc_ties_count_half(self):
        assert auroc([0.5, 0.5], [0, 1]) == 0.5

    def test_auroc_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_auroc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            scores = np.round(rng.random(n), 2)  # induce ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == pytest.approx(
                oracle_auroc(scores, labels), abs=1e-12)

    def test_auroc_equals_pairwise_oracle_exactly_on_ties(self):
        """Both sides count wins in halves, exactly, and divide once."""
        rng = np.random.default_rng(13)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.choice(pool, n)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            assert auroc(scores, labels) == oracle_auroc(scores, labels)

    def test_auroc_is_nan_when_a_score_is_nan(self):
        assert math.isnan(auroc([0.2, np.nan, 0.7, 0.1], [0, 1, 1, 0]))

    def test_ap_trivials(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
        assert average_precision([0.2, 0.9], [1, 0]) == 0.5

    def test_ap_no_positive_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.5], [0])

    def test_ap_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            scores = np.round(rng.random(n), 2)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                continue
            assert average_precision(scores, labels) == pytest.approx(
                oracle_average_precision(scores, labels), abs=1e-12)

    def test_ap_equals_rank_walk_oracle_exactly(self):
        """The precisions are summed left to right, as the walk adds them."""
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 301))
            scores = np.round(rng.random(n), int(rng.integers(1, 4)))
            labels = (rng.random(n) < rng.random()).astype(int)
            if labels.sum() == 0:
                continue
            assert average_precision(scores, labels) == oracle_average_precision(scores,
                                                                                 labels)


class TestClip:
    def test_small_norm_unchanged(self):
        g = {"a": np.array([0.6, 0.8])}
        out = clip_global_norm(g, 5.0)
        assert np.array_equal(out["a"], g["a"])

    def test_big_norm_halved(self):
        g = {"a": np.array([6.0, 8.0])}
        out = clip_global_norm(g, 5.0)
        assert np.allclose(out["a"], [3.0, 4.0], atol=1e-12)

    def test_post_clip_norm_is_min_of_orig_and_cap(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = {k: rng.normal(size=rng.integers(2, 6)) * rng.uniform(0.1, 9)
                 for k in "abc"}
            orig = math.sqrt(sum(float((v * v).sum()) for v in g.values()))
            out = clip_global_norm(g, 5.0)
            new = math.sqrt(sum(float((v * v).sum()) for v in out.values()))
            assert new == pytest.approx(min(orig, 5.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_norm_names_the_first_bad_gradient(self, bad):
        g = {"a": np.ones(3), "b": np.array([1.0, bad]), "c": np.array([bad])}
        with pytest.raises(NonFiniteError, match="gradient of b is not finite"):
            clip_global_norm(g, 5.0)

    def test_overflowing_norm_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="overflows"):
            clip_global_norm({"a": np.full(2, 1e200)}, 5.0)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def tiny_backbone(kind="transformer", aggregation="sum"):
    cfg = BackboneConfig(kind=kind, feature_dim=4, dim=8, heads=2, layers=2,
                         ffn_mult=2, rwpe_steps=4, degree_embed=True, max_degree=4,
                         aggregation=aggregation)
    bb = Backbone.init(cfg, seed=3)
    return cfg, bb.state_arrays()


def tiny_config(mode, **kw):
    defaults = dict(mode=mode, metric="auroc", p_len=2, epochs=2, warmup_epochs=1,
                    batch_size=8, folds=3, lr=1e-3)
    defaults.update(kw)
    return TuningConfig(**defaults)


class TestTuningConfig:
    def test_mode_is_stored_lower_case(self):
        assert tiny_config("DeepGPT").mode == "deepgpt"

    def test_unknown_token_stage_rejected(self):
        with pytest.raises(ContractError, match="unknown token stage 'bogus'"):
            tiny_config("ft", token_stage="bogus")

    @pytest.mark.parametrize("betas", [(1.0, 0.999), (0.9, 1.0), (-0.1, 0.999),
                                       (0.9, float("nan"))])
    def test_adam_betas_must_lie_in_the_unit_interval(self, betas):
        with pytest.raises(ContractError, match=r"Adam betas must lie in \[0, 1\)"):
            tiny_config("ft", betas=betas)

    @pytest.mark.parametrize("key, value, message", [
        ("lr", -0.01, "must be positive"), ("lr", 0.0, "must be positive"),
        ("eps", -1.0, "must be positive"), ("eps", 0.0, "must be positive"),
        ("clip", 0.0, "must be positive"), ("lr", float("nan"), "must be positive"),
        ("weight_decay", -5.0, "must not be negative"),
    ])
    def test_optimizer_values_out_of_range_rejected(self, key, value, message):
        with pytest.raises(ContractError, match=f"^{key} {message}, got {value}$"):
            tiny_config("lightweight", **{key: value})

    def test_zero_weight_decay_is_accepted(self):
        assert tiny_config("lightweight", weight_decay=0.0).weight_decay == 0.0


@pytest.fixture(scope="module")
def motif_data():
    return gen_downstream(24, "motif_presence", seed=17, size_range=(5, 8))


class TestTrain:
    def test_deepgpt_runs_and_counts_match(self, motif_data):
        cfg, state = tiny_backbone()
        results = train(tiny_config("deepgpt"), motif_data, cfg, state, seed=1)
        assert len(results) == 3
        for r in results:
            assert len(r.record.train_losses) == 2
            assert len(r.record.eval_metrics) == 2
            # prefixes (2 layers x 2 x 8) + token 8 + head (8 + 1)
            assert r.trainable_count == 2 * 2 * 8 + 8 + 9
            assert 1 <= r.record.epochs_to_best <= 2
            assert all(s > 0 for s in r.record.epoch_seconds)

    def test_lightweight_prompt_state_is_head_only(self, motif_data):
        cfg, state = tiny_backbone()
        results = train(tiny_config("lightweight"), motif_data, cfg, state, seed=1)
        assert set(results[0].prompt_state) == {"head.weight", "head.bias"}
        assert results[0].trainable_count == 9

    def test_ft_modifies_backbone(self, motif_data):
        cfg, state = tiny_backbone()
        results = train(tiny_config("ft"), motif_data, cfg, state, seed=1)
        changed = results[0].prompt_state
        assert set(state) < set(changed)
        assert any(not np.array_equal(changed[k], state[k]) for k in state)

    def test_deepgpt_vs_prefix_only_differ_by_token(self, motif_data):
        cfg, state = tiny_backbone()
        deep = train(tiny_config("deepgpt"), motif_data, cfg, state, seed=1)
        pref = train(tiny_config("prefix_only"), motif_data, cfg, state, seed=1)
        assert deep[0].trainable_count - pref[0].trainable_count == cfg.dim
        assert set(deep[0].prompt_state) - set(pref[0].prompt_state) == {"prompt.token"}

    def test_virtual_node_needs_mpgnn(self, motif_data):
        cfg, state = tiny_backbone("transformer")
        with pytest.raises(ContractError, match="mpgnn"):
            train(tiny_config("virtual_node"), motif_data, cfg, state, seed=1)

    def test_virtual_node_on_mpgnn(self, motif_data):
        cfg, state = tiny_backbone("mpgnn")
        results = train(tiny_config("virtual_node"), motif_data, cfg, state, seed=1)
        assert "prompt.virtual" in results[0].prompt_state

    def test_prefix_mode_needs_transformer(self, motif_data):
        cfg, state = tiny_backbone("mpgnn")
        with pytest.raises(ContractError, match="transformer"):
            train(tiny_config("deepgpt"), motif_data, cfg, state, seed=1)

    def test_feature_width_must_match_the_backbone(self, motif_data):
        cfg, state = tiny_backbone()
        wide = gen_downstream(6, "motif_presence", seed=2, size_range=(5, 8), feature_dim=5)
        with pytest.raises(DataError, match="has 5 feature columns, but the backbone's "
                                            "feature_dim is 4"):
            train(tiny_config("lightweight"), motif_data[:6] + wide, cfg, state, seed=1)

    def test_heterogeneous_label_arity_rejected(self, motif_data):
        cfg, state = tiny_backbone()
        g = motif_data[5]
        data = motif_data[:5] + [GraphSample(g.n, g.features, g.edges,
                                             np.array([1.0, 0.0]))] + motif_data[6:]
        with pytest.raises(DataError, match="^label arity differs across the dataset$"):
            train(tiny_config("lightweight"), data, cfg, state, seed=1)

    def test_a_missing_classification_label_trains_and_is_left_out_of_the_metric(
            self, motif_data):
        """A NaN label is masked out of the loss and its gradient, so training
        runs, and the fold that evaluates on it scores the other graphs only."""
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight")
        g = motif_data[5]
        data = motif_data[:5] + [GraphSample(g.n, g.features, g.edges,
                                             np.array([np.nan]))] + motif_data[6:]
        results = train(config, data, cfg, state, seed=1)
        assert all(math.isfinite(v) for r in results
                   for v in r.record.train_losses + r.record.eval_metrics)
        split = training.make_folds(len(data), config.folds, 1)
        [r] = [r for r in results if 5 in split.train_eval(r.fold)[1]]
        bb = Backbone.from_state(cfg, state)
        fold = training._make_fold(config, bb, 1, 1, r.fold, split)
        load_params(fold.registry.trainable, r.prompt_state)
        labeled = [i for i in fold.eval_idx if i != 5]
        [scores] = training._forward(encode_graphs(data, cfg), bb)([fold], [labeled])
        assert r.final_metric == auroc(scores.data, [data[i].label for i in labeled])

    def test_a_non_finite_regression_label_is_a_data_error_naming_the_graph(self, motif_data):
        cfg, state = tiny_backbone()
        g = motif_data[7]
        for value in (np.nan, np.inf):
            data = motif_data[:7] + [GraphSample(g.n, g.features, g.edges,
                                                 np.array([value]))] + motif_data[8:]
            with pytest.raises(DataError, match="^graph 7 has a non-finite label"):
                train(tiny_config("lightweight", metric="rmse"), data, cfg, state, seed=1)

    def test_classification_metrics_need_0_1_labels(self, motif_data):
        """One check over every label of the dataset."""
        cfg, state = tiny_backbone()
        g = motif_data[5]
        relabel = lambda value: motif_data[:5] + [GraphSample(g.n, g.features, g.edges,
                                                              np.array([value]))] + motif_data[6:]
        with pytest.raises(DataError, match="^classification metrics need 0/1 labels$"):
            train(tiny_config("lightweight"), relabel(0.5), cfg, state, seed=1)
        assert len(train(tiny_config("lightweight", metric="rmse"), relabel(0.5), cfg, state,
                         seed=1)) == 3

    @pytest.mark.parametrize("damage", ["missing", "misshapen"])
    def test_evaluate_fold_checks_the_stored_arrays(self, motif_data, damage):
        cfg, state = tiny_backbone()
        config = tiny_config("deepgpt", epochs=1, warmup_epochs=0)
        stored = dict(train(config, motif_data, cfg, state, seed=1)[0].prompt_state)
        if damage == "missing":
            del stored["head.bias"]
            error, message = ContractError, r"missing=\['head.bias'\]"
        else:
            stored["prompt.token"] = stored["prompt.token"][:3]
            error, message = T.ShapeError, r"prompt.token: stored shape \(3,\) != \(8,\)"
        with pytest.raises(error, match=message):
            training.evaluate_fold(config, motif_data, cfg, state, stored, seed=1, fold=0)

    @pytest.mark.parametrize("damage", ["label", "features"])
    def test_evaluate_fold_validates_its_split_only(self, motif_data, damage):
        """A malformed graph fails with its cause when the fold scores it, and
        is not read when it lies outside the fold's evaluation split."""
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight", metric="rmse", epochs=1, warmup_epochs=0)
        [r, *_] = train(config, motif_data, cfg, state, seed=1)
        train_idx, eval_idx = training.make_folds(len(motif_data), config.folds,
                                                  1).train_eval(r.fold)

        def damaged(i):
            g = motif_data[i]
            g = (GraphSample(g.n, g.features, g.edges, np.array([np.nan]))
                 if damage == "label" else
                 GraphSample(g.n, np.ones((g.n, 5)), g.edges, g.label))
            return motif_data[:i] + [g] + motif_data[i + 1:]

        run = lambda data: training.evaluate_fold(config, data, cfg, state, r.prompt_state,
                                                  seed=1, fold=r.fold)
        i = int(eval_idx[1])
        cause = (f"^graph {i} has a non-finite label" if damage == "label" else
                 "^a graph has 5 feature columns, but the backbone's feature_dim is 4$")
        with pytest.raises(DataError, match=cause):
            run(damaged(i))
        assert run(damaged(int(train_idx[0]))) == r.final_metric

    def test_evaluate_fold_of_a_single_class_split_is_a_data_error_naming_the_fold(
            self, motif_data):
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight", epochs=1, warmup_epochs=0)
        stored = train(config, motif_data, cfg, state, seed=1)[1].prompt_state
        negatives = [GraphSample(g.n, g.features, g.edges, np.zeros(1)) for g in motif_data]
        with pytest.raises(DataError, match=r"^fold 1: evaluation split: auroc is undefined "
                                            r"on every task column \(AUROC needs both"):
            training.evaluate_fold(config, negatives, cfg, state, stored, seed=1, fold=1)

    def test_determinism_bitwise(self, motif_data):
        cfg, state = tiny_backbone()
        a = train(tiny_config("deepgpt"), motif_data, cfg, state, seed=7)
        b = train(tiny_config("deepgpt"), motif_data, cfg, state, seed=7)
        for ra, rb in zip(a, b):
            assert ra.record.train_losses == rb.record.train_losses
            assert ra.record.eval_metrics == rb.record.eval_metrics
            for k in ra.prompt_state:
                assert np.array_equal(ra.prompt_state[k], rb.prompt_state[k])

    @pytest.mark.parametrize("mode", ["deepgpt", "lightweight"])
    def test_rwpe_computed_once_per_call(self, motif_data, monkeypatch, mode):
        """train() encodes the dataset once for all folds; evaluate_fold only its
        split. Both run graphs.rwpe once, on one batch, in models.encode_graphs."""
        calls = []
        encode = models.rwpe
        monkeypatch.setattr(models, "rwpe",
                            lambda batch, k: calls.append(batch.size) or encode(batch, k))
        cfg, state = tiny_backbone()
        config = tiny_config(mode)
        results = train(config, motif_data, cfg, state, seed=1)
        assert calls == [len(motif_data)]
        score = training.evaluate_fold(config, motif_data, cfg, state,
                                       results[1].prompt_state, seed=1, fold=1)
        assert calls == [len(motif_data), len(motif_data) // config.folds]
        assert score == results[1].final_metric

    @pytest.mark.parametrize("mode", ["deepgpt", "lightweight"])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_one_batch_built_per_call(self, motif_data, monkeypatch, mode, epochs):
        """Every step and scoring forward gathers its graphs from the one encoded
        batch, so train() and evaluate_fold() each run graphs.batch once."""
        calls = []
        original = graphs.batch

        def counted(samples):
            calls.append(len(samples))
            return original(samples)

        for module in (graphs, models, training):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
        cfg, state = tiny_backbone()
        config = tiny_config(mode, epochs=epochs, warmup_epochs=0)
        results = train(config, motif_data, cfg, state, seed=1)
        assert calls == [len(motif_data)]
        training.evaluate_fold(config, motif_data, cfg, state, results[0].prompt_state,
                               seed=1, fold=0)
        assert calls == [len(motif_data), len(motif_data) // config.folds]

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_lightweight_runs_the_backbone_once_per_call(self, motif_data, monkeypatch,
                                                         epochs):
        """One forward embeds the dataset for every fold, and the folds train and
        score on rows of those embeddings."""
        calls = []
        forward = training.backbone_forward
        monkeypatch.setattr(training, "backbone_forward",
                            lambda batch, *a, **kw: calls.append(len(batch.offsets) - 1)
                            or forward(batch, *a, **kw))
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight", epochs=epochs, warmup_epochs=epochs - 1)
        train(config, motif_data, cfg, state, seed=1)
        assert calls == [len(motif_data)]

    def test_virtual_tokens_on_a_frozen_max_mpgnn_read_the_maxima_of_the_call(
            self, motif_data, monkeypatch):
        """train() computes the first layer's graph maxima once, and every fold
        trains and scores as through the forward that takes them from its own
        plan; evaluate_fold, which takes them from its plan, reproduces each
        fold's last metric."""
        calls = []
        maxima = training.first_layer_maxima
        monkeypatch.setattr(training, "first_layer_maxima",
                            lambda batch, bb: calls.append(batch.size) or maxima(batch, bb))
        cfg, state = tiny_backbone("mpgnn", "max")
        config = tiny_config("virtual_node", epochs=3, lr=1e-2)
        cached = train(config, motif_data, cfg, state, seed=5)
        assert calls == [len(motif_data)]
        monkeypatch.setattr(training, "first_layer_maxima", lambda batch, bb: None)
        uncached = train(config, motif_data, cfg, state, seed=5)
        for a, b in zip(cached, uncached):
            assert a.record.train_losses == b.record.train_losses
            assert a.record.eval_metrics == b.record.eval_metrics
            assert a.prompt_state.keys() == b.prompt_state.keys()
            for name in a.prompt_state:
                assert np.array_equal(a.prompt_state[name], b.prompt_state[name])
            assert training.evaluate_fold(config, motif_data, cfg, state, a.prompt_state,
                                          seed=5, fold=a.fold) == a.final_metric

    @pytest.mark.parametrize("mode", ["deepgpt", "lightweight"])
    def test_parallel_folds_match_sequential(self, motif_data, mode):
        cfg, state = tiny_backbone()
        seq = train(tiny_config(mode), motif_data, cfg, state, seed=7)
        par = train(tiny_config(mode), motif_data, cfg, state, seed=7, parallel=2)
        for ra, rb in zip(seq, par):
            assert ra.record.train_losses == rb.record.train_losses
            assert ra.record.eval_metrics == rb.record.eval_metrics

    def test_worker_cap_env_var(self, motif_data, monkeypatch):
        from gpt_lab.training import _worker_cap
        monkeypatch.setenv("GPT_LAB_THREADS", "3")
        assert _worker_cap() == 3
        for bad in ("nope", "0", "-2"):
            monkeypatch.setenv("GPT_LAB_THREADS", bad)
            with pytest.raises(ContractError, match="GPT_LAB_THREADS"):
                _worker_cap()
        monkeypatch.setenv("GPT_LAB_THREADS", "1")
        cfg, state = tiny_backbone()
        # capped to one worker, still correct and in fold order
        res = train(tiny_config("deepgpt"), motif_data, cfg, state, seed=7, parallel=4)
        assert [r.fold for r in res] == [0, 1, 2]

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_1_fails_before_the_run_is_validated(self, motif_data, monkeypatch,
                                                                 parallel):
        def refuse(*args, **kwargs):
            raise AssertionError("the run was validated")

        monkeypatch.setattr(training, "_validate", refuse)
        cfg, state = tiny_backbone()
        with pytest.raises(ContractError, match=f"^parallel must be at least 1, got {parallel}$"):
            train(tiny_config("deepgpt"), motif_data, cfg, state, seed=7, parallel=parallel)

    @pytest.mark.parametrize("mode", ["lightweight", "deepgpt", "virtual_node"])
    def test_non_finite_backbone_state_fails_fast(self, motif_data, mode):
        if mode == "virtual_node":
            # Every row of layer 1's max aggregation then holds a NaN column.
            cfg, state = tiny_backbone("mpgnn", aggregation="max")
            weight = "layer0.weight"
        else:
            cfg, state = tiny_backbone()
            weight = "layer1.ffn1.weight"
        state = dict(state)
        state[weight] = state[weight].copy()
        state[weight][0, 0] = np.nan
        config = tiny_config(mode)
        with pytest.raises(NonFiniteError,
                           match=r"^fold 0, epoch 1 of 2, step 1 of 2: gradient of "
                                 r"head\.weight is not finite$"):
            train(config, motif_data, cfg, state, seed=1)

    def test_non_finite_loss_with_finite_gradients_fails_fast(self, motif_data, monkeypatch):
        loss = training._loss
        monkeypatch.setattr(training, "_loss", lambda config, out, labels:
                            T.add(loss(config, out, labels), Tensor(np.array(np.inf))))
        cfg, state = tiny_backbone()
        with pytest.raises(NonFiniteError,
                           match=r"^fold 0, epoch 1 of 2, step 1 of 2: loss is inf$"):
            train(tiny_config("lightweight"), motif_data, cfg, state, seed=1)

    def test_hidden_head_mode(self, motif_data):
        cfg, state = tiny_backbone()
        results = train(tiny_config("lightweight", head_hidden=True),
                        motif_data, cfg, state, seed=1)
        # hidden layer (8x8 + 8) plus output layer (8 + 1)
        assert results[0].trainable_count == 8 * 8 + 8 + 8 + 1
        assert "head.hidden.weight" in results[0].prompt_state


FOLD_RUNS = {
    "ft": ("transformer", {}),
    "lightweight": ("transformer", {}),
    "prefix_only": ("transformer", {"prompted_layers": (1, 1)}),
    "deepgpt": ("transformer", {}),
    "virtual_node": ("mpgnn", {}),
}


class TestRunRecord:
    """What a run reports, against values known without training."""

    @pytest.mark.parametrize("metric, best", [("auroc", 2), ("rmse", 4)])
    def test_epochs_to_best_is_the_best_epoch_in_the_metric_direction(self, motif_data,
                                                                      monkeypatch, metric,
                                                                      best):
        sequence = [0.5, 0.9, 0.7, 0.2]
        calls = itertools.count()             # three folds score per epoch, in fold order
        monkeypatch.setattr(training, "_metric_value",
                            lambda config, scores, labels, name: sequence[next(calls) // 3])
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight", metric=metric, epochs=4)
        for r in train(config, motif_data, cfg, state, seed=1):
            assert r.record.eval_metrics == sequence
            assert r.record.epochs_to_best == best

    def test_train_losses_average_every_graph_of_a_short_last_chunk(self):
        """An lr too small to move a parameter leaves every step scoring the
        initial head, so an epoch's loss is the per-graph mean over the fold's
        training split, whatever its shuffle. Each fold trains on 13 graphs,
        in chunks of 5, 5 and 3."""
        data = gen_downstream(26, "motif_presence", seed=17, size_range=(5, 8))
        cfg, state = tiny_backbone()
        config = tiny_config("lightweight", folds=2, batch_size=5, lr=1e-300)
        results = train(config, data, cfg, state, seed=1)
        embeddings = backbone_forward(encode_graphs(data, cfg),
                                      Backbone.from_state(cfg, state)).data
        labels = np.array([g.label for g in data])
        split = graphs.make_folds(len(data), config.folds, seed=1)
        for r in results:
            train_idx = split.train_eval(r.fold)[0]
            assert len(train_idx) == 13
            head = PredictionHead.init(cfg.dim, 1, seed=0)
            load_params(head.named_params(), r.prompt_state)
            per_graph = [float(bce_with_logits(head.forward(Tensor(embeddings[[i]])),
                                               labels[[i]]).data) for i in train_idx]
            assert r.record.train_losses == pytest.approx([np.mean(per_graph)] * config.epochs,
                                                          rel=1e-12, abs=0)

    def test_each_fold_starts_from_its_own_draw(self, motif_data):
        """An lr of 1e-300 moves a parameter by about 1e-300 at most (a zero
        entry to +-1e-300), so each fold's stored state stays within 1e-200 of
        its initial draw, and no two folds draw the same head and prompts."""
        cfg, state = tiny_backbone()
        results = train(tiny_config("deepgpt", lr=1e-300), motif_data, cfg, state, seed=1)
        for a, b in itertools.combinations(results, 2):
            assert a.prompt_state.keys() == b.prompt_state.keys()
            assert not all(np.allclose(a.prompt_state[k], b.prompt_state[k], rtol=0, atol=1e-200)
                           for k in a.prompt_state)


@pytest.fixture(scope="module")
def fold_runs(motif_data):
    """Every mode trained once: its config, backbone and fold results."""
    runs = {}
    for mode, (kind, kw) in FOLD_RUNS.items():
        cfg, state = tiny_backbone(kind)
        config = tiny_config(mode, lr=1e-2, **kw)
        runs[mode] = (config, cfg, state, train(config, motif_data, cfg, state, seed=3))
    return runs


@pytest.mark.parametrize("mode", FOLD_RUNS)
class TestStoredFoldState:
    """A fold's ``prompt_state`` is what its registry trained."""

    def test_evaluate_fold_reproduces_every_fold(self, motif_data, fold_runs, mode):
        config, cfg, state, results = fold_runs[mode]
        for r in results:
            score = training.evaluate_fold(config, motif_data, cfg, state, r.prompt_state,
                                           seed=3, fold=r.fold)
            assert score == r.final_metric

    def test_trainable_count_is_the_size_of_the_stored_state(self, fold_runs, mode):
        results = fold_runs[mode][3]
        for r in results:
            assert r.trainable_count == sum(a.size for a in r.prompt_state.values())


def test_each_step_frees_its_tape_when_its_block_exits(motif_data, monkeypatch,
                                                       no_cyclic_gc):
    """No tape outlives its step, even with the cyclic collector off."""
    made = []

    class CountedTape(Tape):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    alive_at_step = []
    step = AdamW.step

    def checked_step(opt, params, grads, lr_t):
        alive_at_step.append(sum(ref() is not None for ref in made))
        return step(opt, params, grads, lr_t)

    monkeypatch.setattr(training, "Tape", CountedTape)
    monkeypatch.setattr(AdamW, "step", checked_step)
    cfg, state = tiny_backbone()
    train(tiny_config("deepgpt", epochs=1, warmup_epochs=0), motif_data, cfg, state, seed=1)
    # One tape per lockstep step of the 3 folds, and one AdamW step per fold and step.
    assert len(made) == 2 and len(alive_at_step) == 3 * 2
    assert alive_at_step == [0] * len(alive_at_step)


@pytest.mark.parametrize("entry", ["train", "evaluate_fold"])
def test_heap_is_pinned_before_the_first_forward(motif_data, monkeypatch, entry):
    cfg, state = tiny_backbone()
    config = tiny_config("lightweight", epochs=1, warmup_epochs=0)
    if entry == "train":
        run = lambda: train(config, motif_data, cfg, state, seed=1)
    else:
        stored = train(config, motif_data, cfg, state, seed=1)[0].prompt_state
        run = lambda: training.evaluate_fold(config, motif_data, cfg, state, stored,
                                             seed=1, fold=0)
    events = []
    forward = training.backbone_forward
    monkeypatch.setattr(training, "steady_heap", lambda: events.append("heap"))
    monkeypatch.setattr(training, "backbone_forward",
                        lambda *a, **kw: events.append("forward") or forward(*a, **kw))
    run()
    assert "forward" in events and events[0] == "heap"


@pytest.mark.parametrize("count, fraction", [(10, 1.0), (1, 0.1), (4, 0.9)])
def test_pretrain_needs_a_training_graph(count, fraction):
    cfg, _ = tiny_backbone()
    data = gen_pretext(count, (4, 6), seed=0)
    with pytest.raises(DataError, match=f"eval_fraction {fraction} of {count} graphs "
                                        "holds out .*no graph to pretrain on"):
        training.pretrain(data, cfg, seed=0, epochs=1, warmup_epochs=0,
                          eval_fraction=fraction)


@pytest.mark.parametrize("fraction", [float("nan"), float("inf"), 0.0, -3.0])
def test_pretrain_eval_fraction_must_be_finite_and_above_0(fraction):
    cfg, _ = tiny_backbone()
    data = gen_pretext(10, (4, 6), seed=0)
    with pytest.raises(ContractError, match=f"^eval_fraction must be finite and above 0, "
                                            f"got {fraction}$"):
        training.pretrain(data, cfg, seed=0, epochs=1, warmup_epochs=0,
                          eval_fraction=fraction)


# Each mode/backbone mismatch: (backbone kind, TuningConfig values, message).
MISMATCHES = {
    "prefix_only-on-mpgnn": ("mpgnn", dict(mode="prefix_only"),
                             "prefix tokens require the transformer backbone"),
    "deepgpt-on-mpgnn": ("mpgnn", dict(mode="deepgpt"),
                         "prefix tokens require the transformer backbone"),
    "interval-past-last-layer": ("transformer", dict(mode="deepgpt", prompted_layers=(1, 2)),
                                 r"prompted interval \[1, 2\] invalid for 2 layers"),
    "p_len-0": ("transformer", dict(mode="prefix_only", p_len=0),
                r"prefix_only mode needs p_len >= 1"),
    "virtual_node-p_len-0": ("mpgnn", dict(mode="virtual_node", p_len=0),
                             r"virtual_node mode needs p_len >= 1"),
    "virtual_node-on-transformer": ("transformer", dict(mode="virtual_node"),
                                    "virtual_node mode requires the mpgnn backbone"),
}


@pytest.mark.parametrize("case", MISMATCHES)
def test_mode_backbone_mismatch_fails_before_encoding_or_pool_work(motif_data, monkeypatch,
                                                                  case):
    kind, values, message = MISMATCHES[case]
    cfg, state = tiny_backbone(kind)

    def refuse(*args, **kwargs):
        raise AssertionError("reached encoding or the fold pool")

    monkeypatch.setattr(training, "encode_graphs", refuse)
    monkeypatch.setattr(training, "ProcessPoolExecutor", refuse)
    with pytest.raises(ContractError, match=f"^{message}$"):
        train(tiny_config(**values), motif_data, cfg, state, seed=1, parallel=2)


class TestFreezeSoundness:
    def test_frozen_tensors_bit_identical_after_steps(self):
        cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=8, heads=2,
                             layers=2, ffn_mult=2, rwpe_steps=2)
        bb = Backbone.init(cfg, seed=4)
        snapshot = bb.state_arrays()
        head = PredictionHead.init(cfg.dim, 1, seed=4)
        prompts = init_prompts("deepgpt", cfg, p_len=2, seed=4)
        registry = build_registry(bb, head, prompts)
        opt = AdamW(registry.trainable, weight_decay=1e-4)
        data = gen_downstream(8, "motif_presence", seed=18, size_range=(5, 7))
        prepared = encode_graphs(data, cfg)
        ctx = prompts.check(bb.cfg)
        labels = np.array([g.label for g in data])
        for _ in range(10):
            with Tape():
                out = head.forward(backbone_forward(prepared, bb, group=[(ctx, prepared.size)]))
                grads = backward(bce_with_logits(out, labels))
            named = {name: grads[t] for name, t in registry.trainable.items()}
            opt.step(registry.trainable, clip_global_norm(named), lr_t=1e-2)
        after = bb.state_arrays()
        for name in snapshot:
            assert np.array_equal(after[name], snapshot[name]), name

    def test_loss_decreases_under_deepgpt(self):
        # median over 5 seeds of (first loss - last loss) must be positive
        cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=8, heads=2,
                             layers=2, ffn_mult=2, rwpe_steps=4)
        drops = []
        for seed in range(5):
            bb = Backbone.init(cfg, seed=seed)
            head = PredictionHead.init(cfg.dim, 1, seed=seed)
            prompts = init_prompts("deepgpt", cfg, p_len=4, seed=seed)
            registry = build_registry(bb, head, prompts)
            opt = AdamW(registry.trainable)
            data = gen_downstream(16, "motif_presence", seed=seed, size_range=(5, 8))
            prepared = encode_graphs(data, cfg)
            ctx = prompts.check(bb.cfg)
            labels = np.array([g.label for g in data])
            losses = []
            for _ in range(50):
                with Tape():
                    out = head.forward(backbone_forward(prepared, bb,
                                                        group=[(ctx, prepared.size)]))
                    loss = bce_with_logits(out, labels)
                    grads = backward(loss)
                losses.append(float(loss.data))
                named = {name: grads[t] for name, t in registry.trainable.items()}
                opt.step(registry.trainable, clip_global_norm(named), lr_t=3e-3)
            drops.append(losses[0] - losses[-1])
        assert float(np.median(drops)) > 0.0


# Three 2 MB arrays live at once, then all freed, as in one attention step.
# Under glibc's default sliding thresholds the freed 6 MB at the top of the
# heap exceeds the trim threshold (twice the largest freed block, 4 MB) and
# goes back to the OS, so every repeat faults it in again.
HEAP_CHURN = textwrap.dedent("""
    import resource
    import numpy as np
    from gpt_lab.training import steady_heap

    applied = steady_heap()
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 18) for _ in range(3)]
        del arrays
    print(applied, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_steady_heap_keeps_freed_arrays_resident():
    # The child imports gpt_lab from where this process found it.
    package_root = os.path.dirname(os.path.dirname(training.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", HEAP_CHURN], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout.split()
    applied, faults = out[0] == "True", int(out[1])
    assert applied == (platform.libc_ver()[0] == "glibc")
    if applied:
        # 6 MB is 1536 pages; a repeat served from resident memory faults none.
        assert faults < 100, faults
    assert steady_heap() is applied


def labels_only_in_fold_0_eval(data, folds=3, seed=1):
    """``data`` with every label missing (NaN) but that of the first graph of
    fold 0's evaluation split: fold 0 trains on no present label."""
    keep = make_folds(len(data), folds, seed).train_eval(0)[1][0]
    return [GraphSample(g.n, g.features, g.edges, g.label if i == keep else np.array([np.nan]))
            for i, g in enumerate(data)]


def _train(data, **config):
    cfg, state = tiny_backbone()
    return train(tiny_config("lightweight", **config), data, cfg, state, seed=1)


# Each input check of the training module that no other test trips: the call
# (given the motif dataset), and the exception type and message it raises.
INPUT_ERRORS = {
    "empty_dataset": (lambda data: _train([]), DataError, "empty dataset"),
    "unlabeled_dataset": (lambda data: _train([GraphSample(g.n, g.features, g.edges)
                                               for g in data]),
                          DataError, "training needs labeled samples"),
    "step_without_a_present_label": (
        lambda data: _train(labels_only_in_fold_0_eval(data)), DataError,
        "fold 0, epoch 1 of 2, step 1 of 2: every label of its 8 graphs is missing"),
    "lr_at_last_epoch": (lambda data: lr_at(2, schedule(1e-3, 0, 2)), ContractError,
                         "epoch 2 outside [0, 2)"),
    "lr_at_negative_epoch": (lambda data: lr_at(-1, schedule(1e-3, 0, 2)), ContractError,
                             "epoch -1 outside [0, 2)"),
    "clip_max_norm": (lambda data: clip_global_norm({"w": np.ones(2)}, 0.0), ContractError,
                      "max_norm must be positive"),
    "mse_shapes": (lambda data: mse_loss(Tensor(np.zeros((2, 1))), np.zeros((3, 1))),
                   ContractError, "mse_loss: labels shape (3, 1) vs preds (2, 1)"),
    "batch_size": (lambda data: tiny_config("ft", batch_size=0), ContractError,
                   "batch_size must be at least 1, got 0"),
    "epochs": (lambda data: tiny_config("ft", epochs=0, warmup_epochs=0), ContractError,
               "epochs must be at least 1, got 0"),
    "folds": (lambda data: tiny_config("ft", folds=1), ContractError,
              "folds must be at least 2, got 1"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_check_names_its_cause(name, motif_data):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as info:
        call(motif_data)
    assert type(info.value) is error and str(info.value) == message
