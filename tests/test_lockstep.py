"""A ``train`` call steps the folds of one frozen backbone in lockstep.

Each step batches every active fold's chunk into one forward and one
backward, each fold keeps its own clip and AdamW, and one forward of
every fold's eval split scores the epoch. A fold's results do not depend
on which folds share its steps or its scoring forward.
"""

import time

import numpy as np
import pytest

from gpt_lab import training
from gpt_lab.graphs import GraphSample, gen_downstream
from gpt_lab.models import Backbone, BackboneConfig, encode_graphs
from gpt_lab.training import TuningConfig, train

CASES = {
    "lightweight": ("transformer", "sum", {}),
    "prefix_only": ("transformer", "sum", {}),
    "deepgpt": ("transformer", "sum", {}),
    "virtual_node-sum": ("mpgnn", "sum", {}),
    "virtual_node-max": ("mpgnn", "max", {}),
}


def backbone(kind, aggregation="sum", dim=8):
    cfg = BackboneConfig(kind=kind, feature_dim=4, dim=dim, heads=2, layers=2, ffn_mult=2,
                         rwpe_steps=4, degree_embed=True, max_degree=4, aggregation=aggregation)
    return cfg, Backbone.init(cfg, seed=3).state_arrays()


def config(mode, **kw):
    params = dict(mode=mode, metric="auroc", p_len=2, epochs=2, warmup_epochs=1,
                  batch_size=4, folds=3, lr=1e-2)
    params.update(kw)
    return TuningConfig(**params)


@pytest.fixture(scope="module")
def data():
    """25 graphs in 3 folds: 16, 17 and 17 training graphs, so at batch size 4
    fold 0 runs out of steps one step before the others."""
    return gen_downstream(25, "motif_presence", seed=17, size_range=(5, 8))


def one_fold_at_a_time(monkeypatch):
    monkeypatch.setattr(training, "_fold_groups",
                        lambda config, workers: [(fold,) for fold in range(config.folds)])


def assert_same_folds(got, want):
    assert [r.fold for r in got] == [r.fold for r in want]
    for a, b in zip(got, want):
        assert a.record.train_losses == b.record.train_losses
        assert a.record.eval_metrics == b.record.eval_metrics
        assert a.final_metric == b.final_metric
        assert a.record.epochs_to_best == b.record.epochs_to_best
        assert set(a.prompt_state) == set(b.prompt_state)
        for name in a.prompt_state:
            assert np.array_equal(a.prompt_state[name], b.prompt_state[name]), name


def test_the_folds_run_out_of_steps_at_different_times(data):
    split = training.make_folds(len(data), 3, seed=5)
    assert [len(split.train_eval(f)[0]) for f in range(3)] == [16, 17, 17]


def test_frozen_folds_form_one_group_per_worker_and_ft_folds_one_each():
    assert training._fold_groups(config("deepgpt", folds=5), 1) == [(0, 1, 2, 3, 4)]
    assert training._fold_groups(config("deepgpt", folds=5), 2) == [(0, 2, 4), (1, 3)]
    assert training._fold_groups(config("ft", folds=3), 2) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("parallel", [1, 2])
def test_lockstep_equals_one_fold_at_a_time(data, monkeypatch, case, parallel):
    kind, aggregation, kw = CASES[case]
    cfg, state = backbone(kind, aggregation)
    tuning = config(case.split("-")[0], **kw)
    lockstep = train(tuning, data, cfg, state, seed=5, parallel=parallel)
    one_fold_at_a_time(monkeypatch)
    alone = train(tuning, data, cfg, state, seed=5)
    assert_same_folds(lockstep, alone)


def test_a_batch_with_short_attention_rows_gives_the_same_folds(monkeypatch):
    """A fold whose own batches pad an unprompted layer's keys to 5 or 6, stepped
    with a fold of 9-node graphs, pads them to 9. numpy adds up to 7 entries
    of a contiguous row in order but 8 to 15 as a tree, so softmax sums along
    that row would round by the padding; attention sums its keys down a
    column instead, in key order, and the fold trains bit for bit as alone."""
    small = gen_downstream(12, "motif_presence", seed=3, size_range=(5, 6))
    large = gen_downstream(12, "motif_presence", seed=4, size_range=(9, 9))
    mixed = [g for pair in zip(small, large) for g in pair]
    cfg, state = backbone("transformer", dim=32)
    tuning = config("deepgpt", prompted_layers=(1, 1), folds=2)
    monkeypatch.setattr(training, "make_folds", lambda n, k, seed: _Halves(n))
    lockstep = train(tuning, mixed, cfg, state, seed=5)
    one_fold_at_a_time(monkeypatch)
    alone = train(tuning, mixed, cfg, state, seed=5)
    assert_same_folds(lockstep, alone)


def single_node_graphs(count, seed):
    rng = np.random.default_rng(seed)
    return [GraphSample(1, rng.normal(size=(1, 4)), (), np.array([float(i % 2)]))
            for i in range(count)]


# Fold 0's graphs, fold 1's graphs and the prompt length: 5-6 against 9-12
# nodes, and single nodes against 9 nodes at p_len 8, where fold 0's blocks
# alone ask one query each.
MIXED_SIZES = {
    "5-6_vs_9-12": (lambda: gen_downstream(12, "motif_presence", seed=3, size_range=(5, 6)),
                    lambda: gen_downstream(12, "motif_presence", seed=4, size_range=(9, 12)), 2),
    "1_vs_9": (lambda: single_node_graphs(12, seed=3),
               lambda: gen_downstream(12, "motif_presence", seed=4, size_range=(9, 9)), 8),
}
FROZEN = {
    "lightweight": ("transformer", {}),
    "prefix_only": ("transformer", {}),
    "deepgpt": ("transformer", {}),
    "deepgpt-layer0": ("transformer", {"prompted_layers": (0, 0)}),
    "virtual_node": ("mpgnn", {}),
}


def mixed_folds(sizes):
    """Fold 0's graphs and fold 1's, interleaved so that ``_Halves`` evaluates
    fold 0 on the first kind and fold 1 on the second, and the prompt length."""
    small, large, p_len = MIXED_SIZES[sizes]
    mixed = [g for pair in zip(small(), large()) for g in pair]
    return mixed, p_len


@pytest.mark.parametrize("sizes", sorted(MIXED_SIZES))
@pytest.mark.parametrize("case", sorted(FROZEN))
def test_a_fold_scores_the_same_alone_and_beside_larger_graphs(case, sizes):
    kind, kw = FROZEN[case]
    data, p_len = mixed_folds(sizes)
    cfg, state = backbone(kind)
    tuning = config(case.split("-")[0], p_len=p_len, folds=2, **kw)
    bb = Backbone.from_state(cfg, state)
    folds = [training._make_fold(tuning, bb, 1, 5, fold, _Halves(len(data))) for fold in (0, 1)]
    forward = training._forward(encode_graphs(data, cfg), bb)
    together = forward(folds, [f.eval_idx for f in folds])
    for f, scores in zip(folds, together):
        [alone] = forward([f], [f.eval_idx])
        assert np.array_equal(alone.data, scores.data)


@pytest.mark.parametrize("sizes", sorted(MIXED_SIZES))
@pytest.mark.parametrize("case", sorted(FROZEN))
def test_folds_of_mixed_sizes_train_the_same_alone_and_in_lockstep(monkeypatch, case, sizes):
    kind, kw = FROZEN[case]
    data, p_len = mixed_folds(sizes)
    cfg, state = backbone(kind)
    tuning = config(case.split("-")[0], p_len=p_len, folds=2, **kw)
    monkeypatch.setattr(training, "make_folds", lambda n, k, seed: _Halves(n))
    lockstep = train(tuning, data, cfg, state, seed=5)
    one_fold_at_a_time(monkeypatch)
    assert_same_folds(lockstep, train(tuning, data, cfg, state, seed=5))


class _Halves:
    """Fold 0 evaluates on the even graphs and fold 1 on the odd ones."""

    def __init__(self, n):
        self.n = n

    def train_eval(self, fold):
        rows = np.arange(self.n)
        return rows[rows % 2 != fold], rows[rows % 2 == fold]


def test_fold_epoch_seconds_sum_to_the_group_epoch_time(data, monkeypatch):
    """Each fold gets its share of every shared step and of the epoch's one
    scoring forward, so the folds' seconds of an epoch add up to the group's
    time for it."""
    ticks = []

    def clock():
        ticks.append(len(ticks) * 0.5)
        return ticks[-1]

    cfg, state = backbone("transformer")
    monkeypatch.setattr(training.time, "perf_counter", clock)
    results = train(config("deepgpt", batch_size=5), data, cfg, state, seed=5)
    # The loop reads the clock when an epoch starts, after each step and after
    # scoring, so every step and the scoring take one tick of 0.5 s. At batch
    # size 5 the folds' 16, 17 and 17 graphs make 4 steps each; the last
    # batches 1, 2 and 2 graphs, so fold 0 takes a fifth of it. The scoring
    # forward holds the folds' 9, 8 and 8 eval graphs.
    want = [0.5 + 0.1 + 0.5 * 9 / 25, 0.5 + 0.2 + 0.5 * 8 / 25, 0.5 + 0.2 + 0.5 * 8 / 25]
    for r, seconds in zip(results, want):
        assert r.record.epoch_seconds == pytest.approx([seconds, seconds])
    per_epoch = np.sum([r.record.epoch_seconds for r in results], axis=0)
    assert per_epoch.tolist() == pytest.approx([2.5, 2.5])          # 4 steps and 1 scoring
    assert sum(per_epoch) == pytest.approx(ticks[-1] - ticks[0] - 0.5)  # one tick between


def test_a_real_group_spends_its_epoch_seconds_inside_the_call(data):
    cfg, state = backbone("transformer")
    started = time.perf_counter()
    results = train(config("deepgpt"), data, cfg, state, seed=5)
    wall = time.perf_counter() - started
    assert 0 < sum(s for r in results for s in r.record.epoch_seconds) <= wall


def test_non_finite_error_names_the_fold(data, monkeypatch):
    """Only fold 1's loss is infinite, and the error says so."""
    loss = training._loss
    calls = []

    def poisoned(config, out, labels):
        calls.append(1)
        value = loss(config, out, labels)
        return training.add(value, training.Tensor(np.array(np.inf))) if len(calls) == 2 \
            else value

    monkeypatch.setattr(training, "_loss", poisoned)
    cfg, state = backbone("transformer")
    with pytest.raises(training.NonFiniteError,
                       match=r"^fold 1, epoch 1 of 2, step 1 of 5: loss is inf$"):
        train(config("lightweight"), data, cfg, state, seed=5)
