"""Tests of the benchmark harness's own arithmetic and tracing.

    python3 -m pytest benchmarks/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from stats import quartile_spread, self_times, tail, useful_ratio  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RoundResult  # noqa: E402

from gpt_lab import models  # noqa: E402
from gpt_lab.graphs import gen_downstream, with_rwpe  # noqa: E402
from gpt_lab.graphs import batch as batch_graphs  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 2],
        ["b", 11.0, 12.5, -1],
    ]
    own, total = self_times(spans)
    assert own == pytest.approx({"a": 3.0, "b": 4.5, "c": 3.0, "d": 1.0})
    assert total == pytest.approx({"a": 10.0, "b": 4.5, "c": 4.0, "d": 1.0})


def test_self_time_when_a_span_nests_inside_one_of_its_own_name():
    own, total = self_times([["f", 0.0, 5.0, -1], ["f", 1.0, 3.0, 0]])
    assert own["f"] == pytest.approx(3.0 + 2.0)
    assert total["f"] == pytest.approx(7.0)


def test_tracer_records_parents_from_call_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    own, _ = self_times(tracer.spans)
    assert own == {"outer": 2.0, "inner": 1.0}


def test_tail_is_the_sample_with_ten_beyond_it():
    values = [float(v) for v in range(30, 0, -1)]
    value, pct, n = tail(values)
    assert (value, n) == (20.0, 30)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_needs_more_than_ten_samples():
    assert tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_useful_ratio_of_a_block_mask_through_the_traced_softmax():
    layout = models.RowLayout(blocks=[(0, 3), (3, 5), (5, 9)],
                              nodes=[(0, 3), (3, 5), (5, 9)])
    mask = models._block_attention_mask(layout)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):     # the second call reuses the cached mask count
            models.softmax_masked(models.Tensor(np.zeros((9, 9))), mask)
    finally:
        tracer.uninstall()
    assert tracer.counts["softmax.entries"] == 2 * 81
    assert tracer.counts["softmax.useful"] == 2 * (9 + 4 + 16)
    assert useful_ratio(tracer.counts["softmax.useful"],
                        tracer.counts["softmax.entries"]) == pytest.approx(29 / 81)
    assert useful_ratio(0, 0) == 0.0


def test_tracing_leaves_results_bit_identical_and_uninstalls():
    cfg = models.BackboneConfig(kind="transformer", feature_dim=4, dim=8, heads=2,
                                layers=2, ffn_mult=2, rwpe_steps=3, degree_embed=True)
    bb = models.Backbone.init(cfg, seed=3)
    head = models.PredictionHead.init(cfg.dim, 1, seed=4)
    batch = batch_graphs(with_rwpe(gen_downstream(6, "motif_presence", seed=5,
                                                  size_range=(5, 7)), 3))
    plain = models.backbone_forward(batch, bb, head).data
    original = models.softmax_masked
    tracer = Tracer()
    tracer.install()
    try:
        traced = models.backbone_forward(batch, bb, head).data
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    assert models.softmax_masked is original
    names = {s[0] for s in tracer.spans}
    assert {"models.encode_nodes", "models.transformer_layer_forward",
            "tensor.softmax_masked", "tensor.matmul", "models.readout",
            "models.head"} <= names
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.mark_first_round()
    layer = run.per_layer(tracer, rounds=1, overhead_s=0.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}

    rounds = [RoundResult(intervals=[("a.epoch", "train", 1.0, 10, 1.0),
                                     ("a.score", "score", 1.0, 5, 1.0)],
                          epoch_seconds=[0.1] * 11, quality=[0.7], rmse=[0.3], attempted=5)
              for _ in range(run.MIN_ROUNDS)]
    e2e, _ = run.end_to_end(1.0, rounds, attempted=10, failed=0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e["success_ratio"][0] == 1.0


def test_corrected_seconds_divide_each_interval_by_its_slowdown():
    r = RoundResult(intervals=[("x.epoch", "train", 2.0, 10, 2.0),
                               ("x.epoch", "train", 3.0, 10, 1.5),
                               ("x.score", "score", 1.0, 4, 1.0),
                               ("probe.score", "score", 9.0, 4, 3.0)])
    assert r.training() == (3.0, 20)
    assert r.scoring() == (4.0, 8)
    assert r.wall() == 4.0
