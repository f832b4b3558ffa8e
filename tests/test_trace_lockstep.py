"""A lockstep ``train`` under the benchmark's tracer (``benchmarks/tracer.py``).

The tracer wraps ``training._run_fold`` and reads ``job[0].mode`` to name
one span per pool job, so this guards ``--trace 1`` runs against changes
to what a job is. The tracer module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gpt_lab.checkpoint  # noqa: F401  (the tracer wraps names of every gpt_lab module)
from gpt_lab import models, tensor, training
from gpt_lab.graphs import gen_downstream
from gpt_lab.models import Backbone, BackboneConfig
from gpt_lab.training import TuningConfig, train

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("mode, jobs", [("deepgpt", 1), ("ft", 3)])
def test_traced_lockstep_train_is_bit_identical_and_uninstalls(mode, jobs):
    data = gen_downstream(24, "motif_presence", seed=17, size_range=(5, 8))
    cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=8, heads=2, layers=2,
                         ffn_mult=2, rwpe_steps=4, degree_embed=True, max_degree=4)
    state = Backbone.init(cfg, seed=3).state_arrays()
    config = TuningConfig(mode=mode, p_len=2, epochs=2, warmup_epochs=1, batch_size=8,
                          folds=3, lr=1e-2)
    originals = (training._run_fold, models.encode_nodes, training.backbone_forward,
                 tensor.Tape.__dict__["__enter__"], models.PredictionHead.__dict__["forward"])
    untraced = train(config, data, cfg, state, seed=7)

    tracer = load_tracer()()
    tracer.install()
    try:
        traced = train(config, data, cfg, state, seed=7)
    finally:
        tracer.uninstall()

    assert originals == (training._run_fold, models.encode_nodes, training.backbone_forward,
                         tensor.Tape.__dict__["__enter__"],
                         models.PredictionHead.__dict__["forward"])
    for a, b in zip(untraced, traced):
        assert a.record.train_losses == b.record.train_losses
        assert a.record.eval_metrics == b.record.eval_metrics
        for name in a.prompt_state:
            assert np.array_equal(a.prompt_state[name], b.prompt_state[name])
    names = [span[0] for span in tracer.spans]
    assert names.count(f"training.fold.{mode}") == jobs
    # 16 training graphs per fold at batch size 8: two steps an epoch, taken by
    # all three folds at once in a frozen-backbone group.
    assert tracer.counts["tape.steps"] == 2 * 2 * (3 if mode == "ft" else 1)
    step_rows = sum(data[i].n for f in range(3)
                    for i in training.make_folds(24, 3, 7).train_eval(f)[0]) * 2
    assert tracer.counts["step.rows"] == step_rows
