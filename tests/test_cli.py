import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gpt_lab import checkpoint as ck
from gpt_lab import cli, training
from gpt_lab.cli import (
    ABLATE_CSV_FIELDS,
    FOLD_CSV_FIELDS,
    REPORT_CSV_FIELDS,
    TUNE_CSV_FIELDS,
    main,
)
from gpt_lab.config import (AblateConfig, ConfigError, ExperimentConfig, PretrainConfig,
                            TaskConfig, load_config)
from gpt_lab.graphs import DataError, GraphSample, gen_downstream, make_folds, write_graph_file
from gpt_lab.models import Backbone, BackboneConfig, PredictionHead
from gpt_lab.prompt import build_registry, count_params, init_prompts, trains_backbone
from gpt_lab.training import TuningConfig, evaluate_fold

from csv_rows import read_csv

BASE_CONFIG = """\
[experiment]
seed = 11

[backbone]
kind = transformer
feature_dim = 4
dim = 8
heads = 2
layers = 2
ffn_mult = 2
rwpe_steps = 4
degree_embed = true
max_degree = 4

[task]
generator = motif_presence
count = 24
min_nodes = 5
max_nodes = 8

[pretrain]
count = 30
min_nodes = 4
max_nodes = 8
epochs = 3
warmup_epochs = 1
batch_size = 8

[tuning]
mode = deepgpt
metric = auroc
p_len = 2
epochs = 2
warmup_epochs = 1
batch_size = 8
folds = 3
"""


FULL_CONFIG = """\
[experiment]
seed = 7

[backbone]
kind = transformer
feature_dim = 3
dim = 12
heads = 3
layers = 2
ffn_mult = 3
readout = sum
rwpe_steps = 5
degree_embed = yes
max_degree = 5
aggregation = mean

[task]
generator = community_count
count = 40
min_nodes = 7
max_nodes = 11

[pretrain]
count = 50
min_nodes = 5
max_nodes = 10
epochs = 4
warmup_epochs = 1
lr = 0.002
weight_decay = 0.01
batch_size = 16
decay = linear
clip = 2.5
eval_fraction = 0.2

[tuning]
mode = DeepGPT
metric = ap
p_len = 3
prompted_layers = 0-1
token_stage = pre_projection
lr = 0.004
weight_decay = 0.02
betas = 0.8, 0.99
eps = 1e-6
clip = 3.0
epochs = 6
warmup_epochs = 2
decay = linear
batch_size = 12
folds = 4
head_hidden = true

[ablate]
axis = length
depth_intervals = 0-0, 1-1
lengths = 2,3
components = Lightweight, deepgpt
"""


def write_full_config(path: Path, graph_file: bool = False) -> Path:
    """``FULL_CONFIG``, which sets every key of every section; with
    ``graph_file``, its task reads a graph file in place of a generator."""
    text = FULL_CONFIG
    if graph_file:
        text = text.replace("generator = community_count", "graph_file = data.gr")
    path.write_text(text, encoding="utf-8")
    return path


def write_config(path: Path, extra: str = "", replace: dict | None = None) -> Path:
    text = BASE_CONFIG
    for old, new in (replace or {}).items():
        assert old in text
        text = text.replace(old, new)
    path.write_text(text + extra, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One pretrained checkpoint shared by the cheaper CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "exp.ini")
    assert main(["pretrain", "--config", str(config),
                 "--out", str(root / "pre")]) == 0
    return root


def ckpt_of(workspace: Path) -> str:
    return str(workspace / "pre" / "backbone.ckpt")


class TestCheckpointFormat:
    def test_backbone_round_trip_bit_exact(self, tmp_path):
        from gpt_lab.models import Backbone

        cfg = BackboneConfig(kind="mpgnn", feature_dim=3, dim=8, heads=2, layers=2)
        state = Backbone.init(cfg, seed=0).state_arrays()
        path = tmp_path / "x.ckpt"
        ck.save_backbone(path, cfg, state)
        got_cfg, got = ck.load_backbone(path)
        assert got_cfg == cfg
        for k in state:
            assert np.array_equal(got[k], state[k])

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = BackboneConfig(kind="mpgnn", feature_dim=3, dim=8, heads=2, layers=2)
        state = {"w": np.random.default_rng(1).normal(size=(4, 4))}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.save_backbone(a, cfg, state)
        ck.save_backbone(b, cfg, state)
        assert a.read_bytes() == b.read_bytes()

    def test_mismatched_config_rejected(self, tmp_path):
        cfg = BackboneConfig(kind="mpgnn", feature_dim=3, dim=8, heads=2, layers=2)
        other = BackboneConfig(kind="mpgnn", feature_dim=3, dim=16, heads=2, layers=2)
        path = tmp_path / "x.ckpt"
        ck.save_backbone(path, cfg, {"w": np.zeros(2)})
        with pytest.raises(ck.CheckpointMismatchError):
            ck.load_backbone(path, expected=other)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ck.CheckpointError):
            ck.load_backbone(path)

    def test_prompt_pairing_checks(self, tmp_path):
        path = tmp_path / "p.ckpt"
        ck.save_prompt(path, dim=8, layers=2, mode="deepgpt", p_len=2,
                       token_stage="post_projection", backbone_fingerprint="f",
                       state={"prompt.token": np.zeros(8)})
        meta, state = ck.load_prompt(path, dim=8, layers=2)
        assert meta["mode"] == "deepgpt" and "prompt.token" in state
        with pytest.raises(ck.CheckpointMismatchError):
            ck.load_prompt(path, dim=16, layers=2)
        with pytest.raises(ck.CheckpointMismatchError):
            ck.load_prompt(path, dim=8, layers=3)

class TestPublishedScale:
    def test_prompt_checkpoint_50x_smaller_and_ratio_under_half_percent(self, tmp_path):
        """At the 12-layer/768-dim scale the task blob stays tiny."""
        from gpt_lab.models import Backbone, PredictionHead
        from gpt_lab.prompt import build_registry, count_params, init_prompts

        cfg = BackboneConfig(kind="transformer", feature_dim=9, dim=768, heads=32,
                             layers=12, ffn_mult=4, rwpe_steps=16,
                             degree_embed=True, max_degree=8)
        bb = Backbone.init(cfg, seed=1)
        head = PredictionHead.init(cfg.dim, 1, seed=1)
        prompts = init_prompts("deepgpt", cfg, p_len=10, seed=1)
        counts = count_params(build_registry(bb, head, prompts))
        assert counts["ratio"] < 0.005

        backbone_path = tmp_path / "backbone.ckpt"
        ck.save_backbone(backbone_path, cfg, bb.state_arrays())
        prompt_state = {n: t.data for n, t in prompts.named_params().items()}
        prompt_state.update({n: t.data for n, t in head.named_params().items()})
        prompt_path = tmp_path / "prompt.ckpt"
        ck.save_prompt(prompt_path, dim=cfg.dim, layers=cfg.layers, mode="deepgpt",
                       p_len=10, token_stage="post_projection",
                       backbone_fingerprint=ck.fingerprint(cfg), state=prompt_state)
        ratio = backbone_path.stat().st_size / prompt_path.stat().st_size
        backbone_path.unlink()
        assert ratio >= 50.0


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", extra="\n[tuning2]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown sections"):
            load_config(path)

    def test_unknown_tuning_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.ini",
                            replace={"mode = deepgpt": "mode = deepgpt\nlearning = 3"})
        with pytest.raises(ConfigError, match="unknown key 'learning'"):
            load_config(path)

    def test_loads_fully(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "ok.ini"))
        assert cfg.seed == 11
        assert cfg.backbone.dim == 8
        assert cfg.tuning.mode == "deepgpt"
        assert cfg.task.generator == "motif_presence"

    def test_optimizer_layer_and_holdout_keys_reach_the_config(self, tmp_path):
        path = write_config(tmp_path / "ok.ini", replace={
            "mode = deepgpt": "mode = deepgpt\nbetas = 0.8, 0.99\neps = 1e-6\n"
                              "prompted_layers = 1-2",
            "batch_size = 8\n\n[tuning]": "batch_size = 8\neval_fraction = 0.25\n\n[tuning]"})
        cfg = load_config(path)
        assert cfg.tuning.betas == (0.8, 0.99)
        assert cfg.tuning.eps == 1e-6
        assert cfg.tuning.prompted_layers == (1, 2)
        assert cfg.pretrain.eval_fraction == 0.25

    @pytest.mark.parametrize("key", ["prompted_from", "prompted_to", "beta1", "beta2"])
    def test_a_part_of_a_tuple_field_is_an_unknown_key(self, tmp_path, capsys, key):
        config = write_config(tmp_path / "old.ini",
                              replace={"mode = deepgpt": f"mode = deepgpt\n{key} = 1"})
        assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "pre")]) == 2
        assert f"unknown key {key!r} in section [tuning]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.9", "0.9, 0.99, 0.999"])
    def test_betas_other_than_two_values_rejected(self, tmp_path, value):
        path = write_config(tmp_path / "bad.ini",
                            replace={"mode = deepgpt": f"mode = deepgpt\nbetas = {value}"})
        with pytest.raises(ConfigError, match=r"^\[tuning\]: Adam betas must be two values"):
            load_config(path)

    @pytest.mark.parametrize("old, new", [("mode = deepgpt", "mode = bogus"),
                                          ("metric = auroc", "metric = bogus"),
                                          ("p_len = 2", "p_len = 2\ntoken_stage = bogus")],
                             ids=["mode", "metric", "token_stage"])
    def test_unknown_tuning_value_is_a_config_error(self, tmp_path, old, new):
        path = write_config(tmp_path / "bad.ini", replace={old: new})
        with pytest.raises(ConfigError, match=r"\[tuning\]: unknown .*'bogus'"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.ini")

    def test_every_field_has_a_key(self, tmp_path):
        """``FULL_CONFIG`` moves every field of every section's dataclass off its
        default, so that no field is impossible to set."""
        cfg = load_config(write_full_config(tmp_path / "full.ini"))
        task = load_config(write_full_config(tmp_path / "file.ini", graph_file=True)).task
        for owner in (cfg, cfg.backbone, cfg.task, task, cfg.pretrain, cfg.tuning, cfg.ablate):
            for f in dataclasses.fields(owner):
                if f.name not in ("generator", "graph_file"):
                    assert getattr(owner, f.name) != f.default, f.name
        assert cfg.task.generator is not None and task.graph_file is not None

    def test_every_key_of_every_section_loads(self, tmp_path):
        cfg = load_config(write_full_config(tmp_path / "full.ini"))
        assert cfg == ExperimentConfig(
            seed=7,
            backbone=BackboneConfig(kind="transformer", feature_dim=3, dim=12, heads=3,
                                    layers=2, ffn_mult=3, readout="sum", rwpe_steps=5,
                                    degree_embed=True, max_degree=5, aggregation="mean"),
            task=TaskConfig(generator="community_count", count=40, min_nodes=7, max_nodes=11),
            pretrain=PretrainConfig(count=50, min_nodes=5, max_nodes=10, epochs=4,
                                    warmup_epochs=1, lr=0.002, weight_decay=0.01,
                                    batch_size=16, decay="linear", clip=2.5,
                                    eval_fraction=0.2),
            tuning=TuningConfig(mode="deepgpt", metric="ap", p_len=3, prompted_layers=(0, 1),
                                token_stage="pre_projection", lr=0.004, weight_decay=0.02,
                                betas=(0.8, 0.99), eps=1e-6, clip=3.0, epochs=6,
                                warmup_epochs=2, decay="linear", batch_size=12, folds=4,
                                head_hidden=True),
            ablate=AblateConfig(axis="length", depth_intervals=((0, 0), (1, 1)),
                                lengths=(2, 3), components=("lightweight", "deepgpt")))
        task = load_config(write_full_config(tmp_path / "file.ini", graph_file=True)).task
        assert task == TaskConfig(graph_file="data.gr", count=40, min_nodes=7, max_nodes=11)

    def test_a_missing_required_key_is_a_config_error_naming_it(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", replace={"mode = deepgpt\n": ""})
        with pytest.raises(ConfigError, match=r"^\[tuning\]: .*'mode'$"):
            load_config(path)

    def test_the_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        [example] = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.S | re.M)
        path = tmp_path / "readme.ini"
        path.write_text(example, encoding="utf-8")
        cfg = load_config(path)
        assert cfg.backbone.rwpe_steps == 6 and cfg.backbone.aggregation == "sum"
        assert cfg.tuning.prompted_layers == (0, 2) and cfg.tuning.betas == (0.9, 0.999)
        assert cfg.ablate.cells() == [(0, 0), (1, 1), (2, 2)]

    def test_pretrain_config_defaults_are_the_keyword_defaults_of_pretrain(self):
        defaults = {name: p.default
                    for name, p in inspect.signature(training.pretrain).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert PretrainConfig().training_args() == defaults

    def test_task_feature_dim_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.ini",
                              replace={"max_nodes = 8\n\n[pretrain]":
                                       "max_nodes = 8\nfeature_dim = 4\n\n[pretrain]"})
        assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "pre")]) == 2
        assert "unknown key 'feature_dim' in section [task]" in capsys.readouterr().err


class TestPretrainCommand:
    def test_writes_loadable_checkpoint(self, workspace):
        cfg, state = ck.load_backbone(ckpt_of(workspace))
        assert cfg.dim == 8
        assert "input_proj.weight" in state
        record = json.loads((workspace / "pre" / "pretrain_record.json").read_text())
        assert record["final_rmse"] == record["eval_metrics"][-1]

    def test_rmse_decreases_median_over_three_seeds(self, tmp_path):
        config = write_config(
            tmp_path / "exp.ini",
            replace={"count = 30\nmin_nodes = 4\nmax_nodes = 8\n"
                     "epochs = 3\nwarmup_epochs = 1\nbatch_size = 8":
                     "count = 100\nmin_nodes = 4\nmax_nodes = 8\n"
                     "epochs = 6\nwarmup_epochs = 1\nbatch_size = 16"})
        drops = []
        for seed in (1, 2, 3):
            out = tmp_path / f"pre{seed}"
            assert main(["pretrain", "--config", str(config), "--out", str(out),
                         "--seed", str(seed)]) == 0
            rec = json.loads((out / "pretrain_record.json").read_text())
            drops.append(rec["eval_metrics"][0] - rec["eval_metrics"][-1])
        assert float(np.median(drops)) > 0.0

    @pytest.mark.parametrize("old, new, key", [
        ("heads = 2", "heads = 0", "heads"),
        ("ffn_mult = 2", "ffn_mult = 0", "ffn_mult"),
        ("max_degree = 4", "max_degree = -1", "max_degree"),
        ("rwpe_steps = 4", "rwpe_steps = -2", "rwpe_steps"),
        ("heads = 2", "heads = 8", "head width 1"),
    ])
    def test_bad_backbone_number_is_a_config_error(self, tmp_path, capsys, old, new, key):
        config = write_config(tmp_path / "bad.ini", replace={old: new})
        assert main(["pretrain", "--config", str(config), "--out", str(tmp_path / "pre")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [backbone]: ") and key in err

    def test_negative_lr_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path / "lr.ini",
                              replace={"batch_size = 8\n\n[tuning]":
                                       "batch_size = 8\nlr = -0.001\n\n[tuning]"})
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: [pretrain]: lr must be positive, "
                                           "got -0.001\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("nan", "eval_fraction must be finite and above 0, got nan"),
        ("inf", "eval_fraction must be finite and above 0, got inf"),
        ("0", "eval_fraction must be finite and above 0, got 0.0"),
        ("-3", "eval_fraction must be finite and above 0, got -3.0"),
        ("0.1\ndecay = bogus", "unknown decay 'bogus'"),
    ], ids=["nan", "inf", "zero", "negative", "decay"])
    def test_bad_pretrain_value_exits_2_before_any_output(self, tmp_path, capsys, value,
                                                          message):
        config = write_config(tmp_path / "bad.ini",
                              replace={"batch_size = 8\n\n[tuning]":
                                       f"batch_size = 8\neval_fraction = {value}\n\n[tuning]"})
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: [pretrain]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count, low, high, message", [
        (0, 4, 8, "count must be at least 1, got 0"),
        (30, 9, 4, "need 4 <= min_nodes (9) <= max_nodes (4) <= 64"),
        (30, 3, 8, "need 4 <= min_nodes (3) <= max_nodes (8) <= 64"),
        (30, 4, 65, "need 4 <= min_nodes (4) <= max_nodes (65) <= 64"),
    ], ids=["count", "min-above-max", "min-below-4", "max-above-64"])
    def test_bad_pretext_exits_2_before_any_output(self, tmp_path, capsys, count, low, high,
                                                   message):
        config = write_config(tmp_path / "bad.ini", replace={
            "count = 30\nmin_nodes = 4\nmax_nodes = 8":
            f"count = {count}\nmin_nodes = {low}\nmax_nodes = {high}"})
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: [pretrain]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("replace, flags, message", [
        ({"seed = 11": "seed = -1"}, [], "[experiment]: seed must not be negative, got -1"),
        ({}, ["--seed", "-5"], "seed must not be negative, got -5")], ids=["ini", "flag"])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys, replace, flags,
                                                     message):
        config = write_config(tmp_path / "seed.ini", replace=replace)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_holdout_of_every_graph_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path / "all.ini",
                              replace={"batch_size = 8\n\n[tuning]":
                                       "batch_size = 8\neval_fraction = 1.0\n\n[tuning]"})
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: eval_fraction 1.0 of 30 graphs")
        assert not out.exists()

    def test_altered_dim_rejected_with_exit_4(self, workspace, tmp_path):
        config = write_config(tmp_path / "wider.ini", replace={"dim = 8": "dim = 16"})
        code = main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "t")])
        assert code == 4


class TestTuneCommand:
    def test_lightweight_trainable_equals_head_size(self, workspace, tmp_path):
        config = write_config(tmp_path / "lw.ini",
                              replace={"mode = deepgpt": "mode = lightweight"})
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv", TUNE_CSV_FIELDS)
        assert int(rows[0]["trainable_params"]) == 8 * 1 + 1

    def test_same_seed_identical_csv_bytes(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["tune", "--config", str(config),
                         "--ckpt", ckpt_of(workspace), "--out", str(out)]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "fold_metrics.csv").read_bytes() == (b / "fold_metrics.csv").read_bytes()
        assert (a / "prompt.ckpt").read_bytes() == (b / "prompt.ckpt").read_bytes()

    def test_prompt_checkpoint_reproduces_final_fold_metric(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini")
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 0
        meta, prompt_state = ck.load_prompt(out / "prompt.ckpt", dim=8, layers=2)
        cfg = load_config(config)
        backbone_cfg, backbone_state = ck.load_backbone(ckpt_of(workspace))
        dataset = gen_downstream(cfg.task.count, cfg.task.generator, cfg.seed,
                                 size_range=(cfg.task.min_nodes, cfg.task.max_nodes),
                                 feature_dim=cfg.backbone.feature_dim)
        metric = evaluate_fold(cfg.tuning, dataset, backbone_cfg, backbone_state,
                               prompt_state, seed=meta["seed"], fold=meta["fold"])
        rows = read_csv(out / "fold_metrics.csv", FOLD_CSV_FIELDS)
        assert metric == float(rows[-1]["final_metric"])

    def test_ap_metric_reaches_the_run_and_its_fold_metrics(self, workspace, tmp_path):
        """Seed 12 gives a final eval fold on which AP and AUROC differ."""
        config = write_config(tmp_path / "ap.ini", replace={"metric = auroc": "metric = ap"})
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out), "--seed", "12"]) == 0
        assert read_csv(out / "metrics.csv", TUNE_CSV_FIELDS)[0]["metric"] == "ap"
        assert json.loads((out / "run_meta.json").read_text())["metric"] == "ap"
        meta, prompt_state = ck.load_prompt(out / "prompt.ckpt", dim=8, layers=2)
        cfg = load_config(config)
        assert cfg.tuning.metric == "ap"
        backbone_cfg, backbone_state = ck.load_backbone(ckpt_of(workspace))
        dataset = gen_downstream(cfg.task.count, cfg.task.generator, meta["seed"],
                                 size_range=(cfg.task.min_nodes, cfg.task.max_nodes),
                                 feature_dim=cfg.backbone.feature_dim)
        scored = {metric: evaluate_fold(dataclasses.replace(cfg.tuning, metric=metric),
                                        dataset, backbone_cfg, backbone_state, prompt_state,
                                        seed=meta["seed"], fold=meta["fold"])
                  for metric in ("ap", "auroc")}
        final = float(read_csv(out / "fold_metrics.csv", FOLD_CSV_FIELDS)[-1]["final_metric"])
        assert final == scored["ap"] != scored["auroc"]

    def test_head_hidden_reaches_the_stored_prompt_state(self, workspace, tmp_path):
        runs = {}
        for hidden in ("false", "true"):
            config = write_config(tmp_path / f"{hidden}.ini", extra=f"head_hidden = {hidden}\n")
            out = tmp_path / hidden
            assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                         "--out", str(out)]) == 0
            _, state = ck.load_prompt(out / "prompt.ckpt", dim=8, layers=2)
            trainable = int(read_csv(out / "metrics.csv", TUNE_CSV_FIELDS)[0]["trainable_params"])
            runs[hidden] = (state, trainable)
        assert "head.hidden.weight" not in runs["false"][0]
        hidden_state, hidden_count = runs["true"]
        assert hidden_state["head.hidden.weight"].shape == (8, 8)
        assert hidden_state["head.hidden.bias"].shape == (8,)
        assert hidden_count == runs["false"][1] + 8 * 8 + 8

    def test_backbone_checkpoint_never_mutated(self, workspace, tmp_path):
        before = Path(ckpt_of(workspace)).read_bytes()
        config = write_config(tmp_path / "exp.ini")
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 0
        assert Path(ckpt_of(workspace)).read_bytes() == before

    def test_graph_file_task_source(self, workspace, tmp_path):
        from gpt_lab.graphs import write_graph_file
        data = gen_downstream(18, "motif_presence", seed=5, size_range=(5, 7))
        graph_file = tmp_path / "data.gr"
        write_graph_file(graph_file, data)
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 0

    def test_graph_file_of_another_width_exits_3(self, workspace, tmp_path, capsys):
        from gpt_lab.graphs import write_graph_file
        graph_file = tmp_path / "wide.gr"
        write_graph_file(graph_file, gen_downstream(18, "motif_presence", seed=5,
                                                    size_range=(5, 7), feature_dim=3))
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 3
        assert "a graph has 3 feature columns" in capsys.readouterr().err

    def test_non_finite_regression_label_exits_3_naming_the_graph(self, workspace, tmp_path,
                                                                 capsys):
        from gpt_lab.graphs import write_graph_file
        data = gen_downstream(18, "motif_presence", seed=5, size_range=(5, 7))
        data[4] = dataclasses.replace(data[4], label=np.array([np.nan]))
        graph_file = tmp_path / "missing.gr"
        write_graph_file(graph_file, data)
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}", "metric = auroc": "metric = rmse"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.startswith("data error: graph 4 has a non-finite label")

    @pytest.mark.parametrize("old, new, message", [
        ("count = 24", "count = -3", "negative number of graphs"),
        ("min_nodes = 5", "min_nodes = 3", "min_nodes must be at least 4"),
    ], ids=["negative_count", "too_small_for_a_4_cycle"])
    def test_unfillable_generator_request_exits_3(self, workspace, tmp_path, capsys,
                                                  old, new, message):
        config = write_config(tmp_path / "gen.ini", replace={old: new})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err

    def test_folds_flag_overrides_the_config(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini")
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out), "--folds", "2"]) == 0
        assert json.loads((out / "run_meta.json").read_text())["folds"] == 2
        assert len(read_csv(out / "fold_metrics.csv", FOLD_CSV_FIELDS)) == 2

    def test_folds_flag_below_2_exits_2_naming_folds(self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "exp.ini")
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out), "--folds", "1"]) == 2
        assert capsys.readouterr().err == "config error: folds must be at least 2, got 1\n"
        assert not out.exists()

    def test_a_step_without_a_present_label_exits_3_naming_it(self, workspace, tmp_path,
                                                             capsys):
        data = gen_downstream(18, "motif_presence", seed=5, size_range=(5, 7))
        # Only one graph, in fold 0's evaluation split, keeps its label: the
        # first chunk of fold 0's first step is all missing labels.
        keep = make_folds(len(data), 3, seed=11).train_eval(0)[1][0]
        data = [GraphSample(g.n, g.features, g.edges, g.label if i == keep else [np.nan])
                for i, g in enumerate(data)]
        graph_file = tmp_path / "missing.gr"
        write_graph_file(graph_file, data)
        assert graph_file.read_text().count("\ny nan\n") == 17
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}"})
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("data error: fold 0, epoch 1 of 2, step 1 of 2: "
                                           "every label of its 8 graphs is missing\n")
        assert not out.exists()

    def test_beta1_of_one_is_a_config_error(self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "beta.ini",
                              replace={"mode = deepgpt": "mode = deepgpt\nbetas = 1.0, 0.999"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [tuning]: Adam betas must lie in [0, 1)")

    def test_parallel_below_1_exits_2_before_any_output(self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "exp.ini")
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--parallel", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: parallel must be at least 1, got 0\n"
        assert not out.exists()

    def test_negative_lr_is_a_config_error(self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "lr.ini",
                              replace={"mode = deepgpt": "mode = deepgpt\nlr = -0.01"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [tuning]: lr must be positive, got -0.01\n"

    @pytest.mark.parametrize("old, new, kind, message", [
        ("mode = deepgpt", "mode = prefix_only", "mpgnn",
         "prefix tokens require the transformer backbone"),
        ("mode = deepgpt", "mode = deepgpt\nprompted_layers = 1-2", "transformer",
         "prompted interval [1, 2] invalid for 2 layers"),
        ("p_len = 2", "p_len = 0", "transformer", "deepgpt mode needs p_len >= 1"),
        ("mode = deepgpt", "mode = virtual_node", "transformer",
         "virtual_node mode requires the mpgnn backbone"),
    ], ids=["prefix-on-mpgnn", "interval", "p_len", "virtual_node-on-transformer"])
    def test_mode_backbone_mismatch_exits_2_before_encoding(self, workspace, tmp_path,
                                                            monkeypatch, capsys, old, new,
                                                            kind, message):
        config = write_config(tmp_path / "exp.ini",
                              replace={old: new, "kind = transformer": f"kind = {kind}"})
        ckpt = ckpt_of(workspace)
        if kind == "mpgnn":
            cfg = load_config(config).backbone
            ckpt = tmp_path / "mpgnn.ckpt"
            ck.save_backbone(ckpt, cfg, Backbone.init(cfg, seed=1).state_arrays())

        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was encoded")

        monkeypatch.setattr(training, "encode_graphs", refuse)
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", str(ckpt), "--parallel", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, kind, written", [
        ("ft", "transformer", False),
        ("lightweight", "transformer", False),
        ("prefix_only", "transformer", True),
        ("deepgpt", "transformer", True),
        ("virtual_node", "mpgnn", True),
    ])
    def test_prompt_checkpoint_only_when_the_fold_trained_prompts(self, workspace, tmp_path,
                                                                  mode, kind, written):
        config = write_config(tmp_path / "exp.ini",
                              replace={"mode = deepgpt": f"mode = {mode}",
                                       "kind = transformer": f"kind = {kind}"})
        ckpt = ckpt_of(workspace)
        if kind == "mpgnn":
            cfg = load_config(config).backbone
            ckpt = tmp_path / "mpgnn.ckpt"
            ck.save_backbone(ckpt, cfg, Backbone.init(cfg, seed=1).state_arrays())
        out = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", str(ckpt),
                     "--out", str(out)]) == 0
        assert (out / "prompt.ckpt").exists() == written

    def test_bad_graph_file_exits_3(self, workspace, tmp_path):
        graph_file = tmp_path / "broken.gr"
        graph_file.write_text("GPTGRAPH v1 d=8 t=1\ng 2 1\n")
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 3

    def test_single_class_eval_fold_exits_3_naming_the_fold(self, workspace, tmp_path, capsys):
        from gpt_lab.graphs import GraphSample, make_folds, write_graph_file
        data = gen_downstream(18, "motif_presence", seed=5, size_range=(5, 7))
        # One positive, in fold 0's evaluation split: fold 1 sees a single class.
        _, fold0 = make_folds(len(data), 3, seed=11).train_eval(0)
        data = [GraphSample(g.n, g.features, g.edges, np.array([float(i == fold0[0])]))
                for i, g in enumerate(data)]
        graph_file = tmp_path / "one_positive.gr"
        write_graph_file(graph_file, data)
        config = write_config(
            tmp_path / "file.ini",
            replace={"generator = motif_presence\ncount = 24\nmin_nodes = 5\nmax_nodes = 8":
                     f"graph_file = {graph_file}"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: fold 1: evaluation split: auroc is undefined")

    def test_format_1_backbone_exits_4(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes(Path(ckpt_of(workspace)).read_bytes())
        config = write_config(tmp_path / "exp.ini")
        assert main(["tune", "--config", str(config), "--ckpt", str(as_format_1(ckpt)),
                     "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == (f"checkpoint error: {ckpt}: unsupported format "
                                           "version 1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage", ["misshapen", "renamed"])
    def test_backbone_with_a_bad_array_exits_4(self, workspace, tmp_path, capsys, damage):
        backbone_cfg, state = ck.load_backbone(ckpt_of(workspace))
        state = dict(state)
        bias = state.pop("layer0.out.bias")
        if damage == "misshapen":
            state["layer0.out.bias"] = bias[:3]
        else:
            state["layer0.out.bias_"] = bias
        ckpt = tmp_path / "bad.ckpt"
        ck.save_backbone(ckpt, backbone_cfg, state)
        config = write_config(tmp_path / "exp.ini")
        assert main(["tune", "--config", str(config), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and "layer0.out.bias" in err

    def test_non_finite_backbone_exits_5_naming_the_step(self, workspace, tmp_path, capsys):
        backbone_cfg, state = ck.load_backbone(ckpt_of(workspace))
        state = dict(state)
        state["layer0.ffn1.weight"] = state["layer0.ffn1.weight"].copy()
        state["layer0.ffn1.weight"][1, 2] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        ck.save_backbone(ckpt, backbone_cfg, state)
        config = write_config(tmp_path / "exp.ini")
        assert main(["tune", "--config", str(config), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "run")]) == 5
        err = capsys.readouterr().err
        assert err == ("numerical error: fold 0, epoch 1 of 2, step 1 of 2: "
                       "gradient of head.weight is not finite\n")

    def test_parameter_without_gradient_is_not_a_config_error(self, workspace, tmp_path,
                                                              monkeypatch, capsys):
        forward = training.backbone_forward

        def tokenless(batch, bb, group=None, maxima=None):
            return forward(batch, bb,
                           [(dataclasses.replace(s, graph_token=None), n) for s, n in group],
                           maxima)

        monkeypatch.setattr(training, "backbone_forward", tokenless)
        config = write_config(tmp_path / "exp.ini")
        with pytest.raises(RuntimeError, match="prompt.token received no gradient"):
            main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                  "--out", str(tmp_path / "run")])
        assert "config error" not in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        config = write_config(tmp_path / "bad.ini",
                              replace={"p_len = 2": "p_len = 2\nbogus = 1"})
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "run")]) == 2


class TestAblateCommand:
    def test_depth_grid_rows(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = depth\n"
                                    "depth_intervals = 0-0,1-1,0-1\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "ablate_depth.csv", ABLATE_CSV_FIELDS)
        assert [r["cell"] for r in rows] == ["0-0", "1-1", "0-1"]

    def test_length_grid_param_counts_monotone(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = length\nlengths = 2,4,6\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "ablate_length.csv", ABLATE_CSV_FIELDS)
        counts = [int(r["trainable_params"]) for r in rows]
        assert counts == sorted(counts) and counts[0] < counts[-1]

    def test_component_grid_three_rows(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = component\n"
                                    "components = lightweight,prefix_only,deepgpt\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "ablate_component.csv", ABLATE_CSV_FIELDS)
        assert [r["cell"] for r in rows] == ["lightweight", "prefix_only", "deepgpt"]
        by_cell = {r["cell"]: int(r["trainable_params"]) for r in rows}
        assert by_cell["lightweight"] < by_cell["prefix_only"] < by_cell["deepgpt"]

    @pytest.mark.parametrize("grid, message", [
        ("axis = depth\ndepth_intervals = 0-1\n",
         "depth ablation needs a prefix-based tuning mode"),
        ("axis = length\nlengths = 2,4\n", "length ablation needs a prompt-based tuning mode"),
    ], ids=["depth", "length"])
    def test_sweep_of_lightweight_exits_2_without_cells(self, workspace, tmp_path, capsys,
                                                       grid, message):
        config = write_config(tmp_path / "lw.ini", extra="\n[ablate]\n" + grid,
                              replace={"mode = deepgpt": "mode = lightweight"})
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "cells").exists()

    def test_virtual_node_cell_on_a_transformer_exits_2_before_any_cell_trains(
            self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = component\n"
                                    "components = lightweight,virtual_node\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: virtual_node mode requires the "
                                           "mpgnn backbone\n")
        assert not (out / "cells").exists()

    def test_out_of_range_last_depth_cell_exits_2_before_any_cell_trains(
            self, workspace, tmp_path, capsys):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = depth\n"
                                    "depth_intervals = 0-0,1-1,5-5\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(out)]) == 2
        assert "prompted interval [5, 5] invalid for 2 layers" in capsys.readouterr().err
        assert not (out / "cells").exists()

    def test_empty_grid_rejected(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini",
                              extra="\n[ablate]\naxis = length\nlengths =\n")
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(tmp_path / "abl")]) == 2


class TestReportCommand:
    def test_single_run_numbers_verbatim(self, workspace, tmp_path):
        import time
        config = write_config(tmp_path / "exp.ini")
        run = tmp_path / "run"
        started = time.perf_counter()
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(run)]) == 0
        tune_wall_clock = time.perf_counter() - started
        out = tmp_path / "rep"
        assert main(["report", str(run), "--out", str(out)]) == 0
        rows = read_csv(out / "report.csv", REPORT_CSV_FIELDS)
        assert len(rows) == 1 and rows[0]["mode"] == "deepgpt"
        records = [json.loads(p.read_text())
                   for p in sorted((run / "runrecords").glob("fold*.json"))]
        want = float(np.mean([r["epochs_to_best"] for r in records]))
        assert float(rows[0]["epochs_to_best_mean"]) == want
        seconds = [s for r in records for s in r["epoch_seconds"]]
        assert float(rows[0]["epoch_seconds_mean"]) == pytest.approx(
            float(np.mean(seconds)), rel=1e-12)
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= tune_wall_clock

    def test_ft_and_deepgpt_rows_present(self, workspace, tmp_path):
        deep_cfg = write_config(tmp_path / "deep.ini")
        ft_cfg = write_config(tmp_path / "ft.ini",
                              replace={"mode = deepgpt": "mode = ft"})
        run_a, run_b = tmp_path / "deep", tmp_path / "ft"
        assert main(["tune", "--config", str(deep_cfg), "--ckpt", ckpt_of(workspace),
                     "--out", str(run_a)]) == 0
        assert main(["tune", "--config", str(ft_cfg), "--ckpt", ckpt_of(workspace),
                     "--out", str(run_b)]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(run_a), str(run_b), "--out", str(out)]) == 0
        rows = read_csv(out / "report.csv", REPORT_CSV_FIELDS)
        assert {r["mode"] for r in rows} == {"deepgpt", "ft"}

    def test_incomplete_run_dir_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty), "--out", str(tmp_path / "rep")]) == 3

    def test_report_deterministic_for_same_inputs(self, workspace, tmp_path):
        config = write_config(tmp_path / "exp.ini")
        run = tmp_path / "run"
        assert main(["tune", "--config", str(config), "--ckpt", ckpt_of(workspace),
                     "--out", str(run)]) == 0
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert main(["report", str(run), "--out", str(a)]) == 0
        assert main(["report", str(run), "--out", str(b)]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


# -- the run directory, recomputed from its own records --------------------------

# Pretraining at an lr that makes its last epoch worse than its first, and
# tuning for three epochs, so that every summary below can tell the last
# epoch from the best one, a mean from a median and a sample standard
# deviation from a population one.
ORACLE_CONFIG = {
    "epochs = 3\nwarmup_epochs = 1\nbatch_size = 8":
        "epochs = 2\nwarmup_epochs = 1\nbatch_size = 8\nlr = 0.05",
    "epochs = 2\nwarmup_epochs = 1\nbatch_size = 8\nfolds = 3":
        "epochs = 3\nwarmup_epochs = 1\nbatch_size = 8\nfolds = 3\nlr = 0.05",
}


def registry_counts(cfg: ExperimentConfig, tuning: TuningConfig) -> dict:
    """``count_params`` of the registry that a fold of ``tuning`` trains."""
    bb = Backbone.init(cfg.backbone, seed=0)
    head = PredictionHead.init(cfg.backbone.dim, 1, seed=0, hidden=tuning.head_hidden)
    prompts = init_prompts(tuning.mode, cfg.backbone, tuning.p_len, seed=0,
                           prompted_layers=tuning.prompted_layers,
                           token_stage=tuning.token_stage)
    return count_params(build_registry(bb, head, prompts,
                                       train_backbone=trains_backbone(tuning.mode)))


def fold_records(run: Path) -> list[dict]:
    """The run records of ``run``, in the order ``gpt-lab report`` reads them."""
    return [json.loads(path.read_text())
            for path in sorted((run / "runrecords").glob("fold*.json"))]


def recompute_run(run: Path, cfg: ExperimentConfig, tuning: TuningConfig,
                  command: str) -> dict:
    """Check ``run``'s ``fold_metrics.csv`` against its fold records and its
    ``run_meta.json`` against the config, and return its metrics row as
    recomputed from them."""
    records = fold_records(run)
    folds = read_csv(run / "fold_metrics.csv", FOLD_CSV_FIELDS)
    finals = [float(row["final_metric"]) for row in folds]
    best = [int(row["epochs_to_best"]) for row in folds]
    assert [int(row["fold"]) for row in folds] == list(range(tuning.folds))
    assert finals == [record["eval_metrics"][-1] for record in records]
    assert best == [1 + int(np.argmax(record["eval_metrics"])) for record in records]
    assert len(set(finals)) > 1 and np.mean(best) != np.median(best)
    counts = registry_counts(cfg, tuning)
    assert json.loads((run / "run_meta.json").read_text()) == {
        "command": command, "mode": tuning.mode, "metric": tuning.metric, "seed": cfg.seed,
        "folds": tuning.folds, "trainable_params": counts["trainable_count"],
        "frozen_params": counts["frozen_count"],
        "backbone_fingerprint": ck.fingerprint(cfg.backbone)}
    return {"mode": tuning.mode, "metric": tuning.metric,
            "trainable_params": str(counts["trainable_count"]),
            "mean": repr(float(np.mean(finals))), "std": repr(float(np.std(finals, ddof=1))),
            "epochs_to_best_mean": repr(float(np.mean(best)))}


def test_a_run_directory_is_recomputed_from_its_own_records(tmp_path):
    """``pretrain``, ``tune``, ``ablate`` and ``report`` on one tiny config: each
    summary they write equals, by ``==``, its value recomputed from the fold
    records and the config of the same run."""
    config = write_config(tmp_path / "exp.ini", replace=ORACLE_CONFIG,
                          extra="\n[ablate]\naxis = component\n"
                                "components = lightweight, deepgpt\n")
    cfg = load_config(config)
    pre, run, cells = tmp_path / "pre", tmp_path / "run", tmp_path / "abl" / "cells"
    assert main(["pretrain", "--config", str(config), "--out", str(pre)]) == 0
    ckpt = str(pre / "backbone.ckpt")
    assert main(["tune", "--config", str(config), "--ckpt", ckpt, "--out", str(run)]) == 0
    assert main(["ablate", "--config", str(config), "--ckpt", ckpt,
                 "--out", str(tmp_path / "abl")]) == 0
    runs = [run, cells / "lightweight", cells / "deepgpt"]
    assert main(["report", *map(str, runs), "--out", str(tmp_path / "rep")]) == 0

    pretrained = json.loads((pre / "pretrain_record.json").read_text())
    rmse = pretrained.pop("eval_metrics")
    assert min(rmse) != rmse[-1]
    assert pretrained.pop("seed") == cfg.seed and pretrained.pop("count") == cfg.pretrain.count
    assert pretrained.pop("final_rmse") == rmse[-1]

    tuning = cfg.tuning
    assert read_csv(run / "metrics.csv", TUNE_CSV_FIELDS) == [
        recompute_run(run, cfg, tuning, "tune")]
    meta, state = ck.load_prompt(run / "prompt.ckpt")
    assert meta.pop("arrays") == [{"name": name, "shape": list(state[name].shape)}
                                  for name in sorted(state)]
    assert meta == {"kind": "prompt", "format_version": ck.FORMAT_VERSION,
                    "dim": cfg.backbone.dim, "layers": cfg.backbone.layers,
                    "mode": tuning.mode, "p_len": tuning.p_len,
                    "token_stage": tuning.token_stage,
                    "backbone_fingerprint": ck.fingerprint(cfg.backbone),
                    "fold": tuning.folds - 1, "seed": cfg.seed}
    assert sum(a.size for a in state.values()) == registry_counts(cfg, tuning)["trainable_count"]

    rows = []
    for mode in ("lightweight", "deepgpt"):
        row = recompute_run(cells / mode, cfg, dataclasses.replace(tuning, mode=mode), "ablate")
        rows.append({"axis": "component", "cell": mode,
                     **{k: v for k, v in row.items() if k in ABLATE_CSV_FIELDS}})
    assert read_csv(tmp_path / "abl" / "ablate_component.csv", ABLATE_CSV_FIELDS) == rows

    per_mode = {}
    for path in runs:
        bucket = per_mode.setdefault(json.loads((path / "run_meta.json").read_text())["mode"],
                                     {"runs": 0, "best": [], "seconds": []})
        bucket["runs"] += 1
        for record in fold_records(path):
            bucket["best"].append(record["epochs_to_best"])
            bucket["seconds"] += record["epoch_seconds"]
    assert per_mode["deepgpt"]["runs"] == 2
    assert read_csv(tmp_path / "rep" / "report.csv", REPORT_CSV_FIELDS) == [
        {"mode": mode, "runs": str(bucket["runs"]),
         "epochs_to_best_mean": repr(float(np.mean(bucket["best"]))),
         "epoch_seconds_mean": repr(float(np.mean(bucket["seconds"])))}
        for mode, bucket in sorted(per_mode.items())]


# -- input checks ----------------------------------------------------------------


def raw_checkpoint(header: bytes, body: bytes = b"", length: int | None = None):
    """A call that loads a backbone from the checkpoint magic, a header length
    (by default that of ``header``), ``header`` and ``body``."""
    def call(tmp_path):
        size = len(header) if length is None else length
        path = tmp_path / "x.ckpt"
        path.write_bytes(ck._MAGIC + size.to_bytes(8, "little") + header + body)
        return ck.load_backbone(path)
    return call


def header(**meta) -> bytes:
    return json.dumps(meta).encode("utf-8")


def truncated_header(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(ck._MAGIC + b"\x05\x00")
    return ck.load_backbone(path)


def prompt_as_backbone(tmp_path):
    path = tmp_path / "x.ckpt"
    ck.save_prompt(path, dim=8, layers=2, mode="deepgpt", p_len=2,
                   token_stage="post_projection", backbone_fingerprint="f", state={})
    return ck.load_backbone(path)


_MPGNN = BackboneConfig(kind="mpgnn", feature_dim=3, dim=8, heads=2, layers=1)
_TRANSFORMER = BackboneConfig(kind="transformer", feature_dim=3, dim=8, heads=2, layers=2,
                              ffn_mult=2)


def backbone_as_prompt(tmp_path):
    path = tmp_path / "x.ckpt"
    ck.save_backbone(path, _MPGNN, Backbone.init(_MPGNN, seed=0).state_arrays())
    return ck.load_prompt(path)


def as_format_1(path):
    """The checkpoint at ``path``, its header marked as format 1."""
    raw = path.read_bytes()
    assert raw.count(b'"format_version": 2') == 1
    path.write_bytes(raw.replace(b'"format_version": 2', b'"format_version": 1'))
    return path


def format_1_backbone(tmp_path):
    path = tmp_path / "x.ckpt"
    ck.save_backbone(path, _TRANSFORMER, Backbone.init(_TRANSFORMER, seed=3).state_arrays())
    return ck.load_backbone(as_format_1(path))


def format_1_prompt(tmp_path):
    path = tmp_path / "x.ckpt"
    ck.save_prompt(path, dim=8, layers=2, mode="deepgpt", p_len=2,
                   token_stage="post_projection", backbone_fingerprint="f",
                   state={"prompt.token": np.zeros(8)})
    return ck.load_prompt(as_format_1(path), dim=8, layers=2)


def stored_config(**changes):
    """A call that loads a backbone file whose header stores ``_MPGNN``'s config
    with ``changes`` applied and a fingerprint of zeros."""
    def call(tmp_path):
        path = tmp_path / "x.ckpt"
        ck._write(path, {"kind": "backbone", "fingerprint": "0" * 64,
                         "config": {**dataclasses.asdict(_MPGNN), **changes}}, {})
        return ck.load_backbone(path)
    return call


def prompt_without_dim(tmp_path):
    path = tmp_path / "x.ckpt"
    ck._write(path, {"kind": "prompt", "layers": 2}, {})
    return ck.load_prompt(path, dim=8, layers=2)


def config_with(replace=None, extra=""):
    """A call that loads ``BASE_CONFIG`` with ``replace`` and ``extra`` applied."""
    return lambda tmp_path: load_config(write_config(tmp_path / "bad.ini", extra, replace))


def config_text(text):
    """A call that loads a config file of ``text``."""
    def call(tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(text, encoding="utf-8")
        return load_config(path)
    return call


def run_command(argv):
    """Run a command as ``main`` does, but let its exception through."""
    args = cli._build_parser().parse_args(argv)
    return args.func(args)


def tune_without_tuning(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text(BASE_CONFIG.split("[tuning]")[0], encoding="utf-8")
    return run_command(["tune", "--config", str(config), "--ckpt", str(tmp_path / "none.ckpt"),
                        "--out", str(tmp_path / "run")])


def report_without_records(tmp_path):
    run = tmp_path / "run"
    (run / "runrecords").mkdir(parents=True)
    (run / "run_meta.json").write_text("{}", encoding="utf-8")
    return run_command(["report", str(run), "--out", str(tmp_path / "rep")])


_RECORD = json.dumps(dataclasses.asdict(training.RunRecord(epoch_seconds=[0.1])))


def report_run(meta='{"mode": "deepgpt"}', record=_RECORD):
    """A call that reports on a run directory whose ``run_meta.json`` holds the
    text ``meta`` and whose one fold record holds the text ``record``."""
    def call(tmp_path):
        run = tmp_path / "run"
        (run / "runrecords").mkdir(parents=True)
        (run / "run_meta.json").write_text(meta, encoding="utf-8")
        (run / "runrecords" / "fold0.json").write_text(record, encoding="utf-8")
        return run_command(["report", str(run), "--out", str(tmp_path / "rep")])
    return call


# Each input check of the checkpoint, config and command layers that no other
# test trips: the call (given a scratch directory), and the exception type and
# the message it starts with, ``{tmp}`` standing for the scratch directory.
INPUT_ERRORS = {
    "checkpoint_truncated_header": (truncated_header, ck.CheckpointError,
                                    "{tmp}/x.ckpt: truncated header"),
    "checkpoint_bad_header": (raw_checkpoint(b"{not json"), ck.CheckpointError,
                              "{tmp}/x.ckpt: bad header (Expecting property name"),
    "checkpoint_version": (raw_checkpoint(header(format_version=3, arrays=[])),
                           ck.CheckpointError, "{tmp}/x.ckpt: unsupported format version 3"),
    "checkpoint_format_1_backbone": (format_1_backbone, ck.CheckpointError,
                                     "{tmp}/x.ckpt: unsupported format version 1"),
    "checkpoint_format_1_prompt": (format_1_prompt, ck.CheckpointError,
                                   "{tmp}/x.ckpt: unsupported format version 1"),
    "checkpoint_truncated_array": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": "w", "shape": [2]}]),
                       bytes(8)),
        ck.CheckpointError, "{tmp}/x.ckpt: truncated array data for w"),
    "checkpoint_trailing_bytes": (raw_checkpoint(header(format_version=2, arrays=[]), b"xy"),
                                  ck.CheckpointError, "{tmp}/x.ckpt: 2 trailing bytes"),
    "checkpoint_prompt_as_backbone": (prompt_as_backbone, ck.CheckpointError,
                                      "{tmp}/x.ckpt: not a backbone checkpoint"),
    "checkpoint_backbone_as_prompt": (backbone_as_prompt, ck.CheckpointError,
                                      "{tmp}/x.ckpt: not a prompt checkpoint"),
    "checkpoint_stale_fingerprint": (stored_config(), ck.CheckpointError,
                                     "{tmp}/x.ckpt: fingerprint does not match stored config"),
    "checkpoint_list_header": (raw_checkpoint(b"[2]"), ck.CheckpointError,
                               "{tmp}/x.ckpt: header is not a JSON object"),
    "checkpoint_no_arrays": (raw_checkpoint(header(format_version=2)), ck.CheckpointError,
                             "{tmp}/x.ckpt: header has no 'arrays' field"),
    "checkpoint_array_without_shape": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": "w"}])),
        ck.CheckpointError, "{tmp}/x.ckpt: header has no 'shape' field"),
    "checkpoint_arrays_not_a_list": (raw_checkpoint(header(format_version=2, arrays=5)),
                                     ck.CheckpointError,
                                     "{tmp}/x.ckpt: header field 'arrays' is not a list"),
    "checkpoint_arrays_an_object": (
        raw_checkpoint(header(format_version=2, arrays={"name": "w", "shape": [2]})),
        ck.CheckpointError, "{tmp}/x.ckpt: header field 'arrays' is not a list"),
    "checkpoint_array_entry_not_an_object": (
        raw_checkpoint(header(format_version=2, arrays=[5])), ck.CheckpointError,
        "{tmp}/x.ckpt: array entry 5 is not an object"),
    "checkpoint_array_name_not_a_string": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": 5, "shape": [2]}]), bytes(16)),
        ck.CheckpointError, "{tmp}/x.ckpt: array name 5 is not a string"),
    "checkpoint_shape_not_a_list": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": "w", "shape": 2}]), bytes(16)),
        ck.CheckpointError, "{tmp}/x.ckpt: array w: shape 2 is not a list of ints"),
    "checkpoint_shape_of_strings": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": "w", "shape": ["a"]}])),
        ck.CheckpointError, "{tmp}/x.ckpt: array w: shape ['a'] is not a list of ints"),
    "checkpoint_negative_shape": (
        raw_checkpoint(header(format_version=2, arrays=[{"name": "w", "shape": [-2]}]),
                       bytes(16)),
        ck.CheckpointError, "{tmp}/x.ckpt: array w: shape [-2] has a negative size"),
    "checkpoint_config_key": (stored_config(colour=1), ck.CheckpointError,
                              "{tmp}/x.ckpt: bad backbone config (BackboneConfig.__init__() "
                              "got an unexpected keyword argument 'colour')"),
    "checkpoint_config_kind": (stored_config(kind="graphnet"), ck.CheckpointError,
                               "{tmp}/x.ckpt: bad backbone config (unknown backbone kind "
                               "'graphnet')"),
    "checkpoint_prompt_without_dim": (prompt_without_dim, ck.CheckpointError,
                                      "{tmp}/x.ckpt: prompt header has no 'dim' or no "
                                      "'layers' field"),
    "backbone_kind": (config_with({"kind = transformer": "kind = graphnet"}), ConfigError,
                      "[backbone]: unknown backbone kind 'graphnet'"),
    "backbone_readout": (config_with({"heads = 2\n": "heads = 2\nreadout = max\n"}),
                         ConfigError, "[backbone]: unknown readout 'max'"),
    "backbone_aggregation": (config_with({"heads = 2\n": "heads = 2\naggregation = min\n"}),
                             ConfigError, "[backbone]: unknown aggregation 'min'"),
    "backbone_layers": (config_with({"layers = 2": "layers = 0"}), ConfigError,
                        "[backbone]: need at least one layer"),
    "backbone_heads": (config_with({"dim = 8": "dim = 9"}), ConfigError,
                       "[backbone]: dim 9 not divisible by 2 heads"),
    "backbone_feature_dim": (config_with({"feature_dim = 4": "feature_dim = 0"}), ConfigError,
                             "[backbone]: feature_dim and dim must be positive"),
    "task_two_sources": (config_with({"count = 24": "count = 24\ngraph_file = x.gr"}),
                         ConfigError, "[task]: task needs exactly one of 'generator' or "
                                      "'graph_file'"),
    "task_generator": (config_with({"generator = motif_presence": "generator = clique"}),
                       ConfigError, "[task]: unknown generator 'clique'; expected one of "
                                    "('motif_presence', 'community_count', 'multi_motif')"),
    "task_nodes": (config_with({"max_nodes = 8\n\n[pretrain]": "max_nodes = 4\n\n[pretrain]"}),
                   ConfigError, "[task]: min_nodes must not exceed max_nodes"),
    "ablate_axis": (config_with(extra="\n[ablate]\naxis = width\nlengths = 2\n"),
                    ConfigError, "[ablate]: unknown ablation axis 'width'"),
    "ablate_component": (config_with(extra="\n[ablate]\naxis = component\n"
                                           "components = deepgpt, magic\n"),
                         ConfigError, "[ablate]: unknown component 'magic'"),
    "ablate_empty_grid": (config_with(extra="\n[ablate]\naxis = length\n"), ConfigError,
                          "[ablate]: empty grid for ablation axis 'length'"),
    "experiment_seed": (config_with({"seed = 11": "seed = -1"}), ConfigError,
                        "[experiment]: seed must not be negative, got -1"),
    "bad_boolean": (config_with({"degree_embed = true": "degree_embed = maybe"}), ConfigError,
                    "[backbone] degree_embed: expected a boolean, got 'maybe'"),
    "bad_interval": (config_with({"p_len = 2": "p_len = 2\nprompted_layers = 1"}),
                     ConfigError, "[tuning] prompted_layers: expected 'a-b' interval, got '1'"),
    "unparsable_value": (config_with({"dim = 8": "dim = eight"}), ConfigError,
                         "[backbone] dim: invalid literal for int() with base 10: 'eight'"),
    "malformed_file": (config_text("dim = 8\n"), ConfigError,
                       "{tmp}/bad.ini: File contains no section headers."),
    "missing_backbone": (config_text("[experiment]\nseed = 1\n"), ConfigError,
                         "missing required section [backbone]"),
    "command_needs_section": (tune_without_tuning, ConfigError,
                              "tune needs a [tuning] section"),
    "report_no_fold_records": (report_without_records, DataError,
                               "{tmp}/run: no fold records"),
    "report_record_not_json": (report_run(record="{1: 2}"), DataError,
                               "{tmp}/run/runrecords/fold0.json: not JSON (Expecting property"),
    "report_meta_not_an_object": (report_run(meta='["deepgpt"]'), DataError,
                                  "{tmp}/run/run_meta.json: not a JSON object with at least "
                                  "the fields ['mode']"),
    "report_meta_without_mode": (report_run(meta='{"seed": 1}'), DataError,
                                 "{tmp}/run/run_meta.json: not a JSON object with at least "
                                 "the fields ['mode']"),
    "report_record_unknown_field": (
        report_run(record=_RECORD[:-1] + ', "colour": 1}'), DataError,
        "{tmp}/run/runrecords/fold0.json: not a JSON object with exactly the fields "
        "['epoch_seconds', 'epochs_to_best', 'eval_metrics', 'train_losses']"),
    "report_record_missing_field": (
        report_run(record='{"epochs_to_best": 1}'), DataError,
        "{tmp}/run/runrecords/fold0.json: not a JSON object with exactly the fields"),
    "report_meta_mode_not_a_string": (report_run(meta='{"mode": ["x"]}'), DataError,
                                      "{tmp}/run/run_meta.json: mode is not a string"),
    "report_record_seconds_not_a_list": (
        report_run(record=_RECORD.replace('"epoch_seconds": [0.1]', '"epoch_seconds": 5')),
        DataError, "{tmp}/run/runrecords/fold0.json: epoch_seconds is not a list of numbers"),
    "report_record_seconds_of_strings": (
        report_run(record=_RECORD.replace('"epoch_seconds": [0.1]', '"epoch_seconds": ["a"]')),
        DataError, "{tmp}/run/runrecords/fold0.json: epoch_seconds is not a list of numbers"),
    "report_record_epochs_to_best_not_an_int": (
        report_run(record=_RECORD.replace('"epochs_to_best": 0', '"epochs_to_best": 1.5')),
        DataError, "{tmp}/run/runrecords/fold0.json: epochs_to_best is not an integer"),
    "report_run_without_epoch_seconds": (
        report_run(record=_RECORD.replace('"epoch_seconds": [0.1]', '"epoch_seconds": []')),
        DataError, "{tmp}/run: every fold record has an empty epoch_seconds"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_check_names_its_cause(name, tmp_path):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value).startswith(message.format(tmp=tmp_path))
