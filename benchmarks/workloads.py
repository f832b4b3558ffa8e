"""The benchmark's workloads, driven through gpt_lab's public entry points.

Each workload has a ``setup`` (data generation and the pretraining the
workload starts from) and a ``round``: one pass of its protocol. Every
round does the same amount of work with a different training seed. A
round records its work as timed intervals (an epoch, the rest of a
``train``/``pretrain`` call outside its epochs, one store, one reload
and score), each with the slowdown factor that the reference
computation measured around it (see ``reference.py``), plus the
per-operation correctness verdicts and the values that a traced run
must reproduce bit for bit. An operation is one fold or one pretrain.

Why these three workloads:
- ``tune_b16`` is the paper's protocol at reduced scale: many small train
  steps plus large flattened eval batches, where frozen-backbone caching
  and the prompt refactor act.
- ``pretrain_b160`` trains every parameter on flattened batches of ~1100
  rows, where the R x R attention and the backward pass dominate and
  frozen caching cannot apply.
- ``mpgnn_vn_b16`` runs no attention at all; it is the only workload that
  covers the MPGNN half of ``models``.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gpt_lab import checkpoint, graphs, training
from gpt_lab.models import BackboneConfig
from gpt_lab.training import TuningConfig

SIZE_RANGE = (5, 9)
# The backbones the tuning workloads start from are pretrained from a
# fixed seed, like a published checkpoint, so that their quality does not
# vary between runs; the workload seed draws the graphs and every
# training seed.
BACKBONE_SEED = 1009
SETUP_PRETEXT = dict(count=600, epochs=5, lr=2e-3, batch_size=40, warmup_epochs=1)
DOWNSTREAM_COUNT = 300
FOLDS = 5

# Interval groups: training (epochs, and the rest of each train/pretrain
# call), scoring (reload plus evaluate_fold) and storing (save_prompt).
TRAIN, SCORE, STORE = "train", "score", "store"
# Interval types with this prefix belong to pretrain_b160's probe, which
# stays out of the round's wall time and training rate.
PROBE = "probe"


def backbone_config(kind: str = "transformer", aggregation: str = "sum") -> BackboneConfig:
    return BackboneConfig(kind=kind, feature_dim=4, dim=32, heads=2, layers=3,
                          ffn_mult=2, readout="mean", rwpe_steps=6,
                          degree_embed=True, max_degree=6, aggregation=aggregation)


def tuning_config(mode: str, **overrides) -> TuningConfig:
    params = dict(mode=mode, metric="auroc", p_len=4, epochs=3, warmup_epochs=1,
                  lr=3e-3, batch_size=16, folds=FOLDS)
    params.update(overrides)
    return TuningConfig(**params)


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class RoundResult:
    wall_s: float = 0.0                                        # as measured
    # (type, group, seconds as measured, graphs, slowdown factor)
    intervals: list[tuple[str, str, float, int, float]] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)   # primary series, corrected
    quality: list[float] = field(default_factory=list)         # fold AUROCs
    rmse: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    replay: list[float] = field(default_factory=list)          # must repeat bit for bit
    backbone: tuple | None = None                              # pretrain output

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def add_call(self, label: str, call_s: float, epoch_seconds, graphs_per_epoch: int,
                 factor: float) -> None:
        """Record a train/pretrain call as its epochs plus the time outside them."""
        for t in epoch_seconds:
            self.intervals.append((f"{label}.epoch", TRAIN, t, graphs_per_epoch, factor))
        self.intervals.append((f"{label}.outside_epochs", TRAIN,
                               call_s - sum(epoch_seconds), 0, factor))

    def corrected(self, include) -> tuple[float, int]:
        """Seconds at full speed and graphs of the intervals ``include`` admits."""
        seconds, graphs = 0.0, 0
        for kind, group, measured, n, factor in self.intervals:
            if include(kind, group):
                seconds += measured / factor
                graphs += n
        return seconds, graphs

    def wall(self) -> float:
        """The round's time at full speed; a probe is not part of the round."""
        return self.corrected(lambda kind, group: not kind.startswith(PROBE))[0]

    def training(self) -> tuple[float, int]:
        return self.corrected(lambda kind, group: group == TRAIN and not kind.startswith(PROBE))

    def scoring(self) -> tuple[float, int]:
        return self.corrected(lambda kind, group: group == SCORE)


@dataclass
class Setup:
    seconds: float
    backbones: dict            # name -> (BackboneConfig, state)
    rmse: list[float]          # holdout RMSE of each setup pretrain
    downstream: list
    pretext: list


def _downstream(seed: int):
    return graphs.gen_downstream(DOWNSTREAM_COUNT, "motif_presence", seed=seed,
                                 size_range=SIZE_RANGE)


def _timed_setup(make, ref) -> Setup:
    """Run a set-up and store its duration at full speed in ``seconds``."""
    before = ref.factor()
    started = time.perf_counter()
    setup = make()
    measured = time.perf_counter() - started
    setup.seconds = measured / ((before + ref.factor()) / 2)
    return setup


def _setup_tuning(cfgs: dict, seed: int) -> Setup:
    pretext = graphs.gen_pretext(SETUP_PRETEXT["count"], SIZE_RANGE, seed=BACKBONE_SEED)
    backbones, rmses = {}, []
    for name, cfg in cfgs.items():
        state, record = training.pretrain(
            pretext, cfg, seed=BACKBONE_SEED, epochs=SETUP_PRETEXT["epochs"],
            lr=SETUP_PRETEXT["lr"], batch_size=SETUP_PRETEXT["batch_size"],
            warmup_epochs=SETUP_PRETEXT["warmup_epochs"])
        backbones[name] = (cfg, state)
        rmses.append(record.eval_metrics[-1])
    return Setup(0.0, backbones, rmses, _downstream(seed), [])


def _tune_and_score(res: RoundResult, ref, label: str, cfg: TuningConfig, data, bb_cfg,
                    bb_state, seed: int, tmpdir: Path) -> list | None:
    """train() one regime, then store, reload and score every fold's prompt."""
    res.attempted += cfg.folds
    before = ref.factor()
    try:
        started = time.perf_counter()
        folds = training.train(cfg, data, bb_cfg, bb_state, seed=seed, parallel=1)
        call_s = time.perf_counter() - started
    except Exception:
        traceback.print_exc()
        for fold in range(cfg.folds):
            res.fail(f"{label} fold {fold}: train raised")
        return None
    trained = ref.factor()
    n_eval = len(data) // cfg.folds
    res.add_call(label, call_s, [t for f in folds for t in f.record.epoch_seconds],
                 len(data) - n_eval, (before + trained) / 2)
    fingerprint = checkpoint.fingerprint(bb_cfg)
    factor = trained
    for fr in folds:
        rec = fr.record
        res.replay += rec.train_losses + rec.eval_metrics + [fr.final_metric]
        if not _finite(rec.train_losses + rec.eval_metrics + [fr.final_metric]):
            res.fail(f"{label} fold {fr.fold}: non-finite loss or metric")
            continue
        try:
            path = tmpdir / f"{label}-{fr.fold}.ckpt"
            started = time.perf_counter()
            checkpoint.save_prompt(path, dim=bb_cfg.dim, layers=bb_cfg.layers,
                                   mode=cfg.mode, p_len=cfg.p_len,
                                   token_stage=cfg.token_stage,
                                   backbone_fingerprint=fingerprint, state=fr.prompt_state)
            stored_at = time.perf_counter()
            _, stored = checkpoint.load_prompt(path, dim=bb_cfg.dim, layers=bb_cfg.layers)
            score = training.evaluate_fold(cfg, data, bb_cfg, bb_state, stored, seed, fr.fold)
            scored_at = time.perf_counter()
        except Exception:
            traceback.print_exc()
            res.fail(f"{label} fold {fr.fold}: store/reload/score raised")
            continue
        before, factor = factor, ref.factor()
        around = (before + factor) / 2
        res.intervals.append((f"{label}.store", STORE, stored_at - started, 0, around))
        res.intervals.append((f"{label}.score", SCORE, scored_at - stored_at, n_eval, around))
        res.replay.append(score)
        if score != fr.final_metric:
            res.fail(f"{label} fold {fr.fold}: reloaded prompt scores {score!r}, "
                     f"training recorded {fr.final_metric!r}")
    return folds


def _epochs(res: RoundResult, kind: str) -> list[float]:
    """Corrected durations of one series of epochs."""
    return [t / f for k, _, t, _, f in res.intervals if k == kind]


class TuneB16:
    name = "tune_b16"
    reference = "small_ops"
    modes = ("deepgpt", "lightweight")

    def setup(self, seed: int, ref) -> Setup:
        return _timed_setup(lambda: _setup_tuning({"transformer": backbone_config()}, seed),
                            ref)

    def round(self, setup: Setup, seed: int, r: int, tmpdir: Path, ref) -> RoundResult:
        res = RoundResult(rmse=list(setup.rmse))
        bb_cfg, state = setup.backbones["transformer"]
        started = time.perf_counter()
        means = {}
        for mode in self.modes:
            folds = _tune_and_score(res, ref, mode, tuning_config(mode), setup.downstream,
                                    bb_cfg, state, round_seed(seed, r), tmpdir)
            if folds is not None:
                means[mode] = sum(f.final_metric for f in folds) / len(folds)
                if mode == "deepgpt":
                    res.quality = [f.final_metric for f in folds]
                    res.epoch_seconds = _epochs(res, f"{mode}.epoch")
        res.wall_s = time.perf_counter() - started
        if len(means) == 2 and not means["deepgpt"] > means["lightweight"]:
            res.fail(f"deepgpt AUROC {means['deepgpt']:.4f} is not above "
                     f"lightweight {means['lightweight']:.4f}")
        return res


class MpgnnVnB16:
    name = "mpgnn_vn_b16"
    reference = "small_ops"
    aggregations = ("sum", "max")
    primary = "max"

    def setup(self, seed: int, ref) -> Setup:
        return _timed_setup(lambda: _setup_tuning(
            {agg: backbone_config("mpgnn", agg) for agg in self.aggregations}, seed), ref)

    def round(self, setup: Setup, seed: int, r: int, tmpdir: Path, ref) -> RoundResult:
        res = RoundResult(rmse=list(setup.rmse))
        cfg = tuning_config("virtual_node", epochs=5, lr=1e-2)
        started = time.perf_counter()
        for agg in self.aggregations:
            bb_cfg, state = setup.backbones[agg]
            label = f"virtual_node-{agg}"
            folds = _tune_and_score(res, ref, label, cfg, setup.downstream,
                                    bb_cfg, state, round_seed(seed, r), tmpdir)
            if folds is not None:
                res.quality += [f.final_metric for f in folds]
                if agg == self.primary:
                    res.epoch_seconds = _epochs(res, f"{label}.epoch")
        res.wall_s = time.perf_counter() - started
        return res


class PretrainB160:
    name = "pretrain_b160"
    reference = "attention"
    count = 400
    epochs = 8
    batch_size = 160
    eval_fraction = 0.2      # 80 holdout graphs, 320 train graphs: two full batches

    def setup(self, seed: int, ref) -> Setup:
        def make():
            pretext = graphs.gen_pretext(self.count, SIZE_RANGE, seed=seed)
            return Setup(0.0, {}, [], _downstream(seed), pretext)
        return _timed_setup(make, ref)

    def round(self, setup: Setup, seed: int, r: int, tmpdir: Path, ref) -> RoundResult:
        res = RoundResult(attempted=1)
        bb_cfg = backbone_config()
        before = ref.factor()
        started = time.perf_counter()
        try:
            state, record = training.pretrain(
                setup.pretext, bb_cfg, seed=round_seed(seed, r), epochs=self.epochs,
                lr=3e-3, batch_size=self.batch_size, warmup_epochs=1,
                eval_fraction=self.eval_fraction)
        except Exception:
            traceback.print_exc()
            res.fail("pretrain raised")
            return res
        res.wall_s = time.perf_counter() - started
        n_eval = max(1, int(round(self.count * self.eval_fraction)))
        res.add_call("pretrain", res.wall_s, record.epoch_seconds, self.count - n_eval,
                     (before + ref.factor()) / 2)
        res.epoch_seconds = _epochs(res, "pretrain.epoch")
        res.rmse = [record.eval_metrics[-1]]
        res.replay = record.train_losses + record.eval_metrics
        if not _finite(res.replay):
            res.fail("pretrain: non-finite loss or RMSE")
        res.backbone = (bb_cfg, state)
        return res

    def probe(self, setup: Setup, res: RoundResult, seed: int, r: int,
              tmpdir: Path, ref) -> None:
        """Linear probe of this round's backbone: lightweight tuning, then store,
        reload and score. It gives the workload its AUROC and scoring rate."""
        if res.backbone is None:
            return
        bb_cfg, state = res.backbone
        res.backbone = None
        cfg = tuning_config("lightweight", epochs=5, lr=1e-2)
        folds = _tune_and_score(res, ref, PROBE, cfg, setup.downstream, bb_cfg, state,
                                round_seed(seed, r), tmpdir)
        if folds is not None:
            res.quality = [f.final_metric for f in folds]


WORKLOADS = {w.name: w for w in (TuneB16(), PretrainB160(), MpgnnVnB16())}
