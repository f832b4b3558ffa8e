"""Acceptance criteria, one test per criterion.

Each test prints one `[ACCEPTANCE n] ...: PASS|FAIL` line (visible with
``pytest -s``) and then asserts. Criterion 8 is the slow one (several
minutes); everything else completes in seconds. Criterion 6 checks the
parameter budget on a 768-wide, 12-layer backbone over the prefix-length
grid 10..110: the frozen and trainable counts must equal their hand-written
closed forms at every grid point, and the trainable share must stay below
0.5% wherever that closed form puts it below. On this backbone the 0.5%
bound stops at p_len 46, so it is asserted at 10, 20, 30 and 40 only.
"""

import itertools
import time

import numpy as np

from gpt_lab import checkpoint as ck
from gpt_lab.cli import ABLATE_CSV_FIELDS, main
from gpt_lab.graphs import GraphSample, gen_downstream, gen_pretext
from gpt_lab.models import (
    Backbone,
    BackboneConfig,
    PredictionHead,
    backbone_forward,
    encode_graphs,
    encode_nodes,
)
from gpt_lab.prompt import (
    PromptSet,
    apply_graph_prompt,
    build_registry,
    count_params,
    init_prompts,
)
from gpt_lab.tensor import Tape, Tensor, add, backward, bce_with_logits, matmul, pool_rows
from gpt_lab.training import (
    AdamW,
    TuningConfig,
    auroc,
    average_precision,
    clip_global_norm,
    pretrain,
    train,
)

from csv_rows import read_csv


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE {criterion}] {label}: {status}{suffix}")


def random_graph(n, p, rng, d=4, label=(1.0,)):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return GraphSample(n, rng.normal(size=(n, d)), tuple(edges), np.array(label))


# ---------------------------------------------------------------------------
# 1. Gradient correctness of the full prompted forward
# ---------------------------------------------------------------------------


def test_01_gradient_correctness_full_deepgpt_forward():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=16, heads=4,
                         layers=3, ffn_mult=2, rwpe_steps=3, degree_embed=True,
                         max_degree=4)
    bb = Backbone.init(cfg, seed=11)
    head = PredictionHead.init(cfg.dim, 1, seed=11)
    prompts = init_prompts("deepgpt", cfg, p_len=4, seed=11)
    build_registry(bb, head, prompts)
    g = random_graph(6, 0.5, rng)
    prepared = encode_graphs([g], cfg)
    ctx = prompts.check(bb.cfg)
    labels = np.array([g.label])

    def loss_value() -> float:
        out = head.forward(backbone_forward(prepared, bb, group=[(ctx, prepared.size)]))
        return float(bce_with_logits(out, labels).data)

    with Tape():
        out = head.forward(backbone_forward(prepared, bb, group=[(ctx, prepared.size)]))
        grads = backward(bce_with_logits(out, labels))

    trainable = {**prompts.named_params(), **head.named_params()}
    h = 1e-5
    worst = 0.0
    for name, t in trainable.items():
        fd = np.zeros_like(t.data)
        flat = t.data.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
        scale = max(float(np.abs(fd).max()), 1e-8)
        rel = float(np.abs(grads[t] - fd).max()) / scale
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 60.0
    report(1, "DeepGPT gradients vs central finite differences", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Freeze soundness over 100 optimization steps
# ---------------------------------------------------------------------------


def test_02_freeze_soundness_100_steps(tmp_path):
    cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=16, heads=2,
                         layers=2, ffn_mult=2, rwpe_steps=3)
    source = Backbone.init(cfg, seed=21)
    ckpt = tmp_path / "frozen.ckpt"
    ck.save_backbone(ckpt, cfg, source.state_arrays())
    loaded_cfg, loaded_state = ck.load_backbone(ckpt)

    bb = Backbone.from_state(loaded_cfg, loaded_state)
    head = PredictionHead.init(cfg.dim, 1, seed=22)
    prompts = init_prompts("deepgpt", cfg, p_len=3, seed=22)
    registry = build_registry(bb, head, prompts)
    opt = AdamW(registry.trainable, weight_decay=1e-4)
    data = gen_downstream(16, "motif_presence", seed=23, size_range=(5, 8))
    prepared = encode_graphs(data, cfg)
    ctx = prompts.check(bb.cfg)
    labels = np.array([g.label for g in data])

    keys_ok = True
    for _ in range(100):
        with Tape():
            out = head.forward(backbone_forward(prepared, bb, group=[(ctx, prepared.size)]))
            grads = backward(bce_with_logits(out, labels))
        got = {id(t) for t in grads}
        want = {id(t) for t in registry.trainable.values()}
        keys_ok = keys_ok and got == want
        named = {name: grads[t] for name, t in registry.trainable.items()}
        opt.step(registry.trainable, clip_global_norm(named), lr_t=3e-3)

    after = bb.state_arrays()
    frozen_ok = all(np.array_equal(after[name], loaded_state[name])
                    for name in loaded_state)
    report(2, "frozen params bit-identical after 100 steps; grad keys = trainables",
           frozen_ok and keys_ok)
    assert frozen_ok
    assert keys_ok


# ---------------------------------------------------------------------------
# 3. No-op soundness of the empty prompt set
# ---------------------------------------------------------------------------


def test_03_empty_prompt_set_reproduces_backbone_exactly():
    rng = np.random.default_rng(31)
    cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=16, heads=2,
                         layers=3, ffn_mult=2, rwpe_steps=4, degree_embed=True)
    bb = Backbone.init(cfg, seed=32)
    head = PredictionHead.init(cfg.dim, 1, seed=32)
    graphs = [random_graph(int(rng.integers(4, 9)), 0.5, rng) for _ in range(6)]
    prepared = encode_graphs(graphs, cfg)
    plain = head.forward(backbone_forward(prepared, bb)).data
    empty_ctx = PromptSet().check(bb.cfg)
    via_prompt = head.forward(backbone_forward(prepared, bb,
                                               group=[(empty_ctx, prepared.size)])).data
    max_err = float(np.abs(plain - via_prompt).max())
    report(3, "empty prompt set is an exact no-op", max_err == 0.0,
           f"max |diff| = {max_err}")
    assert np.array_equal(plain, via_prompt)


# ---------------------------------------------------------------------------
# 4. Prefix injection == virtual token nodes on a full-attention transformer
# ---------------------------------------------------------------------------


def test_04_prefix_equals_virtual_nodes():
    rng = np.random.default_rng(41)
    cfg = BackboneConfig(kind="transformer", feature_dim=4, dim=16, heads=4,
                         layers=3, ffn_mult=2, rwpe_steps=3)
    bb = Backbone.init(cfg, seed=42)
    worst = 0.0
    for trial in range(5):
        g = random_graph(int(rng.integers(4, 9)), 0.5, rng)
        prepared = encode_graphs([g], cfg)
        values = rng.normal(size=(4, cfg.dim))
        prefix_ctx = PromptSet(prefixes={0: Tensor(values.copy(), requires_grad=True)})
        virtual_ctx = PromptSet(virtual_tokens=Tensor(values.copy(), requires_grad=True))
        h_p, _ = encode_nodes(prepared, bb, group=[(prefix_ctx, prepared.size)])
        h_v, _ = encode_nodes(prepared, bb, group=[(virtual_ctx, prepared.size)])
        assert h_p.shape == h_v.shape == (g.n, cfg.dim)     # node rows only
        worst = max(worst, float(np.abs(h_p.data - h_v.data).max()))
    report(4, "prefix injection vs virtual token nodes on real-node outputs",
           worst <= 1e-10, f"max |diff| = {worst:.2e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 5. Constant-shift prompt instance on a linear model
# ---------------------------------------------------------------------------


def test_05_shift_case_prompt_equivalence():
    rng = np.random.default_rng(51)
    d_raw, d_model = 4, 8
    w = Tensor(rng.normal(size=(d_raw, d_model)))
    b = Tensor(rng.normal(size=d_model))
    head_w = Tensor(rng.normal(size=(d_model, 1)))

    def linear_model(x_np: np.ndarray) -> np.ndarray:
        h = add(matmul(Tensor(x_np), w), b)
        pooled = pool_rows(h, [0, x_np.shape[0]], "sum")
        return matmul(Tensor(pooled.data), head_w).data

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 12))
        g = random_graph(n, 0.4, rng, d=d_raw)
        c = rng.normal(size=d_raw)
        token = Tensor(c[None])
        prompted = apply_graph_prompt(Tensor(g.features), token,
                                      np.zeros(n, dtype=np.intp)).data
        shifted = g.features + c
        worst = max(worst, float(np.abs(linear_model(prompted)
                                        - linear_model(shifted)).max()))
    report(5, "p* = c reproduces the constant feature shift on 100 graphs",
           worst <= 1e-10, f"max |diff| = {worst:.2e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 6. Parameter-ratio claim at the published backbone scale
# ---------------------------------------------------------------------------


def test_06_parameter_ratio_at_large_scale():
    d, n_layers, ffn, in_width, max_degree = 768, 12, 4, 9 + 16, 8
    cfg = BackboneConfig(kind="transformer", feature_dim=9, dim=d, heads=32,
                         layers=n_layers, ffn_mult=ffn, rwpe_steps=16, degree_embed=True,
                         max_degree=max_degree)
    bb = Backbone.init(cfg, seed=61)
    head = PredictionHead.init(cfg.dim, 1, seed=61)

    # Frozen backbone by hand: input projection weight and bias, degree
    # table, then per layer the q/k/v/out weights (4d^2: 32 heads of width d/32),
    # the out bias, both FFN weights and biases, and two layer-norm
    # gain/bias pairs. At this scale it is 85,053,696.
    frozen_want = (in_width * d + d + (max_degree + 1) * d
                   + n_layers * (4 * d * d + d + 2 * d * ffn * d + ffn * d + d + 4 * d))

    def trainable_want(p_len):
        # A (p_len, d) prefix per layer, the graph token, and the head (d + 1).
        return p_len * d * n_layers + 2 * d + 1

    def ratio_want(p_len):
        return trainable_want(p_len) / (frozen_want + trainable_want(p_len))

    grid = range(10, 111, 10)
    bounded = [p for p in grid if ratio_want(p) < 0.005]
    # Largest p_len whose closed-form ratio is below 0.5%: 199 * trainable < frozen.
    crossover = ((frozen_want - 1) // 199 - (2 * d + 1)) // (d * n_layers)

    rows = []
    counts_ok = bound_ok = True
    for p_len in grid:
        prompts = init_prompts("deepgpt", cfg, p_len=p_len, seed=61)
        counts = count_params(build_registry(bb, head, prompts))
        exact = (counts["frozen_count"] == frozen_want
                 and counts["trainable_count"] == trainable_want(p_len)
                 and counts["ratio"] == ratio_want(p_len))
        counts_ok = counts_ok and exact
        if p_len in bounded:
            under = counts["ratio"] < 0.005
            bound_ok = bound_ok and under
            verdict = "< 0.005 ok" if under else "EXCEEDS 0.005"
        else:
            verdict = "above 0.005 by closed form, bound not asserted"
        rows.append(f"p_len={p_len}: frozen={counts['frozen_count']} "
                    f"trainable={counts['trainable_count']} ratio={counts['ratio']:.5f} "
                    f"{'exact' if exact else 'COUNT MISMATCH'}; {verdict}")
    set_ok = bounded == [10, 20, 30, 40]
    ok = counts_ok and bound_ok and set_ok
    report(6, "frozen and trainable (p_len*d*L + 2d + 1) counts equal their closed "
              "forms for p_len in {10..110}; ratio < 0.5% wherever the closed form "
              "puts it below",
           ok, f"frozen closed form {frozen_want}; bound holds for p_len <= {crossover}, "
               f"asserted at {bounded}")
    for line in rows:
        print("   ", line)
    assert counts_ok, "parameter counts differ from the closed form (see printed table)"
    assert set_ok, f"closed form bounds p_len {bounded}, expected [10, 20, 30, 40]"
    assert bound_ok, "ratio bound violated where the closed form allows it"


# ---------------------------------------------------------------------------
# 7. Metric oracles
# ---------------------------------------------------------------------------


def _oracle_auroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p, n in itertools.product(pos, neg):
        wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def _oracle_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / labels.sum()


def test_07_metric_oracles_1000_instances():
    rng = np.random.default_rng(71)
    worst_auc = worst_ap = 0.0
    done_auc = done_ap = 0
    while done_auc < 1000 or done_ap < 1000:
        n = int(rng.integers(4, 40))
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        if done_auc < 1000 and 0 < labels.sum() < n:
            worst_auc = max(worst_auc, abs(auroc(scores, labels)
                                           - _oracle_auroc(scores, labels)))
            done_auc += 1
        if done_ap < 1000 and labels.sum() > 0:
            worst_ap = max(worst_ap, abs(average_precision(scores, labels)
                                         - _oracle_ap(scores, labels)))
            done_ap += 1
    ok = worst_auc <= 1e-12 and worst_ap <= 1e-12
    report(7, "AUROC / AP vs brute-force oracles on 1000 instances each", ok,
           f"worst auroc err {worst_auc:.2e}, worst ap err {worst_ap:.2e}")
    assert worst_auc <= 1e-12
    assert worst_ap <= 1e-12


# ---------------------------------------------------------------------------
# 8. End-to-end protocol: pretrain, then 5-fold tuning in two regimes
# ---------------------------------------------------------------------------

E2E_BACKBONE = BackboneConfig(kind="transformer", feature_dim=4, dim=32, heads=2,
                              layers=3, ffn_mult=2, readout="mean", rwpe_steps=6,
                              degree_embed=True, max_degree=6)
E2E_SEED = 1009


def _e2e_tuning(mode: str) -> TuningConfig:
    return TuningConfig(mode=mode, metric="auroc", p_len=4, epochs=3,
                        warmup_epochs=1, lr=3e-3, batch_size=16, folds=5)


def test_08_end_to_end_protocol():
    started = time.perf_counter()
    pretext = gen_pretext(2000, (5, 9), seed=E2E_SEED)
    state, pre_record = pretrain(pretext, E2E_BACKBONE, seed=E2E_SEED, epochs=6,
                                 lr=1e-3, batch_size=40, warmup_epochs=1)
    downstream = gen_downstream(1000, "motif_presence", seed=E2E_SEED + 1,
                                size_range=(5, 9))
    deep_means, light_means = [], []
    for s in range(5):
        seed = 3000 + s
        deep = train(_e2e_tuning("deepgpt"), downstream, E2E_BACKBONE, state,
                     seed=seed, parallel=2)
        light = train(_e2e_tuning("lightweight"), downstream, E2E_BACKBONE, state,
                      seed=seed, parallel=2)
        deep_means.append(float(np.mean([r.final_metric for r in deep])))
        light_means.append(float(np.mean([r.final_metric for r in light])))
    elapsed = time.perf_counter() - started
    deep_mean = float(np.mean(deep_means))
    light_mean = float(np.mean(light_means))
    ok = deep_mean >= 0.85 and deep_mean > light_mean and elapsed < 900.0
    report(8, "pretrain + 5-fold tuning protocol", ok,
           f"pretext RMSE {pre_record.eval_metrics[-1]:.3f}, "
           f"deepgpt {deep_mean:.3f} (per-seed {[round(v, 3) for v in deep_means]}), "
           f"lightweight {light_mean:.3f}, {elapsed:.0f}s")
    assert deep_mean >= 0.85
    assert deep_mean > light_mean
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 9. Ablation machinery: depth and length sweeps
# ---------------------------------------------------------------------------

SWEEP_CONFIG = """\
[experiment]
seed = 91

[backbone]
kind = transformer
feature_dim = 4
dim = 16
heads = 2
layers = 3
ffn_mult = 2
rwpe_steps = 4
degree_embed = true
max_degree = 4

[task]
generator = motif_presence
count = 40
min_nodes = 5
max_nodes = 8

[pretrain]
count = 40
min_nodes = 4
max_nodes = 8
epochs = 1
warmup_epochs = 0
batch_size = 16

[tuning]
mode = deepgpt
metric = auroc
p_len = 4
epochs = 1
warmup_epochs = 0
batch_size = 8
folds = 5

[ablate]
axis = {axis}
{grid}
"""


def test_09_ablation_sweeps(tmp_path):
    pre_dir = tmp_path / "pre"
    depth_cfg = tmp_path / "depth.ini"
    depth_cfg.write_text(SWEEP_CONFIG.format(
        axis="depth", grid="depth_intervals = 0-0,1-1,2-2"))
    assert main(["pretrain", "--config", str(depth_cfg), "--out", str(pre_dir)]) == 0
    ckpt = str(pre_dir / "backbone.ckpt")

    depth_out = tmp_path / "depth"
    assert main(["ablate", "--config", str(depth_cfg), "--ckpt", ckpt,
                 "--out", str(depth_out)]) == 0
    depth_rows = read_csv(depth_out / "ablate_depth.csv", ABLATE_CSV_FIELDS)
    depth_ok = [r["cell"] for r in depth_rows] == ["0-0", "1-1", "2-2"] \
        and all(np.isfinite(float(r["mean"])) for r in depth_rows)

    length_cfg = tmp_path / "length.ini"
    length_cfg.write_text(SWEEP_CONFIG.format(
        axis="length", grid="lengths = " + ",".join(str(v) for v in range(10, 111, 10))))
    length_out = tmp_path / "length"
    assert main(["ablate", "--config", str(length_cfg), "--ckpt", ckpt,
                 "--out", str(length_out)]) == 0
    length_rows = read_csv(length_out / "ablate_length.csv", ABLATE_CSV_FIELDS)
    counts = [int(r["trainable_params"]) for r in length_rows]
    length_ok = len(length_rows) == 11 and counts == sorted(counts) \
        and counts[0] < counts[-1] \
        and all(np.isfinite(float(r["mean"])) for r in length_rows)

    report(9, "depth and length sweeps emit well-formed CSVs",
           depth_ok and length_ok,
           f"depth rows {len(depth_rows)}, length rows {len(length_rows)}")
    assert depth_ok
    assert length_ok


# ---------------------------------------------------------------------------
# 10. Determinism of every command under a fixed seed
# ---------------------------------------------------------------------------

DET_CONFIG = SWEEP_CONFIG.format(axis="component",
                                 grid="components = lightweight,deepgpt")


def test_10_repeat_runs_are_bit_identical(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(DET_CONFIG)

    pre_a, pre_b = tmp_path / "pre_a", tmp_path / "pre_b"
    assert main(["pretrain", "--config", str(config), "--out", str(pre_a)]) == 0
    assert main(["pretrain", "--config", str(config), "--out", str(pre_b)]) == 0
    pretrain_ok = (pre_a / "backbone.ckpt").read_bytes() \
        == (pre_b / "backbone.ckpt").read_bytes()

    ckpt = str(pre_a / "backbone.ckpt")
    tune_a, tune_b = tmp_path / "tune_a", tmp_path / "tune_b"
    for out in (tune_a, tune_b):
        assert main(["tune", "--config", str(config), "--ckpt", ckpt,
                     "--out", str(out)]) == 0
    tune_ok = all((tune_a / name).read_bytes() == (tune_b / name).read_bytes()
                  for name in ("metrics.csv", "fold_metrics.csv", "prompt.ckpt"))

    abl_a, abl_b = tmp_path / "abl_a", tmp_path / "abl_b"
    for out in (abl_a, abl_b):
        assert main(["ablate", "--config", str(config), "--ckpt", ckpt,
                     "--out", str(out)]) == 0
    ablate_ok = (abl_a / "ablate_component.csv").read_bytes() \
        == (abl_b / "ablate_component.csv").read_bytes()

    rep_a, rep_b = tmp_path / "rep_a", tmp_path / "rep_b"
    for out in (rep_a, rep_b):
        assert main(["report", str(tune_a), "--out", str(out)]) == 0
    report_ok = (rep_a / "report.csv").read_bytes() == (rep_b / "report.csv").read_bytes()

    ok = pretrain_ok and tune_ok and ablate_ok and report_ok
    report(10, "repeated commands produce bit-identical CSVs and checkpoints", ok,
           f"pretrain={pretrain_ok} tune={tune_ok} ablate={ablate_ok} report={report_ok}")
    assert pretrain_ok
    assert tune_ok
    assert ablate_ok
    assert report_ok
