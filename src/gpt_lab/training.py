"""Optimizer, schedule, losses, metrics and the cross-validated training loop.

One ``train`` call runs a tuning regime over k folds against a frozen
backbone checkpoint. ``TuningConfig`` holds its schedule and optimizer
settings, and ``prompt.py`` decides what its mode trains. Everything is
deterministic given the top-level seed: fold assignment, parameter init,
epoch shuffles and therefore every recorded loss. Wall-clock durations
are recorded but never feed back into the computation.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from gpt_lab.graphs import BatchedGraph, DataError, GraphSample, make_folds
from gpt_lab.models import (Backbone, BackboneConfig, PredictionHead, backbone_forward,
                            encode_graphs, first_layer_maxima, load_params)
from gpt_lab.prompt import (MODES, TOKEN_STAGES, FreezeRegistry, PromptSet, build_registry,
                            count_params, init_prompts, trains_backbone)
from gpt_lab.seeding import rng_for
from gpt_lab.tensor import (ContractError, Tape, Tensor, add, backward, bce_with_logits,
                            gather_rows, mul, scale, tsum)

__all__ = [
    "AdamW",
    "TuningConfig",
    "RunRecord",
    "FoldResult",
    "UndefinedMetricError",
    "NonFiniteError",
    "lr_at",
    "mse_loss",
    "rmse",
    "auroc",
    "average_precision",
    "clip_global_norm",
    "steady_heap",
    "train",
    "pretrain_config",
    "METRICS",
]

METRICS = ("auroc", "ap", "rmse")


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class AUROC)."""


class NonFiniteError(ArithmeticError):
    """A training step produced a non-finite loss or gradient."""


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a fixed named parameter set.

    The optimiser owns its parameters' storage: construction copies their
    arrays, in the order of the named map, into one flat buffer, ``flat``,
    and rebinds each tensor's ``data`` to a view of its span, so one pass
    over the buffer steps every parameter. Write into a parameter's array,
    not a new one in its place (``load_params`` writes in place), or the
    tensor no longer sees the steps. The decay multiplies parameters by
    (1 - lr_t * wd) before the moment update is applied, so with wd=0 the
    update equals plain Adam. Every operation is elementwise, so each
    entry gets the bits that a step of its own array alone would give.
    """

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        size = sum(t.data.size for t in params.values())
        self.flat, self._grad = np.empty(size), np.empty(size)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._grad_views = {}           # each name's span of the flat gradient
        start = 0
        for name, t in params.items():
            end = start + t.data.size
            view = self.flat[start:end].reshape(t.shape)
            view[...] = t.data
            t.data = view
            self._grad_views[name] = self._grad[start:end].reshape(t.shape)
            start = end

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr_t: float) -> None:
        """One update of the buffer by ``grads``, keyed like ``params``, the map
        this optimiser was built over, whose tensors view the buffer."""
        if grads.keys() != self._grad_views.keys():
            missing = self._grad_views.keys() - grads.keys()
            extra = grads.keys() - self._grad_views.keys()
            raise ContractError(f"gradient/parameter key mismatch: "
                                f"missing={sorted(missing)}, unexpected={sorted(extra)}")
        for name, g in grads.items():
            self._grad_views[name][...] = g
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        p, g, m, v = self.flat, self._grad, self.m, self.v
        if self.weight_decay:
            p *= 1.0 - lr_t * self.weight_decay
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def lr_at(epoch: float, config: TuningConfig) -> float:
    """The schedule of ``config``: a linear ramp to ``lr`` over its warmup
    epochs, then cosine or linear decay to zero at ``epochs``."""
    if not (0 <= epoch < config.epochs):
        raise ContractError(f"epoch {epoch} outside [0, {config.epochs})")
    if config.warmup_epochs and epoch < config.warmup_epochs:
        return config.lr * epoch / config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    progress = (epoch - config.warmup_epochs) / span
    if config.decay == "cosine":
        return config.lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    return config.lr * (1.0 - progress)


# ---------------------------------------------------------------------------
# Losses and metrics
# ---------------------------------------------------------------------------


def mse_loss(preds: Tensor, labels) -> Tensor:
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != preds.shape:
        raise ContractError(f"mse_loss: labels shape {y.shape} vs preds {preds.shape}")
    diff = add(preds, Tensor(-y))
    return scale(tsum(mul(diff, diff)), 1.0 / y.size)


def rmse(preds, labels) -> float:
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.sqrt(np.mean((p - y) ** 2)))


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count 1/2."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    pos = y == 1.0
    n_pos = int(pos.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    u = _average_ranks(s)[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of ``s``, each group of ties taking the mean of its
    ranks, as ``scipy.stats.rankdata(s, method="average")`` gives them; a
    NaN anywhere makes every rank NaN (a sort would rank it last)."""
    if np.isnan(s).any():
        return np.full(s.size, np.nan)
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    # A group holds ranks starts+1 .. ends; their mean is exact in float64.
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def average_precision(scores, labels) -> float:
    """Precision summed at each positive's rank (descending, stable ties)."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    n_pos = int((y == 1.0).sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    ranks = np.flatnonzero(y[np.argsort(-s, kind="stable")] == 1.0) + 1
    # cumsum adds left to right, as a walk down the ranks would.
    total = np.cumsum(np.arange(1, n_pos + 1) / ranks)[-1]
    return float(total / n_pos)


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float = 5.0) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it.

    A non-finite norm raises ``NonFiniteError`` naming the first gradient
    with a non-finite entry.
    """
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
        raise NonFiniteError(f"gradient of {bad} is not finite" if bad else
                             f"global gradient norm overflows to {norm}")
    if norm <= max_norm:
        return dict(grads)
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningConfig:
    mode: str
    metric: str = "auroc"
    p_len: int = 10
    prompted_layers: tuple[int, int] | None = None
    token_stage: str = "post_projection"
    lr: float = 3e-4
    weight_decay: float = 0.0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    clip: float = 5.0
    epochs: int = 100
    warmup_epochs: int = 5
    decay: str = "cosine"
    batch_size: int = 32
    folds: int = 5
    head_hidden: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mode", self.mode.lower())
        if self.mode not in MODES:
            raise ContractError(f"unknown tuning mode {self.mode!r}")
        if self.metric not in METRICS:
            raise ContractError(f"unknown metric {self.metric!r}")
        if self.token_stage not in TOKEN_STAGES:
            raise ContractError(f"unknown token stage {self.token_stage!r}")
        for key, low in (("batch_size", 1), ("epochs", 1), ("folds", 2)):
            if getattr(self, key) < low:
                raise ContractError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if len(self.betas) != 2:
            raise ContractError(f"Adam betas must be two values, got {self.betas}")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ContractError(f"Adam betas must lie in [0, 1), got {self.betas}")
        for key in ("lr", "eps", "clip"):
            if not getattr(self, key) > 0:
                raise ContractError(f"{key} must be positive, got {getattr(self, key)}")
        if not self.weight_decay >= 0:
            raise ContractError(f"weight_decay must not be negative, got {self.weight_decay}")
        if not (0 <= self.warmup_epochs < self.epochs):
            raise ContractError(f"need 0 <= warmup ({self.warmup_epochs}) "
                                f"< total ({self.epochs})")
        if self.decay not in ("cosine", "linear"):
            raise ContractError(f"unknown decay {self.decay!r}")

    @property
    def higher_is_better(self) -> bool:
        return self.metric != "rmse"


def pretrain_config(epochs: int, lr: float, weight_decay: float, batch_size: int,
                    warmup_epochs: int, decay: str, clip: float,
                    eval_fraction: float) -> TuningConfig:
    """The ``TuningConfig`` of a ``pretrain`` call, which ``pretrain`` and the
    config loader both build here: ft on the rmse pretext. The holdout
    fraction must be finite and above 0; whether it leaves a graph to
    train on depends on the dataset, so ``pretrain`` checks that."""
    if not 0 < eval_fraction < math.inf:
        raise ContractError(f"eval_fraction must be finite and above 0, got {eval_fraction}")
    return TuningConfig(mode="ft", metric="rmse", epochs=epochs, lr=lr,
                        weight_decay=weight_decay, batch_size=batch_size,
                        warmup_epochs=warmup_epochs, decay=decay, clip=clip)


@dataclass
class RunRecord:
    """Per-epoch trace of one fold's training run."""

    train_losses: list[float] = field(default_factory=list)
    eval_metrics: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    epochs_to_best: int = 0


@dataclass
class FoldResult:
    """One fold's run. ``prompt_state`` copies every parameter that the fold's
    registry trained: the head, the prompts and, in ft mode, the backbone."""

    fold: int
    record: RunRecord
    trainable_count: int
    frozen_count: int
    prompt_state: dict[str, np.ndarray]

    @property
    def final_metric(self) -> float:
        """The evaluation metric of the fold's last epoch."""
        return self.record.eval_metrics[-1]


def _subseed(seed: int, *path) -> int:
    return int(rng_for(seed, *path).integers(0, 2**63 - 1))


def _validate(config: TuningConfig, dataset, backbone_cfg: BackboneConfig,
              idx=None) -> PromptSet:
    """Check a run before anything is encoded, and return the mode's prompt
    set as drawn from seed 0: drawing it checks every mode/backbone rule.

    Only the graphs ``dataset[i]`` for ``i`` in ``idx`` (default: all) are
    checked, and an error names a graph by its index in ``dataset``.
    """
    idx = range(len(dataset)) if idx is None else idx
    if len(idx) == 0:
        raise DataError("empty dataset")
    t = dataset[idx[0]].label_dim
    if t == 0:
        raise DataError("training needs labeled samples")
    for i in idx:
        g = dataset[i]
        if g.label_dim != t:
            raise DataError("label arity differs across the dataset")
        if g.feature_dim != backbone_cfg.feature_dim:
            raise DataError(f"a graph has {g.feature_dim} feature columns, but the "
                            f"backbone's feature_dim is {backbone_cfg.feature_dim}")
        if config.metric == "rmse" and not np.isfinite(g.label).all():
            raise DataError(f"graph {i} has a non-finite label, which rmse cannot score")
    prompts = init_prompts(config.mode, backbone_cfg, config.p_len, seed=0,
                           prompted_layers=config.prompted_layers,
                           token_stage=config.token_stage)
    if config.metric in ("auroc", "ap"):
        lab = np.concatenate([dataset[i].label for i in idx])
        lab = lab[np.isfinite(lab)]
        if not np.all((lab == 0.0) | (lab == 1.0)):
            raise DataError("classification metrics need 0/1 labels")
    return prompts


def _metric_value(config: TuningConfig, scores: np.ndarray, labels: np.ndarray,
                  name: str) -> float:
    """Fold ``name``'s metric, the mean over the task columns that define it; a
    ``DataError`` naming the fold when none does."""
    if config.metric == "rmse":
        return rmse(scores, labels)
    fn = auroc if config.metric == "auroc" else average_precision
    vals, reason = [], "no task column"
    for col in range(labels.shape[1]):
        mask = np.isfinite(labels[:, col])
        try:
            vals.append(fn(scores[mask, col], labels[mask, col]))
        except UndefinedMetricError as exc:
            reason = exc
    if not vals:
        raise DataError(f"{name}: evaluation split: {config.metric} is undefined on every "
                        f"task column ({reason})")
    return float(np.mean(vals))


def _loss(config: TuningConfig, out: Tensor, labels: np.ndarray) -> Tensor:
    if config.metric == "rmse":
        return mse_loss(out, labels)
    return bce_with_logits(out, labels)


def _labels(dataset) -> np.ndarray:
    return np.array([g.label for g in dataset], dtype=np.float64)


# glibc mallopt parameters, and the values they are pinned to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def steady_heap() -> bool:
    """Pin glibc's malloc thresholds so that freed array memory is reused.

    Every step allocates and frees the same arrays. By default glibc
    serves blocks above a threshold with fresh mappings, and gives the
    free top of the heap back to the OS once it exceeds a trim threshold;
    it raises both thresholds only as ever larger blocks are freed. So
    whether a step's arrays reuse resident pages or fault in zeroed ones
    depends on the largest block the process has freed so far, and the
    same step costs more or less depending on what ran before it. Here
    the thresholds are fixed at the ceiling of glibc's own sliding scale
    (32 MB, with the trim threshold at twice that), so that arrays below
    32 MB always come from the heap and up to 64 MB of freed memory stays
    resident. The setting is process-wide, made once per process, and
    a no-op (returning False) where the C library has no glibc
    ``mallopt``. ``train``, ``evaluate_fold``, ``pretrain`` and each fold
    job call it before anything else, so no forward of theirs runs on the
    sliding thresholds.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


@dataclass
class _Fold:
    """One fold of a lockstep group: what it trains, its splits and its shuffle."""

    name: str                       # names the fold in error messages
    head: PredictionHead
    prompts: PromptSet
    registry: FreezeRegistry
    train_idx: np.ndarray
    eval_idx: np.ndarray
    shuffle: np.random.Generator


def _forward(encoded: BatchedGraph, bb: Backbone, embeddings=None, maxima=None):
    """The one forward of a group of folds, for training steps and scoring alike.

    It maps folds and their chunks of sample indices of ``encoded`` (the
    dataset's one encoded batch) to each fold's outputs. Without
    ``embeddings`` it gathers every chunk, in fold order, into one batch
    with ``encoded.take``, so no step builds a batch from graph samples,
    and runs one forward in which each sample reads its own fold's
    prompts, then each fold's head on its own rows; with ``maxima``,
    ``first_layer_maxima`` of ``encoded``, that forward reads the batch's
    rows of them. With ``embeddings`` (a mode
    that trains only the head, such as lightweight: the frozen
    backbone's readout of every graph, in the order of ``encoded``) it
    runs only the heads, on rows of that matrix. A graph's rows do not
    depend on the other graphs of its batch (``tensor.block_attention``
    sums its keys in key order), so a fold scores the same alone and in
    any group.
    """
    def forward(active: list[_Fold], chunks: list) -> list[Tensor]:
        if embeddings is not None:
            return [f.head.forward(Tensor(embeddings[c])) for f, c in zip(active, chunks)]
        sizes = [len(c) for c in chunks]
        idx = np.concatenate(chunks)
        batch, first = encoded.take(idx), None
        if maxima is not None:
            first = (maxima[0][encoded.rows(idx)], maxima[1][idx])
        hg = backbone_forward(batch, bb, group=zip((f.prompts for f in active), sizes),
                              maxima=first)
        ends = np.cumsum(sizes)
        return [f.head.forward(gather_rows(hg, np.arange(end - size, end)))
                for f, size, end in zip(active, sizes, ends)]

    return forward


def _fit(config: TuningConfig, folds: list[_Fold], forward, labels: np.ndarray
         ) -> list[RunRecord]:
    """The one epoch loop, stepping a group of folds in lockstep.

    Step s batches chunk s of every fold's own epoch shuffle, in fold
    order, through one ``forward`` (see ``_forward``) and runs one
    backward of the sum of the folds' mean losses; a fold whose steps
    have run out drops out of the batch. Each fold then clips its own
    gradients and steps its own AdamW. After the last step one
    ``forward`` of every fold's eval split, outside the tape, scores the
    epoch. ``labels`` holds every graph's labels in dataset order. A
    non-finite loss or gradient stops the run with a ``NonFiniteError``
    naming the fold, the epoch and the step, and a step whose graphs have
    no present label, before its forward, with a ``DataError`` naming the
    same. A trainable parameter without a gradient means the forward is
    broken, not the config, so it raises ``RuntimeError``.

    A fold's epoch seconds are a share of each step in proportion to its
    graphs in that step, plus a share of the scoring in proportion to its
    eval graphs, so the folds' seconds sum to the group's time for that
    epoch.
    """
    optimizers = [AdamW(f.registry.trainable, betas=config.betas, eps=config.eps,
                        weight_decay=config.weight_decay) for f in folds]
    bs = config.batch_size
    steps = [math.ceil(len(f.train_idx) / bs) for f in folds]
    records = [RunRecord() for _ in folds]

    for epoch in range(config.epochs):
        mark = time.perf_counter()
        seconds = [0.0] * len(folds)
        lr_t = lr_at(epoch, config)
        orders = [f.shuffle.permutation(len(f.train_idx)) for f in folds]
        loss_sums = [0.0] * len(folds)
        for step in range(max(steps)):
            active = [i for i, n in enumerate(steps) if step < n]
            chunks = [folds[i].train_idx[orders[i][step * bs:(step + 1) * bs]] for i in active]
            ys = [labels[c] for c in chunks]
            for i, y in zip(active, ys):
                if not np.isfinite(y).any():
                    raise DataError(f"{folds[i].name}, epoch {epoch + 1} of {config.epochs}, "
                                    f"step {step + 1} of {steps[i]}: every label of its "
                                    f"{len(y)} graphs is missing")
            with Tape():
                outs = forward([folds[i] for i in active], chunks)
                losses = [_loss(config, out, y) for out, y in zip(outs, ys)]
                grads = backward(functools.reduce(add, losses))
            for i, chunk, loss in zip(active, chunks, losses):
                fold = folds[i]
                named = {}
                for name, t in fold.registry.trainable.items():
                    if t not in grads:
                        raise RuntimeError(f"trainable parameter {name} received no gradient")
                    named[name] = grads[t]
                loss_value = float(loss.data)
                try:
                    named = clip_global_norm(named, config.clip)
                    if not math.isfinite(loss_value):
                        raise NonFiniteError(f"loss is {loss_value}")
                except NonFiniteError as exc:
                    raise NonFiniteError(f"{fold.name}, epoch {epoch + 1} of {config.epochs}, "
                                         f"step {step + 1} of {steps[i]}: {exc}") from None
                optimizers[i].step(fold.registry.trainable, named, lr_t)
                loss_sums[i] += loss_value * len(chunk)
            now = time.perf_counter()
            graphs = sum(len(c) for c in chunks)
            for i, chunk in zip(active, chunks):
                seconds[i] += (now - mark) * len(chunk) / graphs
            mark = now
        outs = forward(folds, [f.eval_idx for f in folds])
        for record, fold, out, loss_sum in zip(records, folds, outs, loss_sums):
            record.train_losses.append(loss_sum / len(fold.train_idx))
            record.eval_metrics.append(_metric_value(config, out.data, labels[fold.eval_idx],
                                                     fold.name))
        scoring = time.perf_counter() - mark
        eval_graphs = sum(len(f.eval_idx) for f in folds)
        for record, fold, step_seconds in zip(records, folds, seconds):
            record.epoch_seconds.append(step_seconds + scoring * len(fold.eval_idx) / eval_graphs)

    for record in records:
        metrics = np.asarray(record.eval_metrics)
        best = int(np.argmax(metrics)) if config.higher_is_better else int(np.argmin(metrics))
        record.epochs_to_best = best + 1
    return records


def _make_fold(config: TuningConfig, bb: Backbone, out_dim: int, seed: int, fold: int,
               split) -> _Fold:
    """Fold ``fold`` of ``split``: its head, prompts and the registry of what it
    trains (with ``bb`` too in ft mode), drawn from the fold's seed."""
    fold_seed = _subseed(seed, "fold", fold)
    head = PredictionHead.init(bb.cfg.dim, out_dim, seed=fold_seed, hidden=config.head_hidden)
    prompts = init_prompts(config.mode, bb.cfg, config.p_len, seed=fold_seed,
                           prompted_layers=config.prompted_layers,
                           token_stage=config.token_stage)
    registry = build_registry(bb, head, prompts, train_backbone=trains_backbone(config.mode))
    return _Fold(f"fold {fold}", head, prompts, registry, *split.train_eval(fold),
                 rng_for(seed, "shuffle", fold))


def _run_fold(job) -> list[FoldResult]:
    """Train one pool job: a group of folds, stepped in lockstep against one
    backbone built from the stored state (the fold list of an ft job holds
    one fold, since each ft fold trains its own copy)."""
    steady_heap()                  # a pool worker enters the library here
    (config, encoded, labels, embeddings, maxima, backbone_cfg, backbone_state, seed,
     group) = job
    split = make_folds(encoded.size, config.folds, seed)
    bb = Backbone.from_state(backbone_cfg, backbone_state)
    folds = [_make_fold(config, bb, labels.shape[1], seed, fold, split) for fold in group]
    records = _fit(config, folds, _forward(encoded, bb, embeddings, maxima), labels)
    results = []
    for fold, f, record in zip(group, folds, records):
        counts = count_params(f.registry)
        results.append(FoldResult(fold=fold, record=record,
                                  trainable_count=counts["trainable_count"],
                                  frozen_count=counts["frozen_count"],
                                  prompt_state={name: t.data.copy()
                                                for name, t in f.registry.trainable.items()}))
    return results


def _fold_groups(config: TuningConfig, workers: int) -> list[tuple[int, ...]]:
    """The folds of each pool job: one job per fold in ft mode, otherwise the
    folds dealt round-robin into ``workers`` lockstep groups."""
    if trains_backbone(config.mode):
        return [(fold,) for fold in range(config.folds)]
    return [tuple(range(w, config.folds, workers)) for w in range(workers)]


def _worker_cap() -> int:
    env = os.environ.get("GPT_LAB_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ContractError(f"GPT_LAB_THREADS must be a positive integer, got {env!r}")
    return cap


def train(config: TuningConfig, dataset: list[GraphSample],
          backbone_cfg: BackboneConfig, backbone_state: dict[str, np.ndarray],
          seed: int, parallel: int = 1) -> list[FoldResult]:
    """Run one tuning regime over all folds against a frozen backbone state.

    Every mode/backbone mismatch fails in ``_validate``, before the
    dataset is encoded once, into one batch from which every step and
    scoring forward of every fold gathers its graphs. When the mode
    trains no prompts against a frozen backbone (lightweight), the
    backbone also embeds every graph once here, and the folds train and
    score only the head on rows of that (n x d) matrix. When it tunes
    virtual tokens against a frozen max MPGNN, what the first layer reads
    of the node rows is computed once here (``first_layer_maxima``), and
    every step and scoring forward reads its rows of it.
    Folds are independent. Against a frozen backbone the folds of one job
    step in lockstep, one forward and backward for all of them (``_fit``); ft
    folds train their own backbone copies, one job each. With
    ``parallel > 1`` the jobs run in a process pool (capped by
    GPT_LAB_THREADS), and the folds are dealt round-robin into one
    lockstep group per worker. A fold's results do not depend on its
    group, up to the last bits in the cases that the README's "Training"
    section names, and they are returned in fold order.
    """
    if parallel < 1:
        raise ContractError(f"parallel must be at least 1, got {parallel}")
    steady_heap()
    prompts = _validate(config, dataset, backbone_cfg)
    encoded, labels = encode_graphs(dataset, backbone_cfg), _labels(dataset)
    embeddings = maxima = None
    if not trains_backbone(config.mode):
        bb = Backbone.from_state(backbone_cfg, backbone_state)
        if not prompts.named_params():
            embeddings = backbone_forward(encoded, bb).data
        elif backbone_cfg.aggregation == "max" and prompts.virtual_tokens is not None:
            maxima = first_layer_maxima(encoded, bb)
    workers = min(parallel, config.folds, _worker_cap())
    jobs = [(config, encoded, labels, embeddings, maxima, backbone_cfg, backbone_state, seed,
             group) for group in _fold_groups(config, workers)]
    if workers <= 1:
        done = [_run_fold(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_fold, jobs))
    return sorted((r for results in done for r in results), key=lambda r: r.fold)


def evaluate_fold(config: TuningConfig, dataset: list[GraphSample],
                  backbone_cfg: BackboneConfig, backbone_state: dict[str, np.ndarray],
                  prompt_state: dict[str, np.ndarray], seed: int, fold: int) -> float:
    """Metric of a fold's stored ``prompt_state`` on its evaluation split.

    Rebuilds the fold as ``train`` does, loads the state into every
    parameter its registry trains and scores the encoded split with
    ``train``'s one forward, so the state of any mode, ft included,
    reproduces the recorded metric exactly. Only the split's graphs are
    validated.
    """
    steady_heap()
    folds = make_folds(len(dataset), config.folds, seed)
    eval_idx = folds.train_eval(fold)[1]
    _validate(config, dataset, backbone_cfg, eval_idx)
    split = [dataset[i] for i in eval_idx]
    bb = Backbone.from_state(backbone_cfg, backbone_state)
    f = _make_fold(config, bb, split[0].label_dim, seed, fold, folds)
    load_params(f.registry.trainable, prompt_state)
    [scores] = _forward(encode_graphs(split, backbone_cfg), bb)([f], [np.arange(len(split))])
    return _metric_value(config, scores.data, _labels(split), f.name)


def pretrain(dataset: list[GraphSample], backbone_cfg: BackboneConfig,
             seed: int, epochs: int = 30, lr: float = 1e-3,
             weight_decay: float = 0.0, batch_size: int = 32,
             warmup_epochs: int = 2, decay: str = "cosine", clip: float = 5.0,
             eval_fraction: float = 0.1) -> tuple[dict[str, np.ndarray], RunRecord]:
    """Full training of a fresh backbone + throwaway head on a regression pretext.

    A seeded holdout split provides the per-epoch RMSE trace; the returned
    state holds only the backbone parameters (the pretext head is dropped).
    """
    steady_heap()
    config = pretrain_config(epochs, lr, weight_decay, batch_size, warmup_epochs, decay,
                             clip, eval_fraction)
    _validate(config, dataset, backbone_cfg)
    n_eval = max(1, int(round(len(dataset) * eval_fraction)))
    if n_eval >= len(dataset):
        raise DataError(f"eval_fraction {eval_fraction} of {len(dataset)} graphs holds out "
                        f"{n_eval}, which leaves no graph to pretrain on")
    encoded = encode_graphs(dataset, backbone_cfg)
    perm = rng_for(seed, "pretrain-split").permutation(len(dataset))
    eval_idx, train_idx = perm[:n_eval], perm[n_eval:]
    bb = Backbone.init(backbone_cfg, seed=_subseed(seed, "pretrain-backbone"))
    head = PredictionHead.init(backbone_cfg.dim, dataset[0].label_dim,
                               seed=_subseed(seed, "pretrain-head"))
    registry = build_registry(bb, head, PromptSet(), train_backbone=True)
    folds = [_Fold("pretrain", head, PromptSet(), registry, train_idx, eval_idx,
                   rng_for(seed, "pretrain-shuffle"))]
    [record] = _fit(config, folds, _forward(encoded, bb), _labels(dataset))
    return bb.state_arrays(), record
