"""Experiment runner: pretrain, tune, ablate, report.

Every command is driven by one config file plus a handful of flags, and
writes CSV/JSON artifacts into an output directory. Exit codes: 0 on
success, 2 for config problems, 3 for data problems, 4 for checkpoint
mismatches, 5 when training produces a non-finite loss or gradient.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from gpt_lab.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    fingerprint,
    load_backbone,
    save_backbone,
    save_prompt,
)
from gpt_lab.config import AXES, ConfigError, ExperimentConfig, load_config
from gpt_lab.graphs import DataError, gen_downstream, gen_pretext, read_graph_file
from gpt_lab.prompt import init_prompts
from gpt_lab.tensor import ContractError
from gpt_lab.training import NonFiniteError, RunRecord, TuningConfig, pretrain, train

__all__ = ["main"]

TUNE_CSV_FIELDS = ["mode", "metric", "trainable_params", "mean", "std",
                   "epochs_to_best_mean"]
FOLD_CSV_FIELDS = ["fold", "final_metric", "epochs_to_best"]
ABLATE_CSV_FIELDS = ["axis", "cell", "trainable_params", "mean", "std",
                     "epochs_to_best_mean"]
REPORT_CSV_FIELDS = ["mode", "runs", "epochs_to_best_mean", "epoch_seconds_mean"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, fields: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in fields})


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def _config(args, *sections: str) -> ExperimentConfig:
    """The config file of ``args``, checked to hold each of ``sections``, with
    ``--seed`` and, for a command with a [tuning] section, ``--folds`` applied
    through the dataclasses that check them."""
    cfg = load_config(args.config)
    for section in sections:
        if getattr(cfg, section) is None:
            raise ConfigError(f"{args.command} needs a [{section}] section")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if "tuning" in sections and args.folds is not None:
        cfg = dataclasses.replace(cfg, tuning=dataclasses.replace(cfg.tuning, folds=args.folds))
    return cfg


def _load_dataset(cfg: ExperimentConfig):
    task = cfg.task
    if task.graph_file is not None:
        return read_graph_file(task.graph_file)
    return gen_downstream(task.count, task.generator, cfg.seed,
                          size_range=(task.min_nodes, task.max_nodes),
                          feature_dim=cfg.backbone.feature_dim)


def _aggregate_row(tuning: TuningConfig, results) -> dict:
    finals = np.array([r.final_metric for r in results])
    return {
        "mode": tuning.mode,
        "metric": tuning.metric,
        "trainable_params": results[0].trainable_count,
        "mean": float(finals.mean()),
        "std": float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
        "epochs_to_best_mean": float(np.mean([r.record.epochs_to_best
                                              for r in results])),
    }


def _dump_run(out: Path, tuning: TuningConfig, results, seed: int,
              backbone_fp: str, command: str) -> None:
    records = out / "runrecords"
    records.mkdir(parents=True, exist_ok=True)
    for r in results:
        _write_json(records / f"fold{r.fold}.json", dataclasses.asdict(r.record))
    fold_rows = [{"fold": r.fold, "final_metric": float(r.final_metric),
                  "epochs_to_best": r.record.epochs_to_best} for r in results]
    write_csv(out / "fold_metrics.csv", FOLD_CSV_FIELDS, fold_rows)
    _write_json(out / "run_meta.json", {
        "command": command,
        "mode": tuning.mode,
        "metric": tuning.metric,
        "seed": seed,
        "folds": tuning.folds,
        "trainable_params": results[0].trainable_count,
        "frozen_params": results[0].frozen_count,
        "backbone_fingerprint": backbone_fp,
    })


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    cfg = _config(args, "pretrain")
    pre = cfg.pretrain
    data = gen_pretext(pre.count, (pre.min_nodes, pre.max_nodes), cfg.seed,
                       feature_dim=cfg.backbone.feature_dim)
    state, record = pretrain(data, cfg.backbone, cfg.seed, **pre.training_args())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "backbone.ckpt"
    save_backbone(ckpt_path, cfg.backbone, state)
    _write_json(out / "pretrain_record.json", {
        "seed": cfg.seed,
        "count": pre.count,
        "final_rmse": record.eval_metrics[-1],
        **dataclasses.asdict(record),
    })
    print(f"wrote {ckpt_path}")
    print(f"final pretext RMSE: {record.eval_metrics[-1]:.6f}")
    return 0


def cmd_tune(args) -> int:
    cfg = _config(args, "task", "tuning")
    tuning, seed = cfg.tuning, cfg.seed
    backbone_cfg, backbone_state = load_backbone(args.ckpt, expected=cfg.backbone)
    dataset = _load_dataset(cfg)
    results = train(tuning, dataset, backbone_cfg, backbone_state, seed,
                    parallel=args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    row = _aggregate_row(tuning, results)
    write_csv(out / "metrics.csv", TUNE_CSV_FIELDS, [row])
    _dump_run(out, tuning, results, seed, fingerprint(backbone_cfg), "tune")

    last = results[-1]
    if any(name.startswith("prompt.") for name in last.prompt_state):
        save_prompt(out / "prompt.ckpt", dim=backbone_cfg.dim,
                    layers=backbone_cfg.layers, mode=tuning.mode,
                    p_len=tuning.p_len, token_stage=tuning.token_stage,
                    backbone_fingerprint=fingerprint(backbone_cfg),
                    state=last.prompt_state,
                    extra={"fold": last.fold, "seed": seed})
    print(f"{row['mode']}: {tuning.metric} mean={row['mean']:.4f} "
          f"std={row['std']:.4f} trainable={row['trainable_params']}")
    return 0


def _ablate_variant(tuning: TuningConfig, axis: str, cell,
                    backbone_cfg) -> tuple[str, TuningConfig]:
    """A sweep cell's name and tuning config, checked against the backbone by
    drawing its prompts."""
    variant = dataclasses.replace(tuning, **{AXES[axis][1]: cell})
    prompts = init_prompts(variant.mode, backbone_cfg, variant.p_len, seed=0,
                           prompted_layers=variant.prompted_layers,
                           token_stage=variant.token_stage)
    if axis == "depth" and not prompts.prefixes:
        raise ConfigError("depth ablation needs a prefix-based tuning mode")
    if axis == "length" and not prompts.p_len:
        raise ConfigError("length ablation needs a prompt-based tuning mode")
    return (f"{cell[0]}-{cell[1]}" if axis == "depth" else str(cell)), variant


def cmd_ablate(args) -> int:
    cfg = _config(args, "task", "tuning", "ablate")
    seed = cfg.seed
    backbone_cfg, backbone_state = load_backbone(args.ckpt, expected=cfg.backbone)
    axis = cfg.ablate.axis
    variants = [_ablate_variant(cfg.tuning, axis, cell, backbone_cfg)
                for cell in cfg.ablate.cells()]
    dataset = _load_dataset(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for name, variant in variants:
        results = train(variant, dataset, backbone_cfg, backbone_state, seed,
                        parallel=args.parallel)
        agg = _aggregate_row(variant, results)
        rows.append({"axis": axis, "cell": name, **agg})
        cell_dir = out / "cells" / name
        cell_dir.mkdir(parents=True, exist_ok=True)
        _dump_run(cell_dir, variant, results, seed, fingerprint(backbone_cfg),
                  "ablate")
        print(f"[{axis}={name}] mean={agg['mean']:.4f} "
              f"trainable={agg['trainable_params']}")
    write_csv(out / f"ablate_{axis}.csv", ABLATE_CSV_FIELDS, rows)
    return 0


# What each field of a run file that ``report`` reads must hold.
_STRING, _INTEGER, _NUMBERS = "a string", "an integer", "a list of numbers"
_META_FIELDS = {"mode": _STRING}
_RECORD_FIELDS = {"train_losses": _NUMBERS, "eval_metrics": _NUMBERS,
                  "epoch_seconds": _NUMBERS, "epochs_to_best": _INTEGER}


def _holds(value, kind: str) -> bool:
    if kind == _NUMBERS:
        return isinstance(value, list) and all(type(x) in (int, float) for x in value)
    return type(value) is (str if kind == _STRING else int)


def _read_run_file(path: Path, fields: dict[str, str], exact: bool) -> dict:
    """The JSON object in run file ``path`` if it has the ``fields``, only those if
    ``exact``, each holding the kind of value that ``fields`` names."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not JSON ({exc})") from None
    if (not isinstance(obj, dict) or not fields.keys() <= obj.keys()
            or exact and obj.keys() != fields.keys()):
        raise DataError(f"{path}: not a JSON object with {'exactly' if exact else 'at least'} "
                        f"the fields {sorted(fields)}")
    for name, kind in fields.items():
        if not _holds(obj[name], kind):
            raise DataError(f"{path}: {name} is not {kind}")
    return obj


def cmd_report(args) -> int:
    per_mode: dict[str, dict] = {}
    for run_dir in args.run_dirs:
        run = Path(run_dir)
        meta_path = run / "run_meta.json"
        records_dir = run / "runrecords"
        if not meta_path.exists() or not records_dir.is_dir():
            raise DataError(f"{run_dir}: incomplete run directory "
                            "(needs run_meta.json and runrecords/)")
        record_files = sorted(records_dir.glob("fold*.json"))
        if not record_files:
            raise DataError(f"{run_dir}: no fold records")
        meta = _read_run_file(meta_path, _META_FIELDS, exact=False)
        records = [RunRecord(**_read_run_file(rf, _RECORD_FIELDS, exact=True))
                   for rf in record_files]
        if not any(r.epoch_seconds for r in records):
            raise DataError(f"{run_dir}: every fold record has an empty epoch_seconds")
        bucket = per_mode.setdefault(meta["mode"], {
            "runs": 0, "epochs_to_best": [], "epoch_seconds": []})
        bucket["runs"] += 1
        for record in records:
            bucket["epochs_to_best"].append(record.epochs_to_best)
            bucket["epoch_seconds"].extend(record.epoch_seconds)

    rows = [{"mode": mode,
             "runs": bucket["runs"],
             "epochs_to_best_mean": float(np.mean(bucket["epochs_to_best"])),
             "epoch_seconds_mean": float(np.mean(bucket["epoch_seconds"]))}
            for mode, bucket in sorted(per_mode.items())]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "report.csv", REPORT_CSV_FIELDS, rows)
    for row in rows:
        print(f"{row['mode']}: epochs_to_best={row['epochs_to_best_mean']:.2f} "
              f"epoch_seconds={row['epoch_seconds_mean']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpt-lab",
                                     description="graph prompt tuning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ckpt: bool):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override [experiment] seed")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="backbone checkpoint")
            p.add_argument("--folds", type=int, default=None,
                           help="override fold count (default 5)")
            p.add_argument("--parallel", type=int, default=1,
                           help="fold worker processes")

    p = sub.add_parser("pretrain", help="pretrain a backbone on the pretext task")
    common(p, ckpt=False)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("tune", help="tune against a frozen backbone over k folds")
    common(p, ckpt=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("ablate", help="run a depth/length/component sweep")
    common(p, ckpt=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="aggregate run records into a summary CSV")
    p.add_argument("run_dirs", nargs="+", help="completed run directories")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return 4
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5
    except ContractError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
