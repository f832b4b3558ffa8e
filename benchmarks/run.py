#!/usr/bin/env python3
"""gpt-lab benchmark: one workload, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload tune_b16 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
``src``. BLAS and OpenMP are pinned to one thread before numpy loads, and
the library is called with ``parallel=1``: one client in one process,
each round starting when the previous one ends (a closed loop). Every
duration is divided by the slowdown that a reference computation
measured around it (``reference.py``), so times are seconds at full
speed even while other tenants of the machine slow this process down.

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs rounds while another one fits in ``--seconds``, at
least ``MIN_ROUNDS``, and reports the end-to-end metrics. ``--trace 1`` follows
each untraced round with the same round run under the tracer, checks
that both produced bit-identical losses and metrics, and reports the
per-layer metrics. Either way the last stdout
line is one JSON object; a fuller record, with the environment, goes to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from stats import TAIL_BEYOND, self_times, tail, useful_ratio

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
# Every untraced run completes this many rounds; the quality metrics come
# from these rounds only, so they do not depend on how fast a run went.
MIN_ROUNDS = 4
MIN_TRACED_PAIRS = 2


def pin_threads() -> dict:
    """Pin BLAS/OpenMP to one thread; refuse if numpy already loaded unpinned."""
    before = {v: os.environ.get(v) for v in THREAD_VARS}
    if "numpy" in sys.modules and any(before[v] != "1" for v in THREAD_VARS[:2]):
        raise SystemExit("error: numpy was imported before the benchmark pinned BLAS "
                         f"threads to 1 (thread environment {before}); run "
                         "benchmarks/run.py as a script")
    for v in THREAD_VARS:
        os.environ[v] = "1"
    return before


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(threads_before: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "threads_before_pinning": threads_before,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def run_rounds(workload, setup, seed: int, seconds: float, tmpdir: Path, ref,
               tracer=None) -> tuple[list, list]:
    """Closed loop: each round starts when the previous one has ended.

    Rounds go on while another round of average length still fits in
    ``seconds``, and at least ``MIN_ROUNDS`` run (``MIN_TRACED_PAIRS``
    pairs when tracing). With a tracer, every untraced round is followed
    by the same round traced, so the pair sees the same machine state, and
    a workload's probe is left out so that the per-layer numbers cover the
    round alone.
    """
    rounds, traced = [], []
    least = MIN_ROUNDS if tracer is None else MIN_TRACED_PAIRS
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(rounds) >= least and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, traced
        r = len(rounds)
        rounds.append(workload.round(setup, seed, r, tmpdir, ref))
        if tracer is None:
            if hasattr(workload, "probe"):
                workload.probe(setup, rounds[-1], seed, r, tmpdir, ref)
            continue
        tracer.install()
        try:
            traced.append(workload.round(setup, seed, r, tmpdir, ref))
        finally:
            tracer.uninstall()
        if r == 0:
            tracer.mark_first_round()


def end_to_end(setup_s: float, rounds: list, attempted: int,
               failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details for the run record.

    A run whose operations failed can lack epochs or scores; its metrics
    then read 0, and ``failed`` already marks it incorrect.
    """
    first = rounds[:MIN_ROUNDS]
    epochs = [t for r in rounds for t in r.epoch_seconds]
    quality = [q for r in first for q in r.quality]
    rmses = [x for r in first for x in r.rmse]
    train_s, trained = map(sum, zip(*(r.training() for r in rounds)))
    score_s, scored = map(sum, zip(*(r.scoring() for r in rounds)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(r.wall() for r in rounds), "s"),
        "train_graphs_per_s": (trained / train_s if train_s else 0.0, "1/s"),
        "score_graphs_per_s": (scored / score_s if score_s else 0.0, "1/s"),
        "epoch_s_p50": (median(epochs) if epochs else 0.0, "s"),
        "auroc": (sum(quality) / len(quality) if quality else 0.0, "auroc"),
        "rmse": (sum(rmses) / len(rmses) if rmses else 0.0, "rmse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {"rounds": len(rounds), "epoch_samples": len(epochs)}
    if len(epochs) > TAIL_BEYOND:
        extra["epoch_s_tail"], extra["epoch_s_tail_percentile"], _ = tail(epochs)
    extra.update(round_wall_s_as_measured=[r.wall_s for r in rounds], epoch_seconds=epochs)
    return metrics, extra


def per_layer(tracer, rounds: int, overhead_s: float, factor: float = 1.0) -> dict:
    """Per-layer metrics: times are seconds per round over every traced round,
    divided by the rounds' mean slowdown ``factor``; counts are exact and come
    from the first round, which every run repeats."""
    own, total = self_times(tracer.spans)
    own = {name: t / factor for name, t in own.items()}
    total = {name: t / factor for name, t in total.items()}
    n_first, counts = tracer.first_round
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans[:n_first]:
        calls[name] = calls.get(name, 0) + 1
    all_calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        all_calls[name] = all_calls.get(name, 0) + 1
    steps = counts.get("tape.steps", 0)

    def self_s(name):
        return own.get(name, 0.0) / rounds

    def per_call(name):
        return total[name] / all_calls[name] if name in total else 0.0

    def per_step(key):
        return counts.get(key, 0) / steps if steps else 0.0

    return {
        "tensor.softmax_masked.self_s": (self_s("tensor.softmax_masked"), "s"),
        "tensor.softmax_masked.entries": (counts.get("softmax.entries", 0), "count"),
        "tensor.softmax_masked.useful_ratio": (
            useful_ratio(counts.get("softmax.useful", 0), counts.get("softmax.entries", 0)),
            "ratio"),
        "tensor.backward.self_s": (self_s("tensor.backward"), "s"),
        "tensor.tape_nodes_per_step": (per_step("tape.nodes"), "count"),
        "tensor.matmul.self_s": (self_s("tensor.matmul"), "s"),
        "tensor.matmul.calls": (calls.get("tensor.matmul", 0), "count"),
        "tensor.layer_norm.self_s": (self_s("tensor.layer_norm"), "s"),
        "tensor.neighbor_max.self_s": (self_s("tensor.neighbor_max"), "s"),
        "models.encode_nodes.self_s": (self_s("models.encode_nodes"), "s"),
        "models.encode_nodes.rows_per_step": (per_step("step.rows"), "count"),
        "models.transformer_layer_forward.self_s": (
            self_s("models.transformer_layer_forward"), "s"),
        "models.transformer_layer_forward.calls": (
            calls.get("models.transformer_layer_forward", 0), "count"),
        "models.mpgnn_layer_forward.self_s": (self_s("models.mpgnn_layer_forward"), "s"),
        "models.mpgnn_layer_forward.calls": (
            calls.get("models.mpgnn_layer_forward", 0), "count"),
        "models.readout.self_s": (self_s("models.readout"), "s"),
        "models.readout.calls": (calls.get("models.readout", 0), "count"),
        "models.head.self_s": (self_s("models.head"), "s"),
        "graphs.with_rwpe.self_s": (self_s("graphs.with_rwpe"), "s"),
        "graphs.with_rwpe.calls": (calls.get("graphs.with_rwpe", 0), "count"),
        "graphs.batch.self_s": (self_s("graphs.batch"), "s"),
        "graphs.batch.calls": (calls.get("graphs.batch", 0), "count"),
        "training.train_step.self_s": (self_s("training.train_step"), "s"),
        "training.eval_forward.self_s": (self_s("training.eval_forward"), "s"),
        "training.AdamW.step.self_s": (self_s("training.AdamW.step"), "s"),
        "training.AdamW.step.entries": (per_step("adamw.entries"), "count"),
        "training.clip_global_norm.self_s": (self_s("training.clip_global_norm"), "s"),
        "training.fold.deepgpt.wall_s": (per_call("training.fold.deepgpt"), "s"),
        "training.fold.lightweight.wall_s": (per_call("training.fold.lightweight"), "s"),
        "training.fold.virtual_node.wall_s": (per_call("training.fold.virtual_node"), "s"),
        "training.pretrain.wall_s": (per_call("training.pretrain"), "s"),
        "prompt.apply_graph_prompt.calls": (calls.get("prompt.apply_graph_prompt", 0), "count"),
        "prompt.inject_prefix.calls": (calls.get("prompt.inject_prefix", 0), "count"),
        "prompt.setup_s": (self_s("prompt.setup"), "s"),
        "checkpoint.save_prompt.self_s": (self_s("checkpoint.save_prompt"), "s"),
        "checkpoint.load_prompt.self_s": (self_s("checkpoint.load_prompt"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpt_lab" / "__init__.py").is_file():
        print(f"error: no gpt_lab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    threads_before = pin_threads()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gpt_lab
    import workloads
    from reference import Reference
    from tracer import Tracer
    import_s = time.perf_counter() - started
    if Path(gpt_lab.__file__).resolve().parent != (SRC / "gpt_lab").resolve():
        print(f"error: imported gpt_lab from {gpt_lab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    ref = Reference(workload.reference)
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = [workload.setup(args.seed, ref) for _ in range(repeats)]
    setup = setups[0]
    setup_s = import_s / ref.factor() + median(s.seconds for s in setups)
    del setups[1:]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(threads_before)}
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rounds, traced = run_rounds(workload, setup, args.seed, args.seconds, Path(tmp),
                                    ref, tracer)

    done = rounds + traced
    attempted = sum(r.attempted for r in done)
    failures = [f for r in done for f in r.failures]
    replay_ok = all(a.replay == b.replay for a, b in zip(rounds, traced))
    if not replay_ok:
        failures.append("traced rounds did not reproduce the untraced losses and metrics")
    correct = not failures

    if args.trace:
        overhead = median(t.wall() - r.wall() for r, t in zip(rounds, traced))
        corrected = sum(x[2] / x[4] for t in traced for x in t.intervals)
        factor = sum(x[2] for t in traced for x in t.intervals) / corrected if corrected else 1.0
        metrics = per_layer(tracer, len(traced), overhead, factor)
        extra = {"rounds": len(traced), "spans": len(tracer.spans)}
        tracer.dump(OUT / f"{stem}-spans.json.gz")
    else:
        metrics, extra = end_to_end(setup_s, rounds, attempted, len(failures))
    extra["slowdown_factors"] = [s / ref.nominal_s for s in ref.samples]
    record.update(correct=correct, attempted=attempted, failures=failures, extra=extra,
                  import_s=import_s,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    for name, value in extra.items():
        if not isinstance(value, list):
            print(f"{name:44s} {value:>14.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
