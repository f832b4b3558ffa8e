"""One-line mutants of ``src/gpt_lab`` against the Tier-1 suite, standard library only.

Copies the repository to a temporary directory, checks that the unmutated
copy passes, then for each entry of ``MUTANTS`` edits one line of the copy,
runs Tier-1 without acceptance 8 (the slow test that ``tools/linecov.py``
also leaves out) with ``-x`` and one BLAS thread, and restores the line. A
mutant is killed when a test fails and survives when the suite passes.
Each mutant names its file, the function or class it edits (a dotted name,
or ``<module>``), the text it replaces, which must occur once on exactly one
line of that scope, and the replacement, so the list follows the code as
lines move and fails loudly when the code it names has gone.

Exit status: 0 when every mutant was applied and run, whatever survived;
1 when the unmutated suite fails or a mutant no longer matches its code.
A survivor is either a gap in the suite or a change that no test can see;
the list says which for the survivors that are known.

Usage, from the repository root, with no arguments:

    python tools/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from linecov import ROOT, SLOW_TEST

# (file in src/gpt_lab, scope, old text, new text, what the mutant does)
MUTANTS = [
    # The numerical core and the run protocol.
    ("tensor.py", "layer_norm", "np.add.reduce(xhat * xhat, 1, keepdims=True) / d",
     "np.add.reduce(xhat * xhat, 1, keepdims=True) / (d - 1)", "layer norm's variance unbiased"),
    ("tensor.py", "layer_norm", "x.data - np.add.reduce(x.data, 1, keepdims=True) / d",
     "x.data - np.add.reduce(x.data, 1, keepdims=True) / (d - 1)",
     "layer norm's row mean divided by d - 1"),
    ("models.py", "<module>", "LN_EPS = 1e-5", "LN_EPS = 1e-6", "LN_EPS 1e-6"),
    ("tensor.py", "block_attention", "inv_sqrt = 1.0 / math.sqrt(dq)", "inv_sqrt = 1.0",
     "attention without its 1/sqrt(dq) scale"),
    ("models.py", "_input_rows", "np.minimum(batch.degrees, backbone.cfg.max_degree)",
     "np.minimum(batch.degrees, backbone.cfg.max_degree - 1)", "the degree clip one lower"),
    ("graphs.py", "rwpe", "for s in range(1, k):", "for s in range(1, k - 1):",
     "RWPE one step short"),
    ("training.py", "AdamW.step", "lr_t * (m / bc1)", "lr_t * m",
     "AdamW without its first-moment bias correction"),
    ("training.py", "AdamW.step", "np.sqrt(v / bc2)", "np.sqrt(v)",
     "AdamW without its second-moment bias correction"),
    ("training.py", "AdamW.step", "(np.sqrt(v / bc2) + self.eps)", "np.sqrt(v / bc2 + self.eps)",
     "AdamW's eps inside the square root"),
    ("training.py", "AdamW.step", "1.0 - lr_t * self.weight_decay", "1.0 - self.weight_decay",
     "weight decay not scaled by lr"),
    ("training.py", "AdamW.__init__", "self._grad[start:end]", "self._grad[:end - start]",
     "every gradient copied into the first span of the flat gradient"),
    ("models.py", "load_params", "t.data[...] = arr", "t.data = arr.copy()",
     "load_params rebinding a parameter to a copy, which detaches it from its AdamW buffer"),
    ("training.py", "lr_at", "math.cos(math.pi * progress)", "math.cos(0.5 * math.pi * progress)",
     "a half-period cosine decay"),
    ("training.py", "lr_at", "config.lr * (1.0 - progress)", "config.lr * (1.0 - progress) ** 2",
     "the linear decay squared"),
    ("training.py", "clip_global_norm", "factor = max_norm / norm", "factor = max_norm / sq",
     "the clip dividing by the squared norm"),
    ("training.py", "_fit", "loss_value * len(chunk)", "loss_value * config.batch_size",
     "train_losses weighting each chunk by batch_size, not its length"),
    ("training.py", "_fit", "scoring * len(fold.eval_idx) / eval_graphs",
     "scoring / len(folds)", "the scoring share of epoch_seconds split evenly"),
    ("training.py", "_fit",
     "int(np.argmax(metrics)) if config.higher_is_better else int(np.argmin(metrics))",
     "int(np.argmin(metrics)) if config.higher_is_better else int(np.argmax(metrics))",
     "epochs_to_best with argmax and argmin swapped"),
    ("training.py", "_make_fold", '_subseed(seed, "fold", fold)', '_subseed(seed, "fold", 0)',
     "every fold drawing its head and prompts from fold 0's seed"),
    # Survives: the folds' training sets differ, so their shuffles differ
    # anyway, and only a test that restates the shuffle could see it.
    ("training.py", "_make_fold", 'rng_for(seed, "shuffle", fold)',
     'rng_for(seed, "shuffle", 0)', "every fold shuffling with fold 0's stream"),
    ("prompt.py", "count_params", "trainable / total if", "trainable / frozen if",
     "count_params' ratio over frozen, not total, entries"),
    # The checkpoint files.
    ("checkpoint.py", "_read", "!= FORMAT_VERSION", "not in (1, FORMAT_VERSION)",
     "_read taking a format-1 file"),
    ("checkpoint.py", "_read", "if pos != len(raw):", "if pos > len(raw):",
     "_read accepting trailing bytes"),
    ("checkpoint.py", "load_prompt", 'meta["layers"] != layers', "False",
     "load_prompt without its layer check"),
    ("checkpoint.py", "_read", "if not isinstance(meta, dict):", "if False:",
     "_read taking a header that is not a JSON object"),
    ("checkpoint.py", "_read", "except KeyError as exc:", "except IndexError as exc:",
     "_read letting a header without its arrays or an array's shape raise KeyError"),
    ("checkpoint.py", "_entries", "if not isinstance(listed, list):", "if False:",
     "_read iterating an 'arrays' field that is not a list"),
    ("checkpoint.py", "_entries", "if not isinstance(entry, dict):", "if False:",
     "_read taking an array entry that is not an object"),
    ("checkpoint.py", "_entries", "if not isinstance(name, str):", "if False:",
     "_read taking an array name that is not a string"),
    ("checkpoint.py", "_entries", "if not isinstance(shape, list) or not all(", "if not all(",
     "_read taking an array shape that is not a list"),
    ("checkpoint.py", "_entries", "all(type(n) is int for n in shape)", "True",
     "_read taking an array shape of non-ints"),
    ("checkpoint.py", "_entries", "if any(n < 0 for n in shape):", "if False:",
     "_read taking a negative array size"),
    ("checkpoint.py", "load_backbone", "except (KeyError, TypeError, ContractError) as exc:",
     "except KeyError as exc:", "load_backbone letting a bad stored config raise its own error"),
    ("checkpoint.py", "load_prompt", 'if not {"dim", "layers"} <= meta.keys():', "if False:",
     "load_prompt letting a header without dim raise KeyError"),
    ("graphs.py", "read_graph_file", "if min(d, t) < 0:", "if min(d, t) < -1:",
     "read_graph_file taking a header width of -1"),
    ("graphs.py", "read_graph_file",
     'GraphParseError(f"line {lineno}: bad label value") from None', "",
     "read_graph_file letting a bad label value raise ValueError"),
    # The range checks of the tensor ops.
    ("tensor.py", "gather_rows", "idx.min() < 0", "idx.min() < -1",
     "gather_rows reading index -1 as the last row"),
    ("tensor.py", "SourceBuckets.__init__", "if not ascends.all():", "if False:",
     "SourceBuckets taking a row whose columns do not ascend"),
    # The rules that keep the blocked plan of max aggregation bit for bit
    # equal to a max over each row's sources in column order.
    ("tensor.py", "neighbor_max", "np.maximum(hub_rows, row_max, out=row_out)",
     "np.maximum(row_max, hub_rows, out=row_out)",
     "a node row taking its hub max as the second operand"),
    ("tensor.py", "neighbor_max", "np.maximum(hub_in, block_max.repeat(p, 0), out=hub_out)",
     "np.maximum(block_max.repeat(p, 0), hub_in, out=hub_out)",
     "a hub's row taking its block max as the first operand"),
    ("tensor.py", "neighbor_max", "np.where(np.isnan(row_out),", "np.where(False,",
     "a node row's NaN max sent to its first hub slot not below the hub max, not to hub 0"),
    ("tensor.py", "_first_source", "first = np.zeros(top.shape", "first = np.ones(top.shape",
     "the first-slot search counting one slot too many"),
    ("tensor.py", "_first_source", "len(block) <= 256", "True",
     "the first-slot search counting in a byte past slot 255"),
    ("tensor.py", "gelu", "d *= g", "d -= cdf; d *= g; d += cdf",
     "GELU's backward adding cdf after scaling by g, not before"),
    ("tensor.py", "gelu", "np.copysign(erf(cdf, out=cdf), ad, out=cdf)", "erf(cdf, out=cdf)",
     "GELU's erf of |x| without the sign of x given back"),
    # The key-major softmax: every reduction runs over the keys, axis 0.
    ("tensor.py", "_softmax_over_keys", "g -= np.add.reduce(g * scores, axis=0)",
     "g -= np.add.reduce(g * scores, axis=-1, keepdims=True)",
     "the softmax backward summing over the query positions, not the keys"),
    # The first layer of a frozen max MPGNN, which reads its node rows as
    # constants. Its graph maxima are the plan's own bucket maxima, blocks
    # included, so the mutants above (operand orders) and the bucket padding
    # below cover its combine and its maxima.
    ("tensor.py", "SourceBuckets.__init__", "np.minimum(slot, counts[rows] - 1)",
     "np.where(slot < counts[rows], slot, 0)",
     "bucket tables, blocks included, padded with a row's first source"),
    ("tensor.py", "neighbor_max", "np.bincount(flat.ravel(), weights=g.ravel()",
     "np.bincount(flat[::-1].ravel(), weights=g[::-1].ravel()",
     "a hub's spoke entries summed before its own row's entry"),
    ("models.py", "encode_nodes", "t is not None and t.requires_grad", "False",
     "the constant first layer taken while the input stage trains"),
    # The MPGNN's rows [hubs; node rows]: H = p * B hubs block by block, then
    # the node rows, which the last layer computes alone.
    ("models.py", "_mpgnn_adjacency", "np.repeat(np.arange(batch.size), np.diff(batch.offsets))",
     "np.repeat(np.arange(batch.size)[::-1], np.diff(batch.offsets))",
     "sample b's node rows joined to the hubs of sample B - 1 - b"),
    ("models.py", "_insert_prompt_rows", "np.repeat(offsets[:-1], p)",
     "np.repeat(offsets[1:] - 1, p)", "prompt rows inserted before a block's last node row"),
    ("tensor.py", "neighbor_max", "np.arange(hubs).reshape(blocks, p).T",
     "np.arange(hubs).reshape(p, blocks)", "hubs read hub-major instead of block-major"),
    ("models.py", "_mpgnn_operands", "tail = indptr[hubs:]", "tail = indptr[hubs - p:]",
     "the node-row operand sliced from H - p"),
    ("training.py", "_forward", "maxima[0][encoded.rows(idx)]",
     "maxima[0][encoded.rows(np.sort(idx))]",
     "a batch reading the node-row maxima of its samples in dataset order"),
    # What the CLI writes to a run directory.
    ("cli.py", "_aggregate_row", "finals.std(ddof=1)", "finals.std(ddof=0)",
     "metrics.csv std with ddof=0"),
    ("cli.py", "_aggregate_row", "np.mean([r.record.epochs_to_best",
     "np.median([r.record.epochs_to_best", "metrics.csv epochs_to_best_mean as a median"),
    ("cli.py", "_aggregate_row", "results[0].trainable_count", "results[0].frozen_count",
     "metrics.csv trainable_params reading frozen_count"),
    ("cli.py", "_dump_run", '"seed": seed,', '"seed": 0,', "run_meta.json seed written as 0"),
    ("cli.py", "_dump_run", '"frozen_params": results[0].frozen_count',
     '"frozen_params": results[0].trainable_count',
     "run_meta.json frozen_params written as the trainable count"),
    ("cli.py", "cmd_pretrain", '"final_rmse": record.eval_metrics[-1]',
     '"final_rmse": min(record.eval_metrics)',
     "pretrain_record.json final_rmse as the best epoch's RMSE, not the last"),
    ("cli.py", "cmd_tune", "last = results[-1]", "last = results[0]",
     "tune storing fold 0's prompt"),
    ("cli.py", "cmd_tune", "p_len=tuning.p_len", "p_len=0", "prompt.ckpt p_len written as 0"),
    ("cli.py", "cmd_report", 'bucket["runs"] += 1', 'bucket["runs"] = 1',
     "report.csv runs always 1"),
    ("cli.py", "cmd_report", 'np.mean(bucket["epochs_to_best"])',
     'np.median(bucket["epochs_to_best"])', "report.csv epochs_to_best_mean as a median"),
    ("cli.py", "cmd_report", 'np.mean(bucket["epoch_seconds"])',
     'np.median(bucket["epoch_seconds"])', "report.csv epoch_seconds_mean as a median"),
]

# Not copied: version control, caches and the benchmark's run records (benchmarks/out).
_IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"}


class StaleMutant(Exception):
    """A mutant whose scope or text is not in the code."""


def scope_span(source: str, scope: str) -> tuple[int, int]:
    """The first and last line of the function or class ``scope``, a dotted
    name such as ``AdamW.step``, or of the whole module for ``<module>``."""
    if scope == "<module>":
        return 1, len(source.splitlines())
    body, node = ast.parse(source).body, None
    for name in scope.split("."):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            raise StaleMutant(f"no {scope}")
        body = node.body
    return node.lineno, node.end_lineno


def mutate(source: str, scope: str, old: str, new: str) -> tuple[int, str]:
    """The line number and the source with ``old`` replaced by ``new`` on the one
    line of ``scope`` that holds it."""
    first, last = scope_span(source, scope)
    lines = source.splitlines(keepends=True)
    hits = [i for i in range(first - 1, last) if old in lines[i]]
    if len(hits) != 1 or lines[hits[0]].count(old) != 1:
        raise StaleMutant(f"{old!r} occurs on {len(hits)} lines of {scope}")
    i = hits[0]
    lines[i] = lines[i].replace(old, new)
    return i + 1, "".join(lines)


def run_suite(tree: Path) -> tuple[bool, float]:
    """Whether Tier-1 without acceptance 8 passes in ``tree``, and its seconds."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "tests", "--deselect", SLOW_TEST], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.perf_counter() - started


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gpt-lab-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=lambda _, names: _IGNORED & set(names))
        passed, seconds = run_suite(tree)
        print(f"unmutated  {'passed' if passed else 'FAILED'} in {seconds:.0f} s", flush=True)
        if not passed:
            return 1
        survivors, stale = [], []
        for file, scope, old, new, what in MUTANTS:
            path = tree / "src" / "gpt_lab" / file
            source = path.read_text(encoding="utf-8")
            try:
                line, mutant = mutate(source, scope, old, new)
            except StaleMutant as exc:
                stale.append(f"{file} {scope}: {exc}")
                print(f"STALE      {file} {scope}: {exc}", flush=True)
                continue
            path.write_text(mutant, encoding="utf-8")
            try:
                passed, seconds = run_suite(tree)
            finally:
                path.write_text(source, encoding="utf-8")
            where = f"{file}:{line} {what}"
            print(f"{'survived' if passed else 'killed  '}   {where} ({seconds:.0f} s)",
                  flush=True)
            if passed:
                survivors.append(where)
    print(f"mutants: {len(MUTANTS) - len(stale)} run, {len(survivors)} survived, "
          f"{len(stale)} stale")
    for where in survivors:
        print(f"SURVIVOR   {where}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
