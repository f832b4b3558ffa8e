"""Graph samples, positional encodings, batching, generators and file I/O.

Graphs are small, undirected and immutable: a node-feature matrix, a
canonicalized edge list and an optional label vector. ``batch`` stacks
samples into one ``BatchedGraph``, and ``BatchedGraph.take`` gathers any
of its samples, in any order, into a new one with array indexing alone,
so a dataset is batched once and every later batch is a gather from it.
``rwpe`` encodes a whole batch, with one stacked product per node count.
Synthetic dataset generators label every sample by explicit enumeration
of the target structure, so labels can always be re-verified
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gpt_lab.seeding import rng_for

__all__ = [
    "GraphSample",
    "BatchedGraph",
    "DatasetSplit",
    "DataError",
    "GraphParseError",
    "GraphValidationError",
    "rwpe",
    "with_rwpe",
    "batch",
    "gen_pretext",
    "PRETEXT_NODES",
    "gen_downstream",
    "triangle_count",
    "has_cycle_of_length",
    "count_components",
    "read_graph_file",
    "write_graph_file",
    "make_folds",
    "DOWNSTREAM_TASKS",
]


class DataError(ValueError):
    """Dataset-level contract violation."""


class GraphParseError(DataError):
    """Malformed graph file content; message carries the line number."""


class GraphValidationError(DataError):
    """Structurally invalid graph (bad edge indices, duplicates, ...)."""


@dataclass(frozen=True)
class GraphSample:
    """One undirected graph: features (n x d), canonical edges, optional label."""

    n: int
    features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    label: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise GraphValidationError(f"a graph needs at least one node, got n={self.n}")
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.n:
            raise GraphValidationError(
                f"features must be ({self.n}, d), got shape {feats.shape}")
        seen = set()
        canon = []
        for i, j in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise GraphValidationError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphValidationError(
                    f"edge ({i}, {j}) out of range for {self.n} nodes")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphValidationError(f"duplicate undirected edge {key}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.label is not None:
            lab = np.asarray(self.label, dtype=np.float64).reshape(-1)
            object.__setattr__(self, "label", lab)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def label_dim(self) -> int:
        return 0 if self.label is None else self.label.shape[0]

    def neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            out[i].append(j)
            out[j].append(i)
        return out

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a


@dataclass(frozen=True)
class BatchedGraph:
    """The samples' node rows stacked in order, with their edges in row numbers.

    Sample b owns rows ``offsets[b]:offsets[b + 1]``. ``edges`` holds each
    undirected edge of each sample once, as a pair of those row numbers,
    so no edge joins two samples; the samples' edges come in sample
    order, each sample's sorted, so the first column never decreases.
    There is no padding.
    """

    features: np.ndarray             # (R, d)
    degrees: np.ndarray              # (R,) int
    edges: np.ndarray                # (E, 2) int, row numbers
    offsets: np.ndarray              # (B + 1,) int, offsets[0] == 0

    @property
    def size(self) -> int:
        return len(self.offsets) - 1

    def rows(self, samples) -> np.ndarray:
        """The node rows of ``samples``, each sample's in order, as ``take`` gathers them."""
        return _spans(self.offsets, np.asarray(samples, dtype=np.int64).reshape(-1))[0]

    def take(self, samples) -> BatchedGraph:
        """The batch of ``samples``, in that order and with repeats allowed:
        each sample's rows, degrees and edges, renumbered to its new rows."""
        idx = np.asarray(samples, dtype=np.int64).reshape(-1)
        if not (idx.size and 0 <= idx.min() and idx.max() < self.size):
            raise DataError(f"cannot take samples {idx.tolist()} of a batch of {self.size}")
        rows, offsets = _spans(self.offsets, idx)
        firsts = np.searchsorted(self.edges[:, 0], self.offsets)   # each sample's first edge
        picks, edge_offsets = _spans(firsts, idx)
        shift = np.repeat(offsets[:-1] - self.offsets[idx], np.diff(edge_offsets))
        return BatchedGraph(self.features[rows], self.degrees[rows],
                            self.edges[picks] + shift[:, None], offsets)


def _spans(bounds: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of spans ``bounds[i]:bounds[i + 1]`` for each i of ``idx``,
    concatenated in that order, and where each span starts among them."""
    starts = bounds[idx]
    offsets = np.concatenate([[0], np.cumsum(bounds[idx + 1] - starts)])
    return np.repeat(starts - offsets[:-1], np.diff(offsets)) + np.arange(offsets[-1]), offsets


def batch(graphs: Sequence[GraphSample]) -> BatchedGraph:
    """Stack samples' node rows and shift their edges to the stacked row numbers."""
    if not graphs:
        raise DataError("cannot batch an empty list of graphs")
    d = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != d:
            raise DataError(f"heterogeneous feature widths: {g.feature_dim} vs {d}")
    offsets = np.concatenate([[0], np.cumsum([g.n for g in graphs])])
    edges = np.concatenate([np.asarray(g.edges, dtype=np.int64).reshape(-1, 2) + start
                            for g, start in zip(graphs, offsets)])
    return BatchedGraph(np.concatenate([g.features for g in graphs]),
                        np.bincount(edges.ravel(), minlength=offsets[-1]),
                        edges, offsets)


def rwpe(batch: BatchedGraph, k: int) -> np.ndarray:
    """Random-walk return probabilities for steps 1..k, one row per node row.

    Column s-1 holds the probability that a uniform random walk starting
    at node i is back at i after exactly s steps, i.e. the diagonal of
    (D^-1 A)^s over i's own graph. Isolated nodes get all-zero rows.
    The graphs of one node count n share one stacked product: their (G,
    n, n) D^-1 A, raised by k - 1 stacked matmuls, each step's diagonals
    written to the graphs' rows.
    """
    if k < 1:
        raise DataError(f"rwpe needs k >= 1, got {k}")
    sizes = np.diff(batch.offsets)
    owner = np.searchsorted(batch.offsets, batch.edges[:, 0], side="right") - 1
    local = batch.edges - batch.offsets[owner, None]
    out = np.zeros((batch.offsets[-1], k))
    for n in np.unique(sizes):
        members = sizes == n
        slot = np.cumsum(members) - 1              # each member's place in its class
        mine = members[owner]
        g, i, j = slot[owner[mine]], local[mine, 0], local[mine, 1]
        a = np.zeros((np.count_nonzero(members), n, n))
        a[g, i, j] = a[g, j, i] = 1.0
        deg = a.sum(axis=2, keepdims=True)
        m = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)
        rows = batch.offsets[:-1][members, None] + np.arange(n)
        cur = m
        out[rows, 0] = np.diagonal(cur, axis1=1, axis2=2)
        for s in range(1, k):
            cur = cur @ m
            out[rows, s] = np.diagonal(cur, axis1=1, axis2=2)
    return out


def with_rwpe(graphs: Sequence[GraphSample], k: int) -> list[GraphSample]:
    """Concatenate k random-walk encodings onto each sample's raw features:
    ``rwpe`` of their batch, split back into samples."""
    stacked = batch(graphs)
    enc = rwpe(stacked, k)
    return [GraphSample(g.n, np.concatenate([g.features, enc[lo:hi]], axis=1), g.edges, g.label)
            for g, lo, hi in zip(graphs, stacked.offsets, stacked.offsets[1:])]


# ---------------------------------------------------------------------------
# Structure counting (enumeration-based, used both for labels and checks)
# ---------------------------------------------------------------------------


def triangle_count(g: GraphSample) -> int:
    """Number of triangles, counted by enumerating (edge, apex) triples."""
    a = g.adjacency_matrix().astype(bool)
    total = 0
    for i, j in g.edges:
        total += int(np.count_nonzero(a[i] & a[j]))
    return total // 3


def has_cycle_of_length(g: GraphSample, length: int) -> bool:
    """Whether any simple cycle of exactly ``length`` exists (bounded DFS)."""
    if length < 3:
        raise DataError(f"cycles have length >= 3, got {length}")
    nbrs = g.neighbors()

    def walk(start: int, node: int, depth: int, visited: set[int]) -> bool:
        if depth == length - 1:
            return start in nbrs[node]
        for nxt in nbrs[node]:
            # only descend to larger-than-start nodes so each cycle is
            # explored from its minimum vertex once
            if nxt > start and nxt not in visited:
                visited.add(nxt)
                if walk(start, nxt, depth + 1, visited):
                    return True
                visited.remove(nxt)
        return False

    for s in range(g.n):
        if walk(s, s, 0, {s}):
            return True
    return False


def count_components(g: GraphSample) -> int:
    """Connected component count via union-find."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(g.n)})


# ---------------------------------------------------------------------------
# Synthetic dataset generators
# ---------------------------------------------------------------------------

DOWNSTREAM_TASKS = ("motif_presence", "community_count", "multi_motif")


def _random_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def _random_features(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=(n, d))


# The node counts a pretext graph may have.
PRETEXT_NODES = (4, 64)


def gen_pretext(count: int, size_range: tuple[int, int], seed: int,
                feature_dim: int = 4) -> list[GraphSample]:
    """Random dense-ish graphs labeled with triangles-per-node (regression).

    The label of each sample is its enumerated triangle count divided by
    the node count. Reproducible from the seed alone.
    """
    lo, hi = size_range
    if not (PRETEXT_NODES[0] <= lo <= hi <= PRETEXT_NODES[1]):
        raise DataError(f"pretext size_range must lie within {list(PRETEXT_NODES)}, "
                        f"got {size_range}")
    rng = rng_for(seed, "pretext-data")
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        p = float(rng.uniform(0.15, 0.5))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = GraphSample(n, _random_features(n, feature_dim, rng), tuple(edges))
        label = np.array([triangle_count(g) / n])
        out.append(GraphSample(g.n, g.features, g.edges, label))
    return out


def _balanced_flags(count: int, rng: np.random.Generator) -> np.ndarray:
    flags = np.zeros(count, dtype=bool)
    flags[: count // 2] = True
    rng.shuffle(flags)
    return flags


def _gen_motif_presence(count, size_range, seed, feature_dim):
    """Binary task: does the graph contain a 4-cycle?

    Negatives grow from a random tree, adding extra edges only when they
    do not close a 4-cycle; positives additionally get one planted 4-cycle.
    Every label is re-verified by enumeration before the sample is kept.
    """
    lo, hi = size_range
    if lo < 4:
        raise DataError(f"motif_presence plants a 4-cycle, so min_nodes must be at least 4, "
                        f"got {lo}")
    rng = rng_for(seed, "downstream-data", "motif_presence")
    targets = _balanced_flags(count, rng)
    out = []
    for want in targets:
        while True:
            n = int(rng.integers(lo, hi + 1))
            edges = set(_random_tree_edges(n, rng))
            for _ in range(int(rng.integers(0, max(2, n // 3)))):
                u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
                if (u, v) in edges:
                    continue
                trial = GraphSample(n, np.zeros((n, 1)), tuple(edges | {(u, v)}))
                if want or not has_cycle_of_length(trial, 4):
                    edges.add((u, v))
            if want:
                cyc = rng.choice(n, size=4, replace=False).tolist()
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    edges.add((min(a, b), max(a, b)))
            g = GraphSample(n, _random_features(n, feature_dim, rng), tuple(edges))
            if has_cycle_of_length(g, 4) == bool(want):
                out.append(GraphSample(g.n, g.features, g.edges,
                                       np.array([1.0 if want else 0.0])))
                break
    return out


def _gen_community_count(count, size_range, seed, feature_dim):
    """Regression task: number of planted communities (1..4).

    Communities are disjoint connected clusters with no edges between
    them, so the label equals the connected-component count by
    construction, which is re-verified before the sample is kept.
    """
    rng = rng_for(seed, "downstream-data", "community_count")
    max_cluster = max(3, size_range[1] // 3)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        edges: list[tuple[int, int]] = []
        offset = 0
        for _ in range(k):
            size = int(rng.integers(3, max_cluster + 1))
            while True:
                cluster = [(offset + i, offset + j)
                           for i in range(size) for j in range(i + 1, size)
                           if rng.random() < 0.7]
                sub = GraphSample(size, np.zeros((size, 1)),
                                  tuple((i - offset, j - offset) for i, j in cluster))
                if count_components(sub) == 1:
                    break
            edges.extend(cluster)
            offset += size
        g = GraphSample(offset, _random_features(offset, feature_dim, rng),
                        tuple(edges), np.array([float(k)]))
        if count_components(g) != k:
            raise DataError("community generator produced an inconsistent sample")
        out.append(g)
    return out


_MULTI_MOTIF_LENGTHS = (3, 4, 5)


def _gen_multi_motif(count, size_range, seed, feature_dim):
    """3-task binary: contains a 3-cycle / 4-cycle / 5-cycle.

    Each flag plants a disjoint cycle gadget next to a path backbone; the
    pieces are then joined by bridge edges, which never create cycles, so
    flags stay independent and exactly balanced per task.
    """
    lo, hi = size_range
    rng = rng_for(seed, "downstream-data", "multi_motif")
    flag_cols = [_balanced_flags(count, rng) for _ in _MULTI_MOTIF_LENGTHS]
    out = []
    for idx in range(count):
        flags = [bool(col[idx]) for col in flag_cols]
        backbone = int(rng.integers(max(3, lo // 2), max(4, hi // 2) + 1))
        edges = [(i, i + 1) for i in range(backbone - 1)]
        offset = backbone
        for want, length in zip(flags, _MULTI_MOTIF_LENGTHS):
            if not want:
                continue
            ring = list(range(offset, offset + length))
            edges.extend((min(a, b), max(a, b))
                         for a, b in zip(ring, ring[1:] + ring[:1]))
            bridge_to = int(rng.integers(0, offset))
            edges.append((bridge_to, offset))
            offset += length
        g = GraphSample(offset, _random_features(offset, feature_dim, rng),
                        tuple(edges),
                        np.array([1.0 if f else 0.0 for f in flags]))
        for want, length in zip(flags, _MULTI_MOTIF_LENGTHS):
            if has_cycle_of_length(g, length) != want:
                raise DataError("multi-motif generator produced an inconsistent sample")
        out.append(g)
    return out


def gen_downstream(count: int, task: str, seed: int,
                   size_range: tuple[int, int] = (6, 16),
                   feature_dim: int = 4) -> list[GraphSample]:
    """Generate a labeled downstream dataset for one of the synthetic tasks."""
    if count < 0:
        raise DataError(f"cannot generate a negative number of graphs ({count})")
    if task == "motif_presence":
        return _gen_motif_presence(count, size_range, seed, feature_dim)
    if task == "community_count":
        return _gen_community_count(count, size_range, seed, feature_dim)
    if task == "multi_motif":
        return _gen_multi_motif(count, size_range, seed, feature_dim)
    raise DataError(f"unknown task {task!r}; expected one of {DOWNSTREAM_TASKS}")


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

_MAGIC = "GPTGRAPH v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_graph_file(path, graphs: Sequence[GraphSample]) -> None:
    """Write samples in the GPTGRAPH v1 text format (features to 17 digits)."""
    graphs = list(graphs)
    d = graphs[0].feature_dim if graphs else 0
    t = graphs[0].label_dim if graphs else 0
    for g in graphs:
        if g.feature_dim != d or g.label_dim != t:
            raise DataError("all samples in a file must share d and label arity")
    lines = [f"{_MAGIC} d={d} t={t}"]
    for g in graphs:
        lines.append(f"g {g.n} {len(g.edges)}")
        for row in g.features:
            lines.append(" ".join(_fmt(v) for v in row))
        for i, j in g.edges:
            lines.append(f"e {i} {j}")
        if t:
            lines.append("y " + " ".join(_fmt(v) for v in g.label))
        else:
            lines.append("y")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            raise GraphParseError(f"line {len(self.lines) + 1}: unexpected end of file, "
                                  f"expected {what}")
        self.pos += 1
        return self.pos, self.lines[self.pos - 1]


def read_graph_file(path) -> list[GraphSample]:
    """Parse a GPTGRAPH v1 file; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rd = _LineReader(lines)
    lineno, header = rd.next("header")
    parts = header.split()
    if len(parts) != 4 or " ".join(parts[:2]) != _MAGIC \
            or not parts[2].startswith("d=") or not parts[3].startswith("t="):
        raise GraphParseError(f"line {lineno}: bad header {header!r}")
    try:
        d, t = int(parts[2][2:]), int(parts[3][2:])
    except ValueError:
        d = t = -1
    if min(d, t) < 0:
        raise GraphParseError(f"line {lineno}: bad header {header!r}")
    out = []
    while rd.pos < len(lines):
        lineno, gline = rd.next("sample start")
        gparts = gline.split()
        if len(gparts) != 3 or gparts[0] != "g":
            raise GraphParseError(f"line {lineno}: expected 'g <n> <m>', got {gline!r}")
        try:
            n, m = int(gparts[1]), int(gparts[2])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected 'g <n> <m>', got {gline!r}") from None
        if n < 1 or m < 0:
            raise GraphParseError(f"line {lineno}: a sample needs n >= 1 nodes and m >= 0 "
                                  f"edges, got {gline!r}")
        feats = np.zeros((n, d))
        for i in range(n):
            lineno, fline = rd.next(f"feature row {i}")
            vals = fline.split()
            if len(vals) != d:
                raise GraphParseError(f"line {lineno}: expected {d} feature values, "
                                      f"got {len(vals)}")
            try:
                feats[i] = [float(v) for v in vals]
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad feature value") from None
        edges = []
        for _ in range(m):
            lineno, eline = rd.next("edge line")
            eparts = eline.split()
            if len(eparts) != 3 or eparts[0] != "e":
                raise GraphParseError(f"line {lineno}: expected 'e <i> <j>', got {eline!r}")
            try:
                i, j = int(eparts[1]), int(eparts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected 'e <i> <j>', got {eline!r}") from None
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise GraphValidationError(
                    f"line {lineno}: edge ({i}, {j}) invalid for {n} nodes")
            edges.append((i, j))
        lineno, yline = rd.next("label line")
        yparts = yline.split()
        if not yparts or yparts[0] != "y":
            raise GraphParseError(f"line {lineno}: expected 'y ...', got {yline!r}")
        if len(yparts) - 1 != t:
            raise GraphParseError(f"line {lineno}: expected {t} label values, "
                                  f"got {len(yparts) - 1}")
        try:
            label = np.array([float(v) for v in yparts[1:]]) if t else None
        except ValueError:
            raise GraphParseError(f"line {lineno}: bad label value") from None
        try:
            out.append(GraphSample(n, feats, tuple(edges), label))
        except GraphValidationError as exc:
            raise GraphValidationError(f"line {lineno}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Cross-validation folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSplit:
    """Fold index per sample; folds are disjoint, exhaustive, near-equal."""

    folds: np.ndarray
    n_folds: int

    def train_eval(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        if not (0 <= fold < self.n_folds):
            raise DataError(f"fold {fold} out of range for {self.n_folds} folds")
        idx = np.arange(self.folds.shape[0])
        return idx[self.folds != fold], idx[self.folds == fold]


def make_folds(count: int, n_folds: int, seed: int) -> DatasetSplit:
    """Seeded shuffle then round-robin assignment into n_folds folds."""
    if n_folds < 2 or count < n_folds:
        raise DataError(f"cannot split {count} samples into {n_folds} folds")
    rng = rng_for(seed, "folds")
    perm = rng.permutation(count)
    folds = np.empty(count, dtype=np.int64)
    folds[perm] = np.arange(count) % n_folds
    return DatasetSplit(folds, n_folds)
