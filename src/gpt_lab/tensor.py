"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation computes eagerly on numpy arrays. When a ``Tape`` is
active and an operand participates in gradients, the operation records a
node holding per-input backward closures; ``backward`` replays the node
list once, in reverse, and returns a gradient map keyed by the leaf
tensors that require gradients.

Shapes are kept deliberately rigid: every tensor is a scalar, a vector or
a matrix, and the single allowed broadcast is a row vector over the rows
of a matrix. Everything else is a shape error. Rows move by one
primitive, ``gather_rows``: output row i reads input row ``index[i]``, or
a zero row for -1, and the backward pass scatter-adds onto the rows read.
``masked_pool_rows`` and ``block_attention`` gather through the same
helper. The one place that works on higher-rank arrays is
``block_attention``: it gathers the rows of its (R, heads * dq) operands
into padded (B, heads, L, dq) groups, runs softmax attention within each
group and scatters the result back to (R, heads * dq), so the 4-D arrays
never leave that operation. The sparse matrix that ``spmm`` and
``neighbor_max`` take is a constant. ``neighbor_max`` buckets its output
rows by source count, rounded up to a power of two, and runs one gather
and one max per bucket; only its backward pass looks up which source
held each max (the first in column order that is not below it, so ties
go to the lowest column and a NaN max to the row's first source).
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "DegenerateRowError",
    "ContractError",
    "MASK_FILL",
    "backward",
    "matmul",
    "add",
    "mul",
    "scale",
    "gelu",
    "tsum",
    "AttentionGroups",
    "block_attention",
    "layer_norm",
    "concat_rows",
    "concat_cols",
    "gather_rows",
    "masked_pool_rows",
    "spmm",
    "neighbor_max",
    "bce_with_logits",
]

MASK_FILL = -1e30  # additive pre-exponentiation mask value

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class DegenerateRowError(ValueError):
    """A masked softmax row has no unmasked entries."""


class ContractError(ValueError):
    """An operation precondition was violated."""


class Tensor:
    """A dense float64 array, optionally tracked on the active tape.

    ``tape_id`` is the slot handle on the tape the tensor was last
    recorded on, and ``_tape`` a weak reference to that tape; both are
    only meaningful while that tape is open (tapes are rebuilt per
    forward pass).
    """

    __slots__ = ("data", "requires_grad", "tape_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.tape_id: int | None = None
        self._tape: "weakref.ref[Tape] | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Thin operator sugar over the module-level primitives.
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)


_GradFn = Callable[[np.ndarray], np.ndarray]


class Tape:
    """Ordered record of one forward pass.

    Nodes are appended in execution order, so each node's inputs precede
    it and a single reverse sweep visits every node exactly once. The
    backward closures hold tensors, so tensors point back at their tape
    only weakly: a strong reference would make each record a cycle that
    outlives its step until the cyclic collector runs. The tape, with
    every closure and activation it holds, is freed when its block exits
    unless the caller keeps it; ``backward`` needs an open tape.
    """

    def __init__(self):
        self.nodes: list[tuple[int, list[tuple[int, _GradFn]]]] = []
        self._leaves: dict[int, Tensor] | None = {}
        self._next_slot = 0
        self._ref = weakref.ref(self)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        # Close the tape: the grad leaves (parameters outlive the step) no
        # longer point at it, and backward refuses it from now on.
        for leaf in self._leaves.values():
            if leaf._tape is self._ref:
                leaf._tape = leaf.tape_id = None
        self._leaves = None

    def _slot_for(self, t: Tensor) -> int | None:
        """Slot of ``t`` on this tape, registering grad leaves on first use."""
        if t._tape is self._ref and t.tape_id is not None:
            return t.tape_id
        if t.requires_grad:
            slot = self._next_slot
            self._next_slot += 1
            t._tape = self._ref
            t.tape_id = slot
            self._leaves[slot] = t
            return slot
        return None

    def _emit(self, out: Tensor, deps: list[tuple[int, _GradFn]]) -> None:
        slot = self._next_slot
        self._next_slot += 1
        out._tape = self._ref
        out.tape_id = slot
        self.nodes.append((slot, deps))


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, pairs: Iterable[tuple[Tensor, _GradFn]]) -> Tensor:
    """Record ``out`` on the active tape when any input is tracked."""
    tape = _active_tape()
    if tape is None:
        return out
    deps = []
    for t, fn in pairs:
        slot = tape._slot_for(t)
        if slot is not None:
            deps.append((slot, fn))
    if deps:
        tape._emit(out, deps)
    return out


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of a scalar loss for every grad-leaf it touches.

    Returns a map from leaf Tensor to its gradient array. Tensors with
    ``requires_grad=False`` never appear. Calling this twice on the same
    loss yields identical maps. The loss's tape must still be open: call
    this inside the ``with Tape()`` block that recorded it.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = loss._tape() if loss._tape is not None else None
    if tape is None or tape._leaves is None or loss.tape_id is None:
        raise ContractError("loss is not recorded on an open tape (backward runs inside "
                            "the `with Tape()` block that recorded it)")
    grads: dict[int, np.ndarray] = {loss.tape_id: np.ones_like(loss.data)}
    for out_slot, deps in reversed(tape.nodes):
        g = grads.pop(out_slot, None)
        if g is None:
            continue
        for slot, fn in deps:
            contrib = fn(g)
            prev = grads.get(slot)
            grads[slot] = contrib if prev is None else prev + contrib
    return {leaf: grads[slot] for slot, leaf in tape._leaves.items() if slot in grads}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _as_mask(mask, shape: tuple[int, ...], what: str) -> np.ndarray:
    m = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=bool)
    if m.shape != shape:
        raise ShapeError(f"{what}: mask shape {m.shape} does not match data shape {shape}")
    return m


# ---------------------------------------------------------------------------
# Recorded primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs two matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    return _record(out, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def _broadcast_kind(a: Tensor, b: Tensor, op: str) -> str:
    if a.shape == b.shape:
        return "same"
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return "rowvec"
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape} "
                     "(only row-vector-over-rows broadcast is supported)")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row vector broadcast over rows of ``a``."""
    a, b = _as_tensor(a), _as_tensor(b)
    kind = _broadcast_kind(a, b, "add")
    out = Tensor(a.data + b.data)
    if kind == "same":
        return _record(out, [(a, lambda g: g), (b, lambda g: g)])
    return _record(out, [(a, lambda g: g), (b, lambda g: g.sum(axis=0))])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may be a row vector broadcast over rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    kind = _broadcast_kind(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    if kind == "same":
        return _record(out, [(a, lambda g: g * bd), (b, lambda g: g * ad)])
    return _record(out, [(a, lambda g: g * bd), (b, lambda g: (g * ad).sum(axis=0))])


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, [(a, lambda g: g * c)])


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-form) GELU."""
    a = _as_tensor(a)
    ad = a.data
    cdf = 0.5 * (1.0 + erf(ad / _SQRT2))
    out = Tensor(ad * cdf)

    def bwd(g):
        pdf = np.exp(-0.5 * ad * ad) * _INV_SQRT_2PI
        return g * (cdf + ad * pdf)

    return _record(out, [(a, bwd)])


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)
    ad = a.data
    out = Tensor(np.sum(ad))
    return _record(out, [(a, lambda g: g * np.ones_like(ad))])


def _softmax_last_axis(scores: np.ndarray, m: np.ndarray, what: str, row_ids: np.ndarray):
    """Softmax over the last axis with masked entries pinned to exactly zero.

    ``m`` broadcasts against ``scores``. Masking adds ``MASK_FILL`` before
    exponentiation and zeroes the masked outputs afterwards; rows are
    stabilized by max subtraction. ``row_ids`` (shape ``m.shape[:-1]``)
    names each row in the caller's terms for the error message; a row
    whose id is negative is padding, which may be fully masked and then
    comes out all zero. Any other fully masked row is rejected.

    Returns the probabilities and the backward map from an upstream
    gradient on them to the gradient on ``scores``.
    """
    alive = m.any(axis=-1)
    dead = ~alive & (row_ids >= 0)
    if dead.any():
        raise DegenerateRowError(f"{what}: row {int(row_ids[dead][0])} is fully masked")
    shifted = scores + np.where(m, 0.0, MASK_FILL)
    shifted -= shifted.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    probs = e / np.where(alive[..., None], total, 1.0)

    def bwd(g):
        dot = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - dot)

    return probs, bwd


class AttentionGroups(NamedTuple):
    """Rows of a flattened batch gathered into padded groups for attention.

    ``index[b, i]`` is the row at position ``i`` of group ``b``, or -1 for
    padding; every row appears exactly once. ``key_mask[b, i, j]`` lets
    position ``i`` attend to position ``j`` and is false for padding keys.
    """

    index: np.ndarray      # (B, L) int
    key_mask: np.ndarray   # (B, L, L) bool


def block_attention(q: Tensor, k: Tensor, v: Tensor, groups: AttentionGroups,
                    heads: int) -> Tensor:
    """Multi-head scaled softmax attention within each group of rows.

    ``q``, ``k`` and ``v`` are (R, heads * dq); head ``h`` owns columns
    ``h * dq : (h + 1) * dq``. Rows attend only to rows of their own group,
    as ``groups.key_mask`` allows, and the (R, heads * dq) result keeps
    the same column layout. The backward pass computes the gradients of
    all three operands together, once per incoming gradient.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"block_attention: q, k, v must be equal-shape matrices, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    rows, width = q.shape
    if heads < 1 or width % heads:
        raise ShapeError(f"block_attention: width {width} does not split into {heads} heads")
    index = np.asarray(groups.index)
    if index.ndim != 2 or not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"block_attention: index must be a 2-D int array, got "
                         f"{index.dtype} {index.shape}")
    b, n = index.shape
    m = _as_mask(groups.key_mask, (b, n, n), "block_attention")
    real = index >= 0
    order = index[real]
    if index.min(initial=0) < -1 or not np.array_equal(
            np.bincount(order, minlength=rows), np.ones(rows)):
        raise ContractError(f"block_attention: index must hold each of the {rows} rows "
                            "exactly once, and -1 for padding")
    if (m & ~real[:, None, :]).any():
        raise ContractError("block_attention: key_mask allows a padding key")
    dq = width // heads
    inv_sqrt = 1.0 / math.sqrt(dq)
    # Position of each row in the flattened (B * L) group layout.
    slot = np.flatnonzero(real.ravel())[np.argsort(order)]

    def split(a):
        """(R, heads * dq) -> (B, heads, L, dq); padding positions read zeros."""
        return _take_rows(a, index).reshape(b, n, heads, dq).transpose(0, 2, 1, 3)

    def merge(a):
        """(B, heads, L, dq) -> (R, heads * dq), dropping padding positions."""
        return a.transpose(0, 2, 1, 3).reshape(b * n, width)[slot]

    qs, ks, vs = split(q.data), split(k.data), split(v.data)
    probs, softmax_bwd = _softmax_last_axis((qs @ ks.transpose(0, 1, 3, 2)) * inv_sqrt,
                                            m[:, None], "block_attention", index[:, None])
    out = Tensor(merge(probs @ vs))

    last: list = [None, None]   # [incoming gradient, (dq, dk, dv)]

    def grads(g):
        if last[0] is not g:
            gs = split(g)
            ds = softmax_bwd(gs @ vs.transpose(0, 1, 3, 2)) * inv_sqrt
            last[0] = g
            last[1] = (merge(ds @ ks), merge(ds.transpose(0, 1, 3, 2) @ qs),
                       merge(probs.transpose(0, 1, 3, 2) @ gs))
        return last[1]

    return _record(out, [(q, lambda g: grads(g)[0]), (k, lambda g: grads(g)[1]),
                         (v, lambda g: grads(g)[2])])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by an affine map."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if x.ndim != 2:
        raise ShapeError(f"layer_norm needs a matrix, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
                         f"do not match width {d}")
    if not eps > 0:
        raise ContractError("layer_norm requires eps > 0")
    xd = x.data
    mu = xd.mean(axis=1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    gd = gain.data

    def bwd_x(g):
        dxhat = g * gd
        return inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))

    return _record(out, [
        (x, bwd_x),
        (gain, lambda g: (g * xhat).sum(axis=0)),
        (bias, lambda g: g.sum(axis=0)),
    ])


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices along the row axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    width = parts[0].shape[-1]
    for p in parts:
        if p.ndim != 2 or p.shape[1] != width:
            raise ShapeError(f"concat_rows: expected {width}-column matrices, got shape {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    deps = []
    offset = 0
    for p in parts:
        start, stop = offset, offset + p.shape[0]
        deps.append((p, lambda g, s=start, e=stop: g[s:e].copy()))
        offset = stop
    return _record(out, deps)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices along the column axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(f"concat_cols: expected {rows}-row matrices, got shape {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    deps = []
    offset = 0
    for p in parts:
        start, stop = offset, offset + p.shape[1]
        deps.append((p, lambda g, s=start, e=stop: g[:, s:e].copy()))
        offset = stop
    return _record(out, deps)


def _take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` along the first axis, where an index of -1 reads a zero row."""
    out = a.take(index, axis=0)
    out[index < 0] = 0.0
    return out


def gather_rows(x: Tensor, index) -> Tensor:
    """Row ``i`` of the result is ``x[index[i]]``, or a zero row where ``index[i]`` is -1.

    A row of ``x`` may be read any number of times; the backward pass
    scatter-adds every gradient row back onto the row it was read from,
    in one ``np.bincount``.
    """
    x = _as_tensor(x)
    idx = np.asarray(index)
    if x.ndim != 2 or idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"gather_rows needs a matrix and a 1-D int index, got shape "
                         f"{x.shape} and {idx.dtype} index of shape {idx.shape}")
    n, d = x.shape
    if idx.size and (idx.min() < -1 or idx.max() >= n):
        raise ContractError(f"gather_rows: index outside [-1, {n}) for a {n}-row matrix")

    def bwd(g):
        # -1 becomes a spare row n, whose sums are dropped.
        flat = ((idx % (n + 1))[:, None] * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=(n + 1) * d)[:n * d].reshape(n, d)

    return _record(Tensor(_take_rows(x.data, idx)), [(x, bwd)])


def masked_pool_rows(x: Tensor, row_mask, mode: str) -> Tensor:
    """Sum or mean over selected rows of ``x``, one set of rows per mask row.

    A (B, R) mask pools B disjoint row sets into a (B, d) matrix in one
    operation; a length-R mask pools one set into a width-d vector. Each
    set's rows are gathered in row order into a (B, L, d) block, L being
    the largest set and padding reading zeros, and summed along L.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"masked_pool_rows needs a matrix, got shape {x.shape}")
    if mode not in ("sum", "mean"):
        raise ContractError(f"unknown pooling mode {mode!r}")
    m = np.asarray(row_mask.data if isinstance(row_mask, Tensor) else row_mask, dtype=bool)
    if m.ndim not in (1, 2) or m.shape[-1] != x.shape[0]:
        raise ShapeError(f"masked_pool_rows: mask shape {m.shape} does not match "
                         f"{x.shape[0]} rows")
    vector = m.ndim == 1
    m = np.atleast_2d(m)
    counts = m.sum(axis=1)
    if not counts.all():
        raise ContractError("masked_pool_rows: empty inclusion set")
    owner, rows = np.nonzero(m)
    if np.bincount(rows).max() > 1:
        raise ContractError("masked_pool_rows: row sets overlap")
    index = np.full((len(counts), counts.max()), -1)
    index[owner, np.arange(rows.size) - (np.cumsum(counts) - counts)[owner]] = rows
    xd = x.data
    pooled = _take_rows(xd, index).sum(axis=1)
    if mode == "mean":
        pooled = pooled / counts[:, None]
    out = Tensor(pooled[0] if vector else pooled)
    w = np.ones(len(counts)) if mode == "sum" else 1.0 / counts

    def bwd(g):
        z = np.zeros_like(xd)
        z[rows] = (g.reshape(len(counts), -1) * w[:, None])[owner]
        return z

    return _record(out, [(x, bwd)])


def spmm(a, x: Tensor) -> Tensor:
    """Product of a constant scipy.sparse matrix and a matrix tensor; ``x`` gets ``a.T @ g``."""
    x = _as_tensor(x)
    if x.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm: cannot multiply shapes {a.shape} and {x.shape}")
    return _record(Tensor(a @ x.data), [(x, lambda g: a.T @ g)])


def neighbor_max(h: Tensor, adj) -> Tensor:
    """Row i is the elementwise max of the rows of ``h`` stored in row i of CSR ``adj``.

    Rows are bucketed by source count, rounded up to a power of two, so
    one large row pads only the rows of its own bucket. Each bucket
    gathers its sources in column order into one (slots, rows, d) block,
    short rows reading an appended -inf row, and takes one max over the
    slots. The gradient of each (row, column) pair goes to a single
    source: the first slot not below the max, so ties go to the lowest
    column and a NaN max to the row's first source. That search runs in
    the backward pass, so an untaped forward never pays for it.
    """
    h = _as_tensor(h)
    if h.ndim != 2 or adj.shape[1] != h.shape[0]:
        raise ShapeError(f"neighbor_max: cannot aggregate shape {h.shape} over {adj.shape}")
    n, d = h.shape
    if not adj.has_sorted_indices:
        adj = adj.sorted_indices()
    counts = np.diff(adj.indptr)
    if not counts.all():
        raise ContractError(f"neighbor_max: row {int(np.argmin(counts))} has no source")
    padded = np.concatenate([h.data, np.full((1, d), -np.inf)])
    sources = np.append(adj.indices, n)          # entry nnz reads the -inf row
    log_slots = np.frexp(counts - 1)[1]          # ceil(log2(count)), 0 for one source
    outd = np.empty((counts.size, d))
    buckets = []
    for b in np.unique(log_slots):
        rows = np.flatnonzero(log_slots == b)
        slot = np.arange(1 << int(b))[:, None]
        table = sources[np.where(slot < counts[rows], adj.indptr[rows] + slot, adj.nnz)]
        block = padded.take(table, axis=0)
        top = block.max(axis=0)
        outd[rows] = top
        buckets.append((rows, table, block, top))

    def bwd(g):
        source = np.empty((counts.size, d), dtype=np.intp)
        for rows, table, block, top in buckets:
            first = (block < top).argmin(axis=0)      # first slot not below the max
            # table[first[i, j], i], read through the flat table
            source[rows] = table.ravel().take(first * rows.size + np.arange(rows.size)[:, None])
        flat = (source * d + np.arange(d)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)

    return _record(Tensor(outd), [(h, bwd)])


def bce_with_logits(logits: Tensor, labels, label_mask=None) -> Tensor:
    """Mean binary cross-entropy over unmasked entries, from raw logits.

    Uses the stable ``max(x,0) - x*y + log1p(exp(-|x|))`` form. Labels must
    be 0/1 wherever the mask is true; masked entries are ignored entirely,
    which is how multi-task targets with missing values are handled.
    """
    logits = _as_tensor(logits)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: labels shape {y.shape} vs logits {logits.shape}")
    if label_mask is None:
        m = np.ones(logits.shape, dtype=bool)
    else:
        m = _as_mask(label_mask, logits.shape, "bce_with_logits")
    count = int(m.sum())
    if count == 0:
        raise ContractError("bce_with_logits: every label is masked")
    ym = y[m]
    if not np.all((ym == 0.0) | (ym == 1.0)):
        raise ContractError("bce_with_logits: unmasked labels must be 0 or 1")
    x = logits.data
    per = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(per[m].sum() / count)

    def bwd(g):
        gx = (expit(x) - y) * m
        return gx * (float(g) / count)

    return _record(out, [(logits, bwd)])
