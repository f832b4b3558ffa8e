"""Dense float64 tensors with a define-by-run reverse-mode tape.

Every operation takes its operands as ``Tensor``s (an index, offsets or
labels as arrays) and computes eagerly on their numpy arrays. When a
``Tape`` is active and an operand participates in gradients, it records a
node holding per-input backward closures; ``backward`` replays the node
list once, in reverse, and returns a gradient map keyed by the leaf
tensors that require gradients.

Shapes are kept deliberately rigid: every tensor is a scalar, a vector
or a matrix, and the single allowed broadcast is a row vector over the
rows of a matrix. Everything else is a shape error. Rows move by one
primitive, ``gather_rows``: output row i reads input row ``index[i]``,
which must name a row, and the backward pass scatter-adds onto the rows
read (or, for a strictly increasing index, assigns them), and
``stack_rows`` makes one matrix of vectors. ``pool_rows``, which sums or
averages contiguous segments of rows, and ``block_attention`` gather
padded blocks of rows, in which -1 reads a zero row; ``linear``
(``x @ w + b``) is the one affine map, and no row of its result or of
its input gradient depends on the row count, one row included (it is
computed as a row of a two-row product). The one place that works on
higher-rank arrays is ``block_attention``: it gathers the rows of its
fused (R, 3 * heads * dq) query/key/value operand into padded groups,
runs softmax attention within each group in place over scores laid out
keys before queries, so each query's keys are summed in key order and
padding changes no bit, and returns one row per query row. Its groups
are an ``AttentionGroups`` plan built from one block layout: ``shared``
rows that every group reads as keys, then one contiguous block of rows
per group, whose first ``skip`` rows are keys only. The shared rows may
hold one block per prompt set of a batch that mixes several; the groups
are then dealt to the blocks in order, ``counts[j]`` groups to block j.
The plan checks that layout and derives every index once, so each
``block_attention`` over it only gathers, and its backward pass fills
one gradient buffer in key layout, sums each shared block over the
groups that read it and takes the other rows by slot.
The sparse matrix that ``spmm`` takes is a constant, and so is the
``SourceBuckets`` plan that ``neighbor_max`` takes of the CSR arrays of
one, each row's columns ascending: its output rows bucketed by source
count, rounded up to a power of two, built once per matrix. The plan may
split the columns of a square matrix into blocks, each with p hub rows
that ``neighbor_max`` reads ahead of the column rows, p set by the rows
it is handed: a block's rows read its hubs, and each hub reads its
block's rows, so each block's hubs and rows are read once per block
instead of once per row. A block's max over its rows is one more bucketed
CSR row. ``neighbor_max`` runs one gather and one max per bucket and one
for the hubs; only its backward pass looks up which source held each max
(the first in column order that is not below it, so ties go to the
lowest column and a NaN max to the row's first source). When the column
rows are constants, the plan's ``graph_maxima`` of them can be taken
once and passed in: the max then reads the hub rows alone, and only they
get a gradient.
``bce_with_logits`` reads a non-finite label as missing, the one form of
a missing label.
"""

from __future__ import annotations

import copy
import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "ContractError",
    "MASK_FILL",
    "backward",
    "matmul",
    "linear",
    "add",
    "mul",
    "scale",
    "gelu",
    "tsum",
    "AttentionGroups",
    "block_attention",
    "layer_norm",
    "concat_rows",
    "stack_rows",
    "gather_rows",
    "pool_rows",
    "spmm",
    "SourceBuckets",
    "neighbor_max",
    "bce_with_logits",
]

MASK_FILL = -1e30  # additive pre-exponentiation mask value

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


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


# ---------------------------------------------------------------------------
# Recorded primitives
# ---------------------------------------------------------------------------


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, a one-row ``a`` computed as the first row of a two-row product.

    numpy hands a one-row product to BLAS's matrix-vector routine, which
    rounds differently from the same row of a taller product, so a batch
    of one row would not round as that row does in a larger batch.
    """
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _times_transpose(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``g @ w.T``, each row computed the same way whatever the row count.

    OpenBLAS runs a product with a transposed right operand through a
    small-matrix kernel for few rows, whose rows round differently from
    the same rows of a taller product; a copied transpose is one kernel
    for every row count, so a sample's gradient rows do not depend on the
    batch around them.
    """
    return _product(g, np.ascontiguousarray(w.T))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs two matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(_product(a.data, b.data))
    ad, bd = a.data, b.data
    return _record(out, [(a, lambda g: _times_transpose(g, bd)), (b, lambda g: ad.T @ g)])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of a matrix, the bias broadcast over rows, as one node."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: cannot map shape {x.shape} by weight {w.shape} and "
                         f"bias {b.shape}")
    xd, wd = x.data, w.data
    out = Tensor(_product(xd, wd) + b.data)
    return _record(out, [(x, lambda g: _times_transpose(g, wd)), (w, lambda g: xd.T @ g),
                         (b, lambda g: g.sum(axis=0))])


def _broadcast_kind(a: Tensor, b: Tensor, op: str) -> str:
    if a.shape == b.shape:
        return "same"
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return "rowvec"
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape} "
                     "(only row-vector-over-rows broadcast is supported)")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a row vector broadcast over rows of ``a``."""
    kind = _broadcast_kind(a, b, "add")
    out = Tensor(a.data + b.data)
    if kind == "same":
        return _record(out, [(a, lambda g: g), (b, lambda g: g)])
    return _record(out, [(a, lambda g: g), (b, lambda g: g.sum(axis=0))])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may be a row vector broadcast over rows."""
    kind = _broadcast_kind(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    if kind == "same":
        return _record(out, [(a, lambda g: g * bd), (b, lambda g: g * ad)])
    return _record(out, [(a, lambda g: g * bd), (b, lambda g: (g * ad).sum(axis=0))])


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, [(a, lambda g: g * c)])


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, ``x * (0.5 * (1 + erf(x / sqrt(2))))``. erf is taken of
    ``|x| / sqrt(2)`` and given the sign of x back, which is exact (scipy's erf
    is odd to the bit) and spares erf's sign branch its mispredictions."""
    ad = a.data
    cdf = np.abs(ad)
    cdf /= _SQRT2
    np.copysign(erf(cdf, out=cdf), ad, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = Tensor(ad * cdf)

    def bwd(g):
        # g * (cdf + ad * pdf), in one buffer: -0.5 * ad * ad is ad * ad scaled
        # by -0.5, which is exact.
        d = ad * ad
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= ad
        d += cdf
        d *= g
        return d

    return _record(out, [(a, bwd)])


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    ad = a.data
    out = Tensor(np.sum(ad))
    return _record(out, [(a, lambda g: g * np.ones_like(ad))])


def _softmax_over_keys(scores: np.ndarray, m: np.ndarray):
    """Softmax over the keys, axis 0 of ``scores``, in place; the mask ``m``
    broadcasts against it and leaves every query a key.

    Masking adds ``MASK_FILL`` before the max subtraction and zeroes the
    masked probabilities after exponentiation. Each max and sum over the
    keys combines one slab per key, elementwise, in key order, so padded
    keys change no bit; with two query positions or more no slab is one
    entry, which numpy would sum as a pairwise tree. Returns the backward
    map, which turns the upstream gradient on the probabilities that it is
    given into the gradient on the scores in place.
    """
    scores += np.where(m, 0.0, MASK_FILL)
    scores -= np.maximum.reduce(scores, axis=0)
    np.exp(scores, out=scores)
    np.copyto(scores, 0.0, where=~m)
    scores /= np.add.reduce(scores, axis=0)

    def bwd(g):
        g -= np.add.reduce(g * scores, axis=0)
        g *= scores
        return g

    return bwd


class AttentionGroups:
    """The groups of ``block_attention``, planned once from their block layout.

    The rows open with k shared blocks of ``shared`` rows each. Groups
    are dealt to them in order: the first ``counts[0]`` groups read
    shared block 0 as keys and values, the next ``counts[1]`` block 1,
    and so on (one block read by every group when ``counts`` is None); a
    count may be 0. Group b is then the next contiguous block of
    ``sizes[b]`` rows: its keys are its shared block and the block, and
    its queries are the block's rows after the first ``skip``, which are
    keys only. The constructor checks the layout and derives what every
    ``block_attention`` over it reads:

    - ``index`` (B, L): the key row at position j of group b, its shared
      rows first, or -1 for padding; ``key_mask`` (B, L) is true for the
      real keys. Every group has a query row and so a real key, so no
      softmax row is fully masked; a padding query position attends like
      a real one, and its output and gradient are dropped;
    - ``query`` (B, Lq): the last Lq columns of ``index``, L being padded to
      hold them, since query position i is key position ``shared + skip +
      i``; Lq >= 2 (see ``_softmax_over_keys``);
    - ``query_rows``: the query rows in ascending order, one per output
      row of ``block_attention``; ``out_row`` (B, Lq) the output row of
      each query position, or -1;
    - ``query_slot`` and ``key_slot``: the flat (B * Lq) query positions
      and (B * L) key positions of ``query_rows`` and of the rows after
      the shared blocks, in row order;
    - ``readers``: group ``readers[j]`` up to ``readers[j + 1]`` read
      shared block j.
    """

    def __init__(self, sizes, shared: int = 0, skip: int = 0, counts=None):
        sizes = np.asarray(sizes)
        if sizes.ndim != 1 or not sizes.size or not np.issubdtype(sizes.dtype, np.integer):
            raise ShapeError(f"AttentionGroups: sizes must be a non-empty 1-D int array, "
                             f"got {sizes.dtype} {sizes.shape}")
        if shared < 0 or skip < 0 or (sizes <= skip).any():
            raise ContractError(f"AttentionGroups: every block needs a query row after its "
                                f"{skip} key-only rows, and shared ({shared}) must not be "
                                f"negative; sizes {sizes.tolist()}")
        counts = [sizes.size] if counts is None else counts
        self.shared, self.skip = int(shared), int(skip)
        self.readers = np.concatenate([[0], np.cumsum(counts)])
        self.shared_rows = self.shared * len(counts)              # rows of the shared blocks
        self.rows = self.shared_rows + int(sizes.sum())
        starts = self.shared_rows + np.cumsum(sizes) - sizes     # first row of each block
        block = np.repeat(np.arange(len(counts)), counts)         # each group's shared block
        queries = max(sizes.max() - self.skip, 2)               # query positions, Lq
        pos = np.arange(self.shared + self.skip + queries) - self.shared  # within the block
        self.key_mask = pos < sizes[:, None]
        self.index = np.where(self.key_mask,
                              np.where(pos < 0, pos + self.shared * (block[:, None] + 1),
                                       starts[:, None] + pos), -1)
        self.query = self.index[:, self.shared + self.skip:]
        asks = self.query >= 0
        self.query_rows = self.query[asks]
        self.out_row = np.where(asks, np.cumsum(asks).reshape(asks.shape) - 1, -1)
        self.query_slot = np.flatnonzero(asks)
        self.key_slot = np.flatnonzero(self.key_mask & (pos >= 0))


def block_attention(qkv: Tensor, groups: AttentionGroups, heads: int) -> Tensor:
    """Multi-head scaled softmax attention within each group of rows.

    ``qkv`` is one (groups.rows, 3 * w) operand, w = heads * dq: its
    first w columns are the queries, the next w the keys and the last w
    the values, and within each, head ``h`` owns columns
    ``h * dq : (h + 1) * dq``. Each query row attends to the keys of its
    group (see ``AttentionGroups``). The result has one row per row of
    ``groups.query_rows``, with the (., w) layout of the queries.

    Query position i is key position ``shared + skip + i`` of its group, so
    one gather in key layout reads queries, keys and values, and their
    gradients fill one (B, L, 3 * w) buffer in key layout, zero where a row
    asks no query. The scores are one (L, B, heads, Lq) buffer, keys
    outermost, for the softmax to work on in place; a group's rows and
    gradients do not depend on how far the plan pads it when dq >= 2 (at
    dq = 1 numpy runs matrix-vector products, which round by length).
    """
    if qkv.ndim != 2 or qkv.shape[1] % 3 or qkv.shape[0] != groups.rows:
        raise ShapeError(f"block_attention: qkv must be a matrix of {groups.rows} rows and 3 "
                         f"equal column blocks, got shape {qkv.shape}")
    width = qkv.shape[1] // 3
    if heads < 1 or width % heads:
        raise ShapeError(f"block_attention: width {width} does not split into {heads} heads")
    (b, n), nq, shared = groups.index.shape, groups.query.shape[1], groups.shared
    dq = width // heads
    inv_sqrt = 1.0 / math.sqrt(dq)

    def t(a):                    # each matrix of a (B, heads, ., .) stack, transposed
        return a.transpose(0, 1, 3, 2)

    # One gather in key layout, (B, 3 * heads, L, dq), padding reading zeros;
    # the queries are its last Lq positions. A product that sums over padded
    # positions takes its left operand transposed: OpenBLAS then adds
    # trailing zeros without changing a bit, which it does not for an
    # untransposed one and results up to 4 wide.
    rows = _take_rows(qkv.data, groups.index).reshape(b, n, 3 * heads, dq).transpose(0, 2, 1, 3)
    qs, ks, vs = rows[:, :heads, n - nq:], rows[:, heads:2 * heads], rows[:, 2 * heads:]
    scores = np.empty((n, b, heads, nq))             # keys outermost
    probs = scores.transpose(1, 2, 0, 3)             # (B, heads, L, Lq), softmaxed in place
    np.matmul(ks, t(qs), out=probs)
    scores *= inv_sqrt
    softmax_bwd = _softmax_over_keys(scores, groups.key_mask.T[:, :, None, None])
    out = np.empty((b, nq, heads, dq))               # the (B, Lq, w) layout of the rows
    np.matmul(t(probs), vs, out=out.transpose(0, 2, 1, 3))

    def bwd(g):
        gs = _take_rows(g, groups.out_row).reshape(b, nq, heads, dq).transpose(0, 2, 1, 3)
        dp = np.empty((n, b, heads, nq))                 # keys outermost: dP, then dS in place
        ds = dp.transpose(1, 2, 0, 3)
        np.matmul(vs, t(gs), out=ds)
        softmax_bwd(dp)
        dp *= inv_sqrt
        grad = np.zeros((b, n, 3 * heads, dq))           # key layout, rows of 3 * w
        view = grad.transpose(0, 2, 1, 3)
        np.matmul(t(ds), ks, out=view[:, :heads, n - nq:])
        view[:, heads:2 * heads] = t(t(qs) @ t(ds))
        view[:, 2 * heads:] = t(t(gs) @ t(probs))
        grad = grad.reshape(b, n, 3 * width)
        full = np.empty((groups.rows, 3 * width))
        if shared:
            readers = groups.readers
            for j in range(readers.size - 1):
                full[j * shared:(j + 1) * shared] = grad[readers[j]:readers[j + 1],
                                                         :shared].sum(axis=0)
        np.take(grad.reshape(b * n, 3 * width), groups.key_slot, axis=0,
                out=full[groups.shared_rows:], mode="clip")  # "clip" writes out unbuffered
        return full

    return _record(Tensor(out.reshape(b * nq, width)[groups.query_slot]), [(qkv, bwd)])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by an affine map. Each row mean is
    ``np.add.reduce(., 1) / d``, which is what ``ndarray.mean`` computes."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm needs a matrix, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
                         f"do not match width {d}")
    if not eps > 0:
        raise ContractError("layer_norm requires eps > 0")
    xhat = x.data - np.add.reduce(x.data, 1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, 1, keepdims=True) / d + eps)
    xhat *= inv
    gd = gain.data
    out = xhat * gd
    out += bias.data

    def bwd_x(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dxhat = g * gd
        m = np.add.reduce(dxhat * xhat, 1, keepdims=True) / d
        dxhat -= np.add.reduce(dxhat, 1, keepdims=True) / d
        dxhat -= xhat * m
        dxhat *= inv
        return dxhat

    return _record(Tensor(out), [
        (x, bwd_x),
        (gain, lambda g: (g * xhat).sum(axis=0)),
        (bias, lambda g: g.sum(axis=0)),
    ])


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack matrices along the row axis."""
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


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """The (k, d) matrix whose row i is the i-th of k vectors of width d."""
    if not vectors or any(v.ndim != 1 or v.shape != vectors[0].shape for v in vectors):
        raise ShapeError(f"stack_rows needs vectors of one width, got shapes "
                         f"{[v.shape for v in vectors]}")
    return _record(Tensor(np.stack([v.data for v in vectors])),
                   [(v, lambda g, i=i: g[i].copy()) for i, v in enumerate(vectors)])


def _take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` along the first axis, where an index of -1 reads a zero row."""
    out = a.take(index, axis=0)
    out[index < 0] = 0.0
    return out


def _scatter_add_rows(g: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Sum row ``i`` of ``g`` onto row ``index[i]`` of an (n, d) zero matrix, in one
    ``np.bincount``."""
    d = g.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)


def _assign_rows(g: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Row ``i`` of ``g`` written to row ``index[i]`` of an (n, d) zero matrix."""
    out = np.zeros((n, g.shape[1]))
    out[index] = g
    return out


def gather_rows(x: Tensor, index) -> Tensor:
    """Row ``i`` of the result is ``x[index[i]]``, for an index in ``[0, n)``.

    A row of ``x`` may be read any number of times; the backward pass
    scatter-adds every gradient row back onto the row it was read from,
    in one ``np.bincount``. When the index reads each row at most once,
    in ascending order, the forward notes it, and the backward writes
    the rows by assignment instead, with the same values.
    """
    idx = np.asarray(index)
    if x.ndim != 2 or idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"gather_rows needs a matrix and a 1-D int index, got shape "
                         f"{x.shape} and {idx.dtype} index of shape {idx.shape}")
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"gather_rows: index outside [0, {n}) for a {n}-row matrix")
    increasing = idx.size and (idx[1:] > idx[:-1]).all()
    scatter = _assign_rows if increasing else _scatter_add_rows
    return _record(Tensor(x.data.take(idx, axis=0)), [(x, lambda g: scatter(g, idx, n))])


def pool_rows(x: Tensor, offsets, mode: str) -> Tensor:
    """Sum or mean of each segment of rows: row b of the (B, d) result pools
    rows ``offsets[b]:offsets[b + 1]`` of ``x``.

    The offsets run from 0 to the row count, and no segment is empty. The
    segments' rows are gathered in order into one (B, L, d) block, L being
    the longest segment and padding reading zeros, and summed along L.
    """
    if x.ndim != 2:
        raise ShapeError(f"pool_rows needs a matrix, got shape {x.shape}")
    if mode not in ("sum", "mean"):
        raise ContractError(f"unknown pooling mode {mode!r}")
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != x.shape[0]:
        raise ShapeError(f"pool_rows: offsets {offsets.tolist()} do not run from 0 to "
                         f"{x.shape[0]} rows")
    counts = np.diff(offsets)
    if not (counts > 0).all():
        raise ContractError("pool_rows: empty segment")
    pos = np.arange(counts.max())
    index = np.where(pos < counts[:, None], offsets[:-1, None] + pos, -1)
    pooled = _take_rows(x.data, index).sum(axis=1)
    if mode == "mean":
        pooled = pooled / counts[:, None]
    w = np.ones(len(counts)) if mode == "sum" else 1.0 / counts
    return _record(Tensor(pooled),
                   [(x, lambda g: np.repeat(g * w[:, None], counts, axis=0))])


def spmm(a, x: Tensor) -> Tensor:
    """Product of a constant scipy.sparse matrix and a matrix tensor; ``x`` gets ``a.T @ g``."""
    if x.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm: cannot multiply shapes {a.shape} and {x.shape}")
    return _record(Tensor(a @ x.data), [(x, lambda g: a.T @ g)])


class SourceBuckets:
    """The rows of a CSR matrix bucketed by source count, as ``neighbor_max`` reads them.

    The matrix is given by its CSR arrays, ``indptr`` and ``indices``, and
    its column count n. Rows are bucketed by source count rounded up to a
    power of two, so one large row pads only the rows of its own bucket.
    Each bucket holds its output rows and a (slots, rows) table of their
    source columns in column order, short rows repeating their last; each
    row's indices must ascend, as a matrix in canonical form has them.
    Build it once per matrix and pass it to every ``neighbor_max`` over
    that matrix.

    ``blocks``, the offsets of contiguous blocks of the n columns of a
    square matrix, adds a star of hubs per block, which ``neighbor_max``
    reads ahead of the column rows: p hubs per block, block by block, p
    given by the rows it is handed. A block's column rows read its hubs
    before their own sources, and each hub reads itself and then its
    block's column rows. Each block is one more CSR row over its columns,
    bucketed with the matrix's rows (after them in each bucket), so the
    max over a block's column rows is taken once per block. ``tail()`` is
    the same plan with the CSR rows alone as its output rows.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, columns: int,
                 blocks: np.ndarray | None = None):
        counts = np.diff(indptr)
        if not counts.all():
            raise ContractError(f"neighbor_max: row {int(np.argmin(counts))} has no source")
        ascends = np.diff(indices) > 0
        ascends[indptr[1:-1] - 1] = True                # a row may start below the one before
        if not ascends.all():
            row = int(np.searchsorted(indptr, np.argmin(ascends), "right")) - 1
            raise ContractError(f"neighbor_max: the columns of row {row} do not ascend")
        self.shape = (counts.size, columns)
        self.blocks, self.with_hubs = 0, True
        if blocks is not None:
            self.blocks = blocks.size - 1
            self.owner = np.repeat(np.arange(self.blocks), np.diff(blocks))   # each row's block
            counts = np.append(counts, np.diff(blocks))
            indptr = np.append(indptr, indptr[-1] + blocks[1:])
            indices = np.append(indices, np.arange(columns))
        log_slots = np.frexp(counts - 1)[1]             # ceil(log2(count)), 0 for one source
        self.buckets = []
        for b in np.unique(log_slots):
            rows = np.flatnonzero(log_slots == b)
            slot = np.arange(1 << int(b))[:, None]
            self.buckets.append((rows, indices[indptr[rows] + np.minimum(slot, counts[rows] - 1)],
                                 np.searchsorted(rows, self.shape[0])))

    def tail(self) -> "SourceBuckets":
        """This plan with its CSR rows alone as output rows: the rows after its hub rows."""
        plan = copy.copy(self)
        plan.with_hubs = False
        return plan

    def graph_maxima(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each CSR row's max over its own sources among the (n, d) column rows
        ``x``, and each block's max over its column rows: the maxima that
        ``neighbor_max`` takes of the same rows, with their signs of zero, as it
        reads them for ``graph``."""
        out = _bucket_max(x, self, True)
        return out[:self.shape[0]], out[self.shape[0]:]


def _bucket_max(h: np.ndarray, buckets: SourceBuckets, block_rows: bool,
                gathers: list | None = None) -> np.ndarray:
    """Each CSR row's max over its sources among the rows of ``h``, then with
    ``block_rows`` each block's; each bucket's rows, table, (slots, rows, d)
    gather and max go into ``gathers`` when given, and are dropped if not."""
    out = np.empty((buckets.shape[0] + block_rows * buckets.blocks, h.shape[1]))
    for rows, table, csr in buckets.buckets:
        if not block_rows:
            rows, table = rows[:csr], table[:, :csr]
        block = h.take(table, axis=0)
        out[rows] = top = block.max(axis=0)
        if gathers is not None:
            gathers.append((rows, table, block, top))
    return out


def _first_source(table: np.ndarray, block: np.ndarray, top: np.ndarray) -> np.ndarray:
    """For each (row, column) of ``top``, the column of ``h`` that the first slot
    of its ``table`` row not below it reads, where ``block`` is the (slots,
    rows, d) gather of the (slots, rows) ``table`` and ``top`` its max.

    A running AND over the slots counts the leading slots below the max,
    none for a NaN max, in bytes when the count fits one; the last slot is
    never counted, since some slot holds the max.
    """
    below = np.ones(top.shape, dtype=bool)
    first = np.zeros(top.shape, dtype=np.uint8 if len(block) <= 256 else np.intp)
    for slot in block[:-1]:
        below &= slot < top
        first += below.view(np.uint8)
    # table[first[i, j], i], read through the flat table
    return table.ravel().take(first.astype(np.intp) * table.shape[1]
                              + np.arange(table.shape[1])[:, None])


def _select(mask: np.ndarray, a: np.ndarray | int, b: np.ndarray, out: np.ndarray) -> None:
    """``np.where(mask, a, b)`` for integer arrays, written into ``out`` and
    computed without branches, which a mask that mixes its values would
    mispredict."""
    np.subtract(a, b, out=out)
    out *= mask
    out += b


def neighbor_max(h: Tensor, buckets: SourceBuckets,
                 graph: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Row i is the elementwise max of the rows of ``h`` that row i of the
    matrix planned by ``buckets`` stores.

    Each bucket gathers its sources into one (slots, rows, d) block and
    takes one max over the slots; a short row reads its last source again,
    which changes neither its max nor the first source holding it. With
    ``blocks``, ``h`` is ``[hubs; column rows]``: H = p * blocks hub rows,
    block by block, ahead of the n column rows (p = 0 is the plain plan).
    The result is then one array ``[hub rows; CSR rows]`` (the CSR rows
    alone for a ``tail()`` plan), each part written in its place: a CSR
    row is its block's hub max combined with its bucket's max, and a hub's
    row is the hub combined with its block's max, in that order:
    ``np.maximum`` returns its second operand on a tie of +0 and -0, so
    each row keeps the sign that a max over its sources in column order
    gives. The gradient of each (row, column) pair goes to
    a single source: the first in column order that is not below the max,
    so ties go to the lowest column and a NaN max to the row's first
    source, the block's first hub for a CSR row. That search runs in the
    backward pass, so an untaped forward never pays for it.

    With ``graph``, the column rows are constants: ``h`` holds the hubs
    alone, and ``graph`` is what ``buckets.graph_maxima`` gives of the
    column rows, read in place of the bucket maxima. Only the hubs get a
    gradient, each summing its entries in the order of the whole plan's
    (row, column) pairs: its own row first, then its block's CSR rows.
    """
    (rows, columns), blocks = buckets.shape, buckets.blocks
    if graph is not None and not blocks:
        raise ContractError("neighbor_max: graph maxima need a plan with blocks")
    hubs = h.shape[0] - (columns if graph is None else 0) if h.ndim == 2 else -1
    if hubs < 0 or (hubs and (not blocks or hubs % blocks)) or (
            graph is not None and not hubs):
        raise ShapeError(f"neighbor_max: cannot aggregate shape {h.shape} over "
                         f"{buckets.shape}" + ("" if graph is None else " from its hubs")
                         + (f" and {blocks} blocks" if blocks else ""))
    p, d, hd = hubs // max(blocks, 1), h.shape[1], h.data
    block_rows = p > 0 and buckets.with_hubs        # a hub's row reads its block's max
    if graph is None:
        gathers = []
        outd = _bucket_max(hd[hubs:], buckets, block_rows, gathers)
        row_max, block_max = outd[:rows], outd[rows:]
    else:
        row_max, block_max = graph
        if row_max.shape != (rows, d) or block_max.shape != (blocks, d):
            raise ShapeError(f"neighbor_max: graph maxima of shapes {row_max.shape} and "
                             f"{block_max.shape} for {rows} rows of {blocks} blocks")
    if p:
        lead = hubs * block_rows                        # the hub rows ahead of the CSR rows
        table = np.arange(hubs).reshape(blocks, p).T    # (p, blocks): hub j of each block
        hub_block = hd.take(table, axis=0)
        hub_max = hub_block.max(axis=0)
        hub_rows = hub_max[buckets.owner]
        outd = np.empty((lead + rows, d))
        hub_out, row_out = outd[:lead], outd[lead:]
        np.maximum(hub_rows, row_max, out=row_out)
        if block_rows:
            hub_in = hd[:hubs]
            np.maximum(hub_in, block_max.repeat(p, 0), out=hub_out)

    def bwd(g):
        # Each entry's source is its row's flat offset in h, row * d, until its
        # column is added at the end.
        n = h.shape[0]
        row_source = block_source = n * d               # a spare row, dropped at the end
        if graph is None:
            source = np.empty((rows + blocks * block_rows, d), dtype=np.intp)
            for bucket_rows, bucket_table, block, top in gathers:
                # The column rows follow the hubs.
                source[bucket_rows] = _first_source((bucket_table + hubs) * d, block, top)
            row_source, block_source = source[:rows], source[rows:].repeat(p, 0)
        if not p:
            flat = row_source
        else:
            # A CSR row: its first hub not below the max (hub 0 for a NaN max),
            # unless the hub max is below it; a hub's row: the hub itself,
            # unless it is below the max, then its block's first row not below.
            hub_table = table * d
            hub = np.where(np.isnan(row_out), hub_table[0, buckets.owner, None],
                           _first_source(hub_table, hub_block, hub_max)[buckets.owner])
            flat = np.empty((lead + rows, d), dtype=np.intp)
            _select(hub_rows < row_out, row_source, hub, out=flat[lead:])
            if block_rows:
                _select(hub_in < hub_out, block_source, np.arange(0, hubs * d, d)[:, None],
                        out=flat[:lead])
        flat += np.arange(d)
        grad = np.bincount(flat.ravel(), weights=g.ravel(), minlength=(n + 1) * d)
        return grad[:n * d].reshape(n, d)

    return _record(Tensor(outd), [(h, bwd)])


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over the present labels, from raw logits.

    Uses the stable ``max(x,0) - x*y + log1p(exp(-|x|))`` form. A
    non-finite label is missing: it adds nothing to the loss or to its
    gradient, which is how multi-task targets with missing values are
    handled. The present labels must be 0 or 1.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: labels shape {y.shape} vs logits {logits.shape}")
    m = np.isfinite(y)
    count = int(m.sum())
    if count == 0:
        raise ContractError("bce_with_logits: every label is missing")
    ym = y[m]
    if not np.all((ym == 0.0) | (ym == 1.0)):
        raise ContractError("bce_with_logits: present labels must be 0 or 1")
    x = logits.data
    per = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(per[m].sum() / count)

    def bwd(g):
        return np.where(m, expit(x) - y, 0.0) * (float(g) / count)

    return _record(out, [(logits, bwd)])
