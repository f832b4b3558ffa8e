import math
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.special import erf

from gpt_lab import tensor as T
from gpt_lab.seeding import rng_for
from gpt_lab.tensor import (
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    backward,
)

RNG = np.random.default_rng(20240817)


def rand(*shape):
    return RNG.uniform(-1.0, 1.0, size=shape)


def fd_grad(f, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of param."""
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.abs(b).max(initial=0.0)), 1e-8)
    return float(np.abs(a - b).max(initial=0.0)) / denom


def check_against_fd(build_loss, params, tol=1e-4):
    """Tape gradients of build_loss() vs finite differences, per parameter."""
    with Tape():
        loss = build_loss()
        grads = backward(loss)
    for p in params:
        assert p in grads, "missing gradient for a tracked parameter"
        fd = fd_grad(lambda: float(build_loss().data), p)
        assert rel_err(grads[p], fd) <= tol


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(rand(2, 3)), Tensor(rand(2, 2)))

    def test_grad_of_sum_vs_fd(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4, 2), requires_grad=True)
        check_against_fd(lambda: T.tsum(T.matmul(a, b)), [a, b])
        # grad of sum(a@b) w.r.t. a is b summed over columns, broadcast
        with Tape():
            grads = backward(T.tsum(T.matmul(a, b)))
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        assert np.allclose(grads[a], expected, atol=1e-12)


class TestLinear:
    def test_one_node_with_the_values_and_grads_of_matmul_then_add(self):
        x, w, b = (Tensor(rand(*shape), requires_grad=True) for shape in ((5, 3), (3, 4), (4,)))
        with Tape() as tape:
            fused = T.linear(x, w, b)
            nodes = len(tape.nodes)
            grads = backward(T.tsum(T.mul(fused, Tensor(np.arange(20.0).reshape(5, 4)))))
        with Tape():
            split = T.add(T.matmul(x, w), b)
            want = backward(T.tsum(T.mul(split, Tensor(np.arange(20.0).reshape(5, 4)))))
        assert nodes == 1
        assert np.array_equal(fused.data, split.data)
        for t in (x, w, b):
            assert np.array_equal(grads[t], want[t])

    @pytest.mark.parametrize("shapes", [((5, 3), (4, 4), (4,)), ((5, 3), (3, 4), (3,)),
                                        ((3,), (3, 4), (4,))])
    def test_shape_error_names_every_shape(self, shapes):
        x, w, b = (Tensor(rand(*shape)) for shape in shapes)
        with pytest.raises(ShapeError, match="linear"):
            T.linear(x, w, b)


def softmax(scores, mask=None):
    """The masked softmax core of block_attention on the rows of a matrix. The
    core takes a query's keys down a column, in place, so it runs on a copy of
    the transpose, and its backward on a copy of the upstream's."""
    scores = np.array(scores, dtype=float).T.copy()
    mask = np.ones(scores.shape, dtype=bool) if mask is None else mask.T
    bwd = T._softmax_over_keys(scores, mask)
    return scores.T, lambda g: bwd(g.T.copy()).T


class TestSoftmaxMasked:
    def test_uniform_row(self):
        probs, _ = softmax([[0.0, 0.0, 0.0]])
        assert np.allclose(probs, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_single_survivor(self):
        probs, _ = softmax([[2.5, 7.0]], np.array([[True, False]]))
        assert np.array_equal(probs, [[1.0, 0.0]])

    def test_exp_normalize_oracle(self):
        row = np.array([[1.0, 2.0, 3.0]])
        probs, _ = softmax(row)
        e = np.exp(row)
        assert np.abs(probs - e / e.sum()).max() < 1e-12

    def test_masked_entries_exactly_zero_and_rows_sum_to_one(self):
        mask = RNG.random((5, 7)) < 0.6
        mask[:, 0] = True
        probs, _ = softmax(rand(5, 7) * 10, mask)
        assert np.all(probs[~mask] == 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_grad_vs_fd(self):
        s = Tensor(rand(3, 4))
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2] = False
        w = rand(3, 4)
        _, bwd = softmax(s.data, mask)
        fd = fd_grad(lambda: float((softmax(s.data, mask)[0] * w).sum()), s)
        assert rel_err(bwd(w), fd) <= 1e-4


class TestAttentionGroups:
    def test_plan_of_shared_rows_and_key_only_rows(self):
        groups = T.AttentionGroups(np.array([2, 3]), shared=1, skip=1)
        assert groups.rows == 6
        assert groups.index.tolist() == [[0, 1, 2, -1], [0, 3, 4, 5]]
        assert groups.key_mask.tolist() == [[True, True, True, False], [True] * 4]
        assert groups.query.tolist() == [[2, -1], [4, 5]]
        assert groups.query_rows.tolist() == [2, 4, 5]

    @pytest.mark.parametrize("sizes, skip", [([1], 0), ([1, 1], 0), ([4, 4], 3)])
    def test_the_query_axis_has_at_least_two_positions(self, sizes, skip):
        """With one query position, a sum over keys would run along an innermost
        axis of one position, which numpy adds as a pairwise tree."""
        groups = T.AttentionGroups(np.array(sizes), skip=skip)
        assert groups.query.shape == (len(sizes), 2)
        assert (groups.query[:, 1] == -1).all() and (groups.out_row[:, 1] == -1).all()

    @pytest.mark.parametrize("sizes", [[[3, 4]], [3.0, 4.0], []],
                             ids=["two_dims", "floats", "empty"])
    def test_sizes_must_be_a_1d_int_array(self, sizes):
        with pytest.raises(ShapeError, match="sizes must be a non-empty 1-D int array"):
            T.AttentionGroups(np.array(sizes))

    @pytest.mark.parametrize("sizes, shared, skip", [([3, 2], 0, 2), ([3, 0], 1, 0),
                                                     ([3, 4], -1, 0)],
                             ids=["all_rows_skipped", "empty_block", "negative_shared"])
    def test_every_block_asks_a_query_and_shared_is_not_negative(self, sizes, shared, skip):
        with pytest.raises(ContractError, match="every block needs a query row"):
            T.AttentionGroups(np.array(sizes), shared, skip)


class TestAttentionGroupsWithAPromptIndex:
    """Shared rows in one block per prompt set; the groups are dealt to the blocks
    in order, ``counts[j]`` of them to block j, so group b reads block ``prompt[b]``."""

    SIZES, SHARED, SKIP, COUNTS = np.array([3, 2, 4, 3]), 2, 1, [2, 0, 2]
    PROMPT = np.repeat(np.arange(3), COUNTS)           # [0, 0, 2, 2]

    def groups(self):
        return T.AttentionGroups(self.SIZES, self.SHARED, self.SKIP, self.COUNTS)

    def test_plan(self):
        groups = self.groups()
        assert groups.rows == 3 * 2 + 12 and groups.shared_rows == 6
        assert groups.index[:, :2].tolist() == [[0, 1], [0, 1], [4, 5], [4, 5]]
        assert groups.readers.tolist() == [0, 2, 2, 4]

    def test_matches_a_per_group_oracle(self):
        """Each group attends over its own shared block and block; every shared
        block's gradient sums over its own groups, and block 1, read by no
        group, gets none."""
        groups = self.groups()
        qkv = Tensor(rand(groups.rows, 12), requires_grad=True)
        up = rand(groups.query_rows.size, 4)
        with Tape():
            out = T.block_attention(qkv, groups, 2)
            grad = backward(T.tsum(T.mul(out, Tensor(up))))[qkv]
        want_out, want_grad, at = np.zeros_like(out.data), np.zeros_like(grad), 0
        start = groups.shared_rows
        for size, block in zip(self.SIZES, self.PROMPT):
            keys = [*range(block * 2, block * 2 + 2), *range(start, start + size)]
            asks = keys[2 + self.SKIP:]
            part = Tensor(qkv.data[keys], requires_grad=True)
            with Tape():
                one = T.block_attention(part, T.AttentionGroups(np.array([size]), 2, 1), 2)
                g = backward(T.tsum(T.mul(one, Tensor(up[at:at + len(asks)]))))[part]
            want_out[at:at + len(asks)] = one.data
            want_grad[keys] += g
            at, start = at + len(asks), start + size
        assert np.abs(out.data - want_out).max() < 1e-12
        assert np.abs(grad - want_grad).max() < 1e-12
        assert np.array_equal(grad[2:4], np.zeros((2, 12)))

    def test_grads_vs_fd(self):
        groups = self.groups()
        qkv = Tensor(rand(groups.rows, 12), requires_grad=True)
        w = Tensor(rand(groups.query_rows.size, 4))
        check_against_fd(lambda: T.tsum(T.mul(T.block_attention(qkv, groups, 2), w)), [qkv])


class TestGatherRowsBackward:
    @pytest.mark.parametrize("index", [[0, 2, 3, 5], [1, 1, 4], [5, 2]],
                             ids=["increasing", "repeated", "decreasing"])
    def test_every_index_scatters_as_the_bincount_oracle(self, index):
        """Assignment (for a strictly increasing index) and scatter-add give the
        same gradient, bit for bit."""
        x = Tensor(rand(6, 5), requires_grad=True)
        index = np.array(index)
        g = rand(index.size, 5)
        with Tape():
            grad = backward(T.tsum(T.mul(T.gather_rows(x, index), Tensor(g))))[x]
        want = np.zeros((6, 5))
        for i, row in enumerate(index):
            want[row] += g[i]
        assert np.array_equal(grad, want)


def test_stack_rows_needs_vectors_of_one_width():
    with pytest.raises(ShapeError, match="stack_rows needs vectors of one width"):
        T.stack_rows([Tensor(rand(3)), Tensor(rand(4))])
    with pytest.raises(ShapeError, match="stack_rows"):
        T.stack_rows([Tensor(rand(2, 3))])


@pytest.mark.parametrize("width", [8, 24, 32, 64, 96])
def test_linear_rows_do_not_depend_on_the_row_count(width):
    """A row's value and input gradient are the same in a short batch as in a
    tall one, so stepping several batches as one changes no row."""
    w = Tensor(rand(width, 32))
    b = Tensor(rand(32))
    x = rand(400, width)
    g = rand(400, 32)

    def run(rows):
        xt = Tensor(x[:rows], requires_grad=True)
        with Tape():
            out = T.linear(xt, w, b)
            grad = backward(T.tsum(T.mul(out, Tensor(g[:rows]))))[xt]
        return out.data, grad

    tall_out, tall_grad = run(400)
    for rows in (2, 5, 16, 37, 113):
        out, grad = run(rows)
        assert np.array_equal(out, tall_out[:rows])
        assert np.array_equal(grad, tall_grad[:rows])


def _two_groups():
    """Blocks of rows 0-2 and 3-6, so the first group is padded."""
    return T.AttentionGroups(np.array([3, 4]))


def _split_qkv(qkv):
    """The query, key and value column blocks of a fused operand."""
    return np.split(qkv.data, 3, axis=1)


class TestBlockAttention:
    def test_grads_vs_fd_with_a_padded_group(self):
        qkv = Tensor(rand(7, 12), requires_grad=True)
        w = Tensor(rand(7, 4))
        groups = _two_groups()
        check_against_fd(lambda: T.tsum(T.mul(T.block_attention(qkv, groups, 2), w)), [qkv])

    def test_padding_rows_neither_raise_nor_leak(self):
        qkv = Tensor(rand(7, 12))
        q, k, v = _split_qkv(qkv)
        out = T.block_attention(qkv, _two_groups(), 2).data
        assert np.isfinite(out).all()
        # Row 1 attends to its own padded group, rows 0, 1 and 2, and to no other row.
        rows = [0, 1, 2]
        for h in (slice(0, 2), slice(2, 4)):
            s = k[rows, h] @ q[1, h] / math.sqrt(2)
            p = np.exp(s - s.max())
            assert np.abs(out[1, h] - p @ v[rows, h] / p.sum()).max() < 1e-12

    @pytest.mark.parametrize("shape", [(7, 10), (7, 9)], ids=["not_three_blocks", "odd_heads"])
    def test_operand_must_be_three_blocks_of_whole_heads(self, shape):
        with pytest.raises(ShapeError, match="block_attention"):
            T.block_attention(Tensor(rand(*shape)), _two_groups(), 2)

    @pytest.mark.parametrize("rows", [6, 8])
    def test_qkv_rows_must_match_the_groups(self, rows):
        with pytest.raises(ShapeError, match="matrix of 7 rows"):
            T.block_attention(Tensor(rand(rows, 12)), _two_groups(), 2)


@pytest.mark.parametrize("dq", [2, 4, 16])
@pytest.mark.parametrize("shared, skip, size", [(0, 0, 1), (0, 0, 5), (0, 3, 7), (2, 1, 4),
                                                (8, 0, 1), (4, 4, 9)])
def test_a_groups_rows_and_gradients_do_not_depend_on_its_padding(shared, skip, size, dq):
    """A group of ``size`` rows, alone and then beside groups of 9 and 24 rows
    that read another shared block: padded to ``shared + size`` keys (under 8
    in most cases) and then to ``shared + 24``, with 1 to 6 query positions
    and then 24 - ``skip``. Its output rows, and the gradients of its own and
    its shared rows, are the same bits."""
    heads, w = 2, 2 * dq
    rng = np.random.default_rng(size + 10 * shared + 100 * skip + 1000 * dq)
    own = rng.normal(size=(shared + size, 3 * w))
    other = rng.normal(size=(shared + 9 + 24, 3 * w))
    up = rng.normal(size=(size + 9 + 24 - 3 * skip, w))      # upstream of every query

    def run(qkv, sizes, counts):
        groups = T.AttentionGroups(np.array(sizes), shared, skip, counts)
        x = Tensor(qkv, requires_grad=True)
        with Tape():
            out = T.block_attention(x, groups, heads)
            grad = backward(T.tsum(T.mul(out, Tensor(up[:out.shape[0]]))))[x]
        return out.data, grad

    out, grad = run(own, [size], [1])
    both = np.concatenate([own[:shared], other[:shared], own[shared:], other[shared:]])
    out2, grad2 = run(both, [size, 9, 24], [1, 2])
    assert np.array_equal(out, out2[:size - skip])
    assert np.array_equal(grad[:shared], grad2[:shared])
    assert np.array_equal(grad[shared:], grad2[2 * shared:2 * shared + size])


def _shared_key_groups():
    """Row 0 is a key of both groups, and rows 1 and 4 are keys only of their own
    blocks (1-3 and 4-7); rows 2, 3, 5, 6 and 7 ask queries."""
    return T.AttentionGroups(np.array([3, 4]), shared=1, skip=1)


class TestBlockAttentionWithQueries:
    def test_grads_vs_fd_with_a_shared_key_and_a_query_subset(self):
        qkv = Tensor(rand(8, 12), requires_grad=True)
        w = Tensor(rand(5, 4))
        groups = _shared_key_groups()
        check_against_fd(lambda: T.tsum(T.mul(T.block_attention(qkv, groups, 2), w)), [qkv])

    def test_a_row_that_asks_no_query_gets_zero_query_gradient(self):
        qkv = Tensor(rand(8, 12), requires_grad=True)
        with Tape():
            grad = backward(T.tsum(T.block_attention(qkv, _shared_key_groups(), 2)))[qkv]
        for row in (0, 1, 4):
            assert np.array_equal(grad[row, :4], np.zeros(4))
            assert np.abs(grad[row, 4:]).max() > 0.0     # still a key and a value

    def test_each_query_row_reads_its_own_group_keys(self):
        qkv = Tensor(rand(8, 12))
        q, k, v = _split_qkv(qkv)
        groups = _shared_key_groups()
        assert groups.query_rows.tolist() == [2, 3, 5, 6, 7]
        out = T.block_attention(qkv, groups, 2).data
        assert out.shape == (5, 4)
        for at, row, keys in [(1, 3, [0, 1, 2, 3]), (2, 5, [0, 4, 5, 6, 7])]:
            for h in (slice(0, 2), slice(2, 4)):
                s = k[keys, h] @ q[row, h] / math.sqrt(2)
                p = np.exp(s - s.max())
                assert np.abs(out[at, h] - p @ v[keys, h] / p.sum()).max() < 1e-12


def _over_keys(ufunc, a):
    """``ufunc`` reduced over axis -2 of ``a`` on a copy with that axis outermost."""
    keys_first = a.transpose(a.ndim - 2, *range(a.ndim - 2), a.ndim - 1).copy()
    return ufunc.reduce(keys_first, axis=0)[..., None, :]


def _batch_major_attention(qkv, groups, heads, up):
    """``block_attention`` as a batch-major formulation: three gathers into (B,
    heads, positions, dq) arrays, L the longest group, and (B, heads, L, Lq)
    scores whose every max and sum over keys runs on a keys-first copy. Returns
    the output rows and the gradient of ``sum(out * up)`` on ``qkv``."""
    n = int(groups.key_mask.sum(axis=1).max())
    index, mask = groups.index[:, :n], groups.key_mask[:, :n]
    (b, nq), width = groups.query.shape, qkv.shape[1] // 3
    shared, skip = groups.shared, groups.skip
    dq = width // heads
    inv_sqrt = 1.0 / math.sqrt(dq)

    def split(a, idx):
        rows = a.take(idx, axis=0)
        rows[idx < 0] = 0.0
        return rows.reshape(b, idx.shape[1], heads, dq).transpose(0, 2, 1, 3)

    def t(a):
        return a.transpose(0, 1, 3, 2)

    qs = split(qkv[:, :width], groups.query)
    ks, vs = split(qkv[:, width:2 * width], index), split(qkv[:, 2 * width:], index)
    m = mask[:, None, :, None]
    shifted = (ks @ t(qs)) * inv_sqrt + np.where(m, 0.0, T.MASK_FILL)
    shifted -= _over_keys(np.maximum, shifted)
    e = np.where(m, np.exp(shifted), 0.0)
    probs = e / _over_keys(np.add, e)
    out = (t(probs) @ vs).transpose(0, 2, 1, 3).reshape(b * nq, width)[groups.query_slot]
    gs = split(up, groups.out_row)
    dp = vs @ t(gs)
    ds = probs * (dp - _over_keys(np.add, dp * probs)) * inv_sqrt
    grad = np.zeros((b, n, 3 * heads, dq))
    view = grad.transpose(0, 2, 1, 3)
    view[:, :heads, shared + skip:] = (t(ds) @ ks)[:, :, :n - shared - skip]
    view[:, heads:2 * heads] = t(t(qs) @ t(ds))
    view[:, 2 * heads:] = t(t(gs) @ t(probs))
    grad = grad.reshape(b * n, 3 * width)
    full = np.empty((groups.rows, 3 * width))
    readers = groups.readers
    for j in range(readers.size - 1):
        full[j * shared:(j + 1) * shared] = grad.reshape(b, n, -1)[readers[j]:readers[j + 1],
                                                                  :shared].sum(axis=0)
    full[groups.shared_rows:] = grad[np.flatnonzero(mask & (np.arange(n) >= shared))]
    return out, full


@pytest.mark.parametrize("seed", range(6))
def test_block_attention_rounds_as_the_batch_major_formulation(seed):
    """Output and gradient equal the batch-major formulation's bit for bit, over
    random plans: 0-3 shared rows in blocks some group reads and some none, 0-2
    key-only rows, heads 1, 2 and 4 of width 2 to 8, and groups that ask one
    query each, so that the plan pads the keys to hold its two query positions."""
    rng = np.random.default_rng(6100 + seed)
    for case in range(24):
        shared, skip, heads = int(rng.integers(0, 4)), int(rng.integers(0, 3)), [1, 2, 4][case % 3]
        counts = rng.integers(0, 4, size=int(rng.integers(1, 4)))
        counts[rng.integers(counts.size)] = 0 if case % 2 else 1
        counts[-1] += not counts.sum()
        longest = 2 if case % 4 == 3 else 9                 # one query per group
        sizes = skip + rng.integers(1, longest, size=int(counts.sum()))
        groups = T.AttentionGroups(sizes, shared, skip, counts.tolist())
        width = heads * int(rng.integers(2, 9))
        qkv = Tensor(rng.normal(size=(groups.rows, 3 * width)), requires_grad=True)
        up = rng.normal(size=(groups.query_rows.size, width))
        with Tape():
            out = T.block_attention(qkv, groups, heads)
            grad = backward(T.tsum(T.mul(out, Tensor(up))))[qkv]
        want_out, want_grad = _batch_major_attention(qkv.data, groups, heads, up)
        assert np.array_equal(out.data, want_out), (seed, case)
        assert np.array_equal(grad, want_grad), (seed, case)


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_standardized_row(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), eps=1e-30)
        assert np.array_equal(out.data, [[1.0, -1.0]])

    def test_grad_vs_fd(self):
        x = Tensor(rand(3, 5), requires_grad=True)
        gain = Tensor(rand(5), requires_grad=True)
        bias = Tensor(rand(5), requires_grad=True)
        w = Tensor(rand(3, 5))
        check_against_fd(
            lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias, 1e-5), w)),
            [x, gain, bias],
        )

    @pytest.mark.parametrize("width", [3, 32, 130])
    def test_output_and_gradients_round_as_the_formulas(self, width):
        """The in-place buffers round as the textbook formulas, means taken by
        ``ndarray.mean``; 130 entries make numpy's row sums pairwise."""
        x = RNG.normal(loc=2.0, scale=3.0, size=(37, width))
        gain, bias, g = RNG.normal(size=width), RNG.normal(size=width), RNG.normal(size=x.shape)
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        with Tape():
            out = T.layer_norm(xt, gt, bt, 1e-5)
            grads = backward(T.tsum(T.mul(out, Tensor(g))))
        xc = x - x.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
        xhat = xc * inv
        dxhat = g * gain
        assert np.array_equal(out.data, xhat * gain + bias)
        means = dxhat.mean(axis=1, keepdims=True), (dxhat * xhat).mean(axis=1, keepdims=True)
        assert np.array_equal(grads[xt], inv * (dxhat - means[0] - xhat * means[1]))
        assert np.array_equal(grads[gt], (g * xhat).sum(axis=0))
        assert np.array_equal(grads[bt], g.sum(axis=0))


class TestBackwardContract:
    def test_sum_gives_ones(self):
        x = Tensor(rand(4, 3), requires_grad=True)
        with Tape():
            grads = backward(T.tsum(x))
        assert np.array_equal(grads[x], np.ones((4, 3)))

    def test_half_square_gives_identity(self):
        x = Tensor(rand(6), requires_grad=True)
        with Tape():
            grads = backward(T.scale(T.tsum(T.mul(x, x)), 0.5))
        assert np.allclose(grads[x], x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with Tape():
            out = T.add(x, x)
            with pytest.raises(ContractError):
                backward(out)

    def test_no_grad_leaf_absent(self):
        x = Tensor(rand(3), requires_grad=True)
        c = Tensor(rand(3), requires_grad=False)
        with Tape():
            grads = backward(T.tsum(T.mul(x, c)))
        assert x in grads and c not in grads

    def test_two_backward_passes_identical(self):
        x = Tensor(rand(3, 3), requires_grad=True)
        y = Tensor(rand(3, 3), requires_grad=True)
        with Tape():
            loss = T.tsum(T.gelu(T.mul(T.add(x, y), x)))
            g1 = backward(loss)
            g2 = backward(loss)
        for p in (x, y):
            assert np.array_equal(g1[p], g2[p])

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with Tape():
            grads = backward(T.tsum(T.add(x, x)))
        assert np.array_equal(grads[x], np.full((2, 2), 2.0))

    def test_a_node_the_loss_does_not_read_is_skipped(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with Tape() as tape:
            T.gelu(x)                                  # recorded, never read
            grads = backward(T.tsum(x))
        assert len(tape.nodes) == 2
        assert np.array_equal(grads[x], np.ones((2, 2)))


class TestTapeRelease:
    """A tape and its record are freed when its block exits, without the cyclic GC."""

    def record(self):
        w = Tensor(rand(3, 3), requires_grad=True)
        x = Tensor(rand(4, 3))
        tape = Tape()
        with tape:
            h = T.gelu(T.matmul(x, w))
            loss = T.tsum(T.mul(h, h))
            grads = backward(loss)
        return weakref.ref(tape), w, h, loss, grads

    def test_tape_dead_right_after_its_block(self, no_cyclic_gc):
        ref, w, h, loss, grads = self.record()
        assert w in grads
        # the parameter and the recorded outputs are still alive; the tape is not
        assert ref() is None

    def test_no_parameter_points_at_the_tape(self, no_cyclic_gc):
        _, w, *_ = self.record()
        assert w._tape is None and w.tape_id is None

    def test_backward_after_the_block_rejected(self, no_cyclic_gc):
        _, w, h, loss, grads = self.record()
        with pytest.raises(ContractError, match="open tape"):
            backward(loss)

    def test_backward_on_a_held_closed_tape_rejected(self):
        w = Tensor(rand(2), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(T.mul(w, w))
        assert tape.nodes
        with pytest.raises(ContractError, match="open tape"):
            backward(loss)


def csr(groups, cols=3):
    """CSR matrix with a stored 1 at (i, j) for each j in groups[i]."""
    rows = [i for i, grp in enumerate(groups) for _ in grp]
    return sparse.csr_matrix((np.ones(len(rows)), (rows, [j for grp in groups for j in grp])),
                             shape=(len(groups), cols))


def buckets(adj):
    """The ``SourceBuckets`` of a CSR matrix's arrays."""
    return T.SourceBuckets(adj.indptr, adj.indices, adj.shape[1])


_NEIGHBORS = buckets(csr([[0, 1], [1, 2], [0, 1, 2]]))
# Two blocks of one column each, each column's row reading itself; a
# neighbor_max over it reads p hub rows per block ahead of the two column rows.
_STAR = T.SourceBuckets(np.array([0, 1, 2]), np.array([0, 1]), 2, np.array([0, 1, 2]))
_SPARSE = sparse.csr_matrix(np.array([[1.0, 0.0, -2.0], [0.0, 0.5, 0.0], [3.0, 0.0, 0.25]]))

PRIMITIVE_CASES = {
    "matmul": lambda a, b: T.matmul(a, b),
    "linear": lambda a, b, c: T.linear(a, b, c),
    "add_same": lambda a, b2: T.add(a, b2),
    "add_rowvec": lambda a, v: T.add(a, v),
    "mul_same": lambda a, b2: T.mul(a, b2),
    "mul_rowvec": lambda a, v: T.mul(a, v),
    "scale": lambda a: T.scale(a, -2.5),
    "gelu": lambda a: T.gelu(a),
    "concat_rows": lambda a, b2, p: T.concat_rows([a, b2, p]),
    "gather_rows_repeated": lambda tab: T.gather_rows(tab, np.array([0, 2, 2, 1, 2])),
    "gather_rows_increasing": lambda a: T.gather_rows(a, np.array([0, 2])),
    "stack_rows": lambda v, u: T.stack_rows([v, u, v]),
    "neighbor_max": lambda a: T.neighbor_max(a, _NEIGHBORS),
    "spmm": lambda a: T.spmm(_SPARSE, a),
    "pool_rows_sum": lambda a: T.pool_rows(a, np.array([0, 1, 3]), "sum"),
    "pool_rows_mean": lambda a: T.pool_rows(a, np.array([0, 2, 3]), "mean"),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_every_primitive_matches_finite_differences(name):
    """Central differences (step 1e-5) agree with tape grads to <=1e-4."""
    a = Tensor(rand(3, 4), requires_grad=True)
    b = Tensor(rand(4, 2), requires_grad=True)
    b2 = Tensor(rand(3, 4), requires_grad=True)
    v = Tensor(rand(4), requires_grad=True)
    u = Tensor(rand(4), requires_grad=True)
    c = Tensor(rand(2), requires_grad=True)
    p = Tensor(rand(1, 4), requires_grad=True)
    tab = Tensor(rand(3, 4), requires_grad=True)
    weights = rand(64)  # fixed projection so the loss sees every output entry
    op = PRIMITIVE_CASES[name]
    varnames = op.__code__.co_varnames[: op.__code__.co_argcount]
    env = {"a": a, "b": b, "b2": b2, "v": v, "u": u, "c": c, "p": p, "tab": tab}
    args = [env[n] for n in varnames]

    def weighted(out):
        if out.ndim == 0:
            return out
        w = Tensor(weights[: out.data.size].reshape(out.shape))
        return T.tsum(T.mul(out, w))

    check_against_fd(lambda: weighted(op(*args)), args, tol=1e-4)


class TestNeighborMax:
    def test_empty_row_rejected(self):
        with pytest.raises(ContractError, match="row 1 has no source"):
            buckets(csr([[0], [], [1, 2]]))

    def test_exact_tie_sends_the_whole_gradient_to_one_source(self):
        h = Tensor(np.array([[1.0, 2.0], [1.0, 0.5], [1.0, 2.0]]), requires_grad=True)
        with Tape():
            out = T.neighbor_max(h, buckets(csr([[0, 1, 2], [1, 2]])))
            grads = backward(T.tsum(out))
        # Output row 0 ties in both columns, row 1 in column 0: the first
        # source in column order takes each output's whole gradient.
        assert np.array_equal(grads[h], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_a_max_past_slot_255_takes_the_gradient(self):
        """A row of 300 sources counts its slots past a byte: its first max,
        at column 280, takes the whole gradient."""
        h = np.zeros((300, 2))
        h[[280, 290]] = 1.0
        x = Tensor(h, requires_grad=True)
        with Tape():
            grad = backward(T.tsum(T.neighbor_max(x, buckets(csr([range(300)], cols=300)))))[x]
        want = np.zeros((300, 2))
        want[280] = 1.0
        assert np.array_equal(grad, want)

    def test_buckets_built_once_serve_every_call(self):
        adj = csr([[2, 0], [1], [0, 1, 2], [2]])
        built = buckets(adj)
        for _ in range(2):
            h = Tensor(rand(3, 2), requires_grad=True)
            with Tape():
                shared = T.neighbor_max(h, built)
                grad_shared = backward(T.tsum(shared))[h]
            with Tape():
                fresh = T.neighbor_max(h, buckets(adj))
                grad_fresh = backward(T.tsum(fresh))[h]
            assert np.array_equal(shared.data, fresh.data)
            assert np.array_equal(grad_shared, grad_fresh)


def test_gelu_forward_rounds_as_its_formula():
    """The forward, erf taken of |x| and given the sign of x back, rounds as
    ``x * (0.5 * (1 + erf(x / sqrt(2))))``, signs of zero included."""
    x = np.concatenate([RNG.normal(scale=3.0, size=240), RNG.uniform(-0.5, 0.5, size=240),
                        [-0.0, 0.0, 1e-300, -1e-300, -40.0, 40.0, 1e155, -1e155,
                         np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        out = T.gelu(Tensor(x)).data
        want = x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(np.signbit(out[~np.isnan(want)]), np.signbit(want[~np.isnan(want)]))


def test_gelu_backward_rounds_as_its_formula():
    """The backward's one buffer rounds as the formula ``g * (cdf + x * pdf)``,
    with ``pdf = exp(-0.5 * x * x) * (1 / sqrt(2 pi))``."""
    x = Tensor(np.concatenate([RNG.normal(scale=3.0, size=(40, 6)).ravel(),
                               [-0.0, 0.0, 1e-300, -40.0, 40.0, 1e155]]).reshape(-1, 3),
               requires_grad=True)
    g = RNG.normal(size=x.shape)
    with Tape(), np.errstate(over="ignore"):
        grad = backward(T.tsum(T.mul(T.gelu(x), Tensor(g))))[x]
        cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
    assert np.array_equal(grad, g * (cdf + x.data * pdf))


def test_bce_with_logits_matches_fd():
    x = Tensor(rand(4, 3), requires_grad=True)
    y = (RNG.random((4, 3)) < 0.5).astype(float)
    y[RNG.random((4, 3)) >= 0.8] = np.nan           # missing labels
    y[0, 0] = 1.0
    check_against_fd(lambda: T.bce_with_logits(x, y), [x])


@pytest.mark.parametrize("labels, message", [([[np.nan], [np.inf]], "every label is missing"),
                                             ([[1.0], [0.5]], "must be 0 or 1")])
def test_bce_with_logits_needs_a_present_label_and_0_1_labels(labels, message):
    with pytest.raises(ContractError, match=message):
        T.bce_with_logits(Tensor(rand(2, 1)), np.array(labels))


def test_composite_transformer_style_graph_vs_fd():
    """Small attention+FFN composite: every parameter checked against FD."""
    d, n = 4, 5
    x = Tensor(rand(n, d))
    wqkv = Tensor(rand(d, 3 * d) * 0.5, requires_grad=True)
    w1 = Tensor(rand(d, 2 * d) * 0.5, requires_grad=True)
    w2 = Tensor(rand(2 * d, d) * 0.5, requires_grad=True)
    gain = Tensor(np.ones(d), requires_grad=True)
    bias = Tensor(np.zeros(d), requires_grad=True)
    groups = T.AttentionGroups(np.array([2, 3]))

    def build():
        h = T.layer_norm(x, gain, bias, 1e-5)
        ctx = T.block_attention(T.matmul(h, wqkv), groups, 1)
        out = T.add(x, ctx)
        ff = T.matmul(T.gelu(T.matmul(out, w1)), w2)
        return T.tsum(T.mul(T.add(out, ff), Tensor(rand_fixed)))

    rand_fixed = rand(n, d)
    check_against_fd(build, [wqkv, w1, w2, gain, bias])


class TestGatherRows:
    def test_rows_read_by_index(self):
        x = rand(3, 2)
        out = T.gather_rows(Tensor(x), np.array([2, 1, 0, 2])).data
        assert np.array_equal(out, [x[2], x[1], x[0], x[2]])

    def test_repeated_rows_sum_their_gradients(self):
        x = Tensor(rand(3, 2), requires_grad=True)
        g = rand(4, 2)
        with Tape():
            grads = backward(T.tsum(T.mul(T.gather_rows(x, np.array([2, 1, 0, 2])),
                                          Tensor(g))))
        assert np.array_equal(grads[x], [g[2], g[1], g[0] + g[3]])

    @pytest.mark.parametrize("index", [[0, 3], [-2, 0]])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ContractError, match=r"outside \[0, 3\)"):
            T.gather_rows(Tensor(rand(3, 2)), np.array(index))

    @pytest.mark.parametrize("index", [np.zeros((2, 2), dtype=int), np.array([0.0, 1.0])])
    def test_index_must_be_a_1d_int_array(self, index):
        with pytest.raises(ShapeError, match="1-D int index"):
            T.gather_rows(Tensor(rand(3, 2)), index)


class TestPoolRows:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown pooling mode 'max'"):
            T.pool_rows(Tensor(rand(3, 2)), np.array([0, 3]), "max")

    def test_empty_segment_rejected(self):
        with pytest.raises(ContractError, match="empty segment"):
            T.pool_rows(Tensor(rand(3, 2)), np.array([0, 2, 2, 3]), "sum")

    @pytest.mark.parametrize("offsets", [[1, 3], [0, 2], [0, 1, 4]])
    def test_offsets_must_run_from_zero_to_the_row_count(self, offsets):
        with pytest.raises(ShapeError, match="do not run from 0 to 3 rows"):
            T.pool_rows(Tensor(rand(3, 2)), np.array(offsets), "mean")


def test_ops_without_tape_record_nothing():
    x = Tensor(rand(2, 2), requires_grad=True)
    out = T.add(x, x)
    assert out.tape_id is None and out._tape is None


def _matrix(*shape):
    return Tensor(np.zeros(shape))


# Each input check of the tensor ops that no other test trips: the call, and
# the exception type and message it raises.
INPUT_ERRORS = {
    "matmul_vector": (lambda: T.matmul(_matrix(3), _matrix(3, 2)), ShapeError,
                      "matmul needs two matrices, got shapes (3,) and (3, 2)"),
    "add_broadcast": (lambda: T.add(_matrix(2, 3), _matrix(2)), ShapeError,
                      "add: incompatible shapes (2, 3) and (2,) (only row-vector-over-rows "
                      "broadcast is supported)"),
    "mul_broadcast": (lambda: T.mul(_matrix(3), _matrix(2, 3)), ShapeError,
                      "mul: incompatible shapes (3,) and (2, 3) (only row-vector-over-rows "
                      "broadcast is supported)"),
    "layer_norm_vector": (lambda: T.layer_norm(_matrix(3), _matrix(3), _matrix(3)), ShapeError,
                          "layer_norm needs a matrix, got shape (3,)"),
    "layer_norm_gain": (lambda: T.layer_norm(_matrix(2, 3), _matrix(2), _matrix(3)),
                        ShapeError, "layer_norm: gain/bias shapes (2,)/(3,) do not match "
                                    "width 3"),
    "layer_norm_eps": (lambda: T.layer_norm(_matrix(2, 3), _matrix(3), _matrix(3), eps=0.0),
                       ContractError, "layer_norm requires eps > 0"),
    "concat_rows_empty": (lambda: T.concat_rows([]), ShapeError,
                          "concat_rows needs at least one part"),
    "pool_rows_vector": (lambda: T.pool_rows(_matrix(3), np.array([0, 3]), "sum"), ShapeError,
                         "pool_rows needs a matrix, got shape (3,)"),
    "gather_rows_minus_one": (lambda: T.gather_rows(_matrix(3, 2), np.array([0, -1])),
                              ContractError, "gather_rows: index outside [0, 3) for a 3-row "
                                             "matrix"),
    "neighbor_max_unsorted_row": (lambda: T.SourceBuckets(np.array([0, 2, 4]),
                                                          np.array([0, 1, 2, 0]), 3),
                                  ContractError, "neighbor_max: the columns of row 1 do not "
                                                 "ascend"),
    "spmm_shapes": (lambda: T.spmm(csr([[0], [1]]), _matrix(2, 2)), ShapeError,
                    "spmm: cannot multiply shapes (2, 3) and (2, 2)"),
    "neighbor_max_rows": (lambda: T.neighbor_max(_matrix(2, 2), _NEIGHBORS), ShapeError,
                          "neighbor_max: cannot aggregate shape (2, 2) over (3, 3)"),
    "neighbor_max_graph_without_star": (
        lambda: T.neighbor_max(_matrix(3, 2), _NEIGHBORS, (np.zeros((3, 2)), np.zeros((1, 2)))),
        ContractError, "neighbor_max: graph maxima need a plan with blocks"),
    "neighbor_max_hub_rows": (
        lambda: T.neighbor_max(_matrix(3, 2), _STAR, (np.zeros((2, 2)), np.zeros((2, 2)))),
        ShapeError, "neighbor_max: cannot aggregate shape (3, 2) over (2, 2) from its hubs "
                    "and 2 blocks"),
    "neighbor_max_graph_shapes": (
        lambda: T.neighbor_max(_matrix(2, 2), _STAR, (np.zeros((3, 2)), np.zeros((1, 2)))),
        ShapeError, "neighbor_max: graph maxima of shapes (3, 2) and (1, 2) for 2 rows of "
                    "2 blocks"),
    "bce_shapes": (lambda: T.bce_with_logits(_matrix(2, 1), np.zeros((3, 1))), ShapeError,
                   "bce_with_logits: labels shape (3, 1) vs logits (2, 1)"),
    "rng_for_negative": (lambda: rng_for(0, "fold", -1), ValueError,
                         "seed path parts must be non-negative, got -1"),
    "rng_for_float": (lambda: rng_for(0, 1.5), TypeError,
                      "seed path parts must be int or str, got <class 'float'>"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_check_names_its_cause(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
