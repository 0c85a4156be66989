"""Finite-difference checks for every reverse-mode op.

Each op's gradient is compared against central differences on random inputs
before anything downstream (the transformer, training) is trusted.
"""

import numpy as np
import pytest

from streamdec import autodiff as ad
from streamdec.autodiff import (
    Tensor,
    add,
    concat,
    embedding,
    log_softmax,
    matmul,
    mul,
    normalize,
    relu,
    sum_all,
)
from streamdec.transformer import attention

from .oracles import (
    layer_norm,
    masked_softmax,
    normalize_fresh,
    padded_attention,
    reshape,
    transpose,
)


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def check(op_of, x: np.ndarray, rtol: float = 1e-6):
    """Backprop through scalar = sum(weights * op(x)) and compare to FD."""
    rng = np.random.default_rng(7)

    def build(arr):
        t = Tensor(arr, requires_grad=True)
        out = op_of(t)
        w = rng.normal(size=out.data.shape)
        return t, sum_all(mul(out, Tensor(w))), w

    t, loss, w = build(x)
    loss.backward()

    def f(arr):
        t2 = Tensor(arr, requires_grad=True)
        out2 = op_of(t2)
        return float(np.sum(w * out2.data))

    num = fd_grad(f, x)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=1e-7)


class TestElementwiseOps:
    def test_add_same_shape(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))
        check(lambda t: add(t, Tensor(y)), x)

    def test_add_broadcast_bias(self, rng):
        # (3,4) + (4,): bias grad must sum over the broadcast axis
        x = rng.normal(size=(4,))
        other = rng.normal(size=(3, 4))
        check(lambda t: add(Tensor(other), t), x)

    def test_mul(self, rng):
        x = rng.normal(size=(2, 5))
        y = rng.normal(size=(2, 5))
        check(lambda t: mul(t, Tensor(y)), x)

    def test_mul_both_sides_require_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = sum_all(mul(x, y))
        loss.backward()
        np.testing.assert_allclose(x.grad, y.data)
        np.testing.assert_allclose(y.grad, x.data)

    def test_times_float(self, rng):
        x = rng.normal(size=(3, 3))
        check(lambda t: t * -2.5, x)

    def test_relu(self, rng):
        x = rng.normal(size=(4, 4)) + 0.05  # keep away from the kink
        check(lambda t: relu(t), x)

    def test_relu_zero_blocks_grad(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        sum_all(relu(t)).backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])


class TestMatmul:
    def test_2d(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(4, 2))
        check(lambda t: matmul(t, Tensor(y)), x)
        check(lambda t: matmul(Tensor(x), t), y)

    def test_batched(self, rng):
        x = rng.normal(size=(2, 3, 4))
        y = rng.normal(size=(2, 4, 5))
        check(lambda t: matmul(t, Tensor(y)), x)
        check(lambda t: matmul(Tensor(x), t), y)

    def test_broadcast_batch(self, rng):
        # (2,3,4) @ (4,5): shared right operand accumulates over the batch
        x = rng.normal(size=(4, 5))
        other = rng.normal(size=(2, 3, 4))
        check(lambda t: matmul(Tensor(other), t), x)

    def test_vector_times_matrix(self, rng):
        # (4,) @ (4,5), as a folded bias c @ W + b is built
        x = rng.normal(size=(4,))
        y = rng.normal(size=(4, 5))
        check(lambda t: matmul(t, Tensor(y)), x)
        check(lambda t: matmul(Tensor(x), t), y)


class TestShapeOps:
    def test_reshape(self, rng):
        x = rng.normal(size=(2, 6))
        check(lambda t: reshape(t, (3, 4)), x)
        check(lambda t: ad.reshape(t, (3, 4)), x)

    def test_columns(self, rng):
        x = rng.normal(size=(3, 8))
        check(lambda t: ad.columns(t, 2, 6), x)
        assert np.array_equal(ad.columns(x, 2, 6), x[:, 2:6])

    @pytest.mark.parametrize("axis, shapes", [
        (0, [(3, 2), (1, 2), (3, 2)]),
        (-1, [(3, 2), (3, 4), (3, 2)]),
    ])
    def test_concat(self, rng, axis, shapes):
        parts = [rng.normal(size=s) for s in shapes]
        for i in range(3):
            def op(t):
                return concat([t if j == i else Tensor(a)
                               for j, a in enumerate(parts)], axis=axis)

            check(op, parts[i])

    def test_transpose(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check(lambda t: transpose(t, (2, 0, 1)), x)


class TestSoftmaxFamily:
    # masked_softmax is the attention oracle's softmax (tests/oracles.py):
    # it is checked here like a package op before it judges one
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 5))
        y = masked_softmax(Tensor(x))
        np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(3))

    def test_softmax_grad(self, rng):
        x = rng.normal(size=(3, 5))
        check(lambda t: masked_softmax(t), x, rtol=1e-5)

    def test_log_softmax_grad(self, rng):
        x = rng.normal(size=(2, 7))
        check(lambda t: log_softmax(t), x, rtol=1e-5)

    def test_log_softmax_normalized(self, rng):
        x = rng.normal(size=(4, 6)) * 3
        y = log_softmax(Tensor(x))
        np.testing.assert_allclose(
            np.log(np.sum(np.exp(y.data), axis=-1)), np.zeros(4), atol=1e-12
        )

    def test_fused_softmax_grad_non_unit_scale(self, rng):
        x = rng.normal(size=(2, 3, 5))
        mask = np.where(rng.random((1, 3, 5)) < 0.3, -1e9, 0.0)
        check(lambda t: masked_softmax(t, scale=0.37), x, rtol=1e-5)
        check(lambda t: masked_softmax(t, scale=0.37, mask=mask), x, rtol=1e-5)

    @pytest.mark.parametrize("s", [0.25, 1.0 / np.sqrt(3.0)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_fused_softmax_matches_unfused_bitwise(self, rng, s, masked):
        # masked_softmax(x, scale=s, mask=m) is the scale -> add -> softmax
        # chain in one buffer, with the same operations in the same order
        x = rng.normal(size=(2, 2, 4, 6)) * 4
        mask = None
        if masked:
            mask = np.where(rng.random((2, 1, 4, 6)) < 0.3, -1e9, 0.0)
            mask[..., 0] = 0.0  # keep one key per row
        w = rng.normal(size=x.shape)

        def run(fused: bool):
            t = Tensor(x, requires_grad=True)
            if fused:
                y = masked_softmax(t, scale=s, mask=mask)
            else:
                z = t * s
                y = masked_softmax(z if mask is None else add(z, Tensor(mask)))
            sum_all(mul(y, Tensor(w))).backward()
            return y.data, t.grad

        (y1, g1), (y2, g2) = run(True), run(False)
        assert np.array_equal(y1, y2)
        assert np.array_equal(g1, g2)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        a = masked_softmax(Tensor(x)).data
        b = masked_softmax(Tensor(x + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def _ragged(rng, b_sz, tq, tk, d, q_len, k_len):
    """Random q (b, tq, d) and k, v (b, tk, d) whose padded positions hold
    large values, so that any leak from them shows."""
    q, k, v = (rng.normal(size=(b_sz, t, d)) for t in (tq, tk, tk))
    for b in range(b_sz):
        if q_len is not None:
            q[b, q_len[b]:] = 50.0
        k[b, k_len[b]:] = -50.0
        v[b, k_len[b]:] = 50.0
    return q, k, v


def _offsets(lengths):
    return np.concatenate([[0], np.cumsum(lengths)])


def _packed_attention(q, k, v, heads, q_off, k_off, causal):
    """The package's node on separate q, k, v rows: the queries take the
    score scale, and a self-attention (query rows the key rows) hands it
    fused [q | k | v] rows, as the folded weights give them."""
    q = q * (1.0 / np.sqrt(q.shape[-1] // heads))
    if np.array_equal(q_off, k_off):
        return attention(concat([q, k, v]), heads, q_off, k_off, causal)
    return attention(q, heads, q_off, k_off, causal, kv=concat([k, v]))


def _run_attention(op, q, k, v, w, heads, k_len, q_len, causal):
    """Output and q/k/v gradients of sum(w * op(q, k, v)) on the padded
    (batch, T, d) layout: the padded oracle takes the arrays as they are,
    the package's node (through _packed_attention) takes each row's real
    positions packed into one block of segments, and its results are
    scattered back, zero elsewhere."""
    if op is padded_attention:
        ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = op(*ts, heads, k_len, q_len, causal)
        sum_all(mul(out, Tensor(w))).backward()
        return out.data, [t.grad for t in ts]
    b_sz, tq, _ = q.shape
    q_len = [tq] * b_sz if q_len is None else q_len
    q_real, k_real = (np.arange(x.shape[1]) < np.asarray(n)[:, None]
                      for x, n in ((q, q_len), (k, k_len)))
    masks = (q_real, k_real, k_real)
    ts = [Tensor(x[m], requires_grad=True) for x, m in zip((q, k, v), masks)]
    out = _packed_attention(*ts, heads, _offsets(q_len), _offsets(k_len), causal)
    sum_all(mul(out, Tensor(w[q_real]))).backward()

    def scatter(rows, m):
        full = np.zeros(m.shape + rows.shape[-1:])
        full[m] = rows
        return full

    return scatter(out.data, q_real), [scatter(t.grad, m) for t, m in zip(ts, masks)]


# (batch, Tq, Tk, d, heads, k_len, q_len, causal): encoder self-attention
# both ways with lengths from 1 to T, full-length causal decoder
# self-attention, and cross attention with Tq != Tk
ATTENTION_CASES = {
    "bidi-self": (4, 7, 7, 6, 2, [7, 1, 4, 6], [7, 1, 4, 6], False),
    "causal-self": (4, 7, 7, 6, 2, [7, 1, 4, 6], [7, 1, 4, 6], True),
    "decoder-self": (3, 5, 5, 8, 4, [5, 5, 5], None, True),
    "cross": (3, 4, 9, 6, 3, [9, 1, 5], None, False),
    "cross-one-head": (2, 6, 3, 4, 1, [3, 2], None, False),
}


class TestAttention:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_matches_padded_oracle(self, rng, case):
        b_sz, tq, tk, d, heads, k_len, q_len, causal = ATTENTION_CASES[case]
        q, k, v = _ragged(rng, b_sz, tq, tk, d, q_len, k_len)
        w = rng.normal(size=(b_sz, tq, d))
        got, got_g = _run_attention(
            attention, q, k, v, w, heads, k_len, q_len, causal
        )
        want, want_g = _run_attention(
            padded_attention, q, k, v, w, heads, k_len, q_len, causal
        )
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
        for name, g, ref in zip("qkv", got_g, want_g):
            np.testing.assert_allclose(
                g, ref, rtol=1e-10, atol=1e-14, err_msg=name
            )

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_padded_positions_are_exact_zeros(self, rng, case):
        # packed, a row's padding is every other row's segment: with the
        # loss on row b alone, no other row's q, k or v gets any gradient,
        # and row b's output does not move when the others change
        b_sz, tq, tk, d, heads, k_len, q_len, causal = ATTENTION_CASES[case]
        q, k, v = _ragged(rng, b_sz, tq, tk, d, q_len, k_len)
        ql = [tq] * b_sz if q_len is None else q_len
        for b in range(b_sz):
            w = np.zeros((b_sz, tq, d))
            w[b] = rng.normal(size=(tq, d))
            out, (gq, gk, gv) = _run_attention(
                attention, q, k, v, w, heads, k_len, q_len, causal
            )
            assert not out[b, ql[b]:].any()
            assert not gq[b, ql[b]:].any()
            assert not gk[b, k_len[b]:].any()
            assert not gv[b, k_len[b]:].any()
            others = np.arange(b_sz) != b
            assert not gq[others].any()
            assert not gk[others].any()
            assert not gv[others].any()
            moved = [np.where(others[:, None, None], -x, x) for x in (q, k, v)]
            out2, _ = _run_attention(
                attention, *moved, w, heads, k_len, q_len, causal
            )
            assert np.array_equal(out2[b], out[b])

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("causal", [False, True])
    def test_grad_finite_difference(self, rng, which, causal):
        # q, k or v differentiated through ragged self-attention: two
        # segments of 5 and 3 rows
        d, heads, lens = 4, 2, [5, 3]
        qkv = [rng.normal(size=(sum(lens), d)) for _ in range(3)]
        off = _offsets(lens)

        def op(x):
            args = [Tensor(a) for a in qkv]
            args[which] = x
            return _packed_attention(*args, heads, off, off, causal)

        check(op, qkv[which], rtol=1e-5)


class TestNormalize:
    def test_grad(self, rng):
        x = rng.normal(size=(3, 6))
        check(lambda t: normalize(t), x, rtol=1e-5)
        check(lambda t: normalize(t), rng.normal(size=(2, 3, 8)), rtol=1e-5)

    @pytest.mark.parametrize("shape", [(8, 32), (300, 32), (2, 5, 16)])
    def test_bitwise_equal_to_fresh_formula(self, shape):
        # the kernel reuses its buffers, forward and backward, but runs the
        # fresh-array formula's operations in its order
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * 3 + 1
        w = rng.normal(size=shape)
        got, want = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, ref = normalize(got), normalize_fresh(want)
        for y in (out, ref):
            sum_all(mul(y, Tensor(w))).backward()
        assert np.array_equal(out.data.view(np.uint64), ref.data.view(np.uint64))
        assert np.array_equal(normalize(x), ref.data)
        assert np.array_equal(got.grad.view(np.uint64), want.grad.view(np.uint64))

    def test_normalizes(self, rng):
        x = rng.normal(size=(4, 8)) * 5 + 3
        y = normalize(Tensor(x)).data
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), np.ones(4), atol=1e-4)

    def test_oracle_layer_norm_grads(self, rng):
        # the affine layer norm of the unfolded oracle (tests/oracles.py) is
        # checked here like a package op before it judges the folded graph
        x = rng.normal(size=(3, 6))
        gain = rng.normal(size=(6,))
        bias = rng.normal(size=(6,))
        check(lambda t: layer_norm(t, Tensor(gain), Tensor(bias)), x, rtol=1e-5)
        check(lambda t: layer_norm(Tensor(x), t, Tensor(bias)), gain, rtol=1e-5)
        check(lambda t: layer_norm(Tensor(x), Tensor(gain), t), bias, rtol=1e-5)

    @pytest.mark.parametrize("shape", [(8, 32), (3, 7), (2, 5, 16), (1, 1), (4, 64)])
    def test_affine_on_top_is_layer_norm(self, shape):
        # normalize(x) * gain + bias is the affine layer norm the package
        # folds into its projections
        x = np.random.default_rng(sum(shape)).normal(size=shape) * 3 + 1
        gain, bias = np.full(shape[-1], 1.5), np.full(shape[-1], 0.25)
        np.testing.assert_allclose(
            normalize(x, 1e-5) * gain + bias, layer_norm(x, gain, bias, 1e-5),
            rtol=0, atol=1e-13,
        )


class TestEmbedding:
    def test_scatter_accumulates_repeats(self, rng):
        table = rng.normal(size=(5, 3))
        ids = np.array([[1, 1, 4]])
        t = Tensor(table, requires_grad=True)
        sum_all(embedding(t, ids)).backward()
        np.testing.assert_allclose(t.grad[1], np.full(3, 2.0))
        np.testing.assert_allclose(t.grad[4], np.full(3, 1.0))
        np.testing.assert_allclose(t.grad[0], np.zeros(3))

    def test_lookup_values(self, rng):
        table = rng.normal(size=(4, 2))
        ids = np.array([[3, 0]])
        out = embedding(Tensor(table), ids)
        np.testing.assert_allclose(out.data[0, 0], table[3])
        np.testing.assert_allclose(out.data[0, 1], table[0])


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self, rng):
        # x feeds two branches that rejoin: grads must sum, and each node's
        # backward must run only after all its consumers
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        a = mul(x, x)
        b = add(a, x)
        c = add(a, b)  # c = 2x^2 + x
        sum_all(c).backward()
        np.testing.assert_allclose(x.grad, 4 * x.data + 1)

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError):
            mul(x, x).backward()

    def test_no_grad_leaf_stays_none(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = Tensor(rng.normal(size=(3,)))
        sum_all(mul(x, y)).backward()
        assert y.grad is None

    @pytest.mark.parametrize("x_first", [True, False])
    @pytest.mark.parametrize("shared_first", [True, False])
    def test_shared_gradient_array_is_not_mutated(self, rng, x_first, shared_first):
        # add hands one gradient array to both parents; x's second
        # contribution, arriving before or after that one, must not leak
        # into y's gradient
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        z = add(x, y) if x_first else add(y, x)
        shared, other = mul(z, Tensor(w)), x * 2.0
        out = add(shared, other) if shared_first else add(other, shared)
        sum_all(out).backward()
        assert np.array_equal(y.grad, w)
        assert np.array_equal(x.grad, w + 2.0)

    def test_only_leaves_keep_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        const = Tensor(rng.normal(size=(2, 4)))
        h = matmul(x, w)
        a = masked_softmax(add(h, const), scale=0.5)
        r = transpose(reshape(a, (4, 2)), (1, 0))
        loss = sum_all(log_softmax(r))
        loss.backward()
        assert x.grad is not None and w.grad is not None
        assert const.grad is None
        for node in (h, a, r, loss):
            assert node.grad is None

    @pytest.mark.parametrize("op, shape", [
        (lambda a, t: a + t, (3, 4)),
        (lambda a, t: a @ t, (4, 2)),
    ], ids=["add", "matmul"])
    def test_array_on_the_left_builds_a_node(self, rng, op, shape):
        # ndarray + Tensor and ndarray @ Tensor reach __radd__ and
        # __rmatmul__ instead of numpy's own operators
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=shape)
        out = op(a, Tensor(x))
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, op(a, x))
        check(lambda t: op(a, t), x)

    def test_plain_inputs_give_plain_arrays(self, rng):
        # the ops inference shares with training build no node on arrays,
        # and give the numbers the node would hold
        x = rng.normal(size=(3, 6))
        g = rng.normal(size=6)
        ids = np.array([[2, 0, 2]])
        for plain, node in (
            (embedding(x, ids), embedding(Tensor(x), ids)),
            (relu(x), relu(Tensor(x))),
            (log_softmax(x), log_softmax(Tensor(x))),
            (normalize(x), normalize(Tensor(x))),
            (ad.reshape(x, (2, 9)), ad.reshape(Tensor(x), (2, 9))),
            (ad.columns(x, 1, 4), ad.columns(Tensor(x), 1, 4)),
            (concat([x, g[None]], axis=0), concat([x, Tensor(g[None])], axis=0)),
        ):
            assert type(plain) is np.ndarray
            assert np.array_equal(plain, node.data)

    def test_operator_overloads(self, rng):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = Tensor(np.array([3.0]))
        z = sum_all(x * y + x)
        z.backward()
        np.testing.assert_allclose(x.grad, [4.0])
