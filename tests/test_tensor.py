"""Autodiff core: oracle checks against brute-force loops and finite differences."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractError, ShapeError
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.tensor import (_SAMPLE_BLOCK, Tensor, _accum, _col2im, _im2col,
                            _scatter, backward, conv2d, gather, gradients,
                            softmax_cross_entropy)

from lif_oracle import custom_unary
from oracles import (add, average, cross_entropy, finite_diff_check, mul,
                     rsub, take, total)


def _matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def _conv_oracle(x, kernels, stride, padding):
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            out[o, i, j] += (
                                kernels[o, c, a, b]
                                * xp[c, i * stride + a, j * stride + b]
                            )
    return out


def _conv_grad_oracle(x, kernels, g, stride, padding):
    """Adjoint loops: dW[o,c,a,b] = sum g[n,o,i,j] * xp[n,c,i*s+a,j*s+b],
    and dx is the same sum scattered back onto the (cropped) input."""
    n_b, c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(kernels)
    for n in range(n_b):
        for o in range(c_out):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gv = g[n, o, i, j]
                    for c in range(c_in):
                        for a in range(kh):
                            for b in range(kw):
                                r, q = i * stride + a, j * stride + b
                                dw[o, c, a, b] += gv * xp[n, c, r, q]
                                dxp[n, c, r, q] += gv * kernels[o, c, a, b]
    return dxp[:, :, padding : padding + h, padding : padding + w], dw


def _im2col_pad_window(x, kh, kw, stride, padding):
    """Oracle: the np.pad + sliding_window_view im2col conv2d once used."""
    b, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B,C,Ho,Wo,kh,kw)
    ho, wo = win.shape[2:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _col2im_strided(cols, xshape, kh, kw, stride, padding):
    """Oracle: the strided-slice col2im conv2d once used.  Each element of
    the padded input sums its patch entries from +0.0, kernel offset (i, j)
    by (i, j), and the padding border is cropped."""
    b, c, h, w = xshape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    cols6 = cols.reshape(b, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride,
               j : j + stride * wo : stride] += cols6[:, :, i, j]
    return xp[:, :, padding : padding + h, padding : padding + w]


def _padded(cols):
    """Each sample's ``cols``, flat, with one zero column appended: the
    buffer ``_col2im`` reads."""
    b = cols.shape[0]
    return np.concatenate([cols.reshape(b, np.prod(cols.shape[1:], dtype=int)),
                           np.zeros((b, 1))], axis=1)


def _conv2d_kept_patches(x, kernels, g, stride, padding):
    """Oracle: the ``conv2d`` that kept its forward patches for the
    backward, took the kernel gradient by ``np.tensordot`` and copied the
    input gradient's patches into ``_col2im``'s zero-padded buffer.
    Returns (output, kernel gradient, input gradient) for output gradient
    ``g``."""
    b, c_out, (kh, kw) = x.shape[0], kernels.shape[0], kernels.shape[2:]
    cols, ho, wo = _im2col(x, kh, kw, stride, padding)
    wmat = kernels.reshape(c_out, x.shape[1] * kh * kw)
    out = np.matmul(wmat, cols).reshape(b, c_out, ho, wo)
    g = g.reshape(b, c_out, ho * wo)
    dw = np.tensordot(g, cols, axes=([0, 2], [0, 2]))
    dx = _col2im(_padded(np.matmul(wmat.T, g)), x.shape, kh, kw, stride,
                 padding)
    return out, dw.reshape(kernels.shape), dx


# (kernel, stride, padding, input extent): the network's 3x3 geometries and
# one wide 7x7 stride-2 kernel without padding
CONV_CASES = [(3, 1, 0, 5), (3, 1, 1, 5), (3, 2, 1, 5), (7, 2, 0, 11)]
# (kh, kw, stride, padding, input shape) for the lowering's bit-for-bit
# oracles, square cases named kernel-stride-padding-extent: CONV_CASES; a
# 1x1 kernel; a 1x1 stride-2 kernel, which leaves inputs that no patch
# reads; a padding of 2; a kh != kw kernel; an empty batch; no channel
LOWERING_CASES = (
    [pytest.param(k, k, s, p, (3, 2, n, n), id=f"{k}-{s}-{p}-{n}")
     for k, s, p, n in CONV_CASES + [(1, 1, 0, 4), (1, 2, 0, 5), (3, 2, 2, 7)]]
    + [pytest.param(3, 2, 1, 1, (3, 2, 6, 8), id="3x2-1-1-6x8"),
       pytest.param(3, 3, 2, 1, (0, 2, 5, 5), id="empty-batch"),
       pytest.param(3, 3, 2, 1, (3, 0, 5, 5), id="no-channel")])


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]).matmul(Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]).matmul(Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = Tensor(a).matmul(Tensor(b))
        np.testing.assert_allclose(out.data, _matmul_oracle(a, b), rtol=1e-12)

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_scalar_kernel_doubles(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match="4-D"):
            conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 1, 1))))

    def test_zero_kernel(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4)))
        k = Tensor(np.zeros((3, 2, 3, 3)))
        out = conv2d(x, k, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4, 4)))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_six_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x[None]), Tensor(k), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data[0],
                                   _conv_oracle(x, k, stride, padding),
                                   rtol=1e-12)

    @pytest.mark.parametrize("k,stride,padding,size", CONV_CASES)
    def test_batch_and_gradients_match_loop_oracles(self, k, stride, padding,
                                                    size):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, size, size))
        kern = rng.normal(size=(4, 2, k, k))
        xt = Tensor(x, requires_grad=True)
        kt = Tensor(kern, requires_grad=True)
        out = conv2d(xt, kt, stride=stride, padding=padding)
        for n in range(3):
            np.testing.assert_allclose(out.data[n],
                                       _conv_oracle(x[n], kern, stride,
                                                    padding), rtol=1e-12)
        g = rng.normal(size=out.shape)
        backward(total(mul(out, Tensor(g))))
        dx, dw = _conv_grad_oracle(x, kern, g, stride, padding)
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-12)
        np.testing.assert_allclose(kt.grad, dw, rtol=1e-12)

    @pytest.mark.parametrize("kh,kw,stride,padding,shape", LOWERING_CASES)
    def test_im2col_equals_pad_and_window_bit_for_bit(self, kh, kw, stride,
                                                      padding, shape):
        x = np.random.default_rng(8).normal(size=shape)
        cols, ho, wo = _im2col(x, kh, kw, stride, padding)
        ref, ho_ref, wo_ref = _im2col_pad_window(x, kh, kw, stride, padding)
        assert (ho, wo) == (ho_ref, wo_ref)
        assert cols.shape == ref.shape
        assert cols.flags.c_contiguous  # the per-sample GEMM reads it
        np.testing.assert_array_equal(cols, ref)

    @pytest.mark.parametrize("kh,kw,stride,padding,shape", LOWERING_CASES)
    def test_col2im_equals_strided_slice_adds_bit_for_bit(self, kh, kw,
                                                          stride, padding,
                                                          shape):
        rng = np.random.default_rng(11)
        x = rng.normal(size=shape)
        cols = rng.normal(size=_im2col(x, kh, kw, stride, padding)[0].shape)
        cols[cols < -0.5] = -0.0
        cols[:1] = -0.0  # sample 0 sums only -0.0 entries, to +0.0
        got = _col2im(_padded(cols), shape, kh, kw, stride, padding)
        ref = _col2im_strided(cols, shape, kh, kw, stride, padding)
        assert got.shape == ref.shape == shape
        # int64 views: a signed-zero difference fails as well
        np.testing.assert_array_equal(got.view(np.int64),
                                      np.ascontiguousarray(ref).view(np.int64))

    @pytest.mark.parametrize("kh,kw,stride,padding,shape", LOWERING_CASES + [
        pytest.param(3, 2, 1, 1, (1, 2, 6, 8), id="one-sample"),
        pytest.param(3, 3, 2, 1, (2 * _SAMPLE_BLOCK + 3, 2, 5, 5),
                     id="three-blocks"),
        pytest.param(1, 1, 1, 0, (5, 1, 4, 4), id="one-patch-column")])
    @pytest.mark.parametrize("c_out", [4, 0], ids=["4-out", "no-out"])
    def test_equals_the_kept_patches_oracle_bit_for_bit(self, kh, kw, stride,
                                                        padding, shape, c_out):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        kern = rng.normal(size=(c_out, shape[1], kh, kw))
        x[x < -1.0] = -0.0
        xt, kt = Tensor(x, requires_grad=True), Tensor(kern, requires_grad=True)
        out = conv2d(xt, kt, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        g[g < -1.0] = -0.0
        backward(total(mul(out, Tensor(g))))  # 1.0 * g is g, bit for bit
        refs = _conv2d_kept_patches(x, kern, g, stride, padding)
        for got, ref in zip((out.data, kt.grad, xt.grad), refs):
            assert got.shape == ref.shape
            # int64 views: a signed-zero difference fails as well
            np.testing.assert_array_equal(got.view(np.int64),
                                          ref.view(np.int64))

    @pytest.mark.parametrize("k,stride,padding,size", CONV_CASES)
    def test_sample_output_does_not_depend_on_its_batch(self, k, stride,
                                                        padding, size):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(32, 3, size, size))
        kern = Tensor(rng.normal(size=(8, 3, k, k)))
        full = conv2d(Tensor(x), kern, stride=stride, padding=padding).data
        for _ in range(20):
            idx = rng.choice(32, size=rng.integers(1, 33), replace=False)
            part = conv2d(Tensor(x[idx]), kern, stride=stride, padding=padding)
            np.testing.assert_array_equal(part.data, full[idx])

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
    def test_gradients_match_finite_differences(self, stride, padding):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        kern = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out_shape = conv2d(x, kern, stride=stride, padding=padding).shape
        coef = Tensor(rng.normal(size=out_shape))

        def f():
            out = conv2d(x, kern, stride=stride, padding=padding)
            return total(mul(mul(out, out), coef))

        assert finite_diff_check(f, [x, kern], step=1e-5) < 1e-5

    def test_kernel_larger_than_padded_input_rejected(self):
        from spikecl.errors import ConfigError

        x = Tensor(np.ones((1, 1, 9, 9)))
        with pytest.raises(ConfigError, match="larger than its padded input"):
            conv2d(x, Tensor(np.ones((1, 1, 11, 11))), stride=1, padding=0)
        # a kernel as wide as the padded input is one output pixel
        out = conv2d(x, Tensor(np.ones((1, 1, 11, 11))), stride=1, padding=1)
        assert out.shape == (1, 1, 1, 1)

    def test_non_integral_geometry_rejected(self):
        from spikecl.errors import ConfigError

        x = Tensor(np.ones((1, 1, 6, 6)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        with pytest.raises(ConfigError, match="not integral"):
            conv2d(x, k, stride=2, padding=0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


def _graph_nodes(loss):
    """Every node reachable from ``loss``, the loss included."""
    nodes, seen = [loss], {id(loss)}
    for t in nodes:
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    return nodes


def _fancy_scatter(g, shape, rows, cols=None):
    """Oracle: ``_scatter`` as ``+=`` on a 2-D fancy index into zeros."""
    out = np.zeros(shape)
    out[(rows,) if cols is None else (rows[:, None], cols)] += g
    return out


def _bits(a):
    return np.asarray(a).view(np.int64)


def _negative_zeros(a):
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


def _network_loss():
    """The mean of task 1's last-layer spikes on a conv+dense network with
    an old unit pruned in each layer, so every layer gathers; and the
    graph's leaves."""
    stream = default_synthetic_stream(n_tasks=2, shape=(1, 5, 5), n_train=6,
                                      n_test=2, seed=1)
    net = init_first_task([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5),
                          stream[0], lif=LIFConfig(window=3), seed=1)
    net.expand(stream[1], [2, 2])
    net.prune_units(1, [(0, 1), (1, 0)])
    spikes, reads = net.forward_task(stream[1].train_x, 1)
    return average(spikes), [leaf for leaf, _, _ in reads]


def _shared_loss():
    """A loss where ``p`` is read by two overlapping ``take``s and ``q`` by
    a ``take`` and directly, some coefficients signed zeros; and [p, q]."""
    rng = np.random.default_rng(6)
    p = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    q = Tensor(rng.normal(size=5), requires_grad=True)
    coefs = [rng.normal(size=s) for s in ((3, 2), (2, 3), (3,), (5,))]
    coefs[0][0, 0], coefs[1][1, 2], coefs[3][4] = -0.0, 0.0, -0.0
    reads = [take(p, np.array([0, 1, 3]), np.array([1, 4])),
             take(p, np.array([1, 2]), np.array([0, 1, 4])),
             take(q, np.array([0, 2, 4])), q]
    terms = [total(mul(t, Tensor(c))) for t, c in zip(reads, coefs)]
    return add(add(add(terms[0], terms[1]), terms[2]), terms[3]), [p, q]


class TestBackward:
    def test_linear_gradient_is_input(self):
        x = np.array([[1.0, -2.0, 3.0]])
        w = Tensor(np.array([[0.5, 0.25, -1.0]]), requires_grad=True)
        loss = total(mul(w, Tensor(x)))
        backward(loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_constant_loss_zero_gradients(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = total(mul(w, 0.0))
        grads = gradients(loss, [w])
        np.testing.assert_array_equal(grads[w], np.zeros((2, 2)))

    def test_two_layer_smooth_network_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        b2 = Tensor(np.zeros(2), requires_grad=True)

        def f():
            h = Tensor(x).matmul(w1)
            h = custom_unary(h, np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)
            return average(mul(h.matmul(w2).add_bias(b2),
                               Tensor(np.ones((4, 2)))))

        assert finite_diff_check(f, [w1, w2, b2], step=1e-5) < 1e-4

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(mul(w, 2.0))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(3, 3))
        x = Tensor(rng.normal(size=(3, 3)))
        a, b = 2.5, -1.25

        def loss1(w):
            return total(mul(w, x))

        def loss2(w):
            return average(w.matmul(x))

        def grad(loss):  # of a fresh leaf: gradients adds into .grad
            w = Tensor(data, requires_grad=True)
            return gradients(loss(w), [w])[w]

        combined = grad(lambda w: add(mul(a, loss1(w)), mul(b, loss2(w))))
        np.testing.assert_allclose(combined, a * grad(loss1) + b * grad(loss2),
                                   rtol=1e-12)

    def test_matches_recursive_walk_on_a_network_graph(self):
        stream = default_synthetic_stream(n_tasks=2, shape=(1, 5, 5),
                                          n_train=6, n_test=2, seed=0)
        net = init_first_task([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5),
                              stream[0], lif=LIFConfig(window=3), seed=0)
        net.expand(stream[1], [2, 2])
        net.prune_units(1, [(0, 1)])
        results = []
        for walk in (backward, _backward_recursive):
            spikes, reads = net.forward_task(stream[1].train_x, 1)
            params = [leaf for leaf, _, _ in reads]
            leaves = walk(average(spikes))
            results.append(([params.index(t) for t in leaves],
                            [p.grad for p in params]))
        (order, grads), (order_ref, grads_ref) = results
        assert order == order_ref and len(order) == len(params)
        for g, g_ref in zip(grads, grads_ref):
            np.testing.assert_array_equal(g, g_ref)

    def test_graph_is_freed_without_the_cycle_collector(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        gc.collect()
        loss = average(custom_unary(Tensor(rng.normal(size=(4, 3))).matmul(w),
                                    np.tanh, lambda v: 1.0 - np.tanh(v) ** 2))
        backward(loss)
        del loss
        assert gc.collect() == 0


    @pytest.mark.parametrize("build", [_network_loss, _shared_loss],
                             ids=["network", "shared"])
    def test_only_leaves_keep_gradients(self, build):
        loss, params = build()
        nodes = _graph_nodes(loss)  # before the walk, which drops them
        gradients(loss, params)
        assert all(p.grad is not None for p in params)
        assert [t for t in nodes if t._parents and t.grad is not None] == []


def _backward_recursive(loss):
    """Oracle: the recursive post-order walk ``backward`` once used."""
    topo, seen = [], set()

    def visit(t):
        if id(t) in seen or not t.requires_grad:
            return
        seen.add(id(t))
        for p in t._parents:
            visit(p)
        topo.append(t)

    visit(loss)
    loss.grad = np.asarray(1.0)
    for t in reversed(topo):
        if t._backward is not None:
            t._backward(t)
    return [t for t in topo if t._backward is None and t.grad is not None]


class TestFiniteDiffCheck:
    def test_quadratic_is_tight(self):
        w = Tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True)

        def f():
            return total(mul(w, w))

        assert finite_diff_check(f, [w], step=1e-5) < 1e-8

    def test_constant_function_zero(self):
        w = Tensor(np.ones(2), requires_grad=True)

        def f():
            return add(total(mul(w, 0.0)), 5.0)

        assert finite_diff_check(f, [w], step=1e-5) == 0.0

    def test_surrogate_smoothed_neuron(self):
        from spikecl.spiking import LIFConfig, lif_step, run_window

        cfg = LIFConfig(window=1, smooth=True)
        w = Tensor(np.array([[0.3, 0.7]]), requires_grad=True)
        x = Tensor(np.array([[0.9], [0.4]]))

        def f():
            return total(run_window(lif_step, w.matmul(x), cfg, held=True))

        assert finite_diff_check(f, [w], step=1e-5) < 1e-4

    def test_take_of_kernel_rows_and_columns_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4, 5, 2, 2)), requires_grad=True)
        rows, cols = np.array([0, 2, 3]), np.array([1, 4])
        coef = rng.normal(size=(3, 2, 2, 2))

        def f():
            block = take(w, rows, cols)
            return total(mul(mul(block, Tensor(coef)), block))

        np.testing.assert_array_equal(take(w, rows, cols).data,
                                      w.data[[0, 2, 3]][:, [1, 4]])
        assert finite_diff_check(f, [w], step=1e-5) < 1e-8
        grad = gradients(f(), [w])[w]  # zero outside the gathered block
        assert not grad[1].any() and not grad[:, [0, 2, 3]].any()

    def test_take_of_bias_rows_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        rows = np.array([1, 2, 4])
        coef = rng.normal(size=3)

        def f():
            part = take(b, rows)
            return total(mul(mul(part, Tensor(coef)), part))

        assert finite_diff_check(f, [b], step=1e-5) < 1e-8
        assert not gradients(f(), [b])[b][[0, 3]].any()


def _mask(rng, n, case):
    """Increasing indices into n: a seeded random subset, or a named one."""
    if case == "empty":
        return np.arange(0)
    if case == "one":
        return np.array([rng.integers(n)])
    if case == "every":
        return np.arange(n)
    return np.flatnonzero(rng.random(n) < 0.6)


TAKE_CASES = {  # id: (weight shape, rows, cols or None)
    "dense": ((9, 11), "random", "random"),
    "conv": ((7, 5, 3, 3), "random", "random"),
    "dense-no-rows": ((9, 11), "empty", "random"),
    "conv-no-cols": ((7, 5, 3, 3), "random", "empty"),
    "dense-one-row": ((9, 11), "one", "random"),
    "conv-every-row": ((7, 5, 3, 3), "every", "random"),
    "bias": ((9,), "random", None),
    "bias-one-row": ((9,), "one", None),
}


class TestGatherScatter:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", list(TAKE_CASES))
    def test_equals_the_fancy_index_oracle_bit_for_bit(self, case, seed):
        shape, row_case, col_case = TAKE_CASES[case]
        rng = np.random.default_rng([seed, len(shape)])
        rows = _mask(rng, shape[0], row_case)
        cols = None if col_case is None else _mask(rng, shape[1], col_case)
        data = rng.normal(size=shape)
        index = (rows,) if cols is None else (rows[:, None], cols)
        read = gather(data, rows, cols)
        np.testing.assert_array_equal(_bits(read), _bits(data[index]))
        g = rng.normal(size=read.shape)
        g[rng.random(read.shape) < 0.3] = -0.0
        g.flat[:1] = -0.0
        got = _scatter(g, shape, rows, cols)
        want = _fancy_scatter(g, shape, rows, cols)
        assert got.shape == want.shape == shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert _negative_zeros(got) == 0  # -0.0 landed as +0.0

    def test_first_accumulation_turns_negative_zero_positive(self):
        t = Tensor(np.ones(4), requires_grad=True)
        g = np.array([-0.0, 0.0, -2.5, 1.0])
        _accum(t, g)
        np.testing.assert_array_equal(_bits(t.grad), _bits(np.zeros(4) + g))
        assert _negative_zeros(t.grad) == 0 and t.grad is not g
        _accum(t, g)
        np.testing.assert_array_equal(_bits(t.grad),
                                      _bits(np.zeros(4) + g + g))


class TestOpsAndErrors:
    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            add(Tensor(np.ones(3)), Tensor(np.ones(4)))
        with pytest.raises(ShapeError, match="mismatch"):
            add(Tensor(np.ones(3)), Tensor(np.ones(())))

    @pytest.mark.parametrize("op,value,grad", [
        (lambda t: rsub(1.0, t), 1.0 - np.arange(3.0), -1.0),
        (lambda t: mul(t, 0.2), np.arange(3.0) * 0.2, 0.2),
        (lambda t: mul(0.2, t), np.arange(3.0) * 0.2, 0.2),
        (lambda t: add(t, 1.0), np.arange(3.0) + 1.0, 1.0),
    ], ids=["number-minus", "times-number", "number-times", "plus-number"])
    def test_number_operand_is_one_node(self, op, value, grad):
        t = Tensor(np.arange(3.0), requires_grad=True)
        out = op(t)
        assert out._parents == (t,)
        np.testing.assert_array_equal(out.data, value)
        backward(total(mul(out, Tensor(np.array([1.0, 2.0, 3.0])))))
        np.testing.assert_array_equal(t.grad, grad * np.array([1.0, 2.0, 3.0]))

    def test_add_bias_conv_form(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        out = x.add_bias(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.data[:, 1], np.full((2, 4, 4), 2.0))

    def test_cross_entropy_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 3)),
                                        np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(3.0))

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([0, 2, 3])

        def f():
            return cross_entropy(logits, labels)

        assert finite_diff_check(f, [logits], step=1e-5) < 1e-7
        # the array kernel gives the node's loss and logits gradient bit for
        # bit, and its gradient matches central differences of its loss
        node = f()
        loss, grad = softmax_cross_entropy(logits.data, labels)
        assert loss == float(node.data)
        np.testing.assert_array_equal(grad, gradients(node, [logits])[logits])
        central = np.zeros_like(grad)
        for i in np.ndindex(grad.shape):
            step = np.zeros_like(grad)
            step[i] = 1e-5
            hi = softmax_cross_entropy(logits.data + step, labels)[0]
            lo = softmax_cross_entropy(logits.data - step, labels)[0]
            central[i] = (hi - lo) / 2e-5
        np.testing.assert_allclose(grad, central, rtol=1e-7, atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        r1 = Tensor(a).matmul(Tensor(b)).data
        r2 = Tensor(a).matmul(Tensor(b)).data
        assert np.array_equal(r1, r2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_gradients_match_finite_differences(seed):
    """Composite op chain on randomized small shapes stays within 1e-4."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 4, size=3)
    x = rng.normal(size=(m, k))
    w = Tensor(rng.normal(size=(k, n)), requires_grad=True)
    b = Tensor(rng.normal(size=n), requires_grad=True)

    def f():
        h = Tensor(x).matmul(w).add_bias(b)
        h = custom_unary(h, np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)
        return average(mul(h, h))

    assert finite_diff_check(f, [w, b], step=1e-5) < 1e-4
