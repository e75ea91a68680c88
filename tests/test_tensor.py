"""Autodiff core: oracle checks against brute-force loops and finite differences."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractError, NumericalError, ShapeError
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.tensor import (Tensor, backward, concat_cols, conv2d,
                            cross_entropy, finite_diff_check, gradients,
                            no_grad)


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


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, _matmul_oracle(a, b), rtol=1e-12)

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


class TestConv2d:
    def test_scalar_kernel_doubles(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.0))

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
        out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, _conv_oracle(x, k, stride, padding),
                                   rtol=1e-12)

    def test_non_integral_geometry_rejected(self):
        from spikecl.errors import ConfigError

        x = Tensor(np.ones((1, 1, 6, 6)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        with pytest.raises(ConfigError, match="not integral"):
            conv2d(x, k, stride=2, padding=0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


class TestBackward:
    def test_linear_gradient_is_input(self):
        x = np.array([[1.0, -2.0, 3.0]])
        w = Tensor(np.array([[0.5, 0.25, -1.0]]), requires_grad=True)
        loss = (w * Tensor(x)).sum()
        backward(loss)
        np.testing.assert_array_equal(w.grad, x)

    def test_constant_loss_zero_gradients(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = (w * 0.0).sum()
        grads = gradients(loss, [w])
        np.testing.assert_array_equal(grads[w], np.zeros((2, 2)))

    def test_two_layer_smooth_network_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        b2 = Tensor(np.zeros(2), requires_grad=True)

        def f():
            h = Tensor(x) @ w1
            h = h.custom_unary(np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)
            return ((h @ w2).add_bias(b2) * Tensor(np.ones((4, 2)))).mean()

        assert finite_diff_check(f, [w1, w2, b2], step=1e-5) < 1e-4

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="scalar"):
            backward(w * 2.0)

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 3)))
        a, b = 2.5, -1.25

        def loss1():
            return (w * x).sum()

        def loss2():
            return (w @ x).mean()

        g1 = gradients(loss1(), [w])[w].copy()
        g2 = gradients(loss2(), [w])[w].copy()
        combined = gradients(a * loss1() + b * loss2(), [w])[w]
        np.testing.assert_allclose(combined, a * g1 + b * g2, rtol=1e-12)

    def test_matches_recursive_walk_on_a_network_graph(self):
        stream = default_synthetic_stream(n_tasks=2, shape=(1, 5, 5),
                                          n_train=6, n_test=2, seed=0)
        net = init_first_task([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5),
                              stream[0], lif=LIFConfig(window=3), seed=0)
        net.expand(stream[1], [2, 2])
        net.prune_units(1, [(0, 1)])
        params = net.parameters(1)
        labels = (stream[1].train_y - stream[1].classes[0]).astype(int)
        results = []
        for walk in (backward, _backward_recursive):
            for p in params:
                p.grad = None
            logits, _ = net.forward_task(Tensor(stream[1].train_x), 1)
            leaves = walk(cross_entropy(logits, labels))
            results.append(([params.index(t) for t in leaves],
                            [p.grad.copy() for p in params]))
        (order, grads), (order_ref, grads_ref) = results
        assert order == order_ref and len(order) == len(params)
        for g, g_ref in zip(grads, grads_ref):
            np.testing.assert_array_equal(g, g_ref)

    def test_graph_is_freed_without_the_cycle_collector(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        gc.collect()
        loss = ((Tensor(rng.normal(size=(4, 3))) @ w).custom_unary(
            np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)).mean()
        backward(loss)
        del loss
        assert gc.collect() == 0


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
            return (w * w).sum()

        assert finite_diff_check(f, [w], step=1e-5) < 1e-8

    def test_constant_function_zero(self):
        w = Tensor(np.ones(2), requires_grad=True)

        def f():
            return (w * 0.0).sum() + 5.0

        assert finite_diff_check(f, [w], step=1e-5) == 0.0

    def test_surrogate_smoothed_neuron(self):
        from spikecl.spiking import LIFConfig, SpikeState, lif_step

        cfg = LIFConfig(window=1, smooth=True)
        w = Tensor(np.array([[0.3, 0.7]]), requires_grad=True)
        x = Tensor(np.array([[0.9], [0.4]]))

        def f():
            current = w @ x
            state = lif_step(SpikeState.zeros(current.shape), current, cfg)
            return state.spikes.sum()

        assert finite_diff_check(f, [w], step=1e-5) < 1e-4

    @pytest.mark.parametrize("extent", [(2, 3), (3, 4)])
    def test_crop_matches_finite_differences(self, extent):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        coef = rng.normal(size=extent + (2,))

        def f():
            block = w.crop(*extent)
            return (block.mask_mul(coef) * block).sum()

        assert (w.crop(*extent) is w) == (extent == w.shape[:2])
        assert finite_diff_check(f, [w], step=1e-5) < 1e-8


class TestOpsAndErrors:
    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            Tensor(np.ones(3)) + Tensor(np.ones(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError, match="non-finite"):
            Tensor([np.inf])
        with pytest.raises(NumericalError, match="non-finite"), \
                np.errstate(over="ignore"):
            Tensor(np.array([1e308])) * 10.0

    def test_add_bias_conv_form(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        out = x.add_bias(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.data[:, 1], np.full((2, 4, 4), 2.0))

    def test_concat_cols_forward_and_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        joined = concat_cols([a, b])
        assert joined.shape == (2, 5)
        backward((joined * Tensor(np.arange(10.0).reshape(2, 5))).sum())
        np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_cross_entropy_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((4, 3))), np.zeros(4, dtype=int))
        assert loss.data == pytest.approx(np.log(3.0))

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([0, 2, 3])

        def f():
            return cross_entropy(logits, labels)

        assert finite_diff_check(f, [logits], step=1e-5) < 1e-7

    def test_no_grad_blocks_recording(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = (w * 2.0).sum()
        assert not out.requires_grad

    def test_determinism(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        r1 = (Tensor(a) @ Tensor(b)).data
        r2 = (Tensor(a) @ Tensor(b)).data
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
        h = (Tensor(x) @ w).add_bias(b)
        h = h.custom_unary(np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)
        return (h * h).mean()

    assert finite_diff_check(f, [w, b], step=1e-5) < 1e-4
