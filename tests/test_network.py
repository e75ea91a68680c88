"""Expandable network: unit ownership, freezing, masking, persistence."""

import copy
import json
import re
import zipfile

import numpy as np
import pytest

from spikecl.errors import (ConfigError, ContractError, FormatError,
                            NumericalError, ShapeError)
from spikecl.metrics import count_active, energy_report
from spikecl.network import (ConvSpec, DenseSpec, Network, _leaf,
                             _spec_units, head_logits, init_first_task)
from spikecl.spiking import LITERAL_EQ3, LIFConfig, lif_step, rate
from spikecl.streams import default_synthetic_stream
from spikecl.tensor import Tensor, conv2d, gradients
from spikecl.trainer import Adam, step_gradients

import lif_oracle
from oracles import cross_entropy, mul, take


def _task(tid=0, n_classes=2, shape=(1, 4, 4), n=12, seed=0):
    stream = default_synthetic_stream(n_tasks=tid + 1,
                                      classes_per_task=n_classes,
                                      shape=shape, n_train=n, n_test=4,
                                      seed=seed)
    return stream[tid]


DENSE_ARCH = [DenseSpec(6), DenseSpec(4)]
SHAPE = (1, 2, 2)


def _features(net, x, task_id):
    """The rate of ``forward_task``'s spikes."""
    return rate(net.forward_task(x, task_id)[0].data, net.lif.window)


def _logits(net, x, task_id):
    """``head_logits`` over ``_features``, as the training step reads them."""
    head = net.heads[task_id]
    return head_logits(_features(net, x, task_id),
                       head.w[:, net.masks[task_id].active[-1]], head.b)


def _dense_net(seed=0, window=2):
    t0 = _task(0, shape=SHAPE)
    return init_first_task(DENSE_ARCH, SHAPE, t0,
                           lif=LIFConfig(window=window), seed=seed), t0


class TestInitFirstTask:
    def test_population_and_density(self):
        t0 = _task(0, shape=(1, 9, 9))
        net = init_first_task(
            [ConvSpec(4, 3, 2, 1), ConvSpec(4, 3, 2, 1), DenseSpec(16),
             DenseSpec(8)], (1, 9, 9), t0, seed=0)
        assert len(net.layers) == 4
        assert net.owned(0) == [range(4), range(4), range(16), range(8)]
        mask = net.masks[0]
        assert all(a.all() for a in mask.active)
        assert all(c.all() for c in net.connections(0))  # density 1.0

    def test_zero_unit_layer_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            init_first_task([DenseSpec(0)], SHAPE, _task(0, shape=SHAPE))

    def test_partition_invariant(self):
        net, _ = _dense_net()
        net.expand(_task(1, shape=SHAPE, seed=5), [3, 0])
        for li, layer in enumerate(net.layers):
            owned = [net.owned(t)[li] for t in net.masks]
            assert [u for r in owned for u in r] == list(range(layer.width))

    @pytest.mark.parametrize("arch,msg", [
        ([], "at least one"),
        ([ConvSpec(4)], "dense"),
        ([DenseSpec(4), ConvSpec(4), DenseSpec(4)], "precede"),
        ([ConvSpec(4, 0, 1, 1), DenseSpec(4)], "kernel and stride must be"),
        ([ConvSpec(4, 3, 0, 1), DenseSpec(4)], "kernel and stride must be"),
        ([ConvSpec(4, 3, 1, -1), DenseSpec(4)], "padding non-negative"),
    ])
    def test_arch_validation(self, arch, msg):
        with pytest.raises(ConfigError, match=msg):
            Network(arch, SHAPE, LIFConfig(), 0)

    def test_unbatched_input_rejected(self):
        net, t0 = _dense_net()
        with pytest.raises(ShapeError, match="does not match network input"):
            net.forward_task(t0.train_x[0], 0)


class TestExpand:
    def test_zero_counts_adds_empty_populations_and_head(self):
        net, _ = _dense_net()
        w_before = [l.w.copy() for l in net.layers]
        t1 = _task(0, shape=SHAPE, seed=5)
        t1.id = 1
        net.expand(t1, [0, 0])
        for layer, w in zip(net.layers, w_before):
            np.testing.assert_array_equal(layer.w, w)
        assert [len(r) for r in net.owned(1)] == [0, 0]
        assert 1 in net.heads and 1 in net.masks

    def test_counts_grow_widths(self):
        net, _ = _dense_net()
        widths = [l.width for l in net.layers]
        t1 = _task(0, shape=SHAPE, seed=5)
        t1.id = 1
        net.expand(t1, [3, 2])
        assert [l.width for l in net.layers] == [widths[0] + 3, widths[1] + 2]
        assert net.owned(1) == [range(widths[0], widths[0] + 3),
                                range(widths[1], widths[1] + 2)]

    def test_old_task_state_keeps_its_shape_and_values(self):
        net, t0 = _dense_net()
        net.anchors[0] = {c: np.arange(4.0) + c for c in t0.classes}
        mask, head = net.masks[0], net.heads[0]

        def state():
            return (mask.active + net.connections(0)
                    + [head.w, head.cil_w]
                    + [net.anchors[0][c] for c in t0.classes])

        before = [a.copy() for a in state()]
        for tid, counts in ((1, [3, 2]), (2, [1, 1])):
            net.expand(_task(tid, shape=SHAPE, seed=5), counts)
        assert [l.width for l in net.layers] == [10, 7]
        for a, b in zip(before, state()):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_duplicate_task_rejected(self):
        net, t0 = _dense_net()
        with pytest.raises(ContractError, match="already"):
            net.expand(t0, [0, 0])

    def test_out_of_order_id_rejected(self):
        net, _ = _dense_net()
        with pytest.raises(ContractError, match="expected id 1, got 2"):
            net.expand(_task(2, shape=SHAPE), [1, 1])
        assert [l.width for l in net.layers] == [6, 4] and 2 not in net.masks
        empty = Network(DENSE_ARCH, SHAPE, LIFConfig(), 0)
        with pytest.raises(ContractError, match="expected id 0, got 1"):
            empty.expand(_task(1, shape=SHAPE), [6, 4])

    def test_optimizer_step_leaves_frozen_entries_unchanged(self):
        net, t0 = _dense_net()
        t1 = _task(1, shape=SHAPE, seed=5)
        net.expand(t1, [3, 2])
        starts = [r.start for r in net.owned(1)]
        before = [(l.w.copy(), l.b.copy()) for l in net.layers]
        optim = Adam(net.parameters(1), lr=0.1)
        labels = np.zeros(4, dtype=int)
        for _ in range(3):
            optim.step(step_gradients(net, t1.train_x[:4], labels, 1)[1])
        # rows task 0 owns are frozen, task 1's rows moved
        for layer, r0, (w, b) in zip(net.layers, starts, before):
            np.testing.assert_array_equal(layer.w[:r0], w[:r0])
            np.testing.assert_array_equal(layer.b[:r0], b[:r0])
        assert any(not np.array_equal(l.w[r0:], w[r0:])
                   for l, r0, (w, _) in zip(net.layers, starts, before))


class TestForward:
    def test_old_mask_equals_unexpanded_network(self):
        net, t0 = _dense_net(seed=3)
        x = t0.train_x[:5]
        t1 = _task(1, shape=SHAPE, seed=5)
        net.expand(t1, [3, 2])
        # same seed rebuilds exactly the pre-expansion (task-0) weights
        fresh, _ = _dense_net(seed=3)
        np.testing.assert_array_equal(_logits(net, x, 0),
                                      _logits(fresh, x, 0))

    def test_zero_input_gives_bias_logits(self):
        net, _ = _dense_net()
        net.heads[0].b[:] = [0.3, -0.2]
        x = np.zeros((3,) + SHAPE)
        np.testing.assert_array_equal(_features(net, x, 0), np.zeros((3, 4)))
        np.testing.assert_allclose(_logits(net, x, 0),
                                   np.tile([0.3, -0.2], (3, 1)), rtol=1e-12)

    @pytest.mark.parametrize("li", [0, 1])
    def test_overflowing_dense_product_caught_by_the_membrane_check(self,
                                                                    li):
        net, t0 = _dense_net()
        x = np.full((3,) + SHAPE, 4.0)
        if li == 1:  # layer 0 spikes everywhere, layer 1 sums 1e308s
            net.layers[0].w[:] = 1.0
        net.layers[li].w[:] = 1e308
        with pytest.raises(NumericalError, match="membrane"), \
                np.errstate(over="ignore", invalid="ignore"):
            net.forward_task(x, 0)

    def test_unknown_task_rejected(self):
        net, _ = _dense_net()
        with pytest.raises(KeyError, match="unknown task"):
            net.forward_task(np.zeros((1,) + SHAPE), 7)

    def test_a_read_of_every_row_and_column_is_the_parameter(self):
        w = np.ones((3, 4, 2))
        assert _leaf(w, np.arange(3)).data is w
        assert _leaf(w, np.arange(3), np.arange(4)).data is w
        assert _leaf(w, np.arange(3), np.arange(3)).data is not w
        assert _leaf(w, np.arange(2), np.arange(4)).shape == (2, 4, 2)
        assert _leaf(w, np.arange(3)).requires_grad

    def test_a_read_is_not_checked_finite(self):
        # parameters are finite by construction: no pass per step checks them
        w = np.full((3, 4), np.nan)
        assert _leaf(w, np.arange(3)).data is w
        assert np.isnan(_leaf(w, np.arange(2), np.arange(3)).data).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_input_rejected(self, value):
        net, t0 = _dense_net()
        x = t0.train_x[:3].copy()
        x[1, 0, 1, 0] = value
        with pytest.raises(NumericalError, match="input is not finite"):
            net.forward_task(x, 0)

    def test_extract_features_deterministic_and_shaped(self):
        net, t0 = _dense_net()
        x = t0.train_x[:6]
        f1 = net.extract_features(x, 0)
        f2 = net.extract_features(x, 0)
        np.testing.assert_array_equal(f1, f2)
        assert f1.shape == (6, net.layers[-1].width)


class TestPruning:
    def _expanded(self, seed=0):
        net, t0 = _dense_net(seed=seed)
        t1 = _task(1, shape=SHAPE, seed=5)
        net.expand(t1, [3, 2])
        return net, t0, t1

    def test_old_task_logits_unchanged_after_pruning(self):
        net, t0, _ = self._expanded()
        x = t0.train_x[:4]
        before = _logits(net, x, 0)
        net.prune_units(1, [(0, 3), (1, 1)])
        np.testing.assert_array_equal(before, _logits(net, x, 0))
        # the head reads exactly the active final-layer units
        mask = net.masks[1]
        assert vars(mask).keys() == {"active"}
        assert not mask.active[-1][1] and mask.active[-1][[0, 2, 3]].all()

    def test_cannot_prune_current_task_units(self):
        net, _, _ = self._expanded()
        with pytest.raises(ContractError, match="belongs to the current task"):
            net.prune_units(1, [(0, 6)])  # unit 6 is task 1's new unit


def _conv_expanded(seed=0):
    shape = (1, 5, 5)
    t0 = _task(0, shape=shape)
    net = init_first_task([ConvSpec(3, 3, 2, 1), DenseSpec(4)], shape, t0,
                          lif=LIFConfig(window=2), seed=seed)
    t1 = _task(1, shape=shape, seed=5)
    net.expand(t1, [2, 2])
    return net, t0, t1


def _smooth_expanded(seed=0):
    net, t0, t1 = TestPruning()._expanded(seed=seed)
    net.lif = LIFConfig(window=2, smooth=True)
    return net, t0, t1


def _expand_bits(layer, bits):
    """(width, in_units) bits repeated over each unit's block of columns."""
    cols = np.repeat(bits, layer.block, axis=1)
    return cols.reshape(cols.shape + (1,) * (layer.w.ndim - 2))


def _masked(t, bits):
    """``t`` times constant bits broadcast to its shape."""
    return mul(t, Tensor(np.broadcast_to(bits, t.shape)))


def _connection_masked_forward(net, x, task_id):
    """Oracle: the forward over the task's whole prefix that multiplies the
    weights by the expanded connection bits, each layer's current by the
    unit bits and the head by the final layer's bits; returns (logits,
    prefix-width features, one leaf per ``net.parameters(task_id)`` array,
    which it holds)."""
    mask = net.masks[task_id]
    cfg = net.lif
    leaves = [Tensor(p, requires_grad=True)
              for p, _ in net.parameters(task_id)]
    params = []
    for layer, conn, w, b in zip(net.layers, net.connections(task_id),
                                 leaves[:-2:2], leaves[1:-2:2]):
        rows = np.arange(conn.shape[0])
        cols = np.arange(conn.shape[1] * layer.block)
        weff = _masked(take(w, rows, cols), _expand_bits(layer, conn))
        if layer.kind == "dense":
            weff = weff.transpose()
        params.append((weff, take(b, rows)))

    states = [lif_oracle.rest((x.shape[0], a.size) + l.out_shape)
              for a, l in zip(mask.active, net.layers)]
    outputs = []
    for _ in range(cfg.window):  # the per-step unroll
        h = x
        for li, layer in enumerate(net.layers):
            weff, bias = params[li]
            if layer.kind == "conv":
                cur = conv2d(h, weff, layer.spec.stride, layer.spec.padding)
            else:
                if len(h.shape) > 2:
                    h = h.reshape(h.shape[0], -1)
                cur = h.matmul(weff)
            cur = _masked(cur.add_bias(bias), mask.active[li].reshape(
                (-1,) + (1,) * len(layer.out_shape)))
            states[li] = lif_oracle.step(states[li], cur, cfg)
            h = states[li][1]
        outputs.append(h)
    features = lif_oracle.rate(outputs, cfg)
    head_w, head_b = leaves[-2:]
    weff = _masked(head_w, mask.active[-1])
    return (features.matmul(weff.transpose()).add_bias(head_b), features,
            leaves)


class TestUnitGatedForward:
    @pytest.mark.parametrize("build", [TestPruning()._expanded,
                                       _conv_expanded], ids=["dense", "conv"])
    def test_matches_connection_masked_forward(self, build):
        net, t0, t1 = build(seed=1)
        pairs = net.parameters(1)
        optim = Adam(pairs, lr=0.05)
        labels = (t1.train_y - t1.classes[0]).astype(int)
        for step in range(6):
            if step == 3:
                net.prune_units(1, [(0, 1), (1, 2)])
            for t, task in ((0, t0), (1, t1)):
                ref_logits, ref, _ = _connection_masked_forward(
                    net, Tensor(task.train_x), t)
                np.testing.assert_array_equal(_logits(net, task.train_x, t),
                                              ref_logits.data)
                np.testing.assert_array_equal(
                    _features(net, task.train_x, t),
                    ref.data[:, net.masks[t].active[-1]])
                np.testing.assert_array_equal(
                    net.extract_features(task.train_x, t), ref.data)
            exist = {id(l.w): _expand_bits(l, net.synapses(li))
                     for li, l in enumerate(net.layers)}
            logits, _, leaves = _connection_masked_forward(
                net, Tensor(t1.train_x), 1)
            old = gradients(cross_entropy(logits, labels), leaves)
            new = step_gradients(net, t1.train_x, labels, 1)[1]
            # gradients agree on every synapse, up to the order of the sum
            # over the window; past an old row's synapses only the gathered
            # forward has any, and Adam never applies them
            for (p, _), leaf, g in zip(pairs, leaves, new, strict=True):
                np.testing.assert_allclose(
                    np.where(exist.get(id(p), True), g, 0.0), old[leaf],
                    rtol=1e-12)
            optim.step(new)  # with the gradients of the gathered forward

    @pytest.mark.parametrize("build", [TestPruning()._expanded,
                                       _conv_expanded], ids=["dense", "conv"])
    def test_pruned_unit_is_not_computed(self, build, monkeypatch):
        net, _, t1 = build(seed=1)
        net.prune_units(1, [(0, 1), (1, 2)])
        seen = []  # (input rows, (rows, columns) of the weight) per product
        conv, matmul, head = conv2d, Tensor.matmul, head_logits

        def spy_conv(x, kernels, *args):
            seen.append((x.shape[0], kernels.shape[:2]))
            return conv(x, kernels, *args)

        def spy_matmul(a, b):
            seen.append((a.shape[0], b.shape[::-1]))
            return matmul(a, b)

        def spy_head(features, w, b):
            seen.append((features.shape[0], w.shape))
            return head(features, w, b)

        monkeypatch.setattr("spikecl.network.conv2d", spy_conv)
        monkeypatch.setattr(Tensor, "matmul", spy_matmul)
        monkeypatch.setattr("spikecl.trainer.head_logits", spy_head)
        labels = (t1.train_y - t1.classes[0]).astype(int)
        step_gradients(net, t1.train_x, labels, 1)
        active = [int(a.sum()) for a in net.masks[1].active]
        assert all(n < l.width for n, l in zip(active, net.layers))
        inputs = [net.input_shape[0]] + active[:-1]
        # one product per layer per window: layer 0 reads the B input rows
        # once, every later layer the window-stacked T*B rows of spikes
        batch = len(t1.train_x)
        rows = [batch] + [net.lif.window * batch] * (len(active) - 1)
        layers = [(r, (n, i * l.block))
                  for r, n, i, l in zip(rows, active, inputs, net.layers)]
        assert net.lif.window > 1
        assert seen == layers + [(batch, (len(t1.classes), active[-1]))]

    @pytest.mark.parametrize("lif", [
        LIFConfig(tau=0.6, v_th=0.5, window=2, reset_mode=LITERAL_EQ3),
        LIFConfig(v_th=0.4, lam=2.0, window=2, smooth=True),
    ], ids=["literal-eq3", "smooth"])
    def test_pruned_units_are_silent_in_every_mode(self, lif):
        # in this mode a unit fires with no input current at all
        _, idle = lif_step(np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), lif)
        assert idle.any()
        net, _, t1 = TestPruning()._expanded(seed=1)
        net.prune_units(1, [(0, 1), (1, 2)])
        net.lif = lif
        x = t1.train_x[:5]
        features = net.extract_features(x, 1)
        assert not features[:, 2].any()
        # pruning a unit equals cutting its outgoing weights
        cut = copy.deepcopy(net)
        cut.masks[1].active[0][1] = cut.masks[1].active[1][2] = True
        cut.layers[1].w[:, 1] = 0.0
        cut.heads[1].w[:, 2] = 0.0
        np.testing.assert_array_equal(_logits(net, x, 1), _logits(cut, x, 1))


def _emptied(arch, shape, counts, li, seed=0):
    """Task 1 adds ``counts`` units and prunes every reused unit of layer
    ``li``, to which it adds none: the layer has no active unit."""
    t0 = _task(0, shape=shape)
    net = init_first_task(arch, shape, t0, lif=LIFConfig(window=2), seed=seed)
    t1 = _task(1, shape=shape, seed=5)
    net.expand(t1, counts)
    net.prune_units(1, [(li, u) for u in range(net.layers[li].width)])
    return net, t0, t1


def _pruned(build):
    def pruned(seed=0):
        net, t0, t1 = build(seed=seed)
        net.prune_units(1, [(0, 1), (1, 2)])
        return net, t0, t1
    return pruned


class TestInfer:
    """``infer`` against the graph forward it stands in for."""

    @pytest.mark.parametrize("build", [
        _pruned(TestPruning()._expanded), _pruned(_conv_expanded),
        lambda seed: _emptied(DENSE_ARCH, SHAPE, [3, 0], 1, seed),
        lambda seed: _emptied([ConvSpec(3, 3, 2, 1), DenseSpec(4)],
                              (1, 5, 5), [0, 2], 0, seed),
    ], ids=["dense", "conv", "empty-final-layer", "empty-conv-layer"])
    @pytest.mark.parametrize("lif", [
        LIFConfig(window=3),
        LIFConfig(tau=0.6, window=3, reset_mode=LITERAL_EQ3),
        LIFConfig(v_th=0.4, window=3, smooth=True),
        LIFConfig(tau=0.6, v_th=0.4, window=3, smooth=True,
                  reset_mode=LITERAL_EQ3),
    ], ids=["hard-reset", "literal-eq3", "smooth-hard-reset",
            "smooth-literal-eq3"])
    def test_equals_graph_forward_bit_for_bit(self, build, lif):
        net, t0, t1 = build(seed=1)
        net.lif = lif
        for t, task in ((0, t0), (1, t1)):
            graph = _features(net, task.train_x, t)
            assert graph.shape == (len(task.train_x),
                                   int(net.masks[t].active[-1].sum()))
            np.testing.assert_array_equal(net.infer(task.train_x, t), graph)

    def test_checks_the_input_shape(self):
        net, t0 = _dense_net()
        with pytest.raises(ShapeError, match="does not match network input"):
            net.infer(t0.train_x[0], 0)


def _first_task_draws(arch, shape, n_classes, seed):
    """The He-normal draws of the first task, in order: layers, then head."""
    rng = np.random.default_rng([seed, 0])
    units, spatial, draws = shape[0], shape[1:], []
    for spec in arch:
        if isinstance(spec, ConvSpec):
            k = spec.kernel
            row = (units, k, k)
            spatial = tuple((n + 2 * spec.padding - k) // spec.stride + 1
                            for n in spatial)
            units = spec.channels
        else:
            row = (units * int(np.prod(spatial)),)
            spatial, units = (), spec.units
        std = np.sqrt(2.0 / int(np.prod(row)))
        draws.append(rng.normal(0.0, std, size=(units,) + row))
    draws.append(rng.normal(0.0, np.sqrt(2.0 / units), size=(n_classes, units)))
    return draws


class TestFirstTaskIsExpansion:
    @pytest.mark.parametrize("arch,shape", [
        ([ConvSpec(4, 3, 2, 1), ConvSpec(4, 3, 2, 1), DenseSpec(16),
          DenseSpec(8)], (1, 9, 9)),
        ([DenseSpec(6), DenseSpec(4)], (2, 3, 3)),
    ])
    def test_weights_follow_the_first_task_draw_order(self, arch, shape):
        net = init_first_task(arch, shape, _task(0, shape=shape), seed=3)
        draws = _first_task_draws(arch, shape, 2, seed=3)
        for li, (layer, w) in enumerate(zip(net.layers, draws)):
            np.testing.assert_array_equal(layer.w, w)
            assert net.owned(0)[li] == range(layer.width)
            assert net.synapses(li).all()
            assert not layer.b.any()
        np.testing.assert_array_equal(net.heads[0].w, draws[-1])

    def test_empty_network_has_geometry_and_no_units(self):
        net = Network([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (2, 5, 5),
                      LIFConfig(), 0)
        conv, dense = net.layers
        assert (conv.width, conv.in_units, conv.block, conv.out_shape) == \
               (0, 2, 1, (3, 3))
        assert (dense.width, dense.in_units, dense.block, dense.out_shape) == \
               (0, 0, 9, ())
        assert not net.masks and not net.heads


class _GrownBookkeeping:
    """Oracle: the ``exist``/``trainable_*`` arrays ``Layer.grow`` once kept
    and the connection bits each ``TaskMask`` once stored, updated
    incrementally on every expansion and pruning."""

    def __init__(self, net):
        self.exist = [np.zeros((0, l.in_units), dtype=bool) for l in net.layers]
        self.trainable_w = [np.zeros(l.w.shape, dtype=bool) for l in net.layers]
        self.trainable_b = [np.zeros(0, dtype=bool) for _ in net.layers]
        self.conn = {}

    def grow(self, net, counts):
        """Mirror ``net.expand(task, counts)``, called right after it."""
        n_new_in = 0
        for li, layer in enumerate(net.layers):
            n_new = int(counts[li])
            old_out, old_in = self.exist[li].shape
            self.trainable_w[li] = np.zeros(layer.w.shape, dtype=bool)
            self.trainable_w[li][old_out:] = True
            self.trainable_b[li] = np.arange(old_out + n_new) >= old_out
            exist = np.zeros((old_out + n_new, old_in + n_new_in), dtype=bool)
            exist[:old_out, :old_in] = self.exist[li]
            exist[old_out:] = True
            self.exist[li] = exist
            n_new_in = n_new
        self.conn[max(net.masks)] = [e.copy() for e in self.exist]

    def prune(self, task_id, doomed):
        """Mirror ``net.prune_units``: drop each unit's row and out-column."""
        conn = self.conn[task_id]
        for li, u in doomed:
            conn[li][u, :] = False
            if li + 1 < len(conn):
                conn[li + 1][:, u] = False


class TestDerivedState:
    @pytest.mark.parametrize("arch,shape", [
        ([DenseSpec(5), DenseSpec(4), DenseSpec(3)], SHAPE),
        ([ConvSpec(3, 3, 2, 1), ConvSpec(2, 3, 2, 1), DenseSpec(4),
          DenseSpec(3)], (1, 5, 5)),
    ])
    def test_matches_incremental_bookkeeping(self, arch, shape):
        tasks = default_synthetic_stream(n_tasks=4, classes_per_task=2,
                                         shape=shape, n_train=4, n_test=2,
                                         seed=0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = Network(arch, shape, LIFConfig(window=2), seed)
            oracle = _GrownBookkeeping(net)
            for t in tasks[: rng.integers(2, 5)]:
                counts = ([_spec_units(s) for s in arch] if t.id == 0
                          else rng.integers(0, 4, size=len(arch)))
                if t.id:
                    counts[rng.integers(len(arch))] = 0
                net.expand(t, counts)
                oracle.grow(net, counts)
                rows = {id(p): r0 for p, r0 in net.parameters(t.id)}
                for li, layer in enumerate(net.layers):
                    np.testing.assert_array_equal(net.synapses(li),
                                                  oracle.exist[li])
                    trainable = np.arange(layer.width) >= rows[id(layer.w)]
                    assert rows[id(layer.b)] == rows[id(layer.w)]
                    np.testing.assert_array_equal(trainable,
                                                  oracle.trainable_b[li])
                    np.testing.assert_array_equal(
                        np.broadcast_to(trainable.reshape(
                            (-1,) + (1,) * (layer.w.ndim - 1)),
                            layer.w.shape),
                        oracle.trainable_w[li])
            last = max(net.masks)
            doomed = [(li, u) for li in range(len(arch))
                      for u in range(net._widths(last - 1)[li])
                      if rng.random() < 0.3]
            net.prune_units(last, doomed)
            oracle.prune(last, doomed)
            for t in net.masks:
                for a, b in zip(net.connections(t), oracle.conn[t]):
                    np.testing.assert_array_equal(a, b)
            total = (sum(int(e.sum()) for e in oracle.exist)
                     + net.layers[-1].width * len(tasks[0].classes))
            for t in net.masks:
                rate = 1.0 - count_active(net, t)[0] / total
                assert energy_report(net, t).pruning_rate == rate


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        for name, build in (("dense", TestPruning()._expanded),
                            ("conv", _conv_expanded),
                            ("smooth", _smooth_expanded)):
            net, t0, t1 = build(seed=2)
            net.anchors[0] = {c: np.random.default_rng(0).normal(size=4)
                              for c in t0.classes}
            net.prune_units(1, [(0, 1)])
            path = tmp_path / f"{name}.npz"
            net.save(path)
            with np.load(path) as data:  # no exist/trainable_*/head_active/conn
                assert {f.split("/")[1] for f in data.files
                        if f.startswith("layer")} == {"w", "b"}
                assert not any("head_active" in f or "conn" in f
                               for f in data.files)
                meta = json.loads(bytes(data["__meta__"]).decode())
                assert "populations" not in meta
            loaded = Network.load(path)
            assert loaded.lif == net.lif
            for la, lb in zip(net.layers, loaded.layers):
                np.testing.assert_array_equal(la.w, lb.w)
                np.testing.assert_array_equal(la.b, lb.b)
            for t in net.masks:
                assert loaded.owned(t) == net.owned(t)
                for a, b in zip(net.masks[t].active, loaded.masks[t].active):
                    np.testing.assert_array_equal(a, b)
                for a, b in zip(net.connections(t), loaded.connections(t)):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(net.heads[t].w,
                                              loaded.heads[t].w)
            for c in net.anchors[0]:
                np.testing.assert_array_equal(net.anchors[0][c],
                                              loaded.anchors[0][c])
            # forward is bit-identical through the round trip
            for t, task in ((0, t0), (1, t1)):
                x = task.train_x[:3]
                for forward in (_features, _logits):
                    np.testing.assert_array_equal(forward(net, x, t),
                                                  forward(loaded, x, t))

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(FormatError, match="cannot read"):
            Network.load(path)

    @pytest.mark.parametrize("name,change", [
        ("layer0/w", "cut column"), ("task1/head_w", "cut column"),
        ("task1/active1", "cut below task 0"), ("task1/cil_b", "cut row"),
        ("anchor0/0", "widen"), ("layer1/b", "drop"), ("task0/cil_w", "nan"),
    ])
    def test_shape_mismatch_or_missing_array_rejected(self, tmp_path, name,
                                                      change):
        net, t0, _ = _conv_expanded()
        net.anchors[0] = {c: np.zeros(4) for c in t0.classes}
        net.save(tmp_path / "ok.npz")
        with np.load(tmp_path / "ok.npz") as data:
            arrays = dict(data)
        edits = {"cut column": lambda a: a[:, :-1], "cut row": lambda a: a[:-1],
                 "cut below task 0": lambda a: a[:3],  # task 0 has 4 units
                 "widen": lambda a: np.zeros(99),
                 "nan": lambda a: np.where(a == a.flat[0], np.nan, a)}
        if change == "drop":
            del arrays[name]
        else:
            arrays[name] = edits[change](arrays[name])
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(FormatError, match=name):
            Network.load(tmp_path / "bad.npz")

    def test_weight_outside_synapses_rejected(self, tmp_path):
        net, _, _ = _conv_expanded()
        net.save(tmp_path / "ok.npz")
        with np.load(tmp_path / "ok.npz") as data:
            arrays = dict(data)
        # task 0's dense row 0 reads 3 channels x 9 columns; column 44 lies
        # in the block of channel 4, a task-1 channel
        arrays["layer1/w"][0, 44] = 0.5
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(FormatError, match="layer1/w has nonzero weights"):
            Network.load(tmp_path / "bad.npz")

    @pytest.mark.parametrize("build", [TestPruning()._expanded,
                                       _conv_expanded], ids=["dense", "conv"])
    def test_save_load_save_is_byte_identical(self, tmp_path, build):
        net, t0, t1 = build(seed=4)
        rng = np.random.default_rng(1)
        for t, task in ((0, t0), (1, t1)):
            width = net.masks[t].active[-1].size
            net.anchors[t] = {c: rng.normal(size=width) for c in task.classes}
        net.prune_units(1, [(0, 1), (1, 2)])
        net.heads[1].cil_w += 0.5
        net.save(tmp_path / "a.npz")
        Network.load(tmp_path / "a.npz").save(tmp_path / "b.npz")
        # the zip headers carry the write time, so compare every member
        members = []
        for name in ("a.npz", "b.npz"):
            with zipfile.ZipFile(tmp_path / name) as z:
                members.append([(m, z.read(m)) for m in z.namelist()])
        assert members[0] == members[1]

    @pytest.mark.parametrize("change,message", [
        ("version 5", "checkpoint version 5 unsupported"),
        ("task ids 0, 2", "task ids must be 0..T-1"),
        ("anchor task 2", "anchor tasks among them"),
        ("task1/active0 narrower", "task1/active0 has 5 units, fewer than "
                                   "task 0's 6"),
        ("task1/active1 2-D", "task1/active1 has shape (1, 6), expected 1-D"),
        ("task0/active1 float", "task0/active1 has dtype float64"),
        ("task0/active1 object", "task0/active1: Object arrays cannot"),
        ("meta [1, 2]", "bad.npz has malformed metadata: not a JSON object"),
        ("tasks []", "bad.npz has malformed metadata"),
        ("anchor_classes []", "bad.npz has malformed metadata"),
        ("classes 5", "bad.npz has malformed metadata"),
        ("anchor classes 5", "bad.npz has malformed metadata"),
    ], ids=["version-5", "task-ids-0-2", "anchor-task-2", "narrower", "2-D",
            "float", "object", "meta-list", "tasks-list",
            "anchor-classes-list", "classes-number", "anchor-classes-number"])
    def test_task_ids_and_masks_checked(self, tmp_path, change, message):
        net, t0, _ = TestPruning()._expanded()
        net.anchors[0] = {c: np.zeros(4) for c in t0.classes}
        net.save(tmp_path / "ok.npz")
        with np.load(tmp_path / "ok.npz") as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        if change == "version 5":
            meta["version"] = 5
        elif change == "task ids 0, 2":  # task 1 saved under id 2
            meta["tasks"]["2"] = meta["tasks"].pop("1")
            arrays = {k.replace("task1/", "task2/"): v
                      for k, v in arrays.items()}
        elif change == "anchor task 2":
            meta["anchor_classes"]["2"] = meta["anchor_classes"].pop("0")
            arrays = {k.replace("anchor0/", "anchor2/"): v
                      for k, v in arrays.items()}
        elif change == "meta [1, 2]":
            meta = [1, 2]
        elif change.endswith(" []"):
            meta[change.split()[0]] = []
        elif change == "classes 5":
            meta["tasks"]["0"]["classes"] = 5
        elif change == "anchor classes 5":
            meta["anchor_classes"]["0"] = 5
        else:
            name = change.split()[0]
            edit = {"narrower": lambda a: a[:5], "2-D": lambda a: a[None],
                    "float": lambda a: a.astype(float),
                    "object": lambda a: a.astype(object)}[change.split()[1]]
            arrays[name] = edit(arrays[name])
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(FormatError, match=re.escape(message)):
            Network.load(tmp_path / "bad.npz")
