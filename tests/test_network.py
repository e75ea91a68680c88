"""Expandable network: population bookkeeping, freezing, masking, persistence."""

import numpy as np
import pytest

from spikecl.errors import ConfigError, ContractError, FormatError
from spikecl.metrics import count_active, energy_report
from spikecl.network import (ConvSpec, DenseSpec, Network, _spec_units,
                             init_first_task)
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.tensor import Tensor, cross_entropy, gradients
from spikecl.trainer import Adam, _trainable_rows


def _task(tid=0, n_classes=2, shape=(1, 4, 4), n=12, seed=0):
    stream = default_synthetic_stream(n_tasks=tid + 1,
                                      classes_per_task=n_classes,
                                      shape=shape, n_train=n, n_test=4,
                                      seed=seed)
    return stream[tid]


DENSE_ARCH = [DenseSpec(6), DenseSpec(4)]
SHAPE = (1, 2, 2)


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
        assert all(len(l.populations) == 1 for l in net.layers)
        mask = net.masks[0]
        assert all(a.all() for a in mask.active)
        assert all(c.all() for c in mask.conn)  # density 1.0
        assert mask.head_active.all()

    def test_zero_unit_layer_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            init_first_task([DenseSpec(0)], SHAPE, _task(0, shape=SHAPE))

    def test_partition_invariant(self):
        net, _ = _dense_net()
        for layer in net.layers:
            assert sum(p.size for p in layer.populations) == layer.width

    @pytest.mark.parametrize("arch,msg", [
        ([], "at least one"),
        ([ConvSpec(4)], "dense"),
        ([DenseSpec(4), ConvSpec(4), DenseSpec(4)], "precede"),
    ])
    def test_arch_validation(self, arch, msg):
        with pytest.raises(ConfigError, match=msg):
            Network(arch, SHAPE, LIFConfig(), 0)


class TestExpand:
    def test_zero_counts_adds_empty_populations_and_head(self):
        net, _ = _dense_net()
        w_before = [l.w.data.copy() for l in net.layers]
        t1 = _task(0, shape=SHAPE, seed=5)
        t1.id = 1
        net.expand(t1, [0, 0])
        for layer, w in zip(net.layers, w_before):
            np.testing.assert_array_equal(layer.w.data, w)
            assert layer.populations[-1].size == 0
        assert 1 in net.heads and 1 in net.masks

    def test_counts_grow_widths(self):
        net, _ = _dense_net()
        widths = [l.width for l in net.layers]
        t1 = _task(0, shape=SHAPE, seed=5)
        t1.id = 1
        net.expand(t1, [3, 2])
        assert [l.width for l in net.layers] == [widths[0] + 3, widths[1] + 2]

    def test_old_task_state_keeps_its_shape_and_values(self):
        net, t0 = _dense_net()
        net.anchors[0] = {c: np.arange(4.0) + c for c in t0.classes}
        mask, head = net.masks[0], net.heads[0]

        def state():
            return (mask.active + mask.conn
                    + [mask.head_active, head.w.data, head.cil_w.data]
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

    def test_optimizer_step_leaves_frozen_entries_unchanged(self):
        net, t0 = _dense_net()
        t1 = _task(1, shape=SHAPE, seed=5)
        net.expand(t1, [3, 2])
        starts = [l.populations[-1].start for l in net.layers]
        before = [(l.w.data.copy(), l.b.data.copy()) for l in net.layers]
        params = net.parameters(1)
        optim = Adam(params, _trainable_rows(net), lr=0.1)
        x = Tensor(t1.train_x[:4])
        labels = np.zeros(4, dtype=int)
        for _ in range(3):
            logits, _ = net.forward_task(x, 1)
            optim.zero_grad()
            gradients(cross_entropy(logits, labels), params)
            optim.step()
        # rows of task 0's populations are frozen, task 1's rows moved
        for layer, r0, (w, b) in zip(net.layers, starts, before):
            np.testing.assert_array_equal(layer.w.data[:r0], w[:r0])
            np.testing.assert_array_equal(layer.b.data[:r0], b[:r0])
        assert any(not np.array_equal(l.w.data[r0:], w[r0:])
                   for l, r0, (w, _) in zip(net.layers, starts, before))


class TestForward:
    def test_old_mask_equals_unexpanded_network(self):
        net, t0 = _dense_net(seed=3)
        x = t0.train_x[:5]
        t1 = _task(1, shape=SHAPE, seed=5)
        net.expand(t1, [3, 2])
        # same seed rebuilds exactly the pre-expansion (task-0) weights
        fresh, _ = _dense_net(seed=3)
        a, _ = net.forward_task(Tensor(x), 0)
        b, _ = fresh.forward_task(Tensor(x), 0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_input_gives_bias_logits(self):
        net, _ = _dense_net()
        net.heads[0].b.data[:] = [0.3, -0.2]
        logits, feats = net.forward_task(Tensor(np.zeros((3,) + SHAPE)), 0)
        np.testing.assert_array_equal(feats.data, np.zeros((3, 4)))
        np.testing.assert_allclose(logits.data,
                                   np.tile([0.3, -0.2], (3, 1)), rtol=1e-12)

    def test_unknown_task_rejected(self):
        net, _ = _dense_net()
        with pytest.raises(KeyError, match="unknown task"):
            net.forward_task(Tensor(np.zeros((1,) + SHAPE)), 7)

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
        x = Tensor(t0.train_x[:4])
        before, _ = net.forward_task(x, 0)
        net.prune_units(1, [(0, 3), (1, 1)])
        after, _ = net.forward_task(x, 0)
        np.testing.assert_array_equal(before.data, after.data)
        # the head reads exactly the active final-layer units
        mask = net.masks[1]
        assert vars(mask).keys() == {"active", "conn"}
        assert mask.head_active is mask.active[-1]
        assert not mask.head_active[1] and mask.head_active[[0, 2, 3]].all()

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
            np.testing.assert_array_equal(layer.w.data, w)
            assert layer.populations[-1].start == 0 and net.synapses(li).all()
            assert not layer.b.data.any()
        np.testing.assert_array_equal(net.heads[0].w.data, draws[-1])

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
    """Oracle: the ``exist``/``trainable_*`` arrays ``Layer.grow`` once kept,
    updated incrementally on every expansion."""

    def __init__(self, net):
        self.exist = [np.zeros((0, l.in_units), dtype=bool) for l in net.layers]
        self.trainable_w = [np.zeros(l.w.shape, dtype=bool) for l in net.layers]
        self.trainable_b = [np.zeros(0, dtype=bool) for _ in net.layers]

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
                rows = _trainable_rows(net)
                for li, layer in enumerate(net.layers):
                    np.testing.assert_array_equal(net.synapses(li),
                                                  oracle.exist[li])
                    trainable = np.arange(layer.width) >= rows[id(layer.w)]
                    assert rows[id(layer.b)] == rows[id(layer.w)]
                    np.testing.assert_array_equal(trainable,
                                                  oracle.trainable_b[li])
                    np.testing.assert_array_equal(
                        np.broadcast_to(trainable.reshape(
                            (-1,) + (1,) * (layer.w.data.ndim - 1)),
                            layer.w.shape),
                        oracle.trainable_w[li])
            last = max(net.masks)
            doomed = [(li, u) for li in range(len(arch))
                      for u in range(net._widths(last - 1)[li])
                      if rng.random() < 0.3]
            net.prune_units(last, doomed)
            total = (sum(int(e.sum()) for e in oracle.exist)
                     + net.layers[-1].width * len(tasks[0].classes))
            for t in net.masks:
                rate = 1.0 - count_active(net, t)[0] / total
                assert energy_report(net, t).pruning_rate == rate


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        for name, build in (("dense", TestPruning()._expanded),
                            ("conv", _conv_expanded)):
            net, t0, t1 = build(seed=2)
            net.anchors[0] = {c: np.random.default_rng(0).normal(size=4)
                              for c in t0.classes}
            net.prune_units(1, [(0, 1)])
            path = tmp_path / f"{name}.npz"
            net.save(path)
            with np.load(path) as data:  # no exist/trainable_*/head_active
                assert {f.split("/")[1] for f in data.files
                        if f.startswith("layer")} == {"w", "b"}
                assert not any("head_active" in f for f in data.files)
            loaded = Network.load(path)
            for la, lb in zip(net.layers, loaded.layers):
                np.testing.assert_array_equal(la.w.data, lb.w.data)
                np.testing.assert_array_equal(la.b.data, lb.b.data)
                pops = [[(p.task_id, p.start, p.stop) for p in l.populations]
                        for l in (la, lb)]
                assert pops[0] == pops[1]
            for t in net.masks:
                for a, b in zip(net.masks[t].active, loaded.masks[t].active):
                    np.testing.assert_array_equal(a, b)
                for a, b in zip(net.masks[t].conn, loaded.masks[t].conn):
                    np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(net.masks[t].head_active,
                                              loaded.masks[t].head_active)
                np.testing.assert_array_equal(net.heads[t].w.data,
                                              loaded.heads[t].w.data)
            for c in net.anchors[0]:
                np.testing.assert_array_equal(net.anchors[0][c],
                                              loaded.anchors[0][c])
            # forward is bit-identical through the round trip
            for t, task in ((0, t0), (1, t1)):
                x = Tensor(task.train_x[:3])
                a, _ = net.forward_task(x, t)
                b, _ = loaded.forward_task(x, t)
                np.testing.assert_array_equal(a.data, b.data)

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(FormatError, match="cannot read"):
            Network.load(path)

    @pytest.mark.parametrize("name,change", [
        ("layer0/w", "cut column"), ("task1/conn0", "cut row"),
        ("task1/active1", "cut row"), ("task1/cil_b", "cut row"),
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
                 "widen": lambda a: np.zeros(99),
                 "nan": lambda a: np.where(a == a.flat[0], np.nan, a)}
        if change == "drop":
            del arrays[name]
        else:
            arrays[name] = edits[change](arrays[name])
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(FormatError, match=name):
            Network.load(tmp_path / "bad.npz")

    def test_populations_must_tile_units(self, tmp_path):
        net, _ = _dense_net()
        net.layers[1].populations[0].start = 1
        net.save(tmp_path / "bad.npz")
        with pytest.raises(FormatError, match="tile"):
            Network.load(tmp_path / "bad.npz")
