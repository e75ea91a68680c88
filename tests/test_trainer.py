"""Continual loop: masked optimization, isolation, replay, and TIL/CIL protocols."""

import numpy as np
import pytest

from spikecl.errors import (ConfigError, ContractError, DataError,
                            NumericalError)
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam,
                             ReplayBuffer, TrainConfig, calibrate_heads,
                             cil_evaluate, learn_task, step_gradients,
                             til_evaluate)
from spikecl.tensor import Tensor, gradients

import oracles
from oracles import mul, total


def _cfg(**overrides):
    base = dict(arch=[DenseSpec(12), DenseSpec(8)], input_shape=(1, 3, 3),
                epochs=10, batch_size=16, lr=0.01, probe_size=64,
                lif=LIFConfig(window=2), replay_capacity=100, calib_epochs=8,
                seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _stream(n_tasks=2, seed=0, n_train=80, n_test=40):
    return default_synthetic_stream(n_tasks=n_tasks, classes_per_task=2,
                                    shape=(1, 3, 3), n_train=n_train,
                                    n_test=n_test, seed=seed)


class _TensorAdam:
    """The Adam this one replaced, over Tensors and their ``.grad``: the
    oracle for the array Adam."""

    def __init__(self, params, first_rows, lr):
        self.entries = []
        for p in params:
            r0 = first_rows.get(id(p), 0)
            self.entries.append((p, r0, np.zeros_like(p.data[r0:]),
                                 np.zeros_like(p.data[r0:])))
        self.lr = lr
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, r0, m, v in self.entries:
            if p.grad is None:
                continue
            g = p.grad[r0:]
            m += (1 - ADAM_BETA1) * (g - m)
            v += (1 - ADAM_BETA2) * (g ** 2 - v)
            p.data[r0:] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


class TestAdam:
    def test_masked_entries_never_move(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(4, 4))
        before = p.copy()
        optim = Adam([(p, 2)], lr=0.1)
        for _ in range(5):
            leaf = Tensor(p, requires_grad=True)
            optim.step([gradients(total(mul(leaf, leaf)), [leaf])[leaf]])
        np.testing.assert_array_equal(p[:2], before[:2])
        assert not np.array_equal(p[2:], before[2:])

    def test_matches_the_tensor_adam_bit_for_bit(self):
        rng = np.random.default_rng(3)
        # (3, 4) from row 3: a layer the task adds no unit to, an empty
        # slice of the flat vector between two others
        shapes = [(5, 3), (5,), (3, 4), (4, 2, 3, 3), (2, 4)]
        rows = [2, 2, 3, 1, 0]
        arrays = [rng.normal(size=s) for s in shapes]
        before = [a.copy() for a in arrays]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        optim = Adam(list(zip(arrays, rows)), lr=0.05)
        oracle = _TensorAdam(tensors, {id(t): r for t, r in
                                       zip(tensors, rows)}, lr=0.05)
        for _ in range(20):
            grads = [rng.normal(scale=rng.uniform(1e-3, 10.0), size=s)
                     for s in shapes]
            for t, g in zip(tensors, grads):
                t.grad = g.copy()
            optim.step(grads)
            oracle.step()
            for a, t in zip(arrays, tensors):  # -0.0 apart from +0.0 too
                np.testing.assert_array_equal(a.view(np.int64),
                                              t.data.view(np.int64))
        for a, b, r0 in zip(arrays, before, rows):
            np.testing.assert_array_equal(a[:r0].view(np.int64),
                                          b[:r0].view(np.int64))
            assert a[r0:].size == 0 or not np.array_equal(a[r0:], b[r0:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_moves_no_parameter(self, bad):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=(3, 2)), rng.normal(size=(4,))]
        optim = Adam([(arrays[0], 1), (arrays[1], 0)], lr=0.1)
        optim.step([rng.normal(size=a.shape) for a in arrays])
        before = [a.copy() for a in arrays]
        grads = [rng.normal(size=a.shape) for a in arrays]
        grads[1][2] = bad  # one entry, in the last array stepped
        with pytest.raises(NumericalError, match="Adam update"), \
                np.errstate(invalid="ignore"):
            optim.step(grads)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _gathering_net(arch, shape, n_tasks, empty=False):
    """The last task of an ``n_tasks`` stream on ``arch``: after the first,
    each task adds 2 units a layer and prunes old unit 1 of every layer;
    with ``empty``, it adds none to the last layer and prunes every old
    unit there, which leaves that layer no active unit."""
    stream = default_synthetic_stream(n_tasks=n_tasks, shape=shape,
                                      n_train=6, n_test=2, seed=1)
    net = init_first_task(arch, shape, stream[0], lif=LIFConfig(window=3),
                          seed=1)
    for task in stream[1:]:
        last = len(arch) - 1
        net.expand(task, [2] * last + [0 if empty else 2])
        net.prune_units(task.id, [(li, 1) for li in range(last)] + [
            (last, u) for u in (range(task.id * arch[-1].units) if empty
                                else [1])])
    return net, stream[-1]


def _reachable(root):
    """Every object reachable from ``root`` through dict keys and values,
    sequence items and the attributes of the package's own objects."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set)):
            stack += obj
        elif type(obj).__module__.startswith("spikecl."):
            stack += getattr(obj, "__dict__", {}).values()


class TestStepGradients:
    @pytest.mark.parametrize("arch,shape,n_tasks,empty", [
        ([DenseSpec(5), DenseSpec(4)], (1, 3, 3), 2, False),
        ([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5), 2, False),
        ([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5), 1, False),
        ([DenseSpec(5), DenseSpec(4)], (1, 3, 3), 2, True),
        # BLAS rounds the head's products by operand layout at this width
        ([DenseSpec(5), DenseSpec(253)], (1, 3, 3), 1, False),
    ], ids=["dense-pruned", "conv-pruned", "first-task", "empty-final-layer",
            "wide-final-layer"])
    def test_equals_the_parameter_leaf_graph_bit_for_bit(self, arch, shape,
                                                         n_tasks, empty):
        net, task = _gathering_net(arch, shape, n_tasks, empty)
        labels = (task.train_y - task.classes[0]).astype(int)
        pairs = net.parameters(task.id)
        # the graph reads the layers, not the head; a pruned unit in every
        # layer gathers each read, a first task reads each whole, no copy
        reads = net.forward_task(task.train_x, task.id)[1]
        whole = [leaf.data is p for (p, _), (leaf, _, _) in zip(pairs, reads)]
        assert whole == [task.id == 0] * (len(pairs) - 2)
        loss, grads = step_gradients(net, task.train_x, labels, task.id)
        logits, leaves = oracles.forward_task(net, task.train_x, task.id)
        ref = oracles.cross_entropy(logits, labels)
        want = gradients(ref, leaves)
        assert loss == float(ref.data)
        for (p, _), g, leaf in zip(pairs, grads, leaves, strict=True):
            assert g.shape == p.shape
            np.testing.assert_array_equal(g.view(np.int64),
                                          want[leaf].view(np.int64))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_a_non_finite_loss_from_finite_logits_rejected(self, value):
        # logits 2e308 apart are finite, but one's log-probability is not:
        # the loss is checked at the step's boundary
        net, task = _gathering_net([DenseSpec(5), DenseSpec(4)], (1, 3, 3), 1)
        net.heads[0].b[:] = [value, -value]
        labels = (task.train_y - task.classes[0]).astype(int)
        assert set(labels) == {0, 1}
        with pytest.raises(NumericalError, match="loss is not finite"), \
                np.errstate(over="ignore"):
            step_gradients(net, task.train_x, labels, 0)


class TestModelState:
    def test_holds_arrays_only_and_adam_steps_them_in_place(self):
        stream = _stream(2)
        cfg = _cfg(epochs=2)
        buf = ReplayBuffer(cfg.replay_capacity)
        net = None
        for t in stream:
            net, _ = learn_task(net, t, cfg, buf)
        calibrate_heads(net, buf, cfg)
        state = list(_reachable(net))
        kinds = {type(o).__name__ for o in state}
        assert {"Layer", "TaskHead", "TaskMask", "ndarray"} <= kinds
        assert len(net.anchors) == 2
        assert [o for o in state if isinstance(o, Tensor)] == []
        # an Adam step moves the layers' own arrays, the old rows excepted
        weights = [l.w for l in net.layers]
        before = [w.copy() for w in weights]
        labels = np.asarray([stream[1].classes.index(v)
                             for v in stream[1].train_y[:16]])
        grads = step_gradients(net, stream[1].train_x[:16], labels, 1)[1]
        Adam(net.parameters(1), lr=0.1).step(grads)
        moved = 0
        for layer, w, old, own in zip(net.layers, weights, before,
                                      net.owned(1)):
            assert layer.w is w
            np.testing.assert_array_equal(w[:own.start], old[:own.start])
            moved += not np.array_equal(w[own.start:], old[own.start:])
        assert moved == len(net.layers)


class TestReplayBuffer:
    def _task_with_classes(self, classes, n_per_class=30, tid=0):
        rng = np.random.default_rng(42 + tid)
        x = rng.uniform(size=(n_per_class * len(classes), 1, 2, 2))
        y = np.repeat(classes, n_per_class)
        from spikecl.streams import TaskDescriptor
        return TaskDescriptor(tid, list(classes), x, y, x[:2], y[:2])

    def test_balanced_quota(self):
        buf = ReplayBuffer(2000)
        for tid in range(10):
            buf.update(self._task_with_classes([2 * tid, 2 * tid + 1],
                                               n_per_class=150, tid=tid))
        counts = [buf.by_class[c].shape[0] for c in buf.classes()]
        assert counts == [100] * 20  # 2000 / 20 classes

    def test_tiny_capacity_warns_and_keeps_one_each(self):
        buf = ReplayBuffer(10)
        with pytest.warns(UserWarning, match="capacity"):
            for tid in range(10):
                buf.update(self._task_with_classes([2 * tid, 2 * tid + 1],
                                                   n_per_class=5, tid=tid))
        assert len(buf) == 10
        counts = [x.shape[0] for x in buf.by_class.values()]
        assert max(counts) - min(counts) <= 1

    def test_never_exceeds_capacity(self):
        buf = ReplayBuffer(50)
        for tid in range(6):
            buf.update(self._task_with_classes([3 * tid, 3 * tid + 1,
                                                3 * tid + 2], tid=tid))
            assert len(buf) <= 50


class TestLearnTask:
    def test_first_task_reaches_high_train_accuracy(self):
        stream = _stream(1)
        _, log = learn_task(None, stream[0], _cfg())
        assert log["train_accuracy"] >= 0.95

    def test_repeated_task_yields_near_zero_expansion(self):
        stream = _stream(1, n_train=160)
        cfg = _cfg()
        net, _ = learn_task(None, stream[0], cfg)
        repeat = _stream(1, n_train=160, seed=99)[0]
        # same distribution presented again under a new task id
        rng = np.random.default_rng(1)
        dup = _stream(1, n_train=160)[0]
        dup.id = 1
        dup.train_x = dup.train_x + rng.normal(0, 1e-3, dup.train_x.shape)
        net, log = learn_task(net, dup, cfg)
        assert log["association"] < 0.2
        initial = [12, 8]
        assert all(c <= 0.25 * m for c, m in zip(log["expansion"], initial))

    def test_old_task_forward_bit_identical_after_new_task(self):
        stream = _stream(3)
        cfg = _cfg(epochs=4)
        net, _ = learn_task(None, stream[0], cfg)
        x = stream[0].test_x[:10]
        snapshot = oracles.forward_task(net, x, 0)[0].data.copy()
        for t in stream[1:]:
            net, _ = learn_task(net, t, cfg)
        after = oracles.forward_task(net, x, 0)[0].data
        np.testing.assert_array_equal(snapshot, after)

    def test_out_of_order_rejected(self):
        stream = _stream(3)
        net, _ = learn_task(None, stream[0], _cfg(epochs=1))
        with pytest.raises(ContractError, match="order"):
            learn_task(net, stream[2], _cfg(epochs=1))
        with pytest.raises(ContractError, match="id 0"):
            learn_task(None, stream[1], _cfg(epochs=1))

    def test_loss_decreases_on_toy_stream(self):
        drops = []
        for seed in range(3):
            stream = _stream(1, seed=seed)
            _, log = learn_task(None, stream[0], _cfg(seed=seed))
            drops.append(log["losses"][-1] < log["losses"][0])
        assert sum(drops) >= 2  # median over seeds

    def test_determinism_same_seed_same_matrix(self):
        def run():
            stream = _stream(2)
            cfg = _cfg(epochs=4)
            buf = ReplayBuffer(cfg.replay_capacity)
            net = None
            rows = []
            for t in stream:
                net, _ = learn_task(net, t, cfg, buf)
                rows.append(til_evaluate(net, stream[: t.id + 1])[0])
            return rows

        assert run() == run()


class TestEvaluation:
    def _trained(self, n_tasks=2, **overrides):
        stream = _stream(n_tasks)
        cfg = _cfg(**overrides)
        buf = ReplayBuffer(cfg.replay_capacity)
        net = None
        for t in stream:
            net, _ = learn_task(net, t, cfg, buf)
        calibrate_heads(net, buf, cfg)
        return net, stream

    def test_single_task_til_equals_plain_accuracy(self):
        net, stream = self._trained(1)
        accs, avg = til_evaluate(net, stream)
        t = stream[0]
        local = np.array([t.classes.index(v) for v in t.test_y])
        logits, _ = oracles.forward_task(net, t.test_x, 0)
        plain = float((np.argmax(logits.data, axis=1) == local).mean())
        assert accs == [plain] and avg == plain

    def test_single_task_cil_equals_til(self):
        net, stream = self._trained(1)
        assert cil_evaluate(net, stream) == til_evaluate(net, stream)[1]

    def test_uninformative_features_hit_chance_level(self):
        # all-zero inputs: logits collapse to the head bias, so the argmax is
        # constant and accuracy equals the frequency of the predicted class
        net, stream = self._trained(1, epochs=1)
        t = stream[0]
        t.test_x = np.zeros_like(t.test_x)
        acc = cil_evaluate(net, [t])
        k = len(t.classes)
        assert acc == pytest.approx(1.0 / k, abs=1e-9)

    def test_two_task_cil_not_above_til(self):
        net, stream = self._trained(2)
        til_avg = til_evaluate(net, stream)[1]
        assert cil_evaluate(net, stream) <= til_avg + 1e-9

    def test_evaluation_builds_no_tensor(self, monkeypatch):
        stream = _stream(2)
        cfg = _cfg()
        buf = ReplayBuffer(cfg.replay_capacity)
        net = None
        for t in stream:
            net, _ = learn_task(net, t, cfg, buf)

        def forbidden(*args, **kwargs):
            raise AssertionError("a pass without gradients built a Tensor")

        monkeypatch.setattr(Tensor, "__init__", forbidden)
        monkeypatch.setattr(Tensor, "_make", staticmethod(forbidden))
        calibrate_heads(net, buf, cfg)
        assert net.extract_features(stream[0].test_x, 1).shape[1] == \
            net.layers[-1].width
        til_evaluate(net, stream)
        cil_evaluate(net, stream)
        assert all(isinstance(h.cil_w, np.ndarray)
                   and isinstance(h.cil_b, np.ndarray)
                   for h in net.heads.values())

    def test_cil_needs_disjoint_labels(self):
        net, stream = self._trained(2)
        stream[1].classes = list(stream[0].classes)
        stream[1].train_y = stream[0].train_y.copy()
        stream[1].test_y = stream[0].test_y.copy()
        with pytest.raises(DataError, match="disjoint"):
            cil_evaluate(net, stream)

    def test_calibration_touches_only_head_copies(self):
        stream = _stream(2)
        cfg = _cfg(epochs=4)
        buf = ReplayBuffer(cfg.replay_capacity)
        net, _ = learn_task(None, stream[0], cfg, buf)
        w_feat = [l.w.copy() for l in net.layers]
        head0 = net.heads[0].w.copy()
        mask0 = [m.copy() for m in net.masks[0].active]
        net, _ = learn_task(net, stream[1], cfg, buf)
        calibrate_heads(net, buf, cfg)
        np.testing.assert_array_equal(net.heads[0].w, head0)
        for layer, before in zip(net.layers, w_feat):
            np.testing.assert_array_equal(
                layer.w[: before.shape[0], : before.shape[1]], before)
        for active, before in zip(net.masks[0].active, mask0):
            np.testing.assert_array_equal(active, before)
        # the CIL copies did move
        assert net.heads[0].cil_w.shape == head0.shape
        assert not np.array_equal(net.heads[0].cil_w, head0)


class TestCalibration:
    def test_calibrating_once_matches_calibrating_after_every_task(self):
        stream = _stream(3)
        cfg = _cfg(epochs=4)
        nets = []
        for every_task in (True, False):
            buf = ReplayBuffer(cfg.replay_capacity)
            net = None
            for t in stream:
                net, _ = learn_task(net, t, cfg, buf)
                if every_task and t.id >= 1:
                    calibrate_heads(net, buf, cfg)
            if not every_task:
                calibrate_heads(net, buf, cfg)
            nets.append(net)
        for t in stream:
            heads = [n.heads[t.id] for n in nets]
            for name in ("w", "b"):
                np.testing.assert_array_equal(getattr(heads[0], name),
                                              getattr(heads[1], name))
            for name in ("cil_w", "cil_b"):
                np.testing.assert_array_equal(getattr(heads[0], name),
                                              getattr(heads[1], name))
            assert not np.array_equal(heads[1].cil_w, heads[1].w)
        for a, b in zip(*(n.layers for n in nets)):
            np.testing.assert_array_equal(a.w, b.w)

    def test_one_task_copies_the_til_head(self):
        stream = _stream(1)
        cfg = _cfg(epochs=2)
        buf = ReplayBuffer(cfg.replay_capacity)
        net, _ = learn_task(None, stream[0], cfg, buf)
        calibrate_heads(net, buf, cfg)
        head = net.heads[0]
        np.testing.assert_array_equal(head.cil_w, head.w)
        np.testing.assert_array_equal(head.cil_b, head.b)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("probe_size", 0), ("lr", -1.0),
        ("replay_capacity", 0), ("calib_epochs", 0), ("calib_lr", 0.0),
        ("lr", float("inf")), ("gamma", 0.0),
        ("max_per_layer", (4,)), ("max_per_layer", (-1, 1)),
        ("alpha", 0.0), ("alpha", float("nan")), ("alpha", float("inf")),
        ("calib_lr", float("nan")), ("beta", float("nan")),
        ("bias0", float("inf")), ("bias_slope", float("nan")),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigError):
            _cfg(**{field: value})
