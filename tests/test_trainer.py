"""Continual loop: masked optimization, isolation, replay, and TIL/CIL protocols."""

import numpy as np
import pytest

from spikecl.errors import ContractError, DataError
from spikecl.network import DenseSpec
from spikecl.plasticity import ExpansionPolicy
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.trainer import (Adam, ReplayBuffer, TrainConfig, cil_evaluate,
                             learn_task, til_evaluate)
from spikecl.tensor import Tensor, gradients


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


class TestAdam:
    def test_masked_entries_never_move(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        before = p.data.copy()
        optim = Adam([p], {id(p): 2}, lr=0.1)
        for _ in range(5):
            loss = (p * p).sum()
            optim.zero_grad()
            gradients(loss, [p])
            optim.step()
        np.testing.assert_array_equal(p.data[:2], before[:2])
        assert not np.array_equal(p.data[2:], before[2:])


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
        counts = [buf.by_class[c][0].shape[0] for c in buf.classes()]
        assert counts == [100] * 20  # 2000 / 20 classes

    def test_tiny_capacity_warns_and_keeps_one_each(self):
        buf = ReplayBuffer(10)
        with pytest.warns(UserWarning, match="capacity"):
            for tid in range(10):
                buf.update(self._task_with_classes([2 * tid, 2 * tid + 1],
                                                   n_per_class=5, tid=tid))
        assert len(buf) == 10
        counts = [x.shape[0] for x, _ in buf.by_class.values()]
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
        snapshot = net.forward_task(Tensor(x), 0)[0].data.copy()
        for t in stream[1:]:
            net, _ = learn_task(net, t, cfg)
        after = net.forward_task(Tensor(x), 0)[0].data
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
        return net, stream

    def test_single_task_til_equals_plain_accuracy(self):
        net, stream = self._trained(1)
        accs, avg = til_evaluate(net, stream)
        t = stream[0]
        local = np.array([t.classes.index(v) for v in t.test_y])
        logits, _ = net.forward_task(Tensor(t.test_x), 0)
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
        w_feat = [l.w.data.copy() for l in net.layers]
        head0 = net.heads[0].w.data.copy()
        mask0 = [m.copy() for m in net.masks[0].conn]
        net, _ = learn_task(net, stream[1], cfg, buf)  # triggers calibration
        np.testing.assert_array_equal(net.heads[0].w.data, head0)
        for layer, before in zip(net.layers, w_feat):
            np.testing.assert_array_equal(
                layer.w.data[: before.shape[0], : before.shape[1]], before)
        for conn, before in zip(net.masks[0].conn, mask0):
            np.testing.assert_array_equal(conn, before)
        # the CIL copies did move
        assert net.heads[0].cil_w.shape == head0.shape
        assert not np.array_equal(net.heads[0].cil_w.data, head0)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("probe_size", 0), ("lr", -1.0),
        ("replay_capacity", 0), ("calib_epochs", 0), ("calib_lr", 0.0),
        ("sim_mode", "bogus"), ("gamma", 0.0),
        ("policy", ExpansionPolicy(5.0, (4,))),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ContractError):
            _cfg(**{field: value})
