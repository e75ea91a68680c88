"""Stream construction: IDX parsing, permutation/split/rotation, synthetic oracles."""

import math
import struct

import numpy as np
import pytest

from spikecl.errors import ConfigError, DataError, FormatError
from spikecl.streams import (GaussianClass, SyntheticTaskSpec, TaskDescriptor,
                             default_synthetic_stream, load_idx,
                             mixed_alternating, permuted_stream, rotate_images,
                             rotated_stream, split_stream, synthetic_stream)

from oracles import gaussian_kl


def _idx_images(path, images):
    n, h, w = images.shape
    raw = struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes()
    path.write_bytes(raw)


def _idx_labels(path, labels):
    raw = struct.pack(">II", 0x801, len(labels)) + bytes(labels)
    path.write_bytes(raw)


class TestLoadIdx:
    def test_image_header_and_shape(self, tmp_path):
        imgs = np.arange(10 * 28 * 28, dtype=np.uint8).reshape(10, 28, 28)
        p = tmp_path / "imgs.idx"
        _idx_images(p, imgs)
        loaded = load_idx(p)
        assert loaded.shape == (10, 1, 28, 28)

    def test_byte_255_scales_to_one(self, tmp_path):
        imgs = np.full((1, 2, 2), 255, dtype=np.uint8)
        p = tmp_path / "imgs.idx"
        _idx_images(p, imgs)
        assert load_idx(p).max() == 1.0

    def test_labels(self, tmp_path):
        p = tmp_path / "labels.idx"
        _idx_labels(p, [3, 1, 4])
        np.testing.assert_array_equal(load_idx(p), [3, 1, 4])

    def test_truncated_payload_rejected(self, tmp_path):
        imgs = np.zeros((2, 3, 3), dtype=np.uint8)
        p = tmp_path / "trunc.idx"
        raw = struct.pack(">IIII", 0x803, 2, 3, 3) + imgs.tobytes()[:-4]
        p.write_bytes(raw)
        with pytest.raises(FormatError, match="byte"):
            load_idx(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">II", 0xdead, 0))
        with pytest.raises(FormatError, match="magic"):
            load_idx(p)


def _toy_images(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1, 4, 4))
    y = np.arange(n) % 2
    return x, y, x[: n // 2], y[: n // 2]


class TestPermutedStream:
    def test_task_zero_is_identity(self):
        data = _toy_images()
        tasks, perms = permuted_stream(*data, k=3, seed=0)
        np.testing.assert_array_equal(tasks[0].train_x, data[0])
        np.testing.assert_array_equal(perms[0], np.arange(16))

    def test_inverse_restores_images(self):
        data = _toy_images()
        tasks, perms = permuted_stream(*data, k=2, seed=0)
        inv = np.argsort(perms[1])
        flat = tasks[1].train_x.reshape(20, -1)[:, inv]
        np.testing.assert_array_equal(flat.reshape(data[0].shape), data[0])

    def test_distinct_seeds_give_near_derangements(self):
        data = _toy_images()
        _, perms_a = permuted_stream(*data, k=2, seed=1)
        _, perms_b = permuted_stream(*data, k=2, seed=2)
        assert not np.array_equal(perms_a[1], perms_b[1])
        # expected fixed points of a uniform permutation is 1 regardless of n
        fixed = int((perms_a[1] == np.arange(16)).sum())
        assert fixed <= 5


class TestSplitStream:
    def _data(self):
        rng = np.random.default_rng(3)
        y = np.repeat(np.arange(10), 6)
        x = rng.uniform(size=(60, 1, 2, 2))
        return x, y, x[::2], y[::2]

    def test_two_tasks_of_five(self):
        tasks = split_stream(*self._data(), classes_per_task=5)
        assert [t.classes for t in tasks] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_test_sets_partition(self):
        data = self._data()
        tasks = split_stream(*data, classes_per_task=2)
        total = sum(t.test_y.size for t in tasks)
        assert total == data[3].size
        seen = np.concatenate([np.unique(t.test_y) for t in tasks])
        assert sorted(seen) == list(range(10))

    def test_single_task_degenerate(self):
        tasks = split_stream(*self._data(), classes_per_task=10)
        assert len(tasks) == 1

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            split_stream(*self._data(), classes_per_task=3)


class TestRotation:
    def test_angle_zero_identity(self):
        x = np.random.default_rng(4).uniform(size=(2, 1, 5, 5))
        np.testing.assert_allclose(rotate_images(x, 0.0), x, atol=1e-12)

    def test_angle_360_identity(self):
        x = np.random.default_rng(5).uniform(size=(2, 1, 5, 5))
        assert np.abs(rotate_images(x, 360.0) - x).max() < 1e-6

    def test_symmetric_cross_invariant_under_90(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, :] = 1.0
        x[0, 0, :, 2] = 1.0
        np.testing.assert_allclose(rotate_images(x, 90.0), x, atol=1e-9)

    def test_rotated_stream_structure(self):
        data = _toy_images()
        tasks = rotated_stream(*data, angles=[0.0, 45.0])
        assert len(tasks) == 2 and tasks[1].id == 1

    def test_non_finite_angle_rejected(self):
        data = _toy_images()
        with pytest.raises(ConfigError, match="finite"):
            rotated_stream(*data, angles=[float("nan")])


class TestSynthetic:
    def test_identical_params_zero_divergence(self):
        mean = np.zeros(4)
        assert gaussian_kl(mean, 1.0, mean, 1.0) == pytest.approx(0.0)

    def test_mean_shift_identity_covariance(self):
        delta = np.array([0.3, -0.4, 1.2, 0.0])
        kl = gaussian_kl(np.zeros(4), 1.0, delta, 1.0)
        assert kl == pytest.approx(np.dot(delta, delta) / 2)

    def test_unequal_variances_hand_computed(self):
        # d = 2, |delta|^2 = 25, var1 / var2 = 1/2:
        # 0.5 * (2 * 0.5 + 25 / 2 - 2 + 2 * ln 2) = 5.75 + ln 2
        kl = gaussian_kl(np.zeros(2), 1.0, np.array([3.0, 4.0]), 2.0)
        assert kl == pytest.approx(5.75 + math.log(2.0), rel=1e-15)

    def test_stream_shapes_and_labels(self):
        spec = SyntheticTaskSpec(
            [GaussianClass(0, np.zeros(4), 0.1),
             GaussianClass(1, np.ones(4), 0.1)], n_train=30, n_test=10)
        tasks = synthetic_stream([spec], (1, 2, 2), seed=0)
        t = tasks[0]
        assert t.train_x.shape == (60, 1, 2, 2)
        assert sorted(np.unique(t.train_y)) == [0, 1]

    def test_bad_covariance_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            synthetic_stream(
                [SyntheticTaskSpec([GaussianClass(0, np.zeros(2), -1.0)])],
                (1, 1, 2), seed=0)

    def test_reproducible_from_seed(self):
        a = default_synthetic_stream(n_tasks=2, seed=7)
        b = default_synthetic_stream(n_tasks=2, seed=7)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.train_x, tb.train_x)
            np.testing.assert_array_equal(ta.test_y, tb.test_y)

    def test_disjoint_labels_across_tasks(self):
        tasks = default_synthetic_stream(n_tasks=3, classes_per_task=2, seed=0)
        seen = set()
        for t in tasks:
            assert not (set(t.classes) & seen)
            seen |= set(t.classes)


class TestMixedAlternating:
    def _streams(self):
        a = default_synthetic_stream(n_tasks=5, n_train=8, n_test=4, seed=0)
        b = default_synthetic_stream(n_tasks=5, n_train=8, n_test=4, seed=1)
        return a, b

    def test_ten_tasks_alternate(self):
        a, b = self._streams()
        merged = mixed_alternating(a, b)
        assert len(merged) == 10
        for i in range(5):
            np.testing.assert_array_equal(merged[2 * i].train_x, a[i].train_x)
            np.testing.assert_array_equal(merged[2 * i + 1].train_x,
                                          b[i].train_x)

    def test_one_empty_equals_other(self):
        a, _ = self._streams()
        merged = mixed_alternating(a, [])
        assert [t.id for t in merged] == [t.id for t in a]

    def test_ids_strictly_increasing(self):
        a, b = self._streams()
        ids = [t.id for t in mixed_alternating(a, b)]
        assert ids == list(range(10))

    def test_both_empty_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            mixed_alternating([], [])


class TestTaskDescriptor:
    def test_label_outside_class_list_rejected(self):
        x = np.zeros((2, 1, 2, 2))
        with pytest.raises(DataError, match="outside"):
            TaskDescriptor(0, [0, 1], x, np.array([0, 5]), x, np.array([0, 1]))

    @pytest.mark.parametrize("name", ["train_x", "test_x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, name, bad):
        # bad data, not a diverged training: caught before any forward
        arrays = {"train_x": np.zeros((2, 1, 2, 2)),
                  "test_x": np.zeros((2, 1, 2, 2))}
        arrays[name][1, 0, 1, 0] = bad
        y = np.array([0, 1])
        with pytest.raises(DataError, match=f"task 3 {name} is not finite"):
            TaskDescriptor(3, [0, 1], arrays["train_x"], y, arrays["test_x"], y)
