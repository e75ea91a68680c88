"""Task-stream construction: IDX ingestion, permuted / split / rotated /
synthetic streams, and alternating mixtures.

A task is a ``TaskDescriptor`` with a class list, each class with a training
sample, and train/test splits held as dense arrays (inputs (N, C, H, W)
float64, labels (N,) int).  Synthetic classes are isotropic Gaussian blobs,
so the divergence between two classes has a closed form, which the tests
hold as the similarity estimator's reference.  Streams are reproducible from
their parameters and seed alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError


@dataclass
class TaskDescriptor:
    id: int
    classes: list
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        for name in ("train_x", "test_x"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"task {self.id} {name} is not finite")
        if self.test_y.size == 0:
            raise DataError(f"task {self.id} has no test sample")
        for y in (self.train_y, self.test_y):
            bad = set(np.unique(y)) - set(self.classes)
            if bad:
                raise DataError(
                    f"task {self.id} contains labels {sorted(bad)} outside its "
                    f"class list {self.classes}"
                )
        for c in self.classes:
            if not np.any(self.train_y == c):
                raise DataError(f"task {self.id} has no training sample of "
                                f"class {c}")


# -- IDX ingestion -------------------------------------------------------------

IDX_IMAGES = 0x00000803
IDX_LABELS = 0x00000801


def load_idx(path):
    """Read an IDX file (MNIST family layout).

    Image files return (N, 1, H, W) float64 scaled by 1/255; label files
    return (N,) int64.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == IDX_LABELS:
        (n,) = struct.unpack(">I", raw[4:8])
        if len(raw) != 8 + n:
            raise FormatError(
                f"{path}: expected {8 + n} bytes, file ends at byte {len(raw)}"
            )
        return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)
    if magic == IDX_IMAGES:
        if len(raw) < 16:
            raise FormatError(f"{path}: truncated dimensions at byte {len(raw)}")
        n, h, w = struct.unpack(">III", raw[4:16])
        expected = 16 + n * h * w
        if len(raw) != expected:
            raise FormatError(
                f"{path}: expected {expected} bytes, file ends at byte {len(raw)}"
            )
        pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
        return pixels.reshape(n, 1, h, w).astype(np.float64) / 255.0
    raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")


# -- stream builders -----------------------------------------------------------


def _descriptor(tid, classes, train, test):
    return TaskDescriptor(tid, list(classes), train[0], train[1],
                          test[0], test[1])


def _check_positive(what, n):
    if n < 1:
        raise ConfigError(f"{what} must be >= 1, got {n}")


def permuted_stream(train_x, train_y, test_x, test_y, k=5, seed=0):
    """k tasks, task i applying a fixed pixel permutation (task 0 = identity).

    Class lists repeat across tasks; such streams are TIL-only (CIL would see
    colliding global labels).
    """
    _check_positive("task count", k)
    rng = np.random.default_rng(seed)
    classes = sorted(np.unique(np.concatenate([train_y, test_y])).tolist())
    n_pix = int(np.prod(train_x.shape[1:]))
    tasks, perms = [], []
    for i in range(k):
        perm = (np.arange(n_pix) if i == 0
                else rng.permutation(n_pix))
        perms.append(perm)

        def apply(x, perm=perm):
            flat = x.reshape(x.shape[0], -1)[:, perm]
            return flat.reshape(x.shape)

        tasks.append(_descriptor(i, classes,
                                 (apply(train_x), train_y.copy()),
                                 (apply(test_x), test_y.copy())))
    return tasks, perms


def split_stream(train_x, train_y, test_x, test_y, classes_per_task=2):
    """Disjoint class groups, one task each, in label order."""
    _check_positive("classes per task", classes_per_task)
    classes = sorted(np.unique(np.concatenate([train_y, test_y])).tolist())
    if len(classes) % classes_per_task:
        raise ConfigError(
            f"{len(classes)} classes not divisible by {classes_per_task} per task"
        )
    tasks = []
    for i in range(0, len(classes), classes_per_task):
        group = classes[i : i + classes_per_task]
        tr = np.isin(train_y, group)
        te = np.isin(test_y, group)
        tasks.append(_descriptor(len(tasks), group,
                                 (train_x[tr], train_y[tr]),
                                 (test_x[te], test_y[te])))
    return tasks


def rotate_images(x, angle_deg):
    """Rotate (N, C, H, W) images about the center; bilinear, zero padding."""
    n, c, h, w = x.shape
    theta = math.radians(angle_deg)
    cos, sin = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # inverse mapping: sample the source at the back-rotated position
    sy = cos * (rows - cy) + sin * (cols - cx) + cy
    sx = -sin * (rows - cy) + cos * (cols - cx) + cx
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    wy, wx = sy - y0, sx - x0
    out = np.zeros_like(x)
    for dy, dx, wgt in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                        (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yy, xx = y0 + dy, x0 + dx
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        yc = np.clip(yy, 0, h - 1)
        xc = np.clip(xx, 0, w - 1)
        out += x[:, :, yc, xc] * (wgt * valid)
    return out


def rotated_stream(train_x, train_y, test_x, test_y,
                   angles=(0, 15, 30, 45, 60)):
    """One task per rotation angle (degrees); class lists repeat across tasks."""
    if not all(math.isfinite(a) for a in angles):
        raise ConfigError("angles must be finite")
    classes = sorted(np.unique(np.concatenate([train_y, test_y])).tolist())
    tasks = []
    for i, angle in enumerate(angles):
        tasks.append(_descriptor(i, classes,
                                 (rotate_images(train_x, angle), train_y.copy()),
                                 (rotate_images(test_x, angle), test_y.copy())))
    return tasks


@dataclass
class GaussianClass:
    label: int
    mean: np.ndarray  # flat, length C*H*W
    var: float = 0.01  # isotropic variance


@dataclass
class SyntheticTaskSpec:
    classes: list  # of GaussianClass
    n_train: int = 200
    n_test: int = 100


def synthetic_stream(specs, shape, seed=0):
    """Isotropic Gaussian-cluster tasks reshaped to (C, H, W) grids.

    Ground-truth divergences between clusters follow in closed form from
    their means and variances.
    """
    c, h, w = shape
    d = c * h * w
    rng = np.random.default_rng(seed)
    tasks = []
    for tid, spec in enumerate(specs):
        xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
        for gc in spec.classes:
            if gc.mean.size != d:
                raise ConfigError(
                    f"class mean length {gc.mean.size} does not match grid {shape}"
                )
            if not 0 < gc.var < math.inf:
                raise ConfigError(f"isotropic variance must be positive and "
                                  f"finite, got {gc.var}")
            std = math.sqrt(gc.var)
            xs_tr.append(rng.normal(gc.mean, std, size=(spec.n_train, d)))
            ys_tr.append(np.full(spec.n_train, gc.label, dtype=np.int64))
            xs_te.append(rng.normal(gc.mean, std, size=(spec.n_test, d)))
            ys_te.append(np.full(spec.n_test, gc.label, dtype=np.int64))
        tx = np.concatenate(xs_tr).reshape(-1, c, h, w)
        ty = np.concatenate(ys_tr)
        ex = np.concatenate(xs_te).reshape(-1, c, h, w)
        ey = np.concatenate(ys_te)
        order = rng.permutation(ty.size)
        tasks.append(_descriptor(tid, [gc.label for gc in spec.classes],
                                 (tx[order], ty[order]), (ex, ey)))
    return tasks


def default_synthetic_stream(n_tasks=5, classes_per_task=2, shape=(1, 9, 9),
                             n_train=400, n_test=200, spread=2.0, var=0.05,
                             seed=0):
    """Linearly separable Gaussian stream with disjoint class ids per task."""
    _check_positive("task count", n_tasks)
    _check_positive("classes per task", classes_per_task)
    _check_positive("training samples per class", n_train)
    _check_positive("test samples per class", n_test)
    if not 0 <= spread < math.inf:
        raise ConfigError(f"spread must be finite and >= 0, got {spread}")
    spread = abs(spread)  # -0.0 passes, but numpy rejects a scale of -0.0
    d = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    specs = []
    label = 0
    for _ in range(n_tasks):
        classes = []
        for _ in range(classes_per_task):
            mean = rng.normal(0.5, spread / math.sqrt(d), size=d)
            classes.append(GaussianClass(label, mean, var))
            label += 1
        specs.append(SyntheticTaskSpec(classes, n_train, n_test))
    return synthetic_stream(specs, shape, seed=seed + 1)


def mixed_alternating(stream_a, stream_b):
    """Interleave two streams A0,B0,A1,B1,... with sequential task ids."""
    if not stream_a and not stream_b:
        raise ConfigError("both streams are empty")
    merged = []
    for i in range(max(len(stream_a), len(stream_b))):
        for stream in (stream_a, stream_b):
            if i < len(stream):
                t = stream[i]
                merged.append(TaskDescriptor(len(merged), t.classes, t.train_x,
                                             t.train_y, t.test_x, t.test_y))
    return merged
