"""The per-task continual-learning loop, TIL/CIL evaluation, and replay memory.

For each new task: assess similarity to every stored old task, add new units
to each layer sized by the association magnitude, then train with the old
units' input synapses frozen while their gradients feed the relatedness
scores that drive per-epoch pruning.  Afterwards the task's feature anchors
are stored and the replay buffer rebalanced.

Class-incremental (CIL) evaluation reads calibrated copies of the heads.
``calibrate_heads`` alone sets them, after the last task of every stream:
each copy starts from its TIL head and, given a replay buffer and two or more
tasks, a short pass fits all copies jointly on it.  Otherwise each copy stays
its TIL head, so a one-task stream's CIL accuracy equals its TIL accuracy.

TIL heads and feature pathways are frozen once their task ends, so old-task
TIL accuracy is exactly stable by construction.  Only ``step_gradients``
builds a ``Tensor``, over the feature layers: it returns a batch's loss and
gradients as arrays.  Every other pass runs on arrays.  ``Adam`` keeps
its moments in one flat vector over every trainable entry and steps it
with one set of ufunc calls, in training and in calibration alike.  The
step checks values finite at its boundary only: its input, each LIF
window's membranes, the loss, and Adam's update before it moves a
parameter; ``_diverged`` names the seed and stage of a failure.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError, TrainingError
from .network import (ConvSpec, DenseSpec, Network, head_gradients,
                      head_logits, init_first_task)
from .plasticity import (accumulate_gradients, apply_pruning, association,
                         build_relatedness, expansion_counts, pruning_rates,
                         update_relatedness)
from .similarity import check_gamma, compute_anchors, similarity_vector
from .spiking import LIFConfig, rate
from .tensor import _scatter, gradients, softmax_cross_entropy

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
EVAL_BATCH = 256  # rows per evaluation forward: a BLAS row can depend on it


@dataclass
class TrainConfig:
    arch: tuple = (ConvSpec(8, 3, 2, 1), ConvSpec(16, 3, 2, 1), DenseSpec(64))
    input_shape: tuple = (1, 9, 9)
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    lif: LIFConfig = field(default_factory=LIFConfig)
    alpha: float = 5.0
    max_per_layer: tuple = ()  # empty: each layer's first-task width
    gamma: float = 0.9
    probe_size: int = 512
    beta: float = 1.0
    bias0: float = 0.2
    bias_slope: float = 0.1
    replay_capacity: int = 2000
    calib_epochs: int = 15
    calib_lr: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ConfigError(f"alpha must be positive and finite: {self.alpha}")
        if any(m < 0 for m in self.max_per_layer):
            raise ConfigError("max expansion counts must be non-negative")
        for name in ("epochs", "batch_size", "probe_size", "replay_capacity",
                     "calib_epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0 < self.lr < np.inf and 0 < self.calib_lr < np.inf):
            raise ConfigError("learning rates must be positive and finite")
        if not np.isfinite([self.beta, self.bias0, self.bias_slope]).all():
            raise ConfigError("beta, bias0 and bias_slope must be finite")
        check_gamma(self.gamma)
        # a ConfigError unless the architecture fits the input
        Network(self.arch, self.input_shape, self.lif, self.seed)
        caps = self.max_per_layer
        if caps and len(caps) != len(self.arch):
            raise ConfigError(
                f"expected {len(self.arch)} expansion counts, got {len(caps)}")


class Adam:
    """Adam over ``(array, first row)`` pairs, each array stepped in place
    (so whatever holds it sees every step) from its first row on; earlier
    rows never move.  ``step(grads)`` takes one full-shape gradient a pair;
    a non-finite update raises ``NumericalError`` and moves nothing.

    The trainable rows of every pair lie end to end in one flat vector, so
    a step copies the gradients in and runs Adam's ufuncs once over it;
    each entry gets the same operations as a step per array, bit for bit."""

    def __init__(self, params, lr=1e-3):
        # (trainable rows, a view, so a step lands in the array; first row;
        # their slice of the flat vector) per pair
        self.entries, n = [], 0
        for p, r0 in params:
            self.entries.append((p[r0:], r0, slice(n, n + p[r0:].size)))
            n += p[r0:].size
        self.m, self.v = np.zeros(n), np.zeros(n)
        self.lr = lr
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        g = np.empty(self.m.size)
        for (p, r0, s), grad in zip(self.entries, grads, strict=True):
            g[s].reshape(p.shape)[...] = grad[r0:]
        # in place, each product with its factors swapped, which is exact:
        # m += (1 - b1) * (g - m); v += (1 - b2) * (g**2 - v);
        # g = lr * (m / b1t) / (sqrt(v / b2t) + eps)
        m, v = self.m, self.v
        d = g - m
        d *= 1 - ADAM_BETA1
        m += d
        np.square(g, out=g)
        g -= v
        g *= 1 - ADAM_BETA2
        v += g
        np.divide(v, b2t, out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS
        np.divide(m, b1t, out=g)
        g *= self.lr
        g /= d
        if not np.all(np.isfinite(g)):
            raise NumericalError("Adam update is not finite")
        for p, _, s in self.entries:
            p -= g[s].reshape(p.shape)


class ReplayBuffer:
    """Bounded class-balanced exemplar store for CIL head calibration."""

    def __init__(self, capacity=2000):
        self.capacity = int(capacity)
        self.by_class = {}  # global class -> x array

    def __len__(self):
        return sum(x.shape[0] for x in self.by_class.values())

    def classes(self):
        return sorted(self.by_class)

    def update(self, task, seed=0):
        """Add class-balanced exemplars from the task, then rebalance."""
        rng = np.random.default_rng([seed, task.id, 977])
        for c in task.classes:
            idx = np.flatnonzero(task.train_y == c)
            self.by_class[c] = task.train_x[idx]
        n_classes = len(self.by_class)
        quota = self.capacity // n_classes
        if quota == 0:
            warnings.warn(
                f"replay capacity {self.capacity} below {n_classes} classes; "
                f"keeping one exemplar for the first {self.capacity} classes"
            )
        kept = {}
        budget = self.capacity
        for c in sorted(self.by_class):
            x = self.by_class[c]
            take = min(max(quota, 1 if budget > 0 else 0), x.shape[0], budget)
            if take <= 0:
                continue
            pick = rng.choice(x.shape[0], size=take, replace=False)
            pick.sort()
            kept[c] = x[pick]
            budget -= take
        self.by_class = kept

    def all_samples(self):
        xs, ys = [], []
        for c in sorted(self.by_class):
            xs.append(self.by_class[c])
            ys.append(np.full(xs[-1].shape[0], c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i : i + batch_size]


def _local_labels(task, y):
    lut = {c: i for i, c in enumerate(task.classes)}
    return np.asarray([lut[v] for v in y], dtype=np.int64)


@contextmanager
def _diverged(cfg, where):
    """Re-raise a non-finite value as a TrainingError naming seed and stage."""
    try:
        yield
    except NumericalError as exc:
        raise TrainingError(f"training diverged (seed {cfg.seed}, {where}): "
                            f"{exc}") from exc


def task_log(task_id):
    """The per-task log ``learn_task`` fills in, as yet empty."""
    return {"task": task_id, "similarity": [], "association": None,
            "expansion": None, "losses": [], "pruning_rates": {},
            "train_accuracy": None}


def learn_task(network, task, cfg, buffer=None):
    """Run the full per-task procedure; returns (network, log dict).

    Non-finite values end in a ``TrainingError`` naming seed, task and epoch.
    """
    with _diverged(cfg, f"task {task.id}"):
        return _learn_task(network, task, cfg, buffer)


def _learn_task(network, task, cfg, buffer):
    log = task_log(task.id)
    state = None
    if network is None:
        network = init_first_task(cfg.arch, cfg.input_shape, task,
                                  lif=cfg.lif, seed=cfg.seed)
    else:
        sims = similarity_vector(network, task, gamma=cfg.gamma,
                                 probe_size=cfg.probe_size,
                                 seed=cfg.seed + task.id)
        a = association(sims)
        counts = expansion_counts(
            a, cfg.alpha, cfg.max_per_layer or network._widths(0))
        network.expand(task, counts)
        state = build_relatedness(network, task.id, sims, beta=cfg.beta,
                                  bias0=cfg.bias0, bias_slope=cfg.bias_slope)
        log["similarity"] = [
            {"old_task": r.old_task, "kl": r.kl, "s": r.s} for r in sims
        ]
        log["association"] = a
        log["expansion"] = counts

    optim = Adam(network.parameters(task.id), lr=cfg.lr)
    x, y = task.train_x, _local_labels(task, task.train_y)
    for epoch in range(cfg.epochs):
        with _diverged(cfg, f"task {task.id}, epoch {epoch}"):
            rng = np.random.default_rng([cfg.seed, task.id, epoch])
            epoch_loss = 0.0
            n_batches = 0
            for idx in _batches(x.shape[0], cfg.batch_size, rng):
                loss, grads = step_gradients(network, x[idx], y[idx],
                                             task.id)
                if state is not None:
                    accumulate_gradients(state, network, grads)
                optim.step(grads)
                epoch_loss += loss
                n_batches += 1
            log["losses"].append(epoch_loss / max(n_batches, 1))
            if state is not None:
                doomed = update_relatedness(state, network, epoch)
                report = apply_pruning(network, task.id, doomed)
                log["pruning_rates"] = pruning_rates(report)

    # store the task's feature anchors for later similarity assessment
    network.anchors[task.id] = compute_anchors({
        c: network.extract_features(x[task.train_y == c], task.id)
        for c in task.classes})

    log["train_accuracy"] = _accuracy(network, task, task.train_x,
                                      task.train_y)
    if buffer is not None:
        buffer.update(task, seed=cfg.seed)
    return network, log


def step_gradients(network, x, labels, task_id):
    """(mean cross-entropy, one full-shape gradient per
    ``network.parameters`` pair) of a batch.  The graph ends at the last
    layer's spikes: the rate, head and loss run on arrays, and one node on
    the spikes carries the loss and the rate's gradient into the walk."""
    spikes, reads = network.forward_task(x, task_id)
    head, window = network.heads[task_id], network.lif.window
    active = network.masks[task_id].active[-1]
    w, features = head.w[:, active], rate(spikes.data, window)
    loss, grad = softmax_cross_entropy(head_logits(features, w, head.b),
                                       labels)
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite")
    # w as head_logits reads it: a product with w itself may round otherwise
    g_rate = (grad @ w.T.copy().T) * (1.0 / window)
    seed = spikes.custom_op(np.asarray(loss), lambda g: np.concatenate(
        [float(g) * g_rate] * window))
    grads = gradients(seed, [leaf for leaf, _, _ in reads])
    g_w, g_b = head_gradients(features, grad)
    g_head = np.zeros(head.w.shape)
    g_head[:, active] = g_w
    layers = zip(network.parameters(task_id)[:-2], reads, strict=True)
    return float(loss), [
        grads[leaf] if leaf.data is p
        else _scatter(grads[leaf], p.shape, rows, cols)
        for (p, _), (leaf, rows, cols) in layers] + [g_head, g_b]


def _accuracy(network, task, x, y):
    local = _local_labels(task, y)
    head = network.heads[task.id]
    w = head.w[:, network.masks[task.id].active[-1]]  # its active units
    hits = 0
    for i in range(0, x.shape[0], EVAL_BATCH):
        logits = head_logits(network.infer(x[i : i + EVAL_BATCH], task.id),
                             w, head.b)
        hits += int((np.argmax(logits, axis=1) == local[i : i + EVAL_BATCH]).sum())
    return hits / x.shape[0]


def til_evaluate(network, tasks):
    """Per-task test accuracy with known task identity, plus the average."""
    accs = [ _accuracy(network, t, t.test_x, t.test_y) for t in tasks ]
    return accs, sum(accs) / len(accs)


def repeated_class(tasks):
    """(class, first task, later task) for a label two tasks share, else None."""
    seen = {}
    for t in tasks:
        for c in t.classes:
            if seen.setdefault(c, t.id) != t.id:
                return c, seen[c], t.id
    return None


def _check_disjoint(tasks):
    clash = repeated_class(tasks)
    if clash is not None:
        c, first, later = clash
        raise DataError(
            f"class {c} appears in tasks {first} and {later}; "
            f"class-incremental evaluation needs disjoint labels"
        )


def cil_evaluate(network, tasks):
    """Accuracy on the union test set with no task identity given, read from
    the CIL head copies that ``calibrate_heads`` sets."""
    _check_disjoint(tasks)
    x = np.concatenate([t.test_x for t in tasks])
    y = np.concatenate([t.test_y for t in tasks])
    cols = np.asarray([c for t in tasks for c in network.heads[t.id].classes])
    hits = 0
    for i in range(0, x.shape[0], EVAL_BATCH):
        logits = np.concatenate([network.cil_logits(
            network.extract_features(x[i : i + EVAL_BATCH], t.id), t.id)
            for t in tasks], axis=1)
        hits += int((cols[np.argmax(logits, axis=1)]
                     == y[i : i + EVAL_BATCH]).sum())
    return hits / x.shape[0]


def calibrate_heads(network, buffer, cfg):
    """Set every task's CIL head copy; call once, after the last task.

    Each copy restarts from its TIL head.  Given a replay buffer (None on a
    TIL-only stream) and two or more tasks, the copies are then fitted
    jointly on it, features frozen, each from its own columns of the joined
    logits' gradient.  Non-finite values, the fitted copies' logits
    included, end in a ``TrainingError`` naming the seed.
    """
    tasks = sorted(network.masks)
    heads = [network.heads[t] for t in tasks]
    for h in heads:
        h.sync_cil()
    if buffer is None or len(tasks) < 2:
        return
    bx, by = buffer.all_samples()
    col_of = {c: i for i, c in enumerate(c for h in heads for c in h.classes)}
    target = np.asarray([col_of[v] for v in by], dtype=np.int64)
    bounds = np.cumsum([0] + [len(h.classes) for h in heads])
    optim = Adam([(p, 0) for h in heads for p in (h.cil_w, h.cil_b)],
                 lr=cfg.calib_lr)
    with _diverged(cfg, "head calibration"):
        feats = [network.extract_features(bx, t) for t in tasks]
        for epoch in range(cfg.calib_epochs):
            rng = np.random.default_rng([cfg.seed, 7331, epoch])
            for idx in _batches(bx.shape[0], cfg.batch_size, rng):
                batch = [f[idx] for f in feats]
                logits = np.concatenate(
                    [network.cil_logits(f, t) for f, t in zip(batch, tasks)],
                    axis=1)
                grad = softmax_cross_entropy(logits, target[idx])[1]
                optim.step([g for f, lo, hi in zip(batch, bounds, bounds[1:])
                            for g in head_gradients(f, grad[:, lo:hi])])
        for f, t in zip(feats, tasks):  # the last step's copies
            network.cil_logits(f, t)
