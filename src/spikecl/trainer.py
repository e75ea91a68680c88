"""The per-task continual-learning loop, TIL/CIL evaluation, and replay memory.

For each new task: assess similarity to every stored old task, expand new
populations sized by the association magnitude, then train with the old
populations' input synapses frozen while their gradients feed the relatedness
scores that drive per-epoch pruning.  Afterwards the task's feature anchors
are stored and the replay buffer rebalanced; with two or more tasks a short
calibration pass fits the CIL head copies on the buffer.

TIL heads and feature pathways are frozen once their task ends, so old-task
TIL accuracy is exactly stable by construction.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, NumericalError, TrainingError
from .network import init_first_task
from .plasticity import (ExpansionPolicy, accumulate_gradients, apply_pruning,
                         association, build_relatedness, expansion_counts,
                         pruning_rates, update_relatedness)
from .similarity import (CLAMPED, LITERAL, check_gamma, compute_anchors,
                         similarity_vector)
from .spiking import LIFConfig
from .tensor import Tensor, concat_cols, cross_entropy, gradients, no_grad


@dataclass
class TrainConfig:
    arch: list = None
    input_shape: tuple = (1, 9, 9)
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    lif: LIFConfig = field(default_factory=LIFConfig)
    policy: ExpansionPolicy = field(default_factory=ExpansionPolicy)
    gamma: float = 0.9
    sim_mode: str = CLAMPED
    probe_size: int = 512
    beta: float = 1.0
    bias0: float = 0.2
    bias_slope: float = 0.1
    replay_capacity: int = 2000
    replay_mix: float = 1.0  # fraction of the buffer visited per calibration epoch
    calib_epochs: int = 15
    calib_lr: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "probe_size", "replay_capacity",
                     "calib_epochs"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.lr <= 0 or self.calib_lr <= 0:
            raise ContractError("learning rates must be positive")
        if self.sim_mode not in (CLAMPED, LITERAL):
            raise ContractError(f"unknown similarity mode {self.sim_mode!r}")
        check_gamma(self.gamma)
        caps = self.policy.max_per_layer
        if caps and len(caps) != len(self.arch):
            raise ContractError(
                f"expected {len(self.arch)} expansion counts, got {len(caps)}")


class Adam:
    """Adam with frozen leading rows: rows before a parameter's first
    trainable row (``first_rows[id(p)]``, default 0) never move."""

    def __init__(self, params, first_rows=None, lr=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.entries = []
        first_rows = first_rows or {}
        for p in params:
            r0 = first_rows.get(id(p), 0)
            self.entries.append((p, r0, np.zeros_like(p.data[r0:]),
                                 np.zeros_like(p.data[r0:])))
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, r0, m, v in self.entries:
            if p.grad is None:
                continue
            g = p.grad[r0:]
            m += (1 - self.beta1) * (g - m)
            v += (1 - self.beta2) * (g ** 2 - v)
            p.data[r0:] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self):
        for p, _, _, _ in self.entries:
            p.grad = None


class ReplayBuffer:
    """Bounded class-balanced exemplar store for CIL head calibration."""

    def __init__(self, capacity=2000):
        self.capacity = int(capacity)
        self.by_class = {}  # global class -> (x array, task_id)

    def __len__(self):
        return sum(x.shape[0] for x, _ in self.by_class.values())

    def classes(self):
        return sorted(self.by_class)

    def update(self, task, seed=0):
        """Add class-balanced exemplars from the task, then rebalance."""
        rng = np.random.default_rng([seed, task.id, 977])
        for c in task.classes:
            idx = np.flatnonzero(task.train_y == c)
            self.by_class[c] = (task.train_x[idx], task.id)
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
            x, tid = self.by_class[c]
            take = min(max(quota, 1 if budget > 0 else 0), x.shape[0], budget)
            if take <= 0:
                continue
            pick = rng.choice(x.shape[0], size=take, replace=False)
            pick.sort()
            kept[c] = (x[pick], tid)
            budget -= take
        self.by_class = kept

    def all_samples(self):
        xs, ys, ts = [], [], []
        for c in sorted(self.by_class):
            x, tid = self.by_class[c]
            xs.append(x)
            ys.append(np.full(x.shape[0], c, dtype=np.int64))
            ts.append(np.full(x.shape[0], tid, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i : i + batch_size]


def _trainable_rows(network):
    """First trainable row of each layer parameter: the latest population."""
    rows = {}
    for layer in network.layers:
        r0 = layer.populations[-1].start
        rows[id(layer.w)] = rows[id(layer.b)] = r0
    return rows


def _local_labels(task, y):
    lut = {c: i for i, c in enumerate(task.classes)}
    return np.asarray([lut[v] for v in y], dtype=np.int64)


@contextmanager
def _diverged(cfg, task, epoch=None):
    """Re-raise a non-finite value as a TrainingError saying where it arose."""
    try:
        yield
    except NumericalError as exc:
        at = "" if epoch is None else f", epoch {epoch}"
        raise TrainingError(f"training diverged (seed {cfg.seed}, task "
                            f"{task.id}{at}): {exc}") from exc


def learn_task(network, task, cfg, buffer=None):
    """Run the full per-task procedure; returns (network, log dict).

    Non-finite values end in a ``TrainingError`` naming seed, task and epoch.
    """
    if network is not None and task.id != max(network.masks) + 1:
        raise ContractError(
            f"tasks must arrive in id order; got {task.id} after "
            f"{sorted(network.masks)}"
        )
    with _diverged(cfg, task):
        return _learn_task(network, task, cfg, buffer)


def _learn_task(network, task, cfg, buffer):
    log = {"task": task.id, "similarity": [], "association": None,
           "expansion": None, "losses": [], "pruning_rates": {},
           "train_accuracy": None}
    state = None
    if network is None:
        if task.id != 0:
            raise ContractError("the first learned task must have id 0")
        network = init_first_task(cfg.arch, cfg.input_shape, task,
                                  lif=cfg.lif, seed=cfg.seed)
    else:
        sims = similarity_vector(network, task, gamma=cfg.gamma,
                                 mode=cfg.sim_mode, probe_size=cfg.probe_size,
                                 seed=cfg.seed + task.id)
        a = association(sims)
        policy = cfg.policy
        if not policy.max_per_layer:
            # default cap: the initial (first-task) size of each layer
            policy = ExpansionPolicy(
                policy.alpha,
                tuple(l.populations[0].size for l in network.layers),
            )
        counts = expansion_counts(a, policy)
        network.expand(task, counts)
        state = build_relatedness(network, task.id, sims, beta=cfg.beta,
                                  bias0=cfg.bias0, bias_slope=cfg.bias_slope)
        log["similarity"] = [
            {"old_task": r.old_task, "kl": r.kl, "s": r.s} for r in sims
        ]
        log["association"] = a
        log["expansion"] = counts

    params = network.parameters(task.id)
    optim = Adam(params, _trainable_rows(network), lr=cfg.lr)
    x, y = task.train_x, _local_labels(task, task.train_y)
    for epoch in range(cfg.epochs):
        with _diverged(cfg, task, epoch):
            rng = np.random.default_rng([cfg.seed, task.id, epoch])
            epoch_loss = 0.0
            n_batches = 0
            for idx in _batches(x.shape[0], cfg.batch_size, rng):
                logits, _ = network.forward_task(Tensor(x[idx]), task.id)
                loss = cross_entropy(logits, y[idx])
                optim.zero_grad()
                gradients(loss, params)
                if state is not None:
                    accumulate_gradients(state, network)
                optim.step()
                epoch_loss += float(loss.data)
                n_batches += 1
            log["losses"].append(epoch_loss / max(n_batches, 1))
            if state is not None:
                doomed = update_relatedness(state, network, epoch)
                report = apply_pruning(network, task.id, doomed)
                log["pruning_rates"] = pruning_rates(report)
            optim.zero_grad()

    # store the task's feature anchors for later similarity assessment
    anchors = {}
    for c in task.classes:
        feats = network.extract_features(x[task.train_y == c], task.id)
        anchors[c] = compute_anchors({c: feats}, task.id).means[c]
    network.anchors[task.id] = anchors

    log["train_accuracy"] = _accuracy(network, task, task.train_x,
                                      task.train_y)
    if buffer is not None:
        buffer.update(task, seed=cfg.seed)
        if len(network.masks) >= 2:
            calibrate_heads(network, buffer, cfg)
    return network, log


def _accuracy(network, task, x, y, batch=256):
    local = _local_labels(task, y)
    hits = 0
    with no_grad():
        for i in range(0, x.shape[0], batch):
            logits, _ = network.forward_task(Tensor(x[i : i + batch]), task.id)
            hits += int((np.argmax(logits.data, axis=1) == local[i : i + batch]).sum())
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


def _cil_logits(network, tasks, x, cil=True):
    """Concatenated per-mask head logits plus the class of each column."""
    parts, cols = [], []
    for t in tasks:
        feats = network.extract_features(x, t.id)
        parts.append(network.head_logits(Tensor(feats), t.id, cil=cil))
        cols.extend(network.heads[t.id].classes)
    return concat_cols(parts), cols


def cil_evaluate(network, tasks, batch=256):
    """Accuracy on the union test set with no task identity given."""
    _check_disjoint(tasks)
    x = np.concatenate([t.test_x for t in tasks])
    y = np.concatenate([t.test_y for t in tasks])
    hits = 0
    with no_grad():
        for i in range(0, x.shape[0], batch):
            joined, cols = _cil_logits(network, tasks, x[i : i + batch])
            pred = np.asarray(cols)[np.argmax(joined.data, axis=1)]
            hits += int((pred == y[i : i + batch]).sum())
    return hits / x.shape[0]


def calibrate_heads(network, buffer, cfg):
    """Fit the CIL head copies on the replay buffer; features stay frozen."""
    bx, by, _ = buffer.all_samples()
    tasks = sorted(network.masks)
    feats = {t: network.extract_features(bx, t) for t in tasks}
    cols = []
    for t in tasks:
        network.heads[t].sync_cil()
        cols.extend(network.heads[t].classes)
    col_of = {c: i for i, c in enumerate(cols)}
    target = np.asarray([col_of[v] for v in by], dtype=np.int64)
    params = []
    for t in tasks:
        params.extend([network.heads[t].cil_w, network.heads[t].cil_b])
    optim = Adam(params, lr=cfg.calib_lr)
    n = bx.shape[0]
    visit = max(1, int(round(cfg.replay_mix * n)))
    for epoch in range(cfg.calib_epochs):
        rng = np.random.default_rng([cfg.seed, 7331, epoch])
        order = rng.permutation(n)[:visit]
        for i in range(0, order.size, cfg.batch_size):
            idx = order[i : i + cfg.batch_size]
            parts = [
                network.head_logits(Tensor(feats[t][idx]), t, cil=True)
                for t in tasks
            ]
            loss = cross_entropy(concat_cols(parts), target[idx])
            optim.zero_grad()
            gradients(loss, params)
            optim.step()
        optim.zero_grad()
