"""Task-to-task similarity from feature anchors and a nearest-anchor KL estimate.

After a task finishes training, the per-class mean feature vectors are stored
as its anchors.  When a new task arrives, its samples are pushed through each
old task's subnetwork; the divergence between the new features and the old
anchors maps to a similarity score in [0, 1] (small = similar).

The probe set is split into two halves so the within-task reference means are
estimated independently of the query means; otherwise the within-distance
term is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

EPS = 1e-9

LITERAL = "literal"
CLAMPED = "clamped"


@dataclass
class FeatureAnchor:
    task_id: int
    means: dict  # class -> mean feature vector

    def nbytes(self):
        return sum(v.nbytes for v in self.means.values())


@dataclass
class SimilarityRecord:
    new_task: int
    old_task: int
    kl: float
    s: float
    gamma: float
    mode: str = CLAMPED


def compute_anchors(features_by_class, task_id=0):
    """Per-class arithmetic mean of the given feature vectors."""
    means = {}
    for cls, feats in features_by_class.items():
        feats = np.asarray(feats, dtype=np.float64)
        if feats.size == 0:
            raise DataError(f"class {cls} has no samples to anchor")
        means[cls] = feats.mean(axis=0)
    return FeatureAnchor(task_id, means)


def check_gamma(gamma):
    """Reject a ``gamma`` outside (0, 1]."""
    if not 0.0 < gamma < 1.0 + 1e-12:
        raise ContractError(f"gamma must lie in (0, 1], got {gamma}")


def kl_estimate(new_feats_by_class, anchors_p, anchors_tp, gamma):
    """Nearest-anchor divergence between new-task features and an old task.

    For each new-task class c, with F_c the class mean of ``new_feats``:
    contribution = log( ||F_c - nearest anchor of task p||
                        / (gamma * ||F_c - M_tp[c]||) ),
    distances floored at 1e-9.  Returns (kl, degenerate_flag); the flag is set
    when both distance terms vanish for every class.
    """
    check_gamma(gamma)
    if not anchors_p.means or not anchors_tp.means:
        raise ContractError("both anchor sets must be nonempty")
    old = np.stack(list(anchors_p.means.values()))
    total = 0.0
    degenerate = True
    for cls, feats in new_feats_by_class.items():
        fc = np.asarray(feats, dtype=np.float64).mean(axis=0)
        d_old = float(np.min(np.linalg.norm(old - fc, axis=1)))
        d_self = float(np.linalg.norm(fc - anchors_tp.means[cls]))
        if d_old > EPS or d_self > EPS:
            degenerate = False
        total += math.log(max(d_old, EPS) / (gamma * max(d_self, EPS)))
    if degenerate:
        return 0.0, True
    return total, False


def similarity_score(kl, mode=CLAMPED):
    """Map a KL estimate to similarity.

    ``clamped`` (default): clamp(1 - exp(-2 * max(kl, 0)), 0, 1), monotone and
    inside [0, 1].  ``literal``: min(kl, 1 - exp(2 * kl)) exactly as printed,
    which goes negative for kl > 0; kept for fidelity comparisons.
    """
    if not math.isfinite(kl):
        raise ContractError(f"kl must be finite, got {kl}")
    if mode == LITERAL:
        return min(kl, 1.0 - math.exp(2.0 * kl))
    if mode == CLAMPED:
        return min(max(1.0 - math.exp(-2.0 * max(kl, 0.0)), 0.0), 1.0)
    raise ContractError(f"unknown similarity mode {mode!r}")


def _split_by_class(x, y, classes):
    out = {}
    for c in classes:
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            raise DataError(f"probe subset has no samples of class {c}")
        out[c] = idx
    return out


def similarity_vector(network, task, gamma=0.9, mode=CLAMPED,
                      probe_size=512, seed=0):
    """Similarity of ``task`` against every stored old task.

    Probes a bounded subset of the task's training data, extracting features
    under each old task's mask.  Half of each class's probe estimates the
    within-task class means, the other half supplies the query means.
    Returns an empty list for the first task.
    """
    old_tasks = sorted(t for t in network.anchors if t != task.id)
    if not old_tasks:
        return []
    rng = np.random.default_rng(seed)
    n = min(probe_size, task.train_x.shape[0])
    pick = rng.choice(task.train_x.shape[0], size=n, replace=False)
    x, y = task.train_x[pick], task.train_y[pick]
    by_class = _split_by_class(x, y, task.classes)
    records = []
    for p in old_tasks:
        feats = network.extract_features(x, p)
        query, ref = {}, {}
        for c, idx in by_class.items():
            half = idx.size // 2
            if half == 0:  # single sample: it is both query and reference
                query[c] = feats[idx]
                ref[c] = feats[idx]
            else:
                query[c] = feats[idx[:half]]
                ref[c] = feats[idx[half:]]
        # features under task p have p's width, as its stored anchors do
        anchors_p = FeatureAnchor(p, network.anchors[p])
        anchors_tp = compute_anchors(ref, task.id)
        kl, _ = kl_estimate(query, anchors_p, anchors_tp, gamma)
        records.append(SimilarityRecord(task.id, p, kl,
                                        similarity_score(kl, mode), gamma, mode))
    return records
