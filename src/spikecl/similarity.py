"""Task-to-task similarity from feature anchors and a nearest-anchor KL estimate.

After a task finishes training, the per-class mean feature vectors are stored
as its anchors, a plain ``{class: mean}`` dict.  When a new task arrives, its
samples are pushed through each old task's subnetwork; the divergence kl
between the new features and the old anchors maps to a similarity score
``s = 1 - exp(-2 max(kl, 0))`` in [0, 1) (small = similar), which sizes the
new task's expansion.  The paper's printed map, ``min(kl, 1 - exp(2 kl))``,
is <= 0 for every kl and so could never size one.

The probe set is split into two halves so the within-task reference means are
estimated independently of the query means; otherwise the within-distance
term is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError

EPS = 1e-9


@dataclass
class SimilarityRecord:
    old_task: int
    kl: float
    s: float


def compute_anchors(features_by_class):
    """``{class: mean}``: per-class arithmetic mean of the feature vectors."""
    means = {}
    for cls, feats in features_by_class.items():
        feats = np.asarray(feats, dtype=np.float64)
        if feats.size == 0:
            raise DataError(f"class {cls} has no samples to anchor")
        means[cls] = feats.mean(axis=0)
    return means


def check_gamma(gamma):
    """Reject a ``gamma`` outside [EPS, 1]: ``kl_estimate``'s divisor,
    ``gamma`` times a distance floored at ``EPS``, then stays >= 1e-18."""
    if not EPS <= gamma < 1.0 + 1e-12:
        raise ConfigError(
            f"gamma must lie in (0, 1] and be >= {EPS:g}, got {gamma}")


def kl_estimate(new_feats_by_class, anchors_p, anchors_tp, gamma):
    """Nearest-anchor divergence between new-task features and an old task.

    ``anchors_p`` and ``anchors_tp`` map class to mean.  For each new-task
    class c, with F_c the class mean of ``new_feats``:
    contribution = log( ||F_c - nearest anchor of task p||
                        / (gamma * ||F_c - M_tp[c]||) ),
    distances floored at 1e-9.  The estimate is 0.0 when both distance terms
    vanish for every class (degenerate features).
    """
    check_gamma(gamma)
    if not anchors_p or not anchors_tp:
        raise ContractError("both anchor sets must be nonempty")
    old = np.stack(list(anchors_p.values()))
    total, degenerate = 0.0, True
    for cls, feats in new_feats_by_class.items():
        fc = np.asarray(feats, dtype=np.float64).mean(axis=0)
        d_old = float(np.min(np.linalg.norm(old - fc, axis=1)))
        d_self = float(np.linalg.norm(fc - anchors_tp[cls]))
        if d_old > EPS or d_self > EPS:
            degenerate = False
        total += math.log(max(d_old, EPS) / (gamma * max(d_self, EPS)))
    return 0.0 if degenerate else total


def similarity_score(kl):
    """Map a KL estimate to similarity ``1 - exp(-2 * max(kl, 0))``, which
    lies in [0, 1) and rises with kl."""
    if not math.isfinite(kl):
        raise ContractError(f"kl must be finite, got {kl}")
    return 1.0 - math.exp(-2.0 * max(kl, 0.0))


def similarity_vector(network, task, gamma=0.9, probe_size=512, seed=0):
    """Similarity of ``task`` against every stored old task.

    Probes a bounded subset of the task's training data, extracting features
    under each old task's mask: ``min(probe_size, N)`` rows drawn at random,
    then the first training row of each class the draw missed.  Half of each
    class's probe estimates the within-task class means, the other half
    supplies the query means.  Returns an empty list for the first task.
    """
    old_tasks = sorted(t for t in network.anchors if t != task.id)
    if not old_tasks:
        return []
    rng = np.random.default_rng(seed)
    n = min(probe_size, task.train_x.shape[0])
    pick = rng.choice(task.train_x.shape[0], size=n, replace=False)
    missed = [np.flatnonzero(task.train_y == c)[0] for c in task.classes
              if not np.any(task.train_y[pick] == c)]
    if missed:
        pick = np.concatenate([pick, missed])
    x, y = task.train_x[pick], task.train_y[pick]
    by_class = {c: np.flatnonzero(y == c) for c in task.classes}
    records = []
    for p in old_tasks:
        feats = network.extract_features(x, p)
        query, ref = {}, {}
        for c, idx in by_class.items():
            half = idx.size // 2  # a single sample is query and reference
            query[c] = feats[idx[:half] if half else idx]
            ref[c] = feats[idx[half:]]
        # features under task p have p's width, as its stored anchors do
        kl = kl_estimate(query, network.anchors[p], compute_anchors(ref), gamma)
        records.append(SimilarityRecord(p, kl, similarity_score(kl)))
    return records
