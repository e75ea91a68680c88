"""Expansion sizing and gradient-driven reuse/pruning of old neurons.

Expansion: the association magnitude A (minimum similarity to any old task)
sizes each layer's new units as floor(M_l * (1 - exp(-alpha * A))), alpha
and the caps M_l set by ``TrainConfig`` (default M_l: the first task's width).

Reuse: while the new task trains, the absolute gradients that each step
returns for the old (frozen) units' input synapses accumulate.  Once per
epoch the relatedness score updates as

    R <- 0.99 R - exp(-epoch / 2) * (2 * Norm(G) - rho)

with Norm a min-max normalization over the still-connected old units of the
layer and rho = beta - S + bias(layer).  Units whose R drops below zero are
disconnected from the new task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


def association(sims):
    """Association magnitude: the minimum similarity over old tasks."""
    if not sims:
        raise ContractError("association requires at least one similarity record")
    return min(r.s for r in sims)


def expansion_counts(a, alpha, caps):
    """Per-layer expansion sizes floor(M_l * (1 - exp(-alpha * A))), M_l
    the layer's entry of ``caps``."""
    factor = 1.0 - math.exp(-alpha * a)
    return [int(math.floor(m * factor)) for m in caps]


def normalize_gradients(accum):
    """Min-max normalize a vector of gradient accumulations to [0, 1].

    A constant vector maps to all 0.5 (no unit stands out).
    """
    accum = np.asarray(accum, dtype=np.float64)
    lo, hi = accum.min(), accum.max()
    if hi == lo:
        return np.full(accum.shape, 0.5)
    return (accum - lo) / (hi - lo)


@dataclass
class RelatednessState:
    """Per-old-unit relatedness tracking for one new task.

    ``unit_ids[l]`` lists the (still-connected) old units of layer l at
    construction; ``r`` and ``grad_accum`` are aligned arrays.  R starts at 0
    for every unit: each task makes its own reuse judgment.
    """

    task_id: int
    unit_ids: list  # per layer: int array of old-unit indices
    unit_rho: list  # per layer: rho value per unit
    r: list = field(default_factory=list)
    grad_accum: list = field(default_factory=list)

    def __post_init__(self):
        if not self.r:
            self.r = [np.zeros(len(u)) for u in self.unit_ids]
        if not self.grad_accum:
            self.grad_accum = [np.zeros(len(u)) for u in self.unit_ids]


def bias_schedule(layer, bias0=0.2, bias_slope=0.1):
    """Layer bias for rho; negatively correlated with depth."""
    return bias0 - bias_slope * layer


def build_relatedness(network, task_id, sims, beta=1.0, bias0=0.2,
                      bias_slope=0.1):
    """Set up relatedness tracking for every frozen unit reachable by the task."""
    s_by_task = {r.old_task: r.s for r in sims}
    owned = [network.owned(t) for t in range(task_id)]
    unit_ids, unit_rho = [], []
    for li in range(len(network.layers)):
        bias = bias_schedule(li, bias0, bias_slope)
        # similarity to the unit's own task; a task with no record (task 0
        # of a stream) defaults to the maximum dissimilarity
        unit_ids.append(np.concatenate(
            [np.arange(o[li].start, o[li].stop, dtype=np.int64)
             for o in owned]))
        unit_rho.append(np.concatenate(
            [np.full(len(o[li]), beta - s_by_task.get(t, 1.0) + bias)
             for t, o in enumerate(owned)]))
    return RelatednessState(task_id, unit_ids, unit_rho)


def accumulate_gradients(state, network, grads):
    """Add |input-synapse gradients| of frozen units to G, from ``grads``,
    the full-shape gradients of one ``trainer.step_gradients``.

    Only the rows before the task's first own unit are read: the old units.
    Only synapses still connected under the task's mask count: a pruned
    unit is absent from the task's forward, so its row and the columns it
    feeds get zero gradient, and an old row's columns past its task's
    prefix, which are not synapses but the gather reads for newer units,
    are zeroed here.
    """
    first = [own.start for own in network.owned(state.task_id)]
    tasks = [(network.owned(t), network._in_widths(t))
             for t in range(state.task_id)]
    for li, layer in enumerate(network.layers):
        ids = state.unit_ids[li]
        if ids.size == 0:
            continue
        g = np.abs(grads[2 * li][:first[li]])  # layer li's weight
        for owned, in_widths in tasks:
            rows = owned[li]
            g[rows.start:rows.stop, in_widths[li] * layer.block:] = 0.0
        per_unit = g.sum(axis=tuple(range(1, g.ndim)))
        state.grad_accum[li] += per_unit[ids]


def update_relatedness(state, network, epoch):
    """Apply the per-epoch relatedness update; returns the doomed-unit set.

    Normalization runs over the still-connected old units of each layer.
    Accumulators reset to zero afterwards.
    """
    doomed = set()
    decay = math.exp(-epoch / 2.0)
    mask = network.masks[state.task_id]
    for li in range(len(state.unit_ids)):
        ids = state.unit_ids[li]
        if ids.size == 0:
            continue
        alive = mask.active[li][ids]
        if not alive.any():
            state.grad_accum[li][:] = 0.0
            continue
        norm = np.zeros(len(ids))
        norm[alive] = normalize_gradients(state.grad_accum[li][alive])
        state.r[li][alive] = (
            0.99 * state.r[li][alive]
            - decay * (2.0 * norm[alive] - state.unit_rho[li][alive])
        )
        doomed.update((li, int(u)) for u in ids[alive & (state.r[li] < 0.0)])
        state.grad_accum[li][:] = 0.0
    return doomed


def apply_pruning(network, task_id, doomed):
    """Disconnect doomed old units from the task; returns per-source rates.

    The report maps source task -> {layer -> (pruned, units it owns)} so the
    pruning-rate-vs-similarity relationship can be exported.
    """
    if doomed:
        network.prune_units(task_id, sorted(doomed))
    active = network.masks[task_id].active
    owned = [network.owned(t) for t in range(task_id)]
    report = {}
    for li in range(len(network.layers)):
        for t, o in enumerate(owned):
            if len(o[li]):
                pruned = int((~active[li][o[li].start:o[li].stop]).sum())
                report.setdefault(t, {})[li] = (pruned, len(o[li]))
    return report


def pruning_rates(report):
    """Collapse an apply_pruning report to source task -> overall rate."""
    rates = {}
    for task, layers in report.items():
        pruned = sum(p for p, _ in layers.values())
        size = sum(s for _, s in layers.values())
        rates[task] = pruned / size if size else 0.0
    return rates
