"""Expansion sizing and gradient-driven reuse/pruning of old neurons.

Expansion: the association magnitude A (minimum similarity to any old task)
sizes the new populations per layer as floor(M_l * (1 - exp(-alpha * A))).

Reuse: while the new task trains, the absolute gradients reaching each old
(frozen) unit's input synapses accumulate per epoch.  Once per epoch the
relatedness score updates as

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


@dataclass
class ExpansionPolicy:
    alpha: float = 5.0
    max_per_layer: tuple = ()

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractError(f"alpha must be positive, got {self.alpha}")
        if any(m < 0 for m in self.max_per_layer):
            raise ContractError("max expansion counts must be non-negative")


def association(sims):
    """Association magnitude: the minimum similarity over old tasks."""
    if not sims:
        raise ContractError("association requires at least one similarity record")
    return min(r.s for r in sims)


def expansion_counts(a, policy):
    """Per-layer expansion sizes floor(M_l * (1 - exp(-alpha * A)))."""
    factor = 1.0 - math.exp(-policy.alpha * a)
    return [int(math.floor(m * factor)) for m in policy.max_per_layer]


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
    epoch: int = 0

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
    unit_ids, unit_rho = [], []
    for li, layer in enumerate(network.layers):
        old = [p for p in layer.populations if p.task_id < task_id]
        bias = bias_schedule(li, bias0, bias_slope)
        # similarity to the population's own task; populations from task 0
        # of a stream with no record default to the maximum dissimilarity
        unit_ids.append(np.concatenate(
            [np.arange(p.start, p.stop, dtype=np.int64) for p in old]))
        unit_rho.append(np.concatenate(
            [np.full(p.size, beta - s_by_task.get(p.task_id, 1.0) + bias)
             for p in old]))
    return RelatednessState(task_id, unit_ids, unit_rho)


def accumulate_gradients(state, network):
    """Add |input-synapse gradients| of frozen units (current batch) to G.

    Only synapses still connected under the task's mask count: the forward
    multiplies the weights by the connection mask, so the gradient of every
    disconnected synapse is zero.  Must be called after a backward pass and
    before the optimizer clears gradients.
    """
    for li, layer in enumerate(network.layers):
        ids = state.unit_ids[li]
        if ids.size == 0 or layer.w.grad is None:
            continue
        g = np.abs(layer.w.grad)
        per_unit = g.sum(axis=tuple(range(1, g.ndim)))
        state.grad_accum[li] += per_unit[ids]


def update_relatedness(state, network, epoch=None):
    """Apply the per-epoch relatedness update; returns the doomed-unit set.

    Normalization runs over the still-connected old units of each layer.
    Accumulators reset to zero afterwards.
    """
    if epoch is None:
        epoch = state.epoch
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
    state.epoch = epoch + 1
    return doomed


def apply_pruning(network, task_id, doomed):
    """Disconnect doomed old units from the task; returns per-population rates.

    The report maps source task -> {layer -> (pruned, population size)} so the
    pruning-rate-vs-similarity relationship can be exported.
    """
    if doomed:
        network.prune_units(task_id, sorted(doomed))
    report = {}
    for li, layer in enumerate(network.layers):
        for pop in layer.populations:
            if pop.task_id >= task_id or pop.size == 0:
                continue
            pruned = int(
                (~network.masks[task_id].active[li][pop.start:pop.stop]).sum()
            )
            report.setdefault(pop.task_id, {})[li] = (pruned, pop.size)
    return report


def pruning_rates(report):
    """Collapse an apply_pruning report to source task -> overall rate."""
    rates = {}
    for task, layers in report.items():
        pruned = sum(p for p, _ in layers.values())
        size = sum(s for _, s in layers.values())
        rates[task] = pruned / size if size else 0.0
    return rates
