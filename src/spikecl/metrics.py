"""Active-structure counts, FLOPs, the AC/MAC energy model, and accuracy
bookkeeping.

FLOPs count potential synaptic multiply-accumulates on active connections
(``Network.connections`` plus the head's) per forward pass (conv counted per
output position), excluding the time window; the window enters the spiking
energy formula as the * T factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError

E_MAC_PJ = 4.6
E_AC_PJ = 0.9


@dataclass
class EnergyReport:
    connections_active: int
    neurons_active: int
    flops: int
    energy_pj: float  # spiking (AC) energy over the LIF window
    pruning_rate: float


def count_active(network, task_id):
    """(connections, neurons) active under the task's mask, head included.

    A unit is active iff it has at least one outgoing connection (an active
    final feature unit feeds the head).  Head synapses from active feature
    units count as connections.
    """
    active = network.masks[task_id].active
    conn = network.connections(task_id)
    conns = sum(int(c.sum()) for c in conn)
    has_out = [c.any(axis=0) for c in conn[1:]] + [active[-1]]
    neurons = sum(int((a & o).sum()) for a, o in zip(active, has_out))
    head = network.heads[task_id]
    conns += int(active[-1].sum()) * head.w.shape[0]
    return conns, neurons


def flops_estimate(network, task_id):
    """Multiply-accumulates for one masked forward pass (single timestep)."""
    conns = network.connections(task_id)
    total = sum(int(c.sum()) * l.macs_per_bit
                for c, l in zip(conns, network.layers))
    head = network.heads[task_id]
    total += int(network.masks[task_id].active[-1].sum()) * head.w.shape[0]
    return total


def energy(flops, mode, window=4):
    """Energy in pJ: flops * E_AC * T for spiking, flops * E_MAC otherwise."""
    if flops < 0:
        raise ContractError(f"flops must be non-negative, got {flops}")
    if mode == "snn":
        return flops * E_AC_PJ * window
    if mode == "dnn":
        return flops * E_MAC_PJ
    raise ContractError(f"unknown energy mode {mode!r}")


def energy_report(network, task_id):
    """Active structure, FLOPs and spiking energy over ``network.lif.window``."""
    conns, neurons = count_active(network, task_id)
    flops = flops_estimate(network, task_id)
    total_conns = sum(int(network.synapses(li).sum())
                      for li in range(len(network.layers)))
    total_conns += network.layers[-1].width * network.heads[task_id].w.shape[0]
    rate = 1.0 - conns / total_conns if total_conns else 0.0
    return EnergyReport(conns, neurons, flops,
                        energy(flops, "snn", window=network.lif.window), rate)


@dataclass
class AccuracyMatrix:
    """entries[i][j]: accuracy on task j after learning task i (j <= i)."""

    entries: list = field(default_factory=list)

    def add_row(self, accuracies):
        row = [float(a) for a in accuracies]
        if len(row) != len(self.entries) + 1:
            raise ContractError(
                f"row {len(self.entries)} must have {len(self.entries) + 1} "
                f"entries, got {len(row)}"
            )
        if any(not 0.0 <= a <= 1.0 for a in row):
            raise ContractError("accuracies must lie in [0, 1]")
        self.entries.append(row)

    def final(self):
        return list(self.entries[-1]) if self.entries else []

    def average_final(self):
        final = self.final()
        return sum(final) / len(final) if final else 0.0


def forgetting(matrix):
    """Per-task and average forgetting: max over history minus final accuracy."""
    if not matrix.entries:
        raise ContractError("accuracy matrix is empty")
    n = len(matrix.entries)
    per_task = []
    for j in range(n):
        history = [matrix.entries[i][j] for i in range(j, n)]
        per_task.append(max(history) - history[-1])
    return per_task, sum(per_task) / len(per_task)
