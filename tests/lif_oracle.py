"""The per-step LIF path on the autodiff graph: the oracle of ``run_window``.

Every timestep is built from the elementwise forms of ``oracles``, so
autodiff unrolls the window by itself: the membrane update is 5 ops for hard
reset (3 for literal-eq3), and the spike is a ``custom_unary`` node whose
local derivative is the surrogate.
``spikecl.spiking.run_window`` must give the same spikes exactly and the same
gradients up to summation order.
"""

import numpy as np

from spikecl.spiking import HARD_RESET, smooth_spike_value, surrogate_grad
from spikecl.tensor import Tensor

from oracles import add, mul, rsub


def custom_unary(x, forward_fn, local_grad_fn):
    """``forward_fn`` applied elementwise to Tensor ``x``, as one node whose
    gradient is the upstream gradient times ``local_grad_fn(x.data)``."""
    return x.custom_op(np.asarray(forward_fn(x.data), dtype=np.float64),
                       lambda grad: grad * local_grad_fn(x.data))


def spike(membrane, cfg):
    """Threshold (or smooth ramp) of a membrane Tensor; the surrogate on the
    way back."""

    def forward(u):
        if cfg.smooth:
            return smooth_spike_value(u - cfg.v_th, cfg.lam)
        return (u >= cfg.v_th).astype(np.float64)

    def local_grad(u):
        return surrogate_grad(u - cfg.v_th, cfg.lam)

    return custom_unary(membrane, forward, local_grad)


def rest(shape):
    """The (membrane, spikes) state before the first step."""
    return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


def step(state, current, cfg):
    """One membrane update and spike on Tensors; returns the new state."""
    membrane, spikes = state
    if cfg.reset_mode == HARD_RESET:
        membrane = add(mul(cfg.tau, mul(membrane, rsub(1.0, spikes))), current)
    else:
        membrane = add(mul(cfg.tau, rsub(1.0, membrane)), current)
    return membrane, spike(membrane, cfg)


def unroll(currents, cfg):
    """Spikes of each step, fed ``currents[t]`` at step t (pass one Tensor
    ``window`` times for a held current)."""
    state = rest(currents[0].shape)
    spikes = []
    for current in currents:
        state = step(state, current, cfg)
        spikes.append(state[1])
    return spikes


def rate(spikes, cfg):
    """Mean of the per-step spikes, summed in step order."""
    total = None
    for s in spikes:
        total = s if total is None else add(total, s)
    return mul(total, 1.0 / cfg.window)
