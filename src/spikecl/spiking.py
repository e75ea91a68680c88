"""Leaky integrate-and-fire dynamics and the piecewise-linear spike surrogate.

The membrane update has two selectable forms:

* ``hard-reset`` (default): U^t = tau * U^{t-1} * (1 - O^{t-1}) + I, the
  conventional leaky integration with reset-on-spike.
* ``literal-eq3``: U^t = tau * (1 - U^{t-1}) + I, kept for fidelity
  comparisons.

Spikes are O = 1[U >= v_th].  The backward pass through the threshold uses
the triangular surrogate: zero outside |u| > 1/lambda, otherwise
-lambda^2 |u| + lambda, evaluated at the centered potential u = U - v_th.

``smooth`` mode replaces the hard threshold by the surrogate's antiderivative
(a C^1 ramp from 0 to 1) so that analytic gradients agree with finite
differences; it exists for gradient-checking, not for training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor

HARD_RESET = "hard-reset"
LITERAL_EQ3 = "literal-eq3"


@dataclass(frozen=True)
class LIFConfig:
    tau: float = 0.2
    v_th: float = 0.5
    lam: float = 2.0
    window: int = 4
    reset_mode: str = HARD_RESET
    smooth: bool = False  # diagnostic mode for finite-difference oracles

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if not 0 < self.v_th < np.inf:
            raise ConfigError(f"v_th must be positive and finite: {self.v_th}")
        if not 0 < self.lam < np.inf:
            raise ConfigError(f"lambda must be positive and finite: {self.lam}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.reset_mode not in (HARD_RESET, LITERAL_EQ3):
            raise ConfigError(f"unknown reset mode {self.reset_mode!r}")


@dataclass
class SpikeState:
    membrane: Tensor
    spikes: Tensor

    @staticmethod
    def zeros(shape):
        return SpikeState(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


def surrogate_grad(u_centered, lam):
    """Triangular surrogate derivative at centered potential u = U - v_th."""
    u = np.abs(np.asarray(u_centered, dtype=np.float64))
    # clamping at 0 (not testing |u| > 1/lam) keeps edge rounding non-negative
    return np.maximum(lam - lam * lam * u, 0.0)


def smooth_spike_value(u_centered, lam):
    """Antiderivative of the surrogate: C^1 ramp from 0 to 1 centered at 0."""
    u = np.asarray(u_centered, dtype=np.float64)
    lo, hi = -1.0 / lam, 1.0 / lam
    ramp = 0.5 + lam * u - 0.5 * lam * lam * u * np.abs(u)
    return np.where(u <= lo, 0.0, np.where(u >= hi, 1.0, ramp))


def spike(membrane, cfg):
    """Threshold the membrane tensor; surrogate derivative on the way back."""

    def forward(u):
        if cfg.smooth:
            return smooth_spike_value(u - cfg.v_th, cfg.lam)
        return (u >= cfg.v_th).astype(np.float64)

    def local_grad(u):
        return surrogate_grad(u - cfg.v_th, cfg.lam)

    return membrane.custom_unary(forward, local_grad)


def lif_step(state, input_current, cfg):
    """One membrane update + spike decision; differentiable through time."""
    if input_current.shape != state.membrane.shape:
        raise ShapeError(
            f"input current shape {input_current.shape} does not match "
            f"membrane shape {state.membrane.shape}"
        )
    if cfg.reset_mode == HARD_RESET:
        keep = state.membrane * (1.0 - state.spikes)
        membrane = cfg.tau * keep + input_current
    else:
        membrane = cfg.tau * (1.0 - state.membrane) + input_current
    return SpikeState(membrane, spike(membrane, cfg))


def run_window(step, x, cfg):
    """Unroll ``cfg.window`` timesteps, re-presenting ``x`` each step.

    ``step(x, states)`` must return ``(output Tensor, new states)``.  The
    result is the mean of the per-step outputs (the spike rate when outputs
    are spikes).
    """
    states = None
    total = None
    for _ in range(cfg.window):
        out, states = step(x, states)
        total = out if total is None else total + out
    return total * (1.0 / cfg.window)
