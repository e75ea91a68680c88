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

``lif_step`` is one membrane update on numpy arrays, into given arrays
when asked.  ``lif_window`` runs it over a layer's whole window, writing
each step into slices of preallocated ``(T, B, ...)`` arrays, and checks
the membranes finite once per window; ``rate`` turns the window's spikes
into a rate, on arrays in training too.  ``run_window`` is ``lif_window``
as a graph node (SpikingJelly's multi-step mode), its backward
hand-written backpropagation through time with the surrogate, whose slope
and 1 - spikes it computes once over the stacked window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

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


def lif_step(membrane, spikes, current, cfg, out=None):
    """One membrane update and spike decision; returns the new
    ``(membrane, spikes)`` arrays, written into ``out`` (two arrays of the
    membrane's shape that share no memory with the inputs) when given."""
    if current.shape != membrane.shape:
        raise ShapeError(
            f"input current shape {current.shape} does not match "
            f"membrane shape {membrane.shape}"
        )
    m, o = out if out is not None else (np.empty(membrane.shape),
                                        np.empty(membrane.shape))
    if cfg.reset_mode == HARD_RESET:  # membrane * (1 - spikes) * tau + current
        np.subtract(1.0, spikes, out=m)
        m *= membrane
    else:  # (1 - membrane) * tau + current
        np.subtract(1.0, membrane, out=m)
    m *= cfg.tau
    m += current
    if cfg.smooth:
        o[...] = smooth_spike_value(m - cfg.v_th, cfg.lam)
    else:
        np.greater_equal(m, cfg.v_th, out=o)
    return m, o


def lif_window(step, cur, cfg, held=False):
    """One layer's ``cfg.window`` steps of ``step`` (``lif_step``) on arrays,
    from rest, each written into a slice of two ``(T, B, ...)`` arrays, whose
    membranes are checked finite once for the window.  ``cur`` is held,
    ``(B, ...)`` at every step, or stacked, ``(T*B, ...)`` with step t's rows
    at ``[t*B, (t+1)*B)``.  Returns the ``(T, B, ...)`` membranes and the
    stacked ``(T*B, ...)`` spikes."""
    window = cfg.window
    rows = cur.shape[0] if held else cur.shape[0] // window
    if not held and rows * window != cur.shape[0]:
        raise ShapeError(f"stacked current has {cur.shape[0]} rows, not a "
                         f"multiple of the window {window}")
    shape = (rows,) + cur.shape[1:]
    membranes, spikes = np.empty((window,) + shape), np.empty((window,) + shape)
    m = o = np.zeros(shape)
    for t in range(window):
        m, o = step(m, o, cur if held else cur[t * rows:(t + 1) * rows], cfg,
                    out=(membranes[t], spikes[t]))
    if not np.all(np.isfinite(membranes)):
        raise NumericalError("membrane potential is not finite")
    return membranes, spikes.reshape((window * rows,) + shape[1:])


def run_window(step, current, cfg, held=False):
    """``lif_window``'s spikes of a Tensor ``current``, as one graph node
    whose backward runs BPTT with the surrogate derivative; a held current's
    gradient is the sum over the steps.  The surrogate slope (and, with
    hard reset, 1 - spikes) is computed once over the stacked window."""
    membranes, stacked = lif_window(step, current.data, cfg, held)
    spikes = stacked.reshape(membranes.shape)

    def vjp(grad):
        grad = grad.reshape(spikes.shape)
        slopes = surrogate_grad(membranes - cfg.v_th, cfg.lam)
        keep = 1.0 - spikes if cfg.reset_mode == HARD_RESET else None
        g_m = np.empty(spikes.shape)  # dL/dU^t, from the last step back
        np.multiply(grad[-1], slopes[-1], out=g_m[-1])
        for t in reversed(range(cfg.window - 1)):
            g, g_next = g_m[t], g_m[t + 1] * cfg.tau
            if keep is None:  # g_o * slope - g_next * tau
                np.multiply(grad[t], slopes[t], out=g)
                g -= g_next
                continue
            # (g_o - g_keep * m) * slope + g_keep * (1 - O^t), where
            # g_keep = g_next * tau is dL/d(U^t * (1 - O^t))
            np.multiply(g_next, membranes[t], out=g)
            np.subtract(grad[t], g, out=g)
            g *= slopes[t]
            g_next *= keep[t]
            g += g_next
        if not held:
            return g_m.reshape(current.shape)
        g_cur = g_m[-1]  # summed from the last step back, in this order
        for g in g_m[-2::-1]:
            g_cur = g_cur + g
        return g_cur

    return current.custom_op(stacked, vjp)


def rate(spikes, window):
    """Spike rate of window-stacked ``(T*B, ...)`` spike arrays: the steps
    summed in order, times 1/T."""
    steps = np.split(spikes, window)  # by row count: a layer may have no unit
    total = steps[0]
    for s in steps[1:]:
        total = total + s
    return total * (1.0 / window)
