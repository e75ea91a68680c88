"""Test-side oracles: elementwise graph algebra, for ``lif_oracle`` and the
tests' losses; the training graph with the parameters as its leaves, read
through the gather node the engine once had and ending in its rate, head
and loss nodes; central differences; the closed-form Gaussian KL.

``add`` and ``mul`` take two Tensors of one shape, or a Tensor and a number,
which stays a number: one node, no constant Tensor.
"""

import math

import numpy as np

from spikecl.errors import NumericalError, ShapeError
from spikecl.spiking import lif_step, rate, run_window
from spikecl.tensor import (Tensor, _accum, _scatter, conv2d, gather,
                            gradients, softmax_cross_entropy)


def _pair(a, b, ufunc, vjps):
    """``ufunc(a, b)``; ``vjps[i](grad)`` is the gradient of input i."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")

    def backward(out):
        for t, vjp in zip((a, b), vjps):
            if t.requires_grad:
                _accum(t, vjp(out.grad))

    return Tensor._make(ufunc(a.data, b.data), (a, b), backward)


def add(a, b):
    """``a + b``."""
    if isinstance(b, Tensor):
        return _pair(a, b, np.add, (lambda g: g,) * 2)
    return a.custom_op(a.data + float(b), lambda g: g)


def mul(a, b):
    """``a * b``, a number on either side."""
    if not isinstance(a, Tensor):
        a, b = b, a
    if isinstance(b, Tensor):
        return _pair(a, b, np.multiply,
                     (lambda g: g * b.data, lambda g: g * a.data))
    c = float(b)
    return a.custom_op(a.data * c, lambda g: g * c)


def rsub(c, t):
    """``c - t`` for a number ``c``."""
    return t.custom_op(float(c) - t.data, lambda g: -g)


def total(t):
    """The sum of every entry, a scalar."""
    return t.custom_op(np.asarray(t.data.sum()),
                       lambda g: np.full(t.shape, float(g)))


def average(t):
    """The mean of every entry, a scalar."""
    return t.custom_op(np.asarray(t.data.mean()),
                       lambda g: np.full(t.shape, float(g) / t.size))


def take(t, rows, cols=None):
    """The gather node the engine once had: ``t`` itself when the indices
    cover every row and column, else ``gather(t.data, rows, cols)``, whose
    gradient is ``_scatter``ed into zeros of ``t``'s shape."""
    if rows.size == t.shape[0] and (cols is None or cols.size == t.shape[1]):
        return t
    return t.custom_op(gather(t.data, rows, cols),
                       lambda g: _scatter(g, t.shape, rows, cols))


def window_rate(spikes, window):
    """The rate node the engine once had: ``rate`` of window-stacked
    spikes, its gradient 1/T of the rate's at every step."""
    return spikes.custom_op(rate(spikes.data, window), lambda grad: (
        np.concatenate([grad * (1.0 / window)] * window)))


def cross_entropy(logits, labels):
    """The loss node the engine once had: ``softmax_cross_entropy`` over
    Tensor logits; a non-finite loss raises ``NumericalError``."""
    loss, grad = softmax_cross_entropy(logits.data, labels)
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite")
    return logits.custom_op(np.asarray(loss), lambda g: float(g) * grad)


def forward_task(net, x, task_id):
    """``Network.forward_task`` as it was when every parameter was a leaf of
    the graph and each read went through ``take``; returns (logits, the
    leaves, over the arrays of ``net.parameters(task_id)`` in its order)."""
    leaves = [Tensor(p, requires_grad=True)
              for p, _ in net.parameters(task_id)]
    h = Tensor(x)
    for (li, layer, rows, cols), w, b in zip(net._gathers(h.shape, task_id),
                                             leaves[:-2:2], leaves[1:-2:2]):
        w = take(w, rows, cols)
        if layer.kind == "conv":
            cur = conv2d(h, w, layer.spec.stride, layer.spec.padding)
        else:
            if len(h.shape) > 2:
                h = h.reshape(h.shape[0], cols.size)
            cur = h.matmul(w.transpose())
        h = run_window(lif_step, cur.add_bias(take(b, rows)), net.lif,
                       held=(li == 0))
    features = window_rate(h, net.lif.window)
    head_w, head_b = leaves[-2:]
    cols = np.flatnonzero(net.masks[task_id].active[-1])
    logits = features.matmul(take(head_w.transpose(), cols))
    return logits.add_bias(head_b), leaves


def finite_diff_arrays(loss, arrays, grads, step=1e-5):
    """Max relative discrepancy between ``grads``, one per array, and
    central differences of ``loss()``, a float computed from the current
    values of ``arrays``, which are perturbed in place one entry at a time.

    Relative error per coordinate is
    |analytic - central| / (|analytic| + |central| + 1e-12).
    """
    worst = 0.0
    for p, analytic in zip(arrays, grads, strict=True):
        flat = p.ravel()
        assert np.shares_memory(flat, p)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss()
            flat[i] = orig - step
            lo = loss()
            flat[i] = orig
            central = (hi - lo) / (2 * step)
            a = analytic.ravel()[i]
            err = abs(a - central) / (abs(a) + abs(central) + 1e-12)
            worst = max(worst, err)
    return worst


def finite_diff_check(f, params, step=1e-5):
    """``finite_diff_arrays`` for Tensors ``params``: ``f()`` must rebuild
    the graph from their current ``.data`` and return a scalar Tensor.
    Leaves each param's ``.grad`` as it found it, None."""
    grads = gradients(f(), params)
    for p in params:
        p.grad = None
    return finite_diff_arrays(lambda: float(f().data),
                              [p.data for p in params],
                              [grads[p] for p in params], step)


def gaussian_kl(mean1, var1, mean2, var2):
    """Closed-form KL(N(mean1, var1 I) || N(mean2, var2 I)) for scalar
    variances."""
    diff = np.asarray(mean2, float) - np.asarray(mean1, float)
    d = diff.size
    ratio = var1 / var2
    return 0.5 * (d * ratio + diff @ diff / var2 - d - d * math.log(ratio))
