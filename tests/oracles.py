"""Test-side oracles: elementwise graph algebra, for ``lif_oracle`` and the
tests' losses; central differences; the closed-form Gaussian KL.

``add`` and ``mul`` take two Tensors of one shape, or a Tensor and a number,
which stays a number: one node, no constant Tensor.
"""

import math

import numpy as np

from spikecl.errors import ShapeError
from spikecl.tensor import Tensor, _accum, gradients


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


def finite_diff_check(f, params, step=1e-5):
    """Max relative discrepancy between autodiff and central differences.

    ``f()`` must rebuild the graph from the current ``.data`` of ``params``
    and return a scalar Tensor.  Relative error per coordinate is
    |analytic - central| / (|analytic| + |central| + 1e-12).
    """
    grads = gradients(f(), params)
    worst = 0.0
    for p in params:
        analytic = grads[p]
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f().data)
            flat[i] = orig - step
            lo = float(f().data)
            flat[i] = orig
            central = (hi - lo) / (2 * step)
            a = analytic.ravel()[i]
            err = abs(a - central) / (abs(a) + abs(central) + 1e-12)
            worst = max(worst, err)
    return worst


def gaussian_kl(mean1, var1, mean2, var2):
    """Closed-form KL(N(mean1, var1 I) || N(mean2, var2 I)) for scalar
    variances."""
    diff = np.asarray(mean2, float) - np.asarray(mean1, float)
    d = diff.size
    ratio = var1 / var2
    return 0.5 * (d * ratio + diff @ diff / var2 - d - d * math.log(ratio))
