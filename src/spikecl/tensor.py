"""Minimal dense-tensor reverse-mode autodiff.

Everything is float64 and row-major.  A ``Tensor`` wraps a numpy array and,
while gradient recording is enabled, remembers how it was produced so that
``backward`` can run the chain rule over the (acyclic) graph.  The only
extension point is ``custom_unary``, which lets a caller supply the local
derivative directly -- this is how the spike surrogate is injected.

Broadcasting is deliberately restricted: elementwise ops require matching
shapes or a python scalar; the only broadcast forms are bias-add and
multiplication by a constant mask (``mask_mul``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, NumericalError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used for feature probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericalError("tensor contains non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._parents = ()
        out._backward = None
        if not np.all(np.isfinite(data)):
            raise NumericalError("operation produced non-finite values")
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        if np.isscalar(other):
            return Tensor(np.full((), float(other)))
        raise TypeError(f"cannot combine Tensor with {type(other)!r}")

    def _check_same_shape(self, other):
        if self.shape != other.shape and other.shape != () and self.shape != ():
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_shape(other)

        def backward(out):
            if self.requires_grad:
                _accum(self, _unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(out.grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(out):
            if self.requires_grad:
                _accum(self, -out.grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same_shape(other)

        def backward(out):
            if self.requires_grad:
                _accum(self, _unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(out.grad * self.data, other.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def mask_mul(self, mask):
        """Multiply by a constant (non-differentiated) array, broadcasting allowed."""
        mask = np.asarray(mask, dtype=np.float64)

        def backward(out):
            if self.requires_grad:
                _accum(self, _unbroadcast(out.grad * mask, self.shape))

        return Tensor._make(self.data * mask, (self,), backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        new = self.data.reshape(shape)

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad.reshape(self.shape))

        return Tensor._make(new, (self,), backward)

    def crop(self, *extent):
        """Leading block ``[:n0, :n1, ...]``; ``self`` when that is everything."""
        if extent == self.shape[: len(extent)]:
            return self
        block = tuple(slice(0, n) for n in extent)

        def backward(out):
            if self.requires_grad:
                grad = np.zeros(self.shape)
                grad[block] = out.grad
                _accum(self, grad)

        return Tensor._make(self.data[block], (self,), backward)

    def transpose(self):
        if self.data.ndim != 2:
            raise ShapeError(f"transpose expects a 2-D tensor, got {self.shape}")

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad.T)

        return Tensor._make(self.data.T.copy(), (self,), backward)

    def sum(self):
        def backward(out):
            if self.requires_grad:
                _accum(self, np.full(self.shape, float(out.grad)))

        return Tensor._make(np.asarray(self.data.sum()), (self,), backward)

    def mean(self):
        n = self.data.size

        def backward(out):
            if self.requires_grad:
                _accum(self, np.full(self.shape, float(out.grad) / n))

        return Tensor._make(np.asarray(self.data.mean()), (self,), backward)

    # -- linear algebra ------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul expects 2-D operands, got {self.shape} and {other.shape}"
            )
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {self.shape} x {other.shape}"
            )

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad @ other.data.T)
            if other.requires_grad:
                _accum(other, self.data.T @ out.grad)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

    def add_bias(self, bias):
        """Bias-add: (B,N)+(N,) or (B,C,H,W)+(C,)."""
        bias = self._coerce(bias)
        if bias.data.ndim != 1:
            raise ShapeError(f"bias must be 1-D, got {bias.shape}")
        if self.data.ndim == 2:
            if self.shape[1] != bias.shape[0]:
                raise ShapeError(f"bias length {bias.shape[0]} != width {self.shape[1]}")
            b = bias.data.reshape(1, -1)
            axes = (0,)
        elif self.data.ndim == 4:
            if self.shape[1] != bias.shape[0]:
                raise ShapeError(
                    f"bias length {bias.shape[0]} != channels {self.shape[1]}"
                )
            b = bias.data.reshape(1, -1, 1, 1)
            axes = (0, 2, 3)
        else:
            raise ShapeError(f"add_bias expects 2-D or 4-D input, got {self.shape}")

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad)
            if bias.requires_grad:
                _accum(bias, out.grad.sum(axis=axes))

        return Tensor._make(self.data + b, (self, bias), backward)

    # -- custom derivative injection ------------------------------------------

    def custom_unary(self, forward_fn, local_grad_fn):
        """Apply ``forward_fn`` elementwise with a caller-supplied local derivative.

        ``local_grad_fn(x)`` must return d(out)/d(x) evaluated elementwise; it is
        multiplied into the upstream gradient.  This is the single hook used for
        the spike surrogate.
        """
        value = np.asarray(forward_fn(self.data), dtype=np.float64)
        if value.shape != self.data.shape:
            raise ShapeError(
                f"custom_unary changed shape: {self.data.shape} -> {value.shape}"
            )

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad * local_grad_fn(self.data))

        return Tensor._make(value, (self,), backward)


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    t.grad += g


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    raise ShapeError(f"cannot reduce gradient {grad.shape} to {shape}")


# -- convolution --------------------------------------------------------------


def _conv_geometry(h, w, kh, kw, stride, padding):
    ho, rh = divmod(h + 2 * padding - kh, stride)
    wo, rw = divmod(w + 2 * padding - kw, stride)
    if rh or rw or ho < 0 or wo < 0:
        raise ConfigError(
            f"conv output extent not integral: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return ho + 1, wo + 1


def _im2col(x, kh, kw, stride, padding):
    b, c, h, w = x.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B,C,Ho,Wo,kh,kw)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(cols, xshape, kh, kw, stride, padding):
    b, c, h, w = xshape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    cols6 = cols.reshape(b, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                cols6[:, :, i, j]
            )
    if padding:
        return xp[:, :, padding : padding + h, padding : padding + w]
    return xp


def conv2d(x, kernels, stride=1, padding=0):
    """Batched 2-D cross-correlation.

    x: Tensor (B, C_in, H, W) or (C_in, H, W); kernels: (C_out, C_in, kh, kw).
    Differentiable w.r.t. both input and kernels.
    """
    squeeze = False
    if x.data.ndim == 3:
        x = x.reshape((1,) + x.shape)
        squeeze = True
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(
            f"conv2d expects 4-D input and kernels, got {x.shape} and {kernels.shape}"
        )
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in}, kernels expect {kc}"
        )
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = kernels.data.reshape(c_out, c_in * kh * kw)
    out = np.einsum("of,bfp->bop", wmat, cols).reshape(b, c_out, ho, wo)

    def backward(outt):
        g = outt.grad.reshape(b, c_out, ho * wo)
        if kernels.requires_grad:
            dw = np.einsum("bop,bfp->of", g, cols).reshape(kernels.shape)
            _accum(kernels, dw)
        if x.requires_grad:
            dcols = np.einsum("of,bop->bfp", wmat, g)
            _accum(x, _col2im(dcols, x.data.shape, kh, kw, stride, padding))

    res = Tensor._make(out, (x, kernels), backward)
    if squeeze:
        res = res.reshape(res.shape[1:])
    return res


def concat_cols(tensors):
    """Concatenate 2-D tensors along axis 1 (used to join per-task logits)."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_cols needs at least one tensor")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.shape[0] != rows:
            raise ShapeError(
                f"concat_cols expects 2-D tensors with {rows} rows, got {t.shape}"
            )
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, out.grad[:, lo:hi])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=1),
                        tuple(tensors), backward)


# -- losses -------------------------------------------------------------------


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy.  logits: Tensor (B, K); labels: int array (B,)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy expects (B,K) logits and (B,) labels, "
            f"got {logits.shape} and {labels.shape}"
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    b = labels.shape[0]
    loss = -logp[np.arange(b), labels].mean()

    def backward(out):
        if logits.requires_grad:
            probs = np.exp(logp)
            probs[np.arange(b), labels] -= 1.0
            _accum(logits, float(out.grad) * probs / b)

    return Tensor._make(np.asarray(loss), (logits,), backward)


# -- backward traversal -------------------------------------------------------


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients land on each reachable tensor's ``.grad``; returns the list of
    leaf tensors (``requires_grad`` with no parents) that received a gradient.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    # Iterative post-order walk: a recursive closure is a reference cycle
    # that keeps the whole graph alive until the cycle collector runs.
    topo, seen = [], {id(loss)}
    stack = [(loss, iter(loss._parents))] if loss.requires_grad else []
    while stack:
        t, parents = stack[-1]
        for p in parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            topo.append(t)
    loss.grad = np.asarray(1.0)
    for t in reversed(topo):
        if t._backward is not None:
            t._backward(t)
    return [t for t in topo if t._backward is None and t.grad is not None]


def gradients(loss, params):
    """Backward pass returning {param: grad array}; missing grads are zeros."""
    for p in params:
        p.grad = None
    backward(loss)
    return {p: (p.grad if p.grad is not None else np.zeros(p.shape)) for p in params}


# -- finite-difference oracle -------------------------------------------------


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
