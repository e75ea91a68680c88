"""Minimal dense-tensor reverse-mode autodiff.

Everything is float64 and row-major.  A ``Tensor`` wraps a numpy array and,
when an input requires a gradient, remembers how it was produced so that
``backward`` can run the chain rule over the (acyclic) graph.  Only the
training step builds one.  A caller defines an op with ``custom_op`` from a
value computed outside the graph and its vector-Jacobian product: a layer's
LIF window (``spiking.run_window``) is one node, and so is the loss on the
last window's spikes (``trainer.step_gradients``): the graph ends there.

The nodes are the training chain's and no others: ``transpose``,
``reshape``, ``matmul``, ``conv2d``, ``add_bias`` (the one broadcast form)
and ``custom_op``.  A graph's leaves are the parameter
entries one training step reads: ``gather`` copies a parameter's rows, then
columns of those rows, each one pass, and ``_scatter`` is its adjoint: it
assigns a leaf's gradient by column into a (rows, full width) block and the
block by row into zeros of the full shape.  A first gradient is
``g + 0.0``, one pass that gives the +0.0 a sum from zeros gives for -0.0.
Values are checked finite at the training step's boundary, not per node
nor per ``Tensor``: the input (``Network.forward_task``), the loss
(``trainer.step_gradients``), each LIF
window's membranes (``spiking.lif_window``) and Adam's update
(``trainer.Adam``).  A non-finite value computed inside the step reaches
one of them.  ``backward`` leaves gradients on leaves only.  ``conv2d``
takes batched (B, C, H, W) input and lowers it to im2col plus one BLAS GEMM
per sample, so a sample's output never depends on the rest of its batch;
``conv_forward`` is that forward on plain arrays, im2col a fixed block of
samples at a time.  im2col is one ``np.take`` and its adjoint one
``np.take`` per patch entry an input element can have, by index arrays
built once per geometry; the adjoint sums each element's entries from +0.0
in the order of their kernel offsets (i, j).  The forward keeps no
patches: the backward gathers them again as the rows of the kernel
gradient's GEMM, and the input gradient's GEMM writes into the zero-padded
buffer the adjoint gathers from.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, ContractError, ShapeError


class Tensor:
    """Dense float64 array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn):
        """A node of value ``data``, unchecked: the training step checks
        values at its boundaries (see the module docstring)."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward_fn if out.requires_grad else None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        new = self.data.reshape(shape)

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad.reshape(self.shape))

        return Tensor._make(new, (self,), backward)

    def transpose(self):
        if self.data.ndim != 2:
            raise ShapeError(f"transpose expects a 2-D tensor, got {self.shape}")

        def backward(out):
            if self.requires_grad:
                _accum(self, out.grad.T)

        return Tensor._make(self.data.T.copy(), (self,), backward)

    # -- linear algebra ------------------------------------------------------

    def matmul(self, other):
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

    def add_bias(self, bias):
        """Bias-add: (B,N)+(N,) or (B,C,H,W)+(C,)."""
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

    def custom_op(self, value, vjp):
        """A node whose ``value``, of any shape, the caller computed from
        ``self.data``; ``vjp(grad)`` maps the gradient of the value to the
        gradient of ``self``."""

        def backward(out):
            if self.requires_grad:
                _accum(self, vjp(out.grad))

        return Tensor._make(value, (self,), backward)


def _accum(t, g):
    """Add ``g`` into ``t.grad``.  A first write is ``g + 0.0`` in one pass:
    the sum from +0.0 that every entry starts at, so -0.0 lands as +0.0."""
    if t.grad is None:
        t.grad = np.add(g, 0.0, out=np.empty(t.shape))
    else:
        t.grad += g


def gather(a, rows, cols=None):
    """``a[rows][:, cols]`` (``a[rows]`` without ``cols``): a gather of
    whole rows, then of columns, each faster than one 2-D fancy index."""
    a = a[rows]
    return a if cols is None else a[:, cols]


def _scatter(g, shape, rows, cols=None):
    """``gather``'s adjoint into zeros of ``shape``, each entry summed from
    +0.0 (-0.0 lands as +0.0): ``g + 0.0`` assigned into a (rows, full
    width) block by column, then the block into the result by row; no
    ``+=`` on a fancy index."""
    g = g + 0.0
    if cols is not None:
        block = np.zeros((rows.size,) + shape[1:])
        block[:, cols] = g
        g = block
    if rows.size == shape[0]:
        return g
    out = np.zeros(shape)
    out[rows] = g
    return out


# -- convolution --------------------------------------------------------------


def _conv_geometry(h, w, kh, kw, stride, padding):
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ConfigError(
            f"conv kernel {kh}x{kw} is larger than its padded input: input "
            f"{h}x{w}, padding {padding}"
        )
    ho, rh = divmod(h + 2 * padding - kh, stride)
    wo, rw = divmod(w + 2 * padding - kw, stride)
    if rh or rw:
        raise ConfigError(
            f"conv output extent not integral: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    return ho + 1, wo + 1


# Samples per im2col block in ``conv_forward``: the forward's patches exist
# for one block at a time.  Blocks change no bit, since every sample is its
# own GEMM.
_SAMPLE_BLOCK = 32


@functools.lru_cache(maxsize=None)
def _patch_index(c, h, w, kh, kw, stride, padding):
    """The gathers of one conv geometry, built at its first use.

    ``src[e]`` is the flat input element that patch entry e = (c, i, j, oh,
    ow), in row-major order, reads: ``(c*h + r)*w + q`` at ``r = i +
    stride*oh - padding``, ``q = j + stride*ow - padding``, or ``c*h*w``,
    one zero past the input, where (r, q) is padding.  ``src_t`` is ``src``
    in (oh, ow, c, i, j) order, which gathers each sample's patches as rows.
    ``rounds[k, m]`` is input element m's k-th patch entry in ``src`` order,
    or ``src.size``, one zero past the patches, once it has no more.
    Returns (src, src_t, rounds, Ho, Wo)."""
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    n = c * h * w
    ci, i, j, oh, ow = np.ix_(range(c), range(kh), range(kw), range(ho),
                              range(wo))
    r, q = i + stride * oh - padding, j + stride * ow - padding
    inside = (0 <= r) & (r < h) & (0 <= q) & (q < w)
    src = np.where(inside, (ci * h + r) * w + q, n).ravel()
    src_t = src.reshape(c * kh * kw, ho * wo).T.ravel()
    # stable: an element's entries keep their order; padding sorts last
    entries = np.argsort(src, kind="stable")[:np.count_nonzero(src < n)]
    element = src[entries]
    counts = np.bincount(element, minlength=n)
    rank = np.arange(entries.size) - (np.cumsum(counts) - counts)[element]
    rounds = np.full((counts.max(initial=0), n), src.size)
    rounds[rank, element] = entries
    for a in (src, src_t, rounds):
        a.flags.writeable = False
    return src, src_t, rounds, ho, wo


def _flat(x, out=None):
    """(B, C*H*W + 1): each sample of x flat, with one zero column appended,
    which patch entries in the padding read; into ``out`` when given, whose
    last column is zero."""
    b, n = x.shape[0], math.prod(x.shape[1:])
    if out is None:
        out = np.zeros((b, n + 1))
    out[:, :-1] = x.reshape(b, n)
    return out


def _im2col(x, kh, kw, stride, padding, flat=None, out=None):
    """(B, C*kh*kw, Ho*Wo) patches, C-contiguous: one gather, no arithmetic,
    through ``_flat(x, flat)`` into ``out`` (B, C*kh*kw*Ho*Wo) when given.
    ``np.take`` rather than fancy indexing, which returns a non-contiguous
    result here and slows the GEMM that reads it; ``mode="clip"`` (every
    index is in range) so that it writes into ``out`` without a temporary."""
    b, c, h, w = x.shape
    src, _, _, ho, wo = _patch_index(c, h, w, kh, kw, stride, padding)
    cols = np.take(_flat(x, flat), src, axis=1, out=out, mode="clip")
    return cols.reshape(b, c * kh * kw, ho * wo), ho, wo


def _col2im(padded, xshape, kh, kw, stride, padding):
    """The adjoint of ``_im2col``, read from ``padded``: each sample's
    patches in ``_im2col``'s order, flat, with one zero column appended.
    Each input element is the sum, from +0.0, of its patch entries in that
    order, i.e. kernel offset (i, j) by (i, j), one gather round per entry.
    A round past an element's last entry adds the zero column's +0.0, which
    leaves the sum as it is: a sum begun at +0.0 is never -0.0."""
    b, c, h, w = xshape
    _, _, rounds, _, _ = _patch_index(c, h, w, kh, kw, stride, padding)
    x = np.zeros((b, c * h * w))
    for idx in rounds:
        x += np.take(padded, idx, axis=1)
    return x.reshape(xshape)


def conv_forward(x, kernels, stride=1, padding=0):
    """``conv2d``'s forward on arrays, im2col ``_SAMPLE_BLOCK`` samples at a
    time: returns (output, kernel matrix)."""
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernels, got "
                         f"{x.shape} and {kernels.shape}")
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input has {c_in}, "
                         f"kernels expect {kc}")
    src, _, _, ho, wo = _patch_index(c_in, h, w, kh, kw, stride, padding)
    wmat = kernels.reshape(c_out, c_in * kh * kw)
    out = np.empty((b, c_out, ho * wo))
    # Every block reuses one input and one patch buffer: a fresh pair per
    # block is heap churn that glibc trims and then faults back in.
    flat = np.zeros((min(b, _SAMPLE_BLOCK), c_in * h * w + 1))
    cols = np.empty((len(flat), src.size))
    # matmul broadcasts wmat: one GEMM per sample.  Stacking the batch into
    # one GEMM would not do: a BLAS row can depend on the rest of its batch.
    for s in range(0, b, _SAMPLE_BLOCK):
        m = min(b - s, _SAMPLE_BLOCK)
        np.matmul(wmat, _im2col(x[s:s + m], kh, kw, stride, padding,
                                flat[:m], cols[:m])[0], out=out[s:s + m])
    return out.reshape(b, c_out, ho, wo), wmat


def conv2d(x, kernels, stride=1, padding=0):
    """Batched 2-D cross-correlation of Tensors x (B, C_in, H, W) and
    kernels (C_out, C_in, kh, kw), differentiable w.r.t. both.  The forward
    and the input gradient run one GEMM per sample, so a sample's output
    never depends on the rest of its batch; the kernel gradient is one GEMM
    over the batch.  The forward keeps no patches: the backward gathers
    them again, straight into the (B*Ho*Wo, C_in*kh*kw) rows that GEMM
    reads, and drops them before the input gradient, whose GEMM writes
    into the zero-padded buffer ``_col2im`` reads."""
    out, wmat = conv_forward(x.data, kernels.data, stride, padding)
    b, c_out, ho, wo = out.shape
    (_, c_in, h, w), (kh, kw) = x.shape, kernels.shape[2:]
    k = wmat.shape[1]

    def backward(outt):
        g = outt.grad.reshape(b, c_out, ho * wo)
        if kernels.requires_grad:
            # np.dot on the operands, and their layouts, that
            # np.tensordot(g, patches, ([0, 2], [0, 2])) would pass it
            if b == 1:  # the patches' transposed view, not a copy
                rows = _im2col(x.data, kh, kw, stride, padding)[0][0].T
            else:
                src_t = _patch_index(c_in, h, w, kh, kw, stride, padding)[1]
                rows = np.take(_flat(x.data), src_t,
                               axis=1).reshape(b * ho * wo, k)
            dw = np.dot(g.transpose(1, 0, 2).reshape(c_out, b * ho * wo),
                        rows)
            del rows
            _accum(kernels, dw.reshape(kernels.shape))
        if x.requires_grad:
            padded = np.zeros((b, k * ho * wo + 1))
            np.matmul(wmat.T, g, out=padded[:, :-1].reshape(b, k, ho * wo))
            _accum(x, _col2im(padded, x.shape, kh, kw, stride, padding))

    return Tensor._make(out, (x, kernels), backward)


# -- losses -------------------------------------------------------------------


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy on arrays: logits (B, K), int labels (B,);
    returns (loss, its gradient w.r.t. the logits)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"softmax_cross_entropy expects (B,K) logits and (B,) labels, "
            f"got {logits.shape} and {labels.shape}"
        )
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(labels.shape[0])
    probs = np.exp(logp)
    probs[rows, labels] -= 1.0
    return -logp[rows, labels].mean(), probs / rows.size


# -- backward traversal -------------------------------------------------------


def backward(loss):
    """Run reverse-mode accumulation from a scalar loss.

    Gradients land on the ``.grad`` of each reachable leaf (``requires_grad``
    with no parents); returns the leaves that received one.  A node's own
    gradient is dropped once its backward has passed it to its parents, so
    after the walk only leaves hold one.
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
            t.grad = None  # its parents hold their share of it now
    return [t for t in topo if t._backward is None and t.grad is not None]


def gradients(loss, params):
    """Backward into fresh leaves ``params``: {param: grad}, zeros if none."""
    backward(loss)
    return {p: (p.grad if p.grad is not None else np.zeros(p.shape)) for p in params}

