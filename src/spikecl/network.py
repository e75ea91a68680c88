"""Expandable layered spiking network that grows a block of units per task.

A ``Network`` starts with zero-width layers whose geometry (kind, input
units, columns per input unit, output spatial shape) is fixed by the
architecture and input shape.  ``Network.expand`` is the only code that
creates weights: it appends a block of units per layer for a task, the first
task included, and it is the one place that enforces task order.
``Network.load`` builds the same empty network and fills in the saved arrays
after checking their shapes against that geometry.

Each layer owns one dense weight array covering every unit ever created.  A
task only ever adds units, so the subnetwork it was learned on is the leading
block (prefix) of every layer as it stood then, and its state keeps that
shape for good.  Its mask widths are the one record of that prefix: task t
owns the units between task t-1's mask widths and its own
(``Network.owned``).  From them derive

* which synapses exist: a row owned by task p reads the input units of p's
  prefix, so an old unit never gains input synapses;
* which entries are trainable: the rows the latest task owns (``parameters``).

``TaskMask`` holds per-task active units over its prefix; pruning
deactivates whole units here and never touches other tasks' masks.  The head
reads exactly the active final-layer units, and the task's head and feature
anchors have its prefix's feature width.  The connections a task uses are
derived: existing synapses between its active units.

A task's forward gathers, once per window, each layer's rows of the task's
active units and the columns of the active units below, so a pruned unit is
absent from it: it is never computed and feeds nothing.  No weight is masked:
old rows are zero outside their synapses and never train.  Convolutional
layers treat a channel as one unit.

The forward runs layer by layer over the whole window: per layer one product
and one LIF recurrence.  Layer 0's input is the same at every step, so its
current is computed once and held; every later layer's product reads the
window-stacked ``(T*B, ...)`` spikes of the layer below.  Training runs it
on the graph, to the last layer's spikes (``forward_task``); every pass that
needs no gradient runs the same ops in the same order on arrays (``infer``),
so its values are equal bit for bit.  The head runs on arrays only.  Every
parameter is an array; the graph's leaves are the entries a step gathers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (ConfigError, ContractError, FormatError, NumericalError,
                     ShapeError)
from .spiking import LIFConfig, lif_step, lif_window, rate, run_window
from .tensor import Tensor, _conv_geometry, conv2d, conv_forward, gather

FORMAT_VERSION = 6


@dataclass(frozen=True)
class ConvSpec:
    channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1


@dataclass(frozen=True)
class DenseSpec:
    units: int


def _spec_units(spec):
    return spec.channels if isinstance(spec, ConvSpec) else spec.units


def head_logits(features, w, b):
    """``features @ w.T + b``, checked finite: the one head forward.  It
    reads a copy of ``w.T``, as a dense layer does: BLAS rounds a product
    with the transposed view differently on many shapes, and slower."""
    logits = features @ w.T.copy() + b
    if not np.all(np.isfinite(logits)):
        raise NumericalError("logits are not finite")
    return logits


def head_gradients(features, grad):
    """``head_logits``' weight and bias gradients from ``grad``, the
    logits' gradient: the one head gradient, each summed from +0.0."""
    g = grad + 0.0  # contiguous, and -0.0 as +0.0
    return (features.T @ g).T + 0.0, g.sum(axis=0) + 0.0


def _leaf(p, rows, cols=None):
    """A graph leaf holding ``gather(p, rows, cols)``: ``p`` itself, not a
    copy, when the indices cover every row and column."""
    whole = rows.size == len(p) and (cols is None or cols.size == p.shape[1])
    return Tensor(p if whole else gather(p, rows, cols), requires_grad=True)


def _he_init(rng, shape, fan_in):
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


class Layer:
    """One feature layer: its weights and the fixed geometry they live in.

    ``block`` is the number of weight columns per input unit (H*W of the
    previous conv output at a conv->dense seam, else 1) and ``out_shape`` the
    spatial shape of one unit's output: (H, W) for conv, () for dense.  A new
    layer has width zero; ``grow`` adds units.
    """

    def __init__(self, kind, spec, in_units, block, out_shape):
        self.kind = kind  # "conv" | "dense"
        self.spec = spec
        self.block = block
        self.out_shape = tuple(out_shape)
        kernel = (spec.kernel, spec.kernel) if kind == "conv" else ()
        self.w = np.zeros((0, in_units * block) + kernel)
        self.b = np.zeros(0)

    @property
    def width(self):
        return self.w.shape[0]

    @property
    def in_units(self):
        return self.w.shape[1] // self.block

    @property
    def macs_per_bit(self):
        """Multiply-accumulates one connection bit costs per forward step."""
        return (self.block * math.prod(self.w.shape[2:])
                * math.prod(self.out_shape))

    def grow(self, rng, n_new, n_new_in):
        """Add ``n_new`` units after the existing ones.

        ``n_new_in`` units were just added to the layer below; new units read
        every input unit, old units never gain input synapses.
        """
        old_out, old_in = self.width, self.in_units
        new_in = old_in + n_new_in
        row = (new_in * self.block,) + self.w.shape[2:]
        w = np.zeros((old_out + n_new,) + row)
        w[:old_out, : old_in * self.block] = self.w
        if n_new:
            w[old_out:] = _he_init(rng, (n_new,) + row, math.prod(row))
        self.w = w
        self.b = np.concatenate([self.b, np.zeros(n_new)])


class TaskMask:
    """Active units of one task, at its prefix widths."""

    def __init__(self, active):
        self.active = active  # list of bool (width,) per layer


class TaskHead:
    def __init__(self, classes, w, b):
        self.classes = list(classes)
        self.w, self.b = w, b
        # CIL inference uses calibrated copies so the TIL head stays frozen
        self.sync_cil()

    def sync_cil(self):
        self.cil_w = self.w.copy()
        self.cil_b = self.b.copy()


class Network:
    """The expandable SNN plus all per-task bookkeeping."""

    def __init__(self, arch, input_shape, lif, seed):
        if not arch:
            raise ConfigError("architecture must list at least one layer")
        if not isinstance(arch[-1], DenseSpec):
            raise ConfigError("final feature layer must be dense")
        for spec in arch:
            n = _spec_units(spec)
            if n <= 0:
                raise ConfigError(f"layer sizes must be positive, got {n}")
            if isinstance(spec, ConvSpec) and (
                    spec.kernel < 1 or spec.stride < 1 or spec.padding < 0):
                raise ConfigError(f"conv kernel and stride must be positive "
                                  f"and padding non-negative, got {spec}")
        seen_dense = False
        for spec in arch:
            if isinstance(spec, DenseSpec):
                seen_dense = True
            elif seen_dense:
                raise ConfigError("conv layers must precede dense layers")
        self.arch = list(arch)
        self.input_shape = tuple(input_shape)
        self.lif = lif
        self.seed = int(seed)
        self.masks = {}
        self.heads = {}
        self.anchors = {}  # task_id -> {class: mean feature vector}
        # geometry is fixed here: expansion is by unit (channel), never spatial
        self.layers = []
        units, spatial = self.input_shape[0], self.input_shape[1:]
        for spec in self.arch:
            if isinstance(spec, ConvSpec):
                out = _conv_geometry(*spatial, spec.kernel, spec.kernel,
                                     spec.stride, spec.padding)
                layer = Layer("conv", spec, units, 1, out)
            else:
                layer = Layer("dense", spec, units, math.prod(spatial), ())
            self.layers.append(layer)
            units, spatial = layer.width, layer.out_shape

    # -- construction --------------------------------------------------------

    def expand(self, task, counts):
        """Add ``counts[li]`` units to layer li for ``task``; open its mask.

        On an empty network this builds the first task's layers.  Tasks
        arrive in id order: ``task.id`` must equal the number of tasks.
        """
        if task.id in self.masks:
            raise ContractError(f"task {task.id} already present")
        if task.id != len(self.masks):
            raise ContractError(f"tasks must arrive in id order: expected id "
                                f"{len(self.masks)}, got {task.id}")
        if len(counts) != len(self.layers):
            raise ContractError(
                f"expected {len(self.layers)} expansion counts, got {len(counts)}"
            )
        rng = np.random.default_rng([self.seed, task.id])
        prev_new = 0  # input channels never grow
        for li, layer in enumerate(self.layers):
            n_new = int(counts[li])
            if n_new < 0:
                raise ContractError("expansion counts must be non-negative")
            layer.grow(rng, n_new, prev_new)
            prev_new = n_new
        feat = self.layers[-1].width
        self.masks[task.id] = TaskMask(
            [np.ones(l.width, dtype=bool) for l in self.layers])
        self.heads[task.id] = TaskHead(
            task.classes,
            _he_init(rng, (len(task.classes), feat), feat),
            np.zeros(len(task.classes)),
        )

    # -- forward -------------------------------------------------------------

    def _require_mask(self, task_id):
        if task_id not in self.masks:
            raise KeyError(f"unknown task {task_id}")
        return self.masks[task_id]

    def _gathers(self, shape, task_id):
        """Check an input batch's ``shape``; yield each layer's index, the
        layer, the rows of the task's active units and the columns of the
        active units below it (``block`` columns per input unit)."""
        if len(shape) != 4 or tuple(shape[1:]) != self.input_shape:
            raise ShapeError(f"input shape {tuple(shape[1:])} does not match "
                             f"network input {self.input_shape}")
        below = np.arange(self.input_shape[0])  # active units of the input
        for li, (layer, active) in enumerate(
                zip(self.layers, self._require_mask(task_id).active)):
            rows = np.flatnonzero(active)
            yield li, layer, rows, (below[:, None] * layer.block
                                    + np.arange(layer.block)).ravel()
            below = rows

    def forward_task(self, x, task_id):
        """Masked forward of an input array, checked finite, on the graph:
        the task's active final-layer units' ``(T*B, n)`` spikes, and one
        ``(leaf, rows, cols)`` read per layer weight and bias: each layer
        computes its ``_gathers`` only."""
        h, reads = Tensor(x), []
        if not np.all(np.isfinite(h.data)):
            raise NumericalError("input is not finite")
        for li, layer, rows, cols in self._gathers(h.shape, task_id):
            w, b = _leaf(layer.w, rows, cols), _leaf(layer.b, rows)
            reads += [(w, rows, cols), (b, rows, None)]
            if layer.kind == "conv":
                cur = conv2d(h, w, layer.spec.stride, layer.spec.padding)
            else:
                if len(h.shape) > 2:
                    h = h.reshape(h.shape[0], cols.size)
                cur = h.matmul(w.transpose())
            h = run_window(lif_step, cur.add_bias(b), self.lif,
                           held=(li == 0))
        return h, reads

    def infer(self, x, task_id):
        """The ``rate`` of ``forward_task``'s spikes on arrays, by the same
        ops in the same order: for every pass that needs no gradient."""
        h = np.asarray(x, dtype=np.float64)
        for li, layer, rows, cols in self._gathers(h.shape, task_id):
            w, b = gather(layer.w, rows, cols), layer.b[rows]
            if layer.kind == "conv":
                cur = conv_forward(h, w, layer.spec.stride,
                                   layer.spec.padding)[0]
                cur += b[:, None, None]
            else:
                cur = h.reshape(h.shape[0], cols.size) @ w.T.copy()
                cur += b
            h = lif_window(lif_step, cur, self.lif, held=(li == 0))[1]
        return rate(h, self.lif.window)

    def extract_features(self, x, task_id):
        """``infer`` at the task's prefix width: a pruned unit reads 0."""
        active = self._require_mask(task_id).active[-1]
        features = np.zeros((len(x), active.size))
        features[:, active] = self.infer(x, task_id)
        return features

    def cil_logits(self, features, task_id):
        """Logits of ``task_id``'s CIL head copy over ``extract_features``."""
        head = self.heads[task_id]
        return head_logits(features, head.cil_w, head.cil_b)

    def parameters(self, task_id):
        """(array, first trainable row) pairs while learning ``task_id``, in
        the order ``forward_task`` reads them: each layer's weight and bias
        from the first unit the task owns, then the head, whole."""
        params = []
        for layer, own in zip(self.layers, self.owned(task_id)):
            params += [(layer.w, own.start), (layer.b, own.start)]
        head = self.heads[task_id]
        return params + [(head.w, 0), (head.b, 0)]

    # -- pruning -------------------------------------------------------------

    def prune_units(self, task_id, doomed):
        """Disconnect old units from ``task_id``'s subnetwork entirely.

        ``doomed`` is an iterable of (layer_index, unit_index).  Old tasks'
        masks are untouched; the unit's own pathway under its original task
        stays intact.
        """
        mask = self._require_mask(task_id)
        owned = self.owned(task_id)
        for li, u in doomed:
            if u in owned[li]:
                raise ContractError(
                    f"cannot prune unit {u} of layer {li}: it belongs to the "
                    f"current task {task_id}"
                )
            mask.active[li][u] = False

    def _widths(self, task_id):
        """Per-layer widths of ``task_id``'s prefix (zeros for task -1)."""
        if task_id < 0:
            return [0] * len(self.layers)
        return [a.size for a in self.masks[task_id].active]

    def _in_widths(self, task_id):
        """Per-layer input units a row owned by ``task_id`` reads."""
        return [self.input_shape[0]] + self._widths(task_id)[:-1]

    def owned(self, task_id):
        """Per-layer range of the units ``task_id`` added to the network."""
        return [range(lo, hi) for lo, hi in zip(self._widths(task_id - 1),
                                                self._widths(task_id))]

    def synapses(self, li):
        """(width, in_units) bits of layer ``li``: which synapses exist."""
        layer = self.layers[li]
        exist = np.zeros((layer.width, layer.in_units), dtype=bool)
        for t in self.masks:
            rows = self.owned(t)[li]
            exist[rows.start:rows.stop, :self._in_widths(t)[li]] = True
        return exist

    def connections(self, task_id):
        """Per-layer (width, in_units) bits over ``task_id``'s prefix: the
        synapses that exist between its active units."""
        active = self._require_mask(task_id).active
        inputs = [np.ones(self.input_shape[0], dtype=bool)] + active[:-1]
        return [self.synapses(li)[:a.size, :i.size] & a[:, None] & i
                for li, (a, i) in enumerate(zip(active, inputs))]

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        meta = {
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "input_shape": list(self.input_shape),
            "lif": asdict(self.lif),
            "arch": [
                {"kind": "conv", "channels": s.channels, "kernel": s.kernel,
                 "stride": s.stride, "padding": s.padding}
                if isinstance(s, ConvSpec) else {"kind": "dense", "units": s.units}
                for s in self.arch
            ],
            "tasks": {
                str(t): {"classes": self.heads[t].classes} for t in self.masks
            },
            "anchor_classes": {
                str(t): sorted(self.anchors[t]) for t in self.anchors
            },
        }
        arrays = {"__meta__": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)}
        for li, layer in enumerate(self.layers):
            arrays[f"layer{li}/w"] = layer.w
            arrays[f"layer{li}/b"] = layer.b
        for t, mask in self.masks.items():
            for li in range(len(self.layers)):
                arrays[f"task{t}/active{li}"] = mask.active[li]
            head = self.heads[t]
            arrays[f"task{t}/head_w"] = head.w
            arrays[f"task{t}/head_b"] = head.b
            arrays[f"task{t}/cil_w"] = head.cil_w
            arrays[f"task{t}/cil_b"] = head.cil_b
        for t, anch in self.anchors.items():
            for c in anch:
                arrays[f"anchor{t}/{c}"] = anch[c]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def load(path):
        """Rebuild a saved network, checking every array against the geometry
        and the prefix widths its masks give."""
        try:
            data = np.load(path)
            meta = json.loads(bytes(data["__meta__"]).decode())
        except Exception as exc:
            raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"checkpoint {path} has malformed metadata: "
                              f"not a JSON object")
        if meta.get("version") != FORMAT_VERSION:
            raise FormatError(
                f"checkpoint version {meta.get('version')} unsupported"
            )
        try:
            arch = [
                ConvSpec(s["channels"], s["kernel"], s["stride"], s["padding"])
                if s["kind"] == "conv" else DenseSpec(s["units"])
                for s in meta["arch"]
            ]
            net = Network(arch, meta["input_shape"], LIFConfig(**meta["lif"]),
                          meta["seed"])
            classes = {int(t): list(info["classes"])
                       for t, info in meta["tasks"].items()}
            anchor_classes = {int(t): list(c)
                              for t, c in meta["anchor_classes"].items()}
        except (AttributeError, KeyError, TypeError, ValueError,
                IndexError) as exc:
            raise FormatError(f"checkpoint {path} has malformed metadata: "
                              f"{exc!r}") from exc
        tasks = list(range(len(classes)))
        if sorted(classes) != tasks or not set(anchor_classes) <= set(tasks):
            raise FormatError(f"checkpoint {path}: task ids must be 0..T-1 "
                              f"and anchor tasks among them, got tasks "
                              f"{sorted(classes)}, anchors "
                              f"{sorted(anchor_classes)}")

        def array(name, shape=None, kind="f"):
            if name not in data.files:
                raise FormatError(f"checkpoint {path} lacks array {name}")
            try:
                arr = data[name]
            except ValueError as exc:  # an object array would need pickle
                raise FormatError(f"checkpoint array {name}: {exc}") from exc
            if arr.dtype.kind != kind:
                raise FormatError(f"checkpoint array {name} has dtype "
                                  f"{arr.dtype}")
            if shape is not None and arr.shape != tuple(shape):
                raise FormatError(f"checkpoint array {name} has shape "
                                  f"{arr.shape}, expected {tuple(shape)}")
            if not np.isfinite(arr).all():
                raise FormatError(f"checkpoint array {name} is not finite")
            return arr

        for t in tasks:  # the masks give every width checked below
            prev = net._widths(t - 1)
            active = [array(f"task{t}/active{li}", kind="b")
                      for li in range(len(arch))]
            for li, a in enumerate(active):
                if a.ndim != 1:
                    raise FormatError(f"checkpoint array task{t}/active{li} "
                                      f"has shape {a.shape}, expected 1-D")
                if a.size < prev[li]:
                    raise FormatError(
                        f"checkpoint array task{t}/active{li} has {a.size} "
                        f"units, fewer than task {t - 1}'s {prev[li]}")
            net.masks[t] = TaskMask(active)
        last = len(tasks) - 1
        rows = net._widths(last)
        for li, (layer, cols) in enumerate(zip(net.layers,
                                               net._in_widths(last))):
            w_shape = (rows[li], cols * layer.block) + layer.w.shape[2:]
            layer.w = array(f"layer{li}/w", w_shape)
            layer.b = array(f"layer{li}/b", (rows[li],))
            # the forward reads whole rows
            outside = ~np.repeat(net.synapses(li), layer.block, axis=1)
            if layer.w[outside].any():
                raise FormatError(f"checkpoint array layer{li}/w has "
                                  f"nonzero weights outside synapses")
        for t, cls in classes.items():
            head_shape = (len(cls), net._widths(t)[-1])
            head = TaskHead(cls, array(f"task{t}/head_w", head_shape),
                            array(f"task{t}/head_b", head_shape[:1]))
            head.cil_w = array(f"task{t}/cil_w", head_shape)
            head.cil_b = array(f"task{t}/cil_b", head_shape[:1])
            net.heads[t] = head
        for t, cls in anchor_classes.items():
            feat = net._widths(t)[-1]
            net.anchors[t] = {c: array(f"anchor{t}/{c}", (feat,)) for c in cls}
        return net


def init_first_task(arch, input_shape, task0, lif=None, seed=0):
    """Build the network and grow the first task's units from nothing."""
    net = Network(arch, input_shape, lif or LIFConfig(), seed)
    net.expand(task0, [_spec_units(s) for s in net.arch])
    return net
