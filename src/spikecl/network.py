"""Expandable layered spiking network with per-task neuron populations.

A ``Network`` starts with zero-width layers whose geometry (kind, input
units, columns per input unit, output spatial shape) is fixed by the
architecture and input shape.  ``Network.expand`` is the only code that
creates weights: it appends one population per layer for a task, the first
task included.  ``Network.load`` builds the same empty network and fills in
the saved arrays after checking their shapes against that geometry.

Each layer owns one dense weight array covering every unit ever created.  A
task only ever adds units, so the subnetwork it was learned on is the leading
block (prefix) of every layer as it stood then, and its state keeps that
shape for good:

* which synapses exist -- derived from populations: a row of task p's
  population reads the input units of p's prefix, so an old unit never
  gains input synapses;
* which entries are trainable -- derived from populations: the rows of the
  latest task's population only;
* ``TaskMask`` -- per-task active units and connection bits over its
  prefix; pruning deactivates whole units here and never touches other
  tasks' masks.  The head reads exactly the active final-layer units, and
  the task's head and feature anchors have its prefix's feature width.

A task's forward crops the shared weights to its prefix.  Convolutional
layers treat a channel as one unit; connection bits between a conv layer and
the following dense layer are kept at channel level and ``Layer.weight_mask``
expands them to the flattened column block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError, ShapeError
from .spiking import LIFConfig, SpikeState, lif_step, run_window
from .tensor import Tensor, _conv_geometry, conv2d, no_grad

FORMAT_VERSION = 4


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


@dataclass
class NeuronPopulation:
    task_id: int
    layer: int
    start: int
    stop: int  # exclusive

    @property
    def size(self):
        return self.stop - self.start


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
        self.w = Tensor(np.zeros((0, in_units * block) + kernel),
                        requires_grad=True)
        self.b = Tensor(np.zeros(0), requires_grad=True)
        self.populations = []

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

    def weight_mask(self, conn):
        """Expand (width, in_units) connection bits to broadcast over ``w``."""
        cols = np.repeat(conn, self.block, axis=1)
        return cols.reshape(cols.shape + (1,) * (self.w.data.ndim - 2))

    def unit_mask(self, active):
        """Reshape per-unit bits to broadcast over (batch, width, *out_shape)."""
        return active.reshape((1, -1) + (1,) * len(self.out_shape))

    def grow(self, rng, n_new, n_new_in):
        """Add ``n_new`` units after the existing ones.

        ``n_new_in`` units were just added to the layer below; new units read
        every input unit, old units never gain input synapses.
        """
        old_out, old_in = self.width, self.in_units
        new_in = old_in + n_new_in
        row = (new_in * self.block,) + self.w.shape[2:]
        w = np.zeros((old_out + n_new,) + row)
        w[:old_out, : old_in * self.block] = self.w.data
        if n_new:
            w[old_out:] = _he_init(rng, (n_new,) + row, math.prod(row))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.concatenate([self.b.data, np.zeros(n_new)]),
                        requires_grad=True)


class TaskMask:
    """Active units and connection bits of one task, at its prefix widths."""

    def __init__(self, active, conn):
        self.active = active  # list of bool (width,) per layer
        self.conn = conn  # list of bool (width, in_units) per layer

    @property
    def head_active(self):
        """Head input bits: the final feature layer's active units."""
        return self.active[-1]

    def copy(self):
        return TaskMask([a.copy() for a in self.active],
                        [c.copy() for c in self.conn])


class TaskHead:
    def __init__(self, task_id, classes, w, b):
        self.task_id = task_id
        self.classes = list(classes)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(b, requires_grad=True)
        # CIL inference uses calibrated copies so the TIL head stays frozen.
        self.sync_cil()

    def sync_cil(self):
        self.cil_w = Tensor(self.w.data.copy(), requires_grad=True)
        self.cil_b = Tensor(self.b.data.copy(), requires_grad=True)


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
        """Add one population per layer for ``task`` and open its mask.

        On an empty network this builds the first task's layers.
        """
        if task.id in self.masks:
            raise ContractError(f"task {task.id} already present")
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
            old_out = layer.width
            layer.grow(rng, n_new, prev_new)
            layer.populations.append(
                NeuronPopulation(task.id, li, old_out, old_out + n_new)
            )
            prev_new = n_new
        feat = self.layers[-1].width
        self.masks[task.id] = TaskMask(
            [np.ones(l.width, dtype=bool) for l in self.layers],
            [self.synapses(li) for li in range(len(self.layers))],
        )
        self.heads[task.id] = TaskHead(
            task.id, task.classes,
            _he_init(rng, (len(task.classes), feat), feat),
            np.zeros(len(task.classes)),
        )

    # -- forward -------------------------------------------------------------

    def _require_mask(self, task_id):
        if task_id not in self.masks:
            raise KeyError(f"unknown task {task_id}")
        return self.masks[task_id]

    def step_fn(self, task_id, cfg=None):
        """Single-timestep closure over the feature layers for ``task_id``.

        Weights are cropped to the task's prefix and masked once per window.
        """
        mask = self._require_mask(task_id)
        cfg = cfg or self.lif
        params = []
        for layer, conn in zip(self.layers, mask.conn):
            rows, cols = conn.shape
            weff = layer.w.crop(rows, cols * layer.block).mask_mul(
                layer.weight_mask(conn))
            if layer.kind == "dense":
                weff = weff.transpose()
            params.append((weff, layer.b.crop(rows)))

        def step(x, states):
            if states is None:
                states = [SpikeState.zeros((x.shape[0], a.size) + l.out_shape)
                          for a, l in zip(mask.active, self.layers)]
            h = x
            new_states = []
            for li, layer in enumerate(self.layers):
                weff, bias = params[li]
                if layer.kind == "conv":
                    cur = conv2d(h, weff, layer.spec.stride, layer.spec.padding)
                else:
                    if len(h.shape) > 2:
                        h = h.reshape(h.shape[0], -1)
                    cur = h.matmul(weff)
                cur = cur.add_bias(bias)
                cur = cur.mask_mul(layer.unit_mask(mask.active[li]))
                state = lif_step(states[li], cur, cfg)
                new_states.append(state)
                h = state.spikes
            return h, new_states

        return step

    def features_tensor(self, x, task_id, cfg=None):
        """Rate-coded final feature-layer output over the window (graph-recording)."""
        cfg = cfg or self.lif
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.data.ndim == 3:
            x = x.reshape((1,) + x.shape)
        if x.data.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match network input "
                f"{self.input_shape}"
            )
        return run_window(self.step_fn(task_id, cfg), x, cfg)

    def head_logits(self, features, task_id, cil=False):
        mask = self._require_mask(task_id)
        head = self.heads[task_id]
        w = head.cil_w if cil else head.w
        b = head.cil_b if cil else head.b
        weff = w.mask_mul(mask.head_active[None, :])
        return features.matmul(weff.transpose()).add_bias(b)

    def forward_task(self, x, task_id, cfg=None):
        """Masked forward; returns (logits over the task's classes, features)."""
        features = self.features_tensor(x, task_id, cfg)
        return self.head_logits(features, task_id), features

    def extract_features(self, x, task_id, cfg=None):
        """Features under an old task's mask, no gradient recording."""
        with no_grad():
            return self.features_tensor(x, task_id, cfg).data

    def parameters(self, task_id):
        """Trainable parameter tensors while learning ``task_id``."""
        head = self.heads[task_id]
        params = [head.w, head.b]
        for layer in self.layers:
            params.extend([layer.w, layer.b])
        return params

    # -- pruning -------------------------------------------------------------

    def prune_units(self, task_id, doomed):
        """Disconnect old units from ``task_id``'s subnetwork entirely.

        ``doomed`` is an iterable of (layer_index, unit_index).  Old tasks'
        masks are untouched; the unit's own pathway under its original task
        stays intact.
        """
        mask = self._require_mask(task_id)
        lo, hi = self._widths(task_id - 1), self._widths(task_id)
        for li, u in doomed:
            if lo[li] <= u < hi[li]:
                raise ContractError(
                    f"cannot prune unit {u} of layer {li}: it belongs to the "
                    f"current task {task_id}"
                )
            mask.active[li][u] = False
            mask.conn[li][u, :] = False
            if li + 1 < len(self.layers):
                mask.conn[li + 1][:, u] = False

    def _widths(self, task_id):
        """Per-layer widths once ``task_id`` was learned: the task's prefix."""
        return [max((p.stop for p in l.populations if p.task_id <= task_id),
                    default=0) for l in self.layers]

    def _in_widths(self, task_id):
        """Per-layer input units a row of ``task_id``'s populations reads."""
        return [self.input_shape[0]] + self._widths(task_id)[:-1]

    def synapses(self, li):
        """(width, in_units) bits of layer ``li``: which synapses exist."""
        layer = self.layers[li]
        exist = np.zeros((layer.width, layer.in_units), dtype=bool)
        for pop in layer.populations:
            exist[pop.start:pop.stop, :self._in_widths(pop.task_id)[li]] = True
        return exist

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        meta = {
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "input_shape": list(self.input_shape),
            "lif": {
                "tau": self.lif.tau, "v_th": self.lif.v_th, "lam": self.lif.lam,
                "window": self.lif.window, "reset_mode": self.lif.reset_mode,
            },
            "arch": [
                {"kind": "conv", "channels": s.channels, "kernel": s.kernel,
                 "stride": s.stride, "padding": s.padding}
                if isinstance(s, ConvSpec) else {"kind": "dense", "units": s.units}
                for s in self.arch
            ],
            "populations": [
                [p.task_id, p.layer, p.start, p.stop]
                for layer in self.layers for p in layer.populations
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
            arrays[f"layer{li}/w"] = layer.w.data
            arrays[f"layer{li}/b"] = layer.b.data
        for t, mask in self.masks.items():
            for li in range(len(self.layers)):
                arrays[f"task{t}/active{li}"] = mask.active[li]
                arrays[f"task{t}/conn{li}"] = mask.conn[li]
            head = self.heads[t]
            arrays[f"task{t}/head_w"] = head.w.data
            arrays[f"task{t}/head_b"] = head.b.data
            arrays[f"task{t}/cil_w"] = head.cil_w.data
            arrays[f"task{t}/cil_b"] = head.cil_b.data
        for t, anch in self.anchors.items():
            for c in anch:
                arrays[f"anchor{t}/{c}"] = anch[c]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def load(path):
        """Rebuild a saved network, checking every array against the geometry."""
        try:
            data = np.load(path)
            meta = json.loads(bytes(data["__meta__"]).decode())
        except Exception as exc:
            raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
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
            for tid, li, start, stop in meta["populations"]:
                net.layers[li].populations.append(
                    NeuronPopulation(tid, li, start, stop))
            classes = {int(t): info["classes"]
                       for t, info in meta["tasks"].items()}
            anchor_classes = {int(t): c
                              for t, c in meta["anchor_classes"].items()}
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"checkpoint {path} has malformed metadata: "
                              f"{exc!r}") from exc

        def array(name, shape):
            if name not in data.files:
                raise FormatError(f"checkpoint {path} lacks array {name}")
            arr = data[name]
            if arr.shape != tuple(shape):
                raise FormatError(f"checkpoint array {name} has shape "
                                  f"{arr.shape}, expected {tuple(shape)}")
            if not np.isfinite(arr).all():
                raise FormatError(f"checkpoint array {name} is not finite")
            return arr

        in_units = net.input_shape[0]
        for li, layer in enumerate(net.layers):
            width = 0
            for pop in layer.populations:
                if pop.start != width or pop.stop < pop.start:
                    raise FormatError(
                        f"checkpoint {path}: layer {li} populations do not "
                        f"tile its units")
                width = pop.stop
            w_shape = (width, in_units * layer.block) + layer.w.shape[2:]
            layer.w = Tensor(array(f"layer{li}/w", w_shape), requires_grad=True)
            layer.b = Tensor(array(f"layer{li}/b", (width,)), requires_grad=True)
            in_units = width
        for t, cls in classes.items():
            rows, cols = net._widths(t), net._in_widths(t)
            net.masks[t] = TaskMask(
                [array(f"task{t}/active{li}", (r,))
                 for li, r in enumerate(rows)],
                [array(f"task{t}/conn{li}", rc)
                 for li, rc in enumerate(zip(rows, cols))],
            )
            head_shape = (len(cls), rows[-1])
            head = TaskHead(t, cls, array(f"task{t}/head_w", head_shape),
                            array(f"task{t}/head_b", head_shape[:1]))
            head.cil_w = Tensor(array(f"task{t}/cil_w", head_shape),
                                requires_grad=True)
            head.cil_b = Tensor(array(f"task{t}/cil_b", head_shape[:1]),
                                requires_grad=True)
            net.heads[t] = head
        for t, cls in anchor_classes.items():
            feat = net._widths(t)[-1]
            net.anchors[t] = {c: array(f"anchor{t}/{c}", (feat,)) for c in cls}
        return net


def init_first_task(arch, input_shape, task0, lif=None, seed=0):
    """Build the network and grow the first task's populations from nothing."""
    net = Network(arch, input_shape, lif or LIFConfig(), seed)
    net.expand(task0, [_spec_units(s) for s in net.arch])
    return net
