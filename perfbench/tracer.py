"""Outside-in tracer for spikecl: wraps entry points, records spans in memory.

Nothing under ``src/`` is edited.  Each entry point is replaced, for the
duration of a ``Tracer.installed()`` block, under the name its caller looks
up: ``from .x import y`` binds ``y`` into the importing module when it is
imported, so ``conv2d`` is wrapped as ``spikecl.network.conv2d`` (where
``step_fn`` finds it), not as ``spikecl.tensor.conv2d``.

A span is ``(name, start, end, parent index)``; spans stay in a list until
``summary()`` turns them into per-layer metrics.  Self time is a span's
duration minus the durations of its direct children.  Kernel work
(``gflop``, ``mb``) is computed from argument shapes, not measured.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import spikecl.cli
import spikecl.metrics
import spikecl.network
import spikecl.streams
import spikecl.trainer
from spikecl.network import Network
from spikecl.tensor import Tensor

_clock = time.perf_counter

# (module or class, attribute, span name); the attribute is looked up there
# at call time by the code that uses it.
ENTRY_POINTS = [
    (spikecl.cli, "run", "cli.run"),
    (spikecl.cli, "evaluate", "cli.evaluate"),
    (spikecl.cli, "learn_task", "trainer.learn_task"),
    (spikecl.cli, "til_evaluate", "trainer.til_evaluate"),
    (spikecl.cli, "cil_evaluate", "trainer.cil_evaluate"),
    (spikecl.streams, "default_synthetic_stream",
     "streams.default_synthetic_stream"),
    (spikecl.metrics, "energy_report", "metrics.energy_report"),
    (spikecl.network, "conv2d", "tensor.conv2d"),
    (spikecl.network, "lif_step", "spiking.lif_step"),
    (spikecl.network, "run_window", "spiking.run_window"),
    (spikecl.trainer, "gradients", "tensor.backward"),
    (spikecl.trainer, "similarity_vector", "similarity.similarity_vector"),
    (spikecl.trainer, "calibrate_heads", "trainer.calibrate_heads"),
    (spikecl.trainer, "accumulate_gradients",
     "plasticity.accumulate_gradients"),
    (spikecl.trainer, "update_relatedness", "plasticity.update_relatedness"),
    (spikecl.trainer, "apply_pruning", "plasticity.apply_pruning"),
    (spikecl.trainer.Adam, "step", "trainer.Adam.step"),
    (spikecl.trainer.ReplayBuffer, "update", "trainer.ReplayBuffer.update"),
    (Network, "forward_task", "network.forward_task"),
    (Network, "extract_features", "network.extract_features"),
    (Network, "save", "network.save"),
    (Network, "load", "network.load"),
    (Tensor, "matmul", "tensor.matmul"),
]

# Names whose total and call count are reported as ``<name>.s`` / ``.calls``.
TIMED = sorted({name for _, _, name in ENTRY_POINTS}
               | {"tensor.conv2d.backward", "tensor.matmul.backward"})


def _conv_out(extent, k, stride, padding):
    return (extent + 2 * padding - k) // stride + 1


class Tracer:
    """Span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = defaultdict(float)
        self._seen_rows = set()
        self._tracked = {}

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, None, None, parent))
        self._stack.append(idx)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _caller(self):
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn):
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            span = name
            if pre is not None:
                span = pre(*args, **kwargs) or name
            out = self._call(span, fn, args, kwargs)
            if post is not None:
                post(out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, tensor, name):
        """Time the backward closure of an op's result tensor."""
        fn = tensor._backward
        if fn is not None:
            tensor._backward = lambda out: self._call(name, fn, (out,), {})

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in ENTRY_POINTS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr,
                            staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- counters read at the boundaries ----------------------------------

    def _pre_tensor_conv2d(self, x, kernels, stride=1, padding=0):
        b, c_in, h, w = x.shape
        c_out, _, kh, kw = kernels.shape
        ho = _conv_out(h, kh, stride, padding)
        wo = _conv_out(w, kw, stride, padding)
        self.counts["tensor.conv2d.flop"] += (2 * b * c_out * c_in * kh * kw
                                              * ho * wo)
        self.counts["tensor.conv2d.bytes"] += 8 * (x.size + kernels.size
                                                   + b * c_out * ho * wo)

    def _post_tensor_conv2d(self, out, *args, **kwargs):
        self._wrap_backward(out, "tensor.conv2d.backward")

    def _pre_tensor_matmul(self, a, other):
        (m, k), n = a.shape, other.shape[1]
        self.counts["tensor.matmul.flop"] += 2 * m * k * n
        self.counts["tensor.matmul.bytes"] += 8 * (m * k + k * n + m * n)

    def _post_tensor_matmul(self, out, *args):
        self._wrap_backward(out, "tensor.matmul.backward")

    def _forward(self, network, x, task_id):
        rows = x.shape[0] if np.ndim(x) == 4 else 1
        mask = network.masks[task_id]
        self.counts["network.active_units"] += rows * sum(
            int(a.sum()) for a in mask.active)
        self.counts["network.computed_units"] += rows * sum(
            layer.width for layer in network.layers)
        return rows

    def _pre_network_forward_task(self, network, x, task_id, cfg=None):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        self.counts["network.forward_task.rows"] += self._forward(
            network, data, task_id)

    def _pre_network_extract_features(self, network, x, task_id, cfg=None):
        data = np.asarray(x.data if isinstance(x, Tensor) else x)
        rows = self._forward(network, data, task_id)
        self.counts["network.extract_features.rows"] += rows
        flat = np.ascontiguousarray(data).reshape(rows, -1)
        repeats = 0
        for row in flat:
            key = (task_id, hash(row.tobytes()))
            if key in self._seen_rows:
                repeats += 1
            else:
                self._seen_rows.add(key)
        self.counts["network.extract_features.repeat_rows"] += repeats
        if self._caller() == "similarity.similarity_vector":
            self.counts["similarity.probe_rows"] += rows

    def _post_network_save(self, out, network, path):
        self.counts["network.checkpoint_bytes"] = os.path.getsize(path)

    def _pre_trainer_learn_task(self, network, task, cfg, buffer=None):
        return f"trainer.learn_task#{task.id}"

    def _pre_plasticity_update_relatedness(self, state, network, epoch=None):
        self._tracked[id(state)] = sum(int(ids.size) for ids in state.unit_ids)

    def _pre_plasticity_apply_pruning(self, network, task_id, doomed,
                                      state=None):
        self.counts["plasticity.units_pruned"] += len(doomed)

    # -- summary ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics of the spans and counters recorded so far."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            base, _, task = name.partition("#")
            calls[base] += 1
            total[base] += end - start
            self_s[base] += end - start - child[i]
            if task:
                total[f"{base}.s.task{task}"] += end - start

        out = {}
        for name in TIMED:
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = total[name]
        for name in ("tensor.backward", "spiking.run_window",
                     "trainer.calibrate_heads", "trainer.learn_task"):
            out[name + ".self_s"] = self_s[name]
        for name, secs in total.items():
            if ".s.task" in name:
                out[name] = secs
        c = self.counts
        for op in ("conv2d", "matmul"):
            key = f"tensor.{op}"
            out[key + ".gflop"] = c[key + ".flop"] / 1e9
            out[key + ".mb"] = c[key + ".bytes"] / 1e6
            secs = out[key + ".s"]
            out[key + ".gflops"] = out[key + ".gflop"] / secs if secs else 0.0
        for key in ("network.forward_task.rows", "network.extract_features.rows",
                    "network.checkpoint_bytes", "similarity.probe_rows",
                    "plasticity.units_pruned"):
            out[key] = c[key]
        rows = c["network.extract_features.rows"]
        out["network.extract_features.repeat_share"] = (
            c["network.extract_features.repeat_rows"] / rows if rows else 0.0)
        computed = c["network.computed_units"]
        out["network.active_unit_share"] = (
            c["network.active_units"] / computed if computed else 0.0)
        out["plasticity.units_tracked"] = float(sum(self._tracked.values()))
        out["network.frozen_share_of_run"] = self._frozen_share()
        return out

    def _frozen_share(self):
        """Share of ``cli.run`` spent in calibrate_heads or extract_features.

        A span counts once: extract_features calls made inside
        calibrate_heads are already part of that span.
        """
        frozen = ("trainer.calibrate_heads", "network.extract_features")
        context = {}  # span index -> "run" (inside cli.run) or "frozen"
        busy = run = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            outer = context.get(parent)
            if name == "cli.run":
                run += end - start
                context[i] = "run"
            elif outer == "run" and name in frozen:
                busy += end - start
                context[i] = "frozen"
            elif outer is not None:
                context[i] = outer
        return busy / run if run else 0.0
