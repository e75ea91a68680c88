"""Batch experiment runner.

``spikecl run <config.ini>`` executes a full task stream through the
per-task learning loop, evaluates TIL/CIL, and writes a report directory:
``report.json``, CSV series (accuracy matrix, similarity, pruning rates,
energy), and ``checkpoint.npz``.  ``trainer.calibrate_heads`` sets the CIL
head copies once, after the last task: fitted on a replay buffer when class
labels are disjoint, else each saved copy equals its trained TIL head.
``spikecl evaluate <checkpoint> <config>`` re-runs the evaluation protocols
on a saved network without training.

One schema (``_SECTIONS``; ``_STREAM_KINDS`` for ``[stream]``, which takes
``kind`` and that kind's keys only) converts each INI value and names the
keyword it sets; a key left out takes its callee's default.  The output
directory is made after the config, the stream and its inputs are checked,
and before any training or evaluation, so a failed check leaves none.

Exit codes: 0 success, 2 configuration/validation error, 3 training error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import re
import sys
import time
from pathlib import Path

from . import metrics, streams, trainer
from .errors import ConfigError, DataError, FormatError, TrainingError
from .network import ConvSpec, DenseSpec, Network
from .spiking import LIFConfig
from .trainer import (ReplayBuffer, TrainConfig, cil_evaluate, learn_task,
                      repeated_class, til_evaluate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3


def _parse_shape(text):
    try:
        parts = [int(p) for p in text.lower().split("x")]
    except ValueError:
        parts = []
    if len(parts) != 3 or any(p <= 0 for p in parts):
        raise ConfigError(f"shape must be CxHxW with positive extents: {text!r}")
    return tuple(parts)


_CONV_RE = re.compile(r"^conv(?P<channels>\d+)(?:k(?P<kernel>\d+))?"
                      r"(?:s(?P<stride>\d+))?(?:p(?P<padding>\d+))?$")
_DENSE_RE = re.compile(r"^dense(\d+)$")


def parse_arch(text):
    arch = []
    for token in (t.strip() for t in text.split(",")):
        m = _CONV_RE.match(token)
        if m:
            # an absent field takes its ConvSpec default
            arch.append(ConvSpec(**{f: int(v) for f, v in m.groupdict().items()
                                    if v is not None}))
            continue
        m = _DENSE_RE.match(token)
        if m:
            arch.append(DenseSpec(int(m.group(1))))
            continue
        raise ConfigError(f"cannot parse architecture token {token!r}")
    return arch


# Each section's keys: INI key -> converter, or -> (keyword, converter) where
# the callee names it otherwise.  Only set keys are passed on, so a default
# lives at its callee: [lif] -> LIFConfig, [run] -> the runner, every other
# section -> TrainConfig.
_SECTIONS = {
    "DEFAULT": {},
    "run": {"seed": int, "out": str},
    "network": {"arch": parse_arch, "input_shape": _parse_shape},
    "train": {"epochs": int, "batch_size": int, "lr": float},
    "lif": {"tau": float, "v_th": float, "lambda": ("lam", float),
            "window": int, "reset_mode": str},
    "expansion": {"alpha": float, "max_per_layer": lambda text: tuple(
        int(v) for v in text.split(",") if v.strip())},
    "similarity": {"gamma": float, "probe_size": int},
    "reuse": {"beta": float, "bias0": float, "bias_slope": float},
    "replay": {"capacity": ("replay_capacity", int), "calib_epochs": int,
               "calib_lr": float},
}
_IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")
_FILE_KEYS = {**dict.fromkeys(_IDX_KEYS, str), "limit_train": int,
              "limit_test": int}
# ``[stream]`` takes ``kind`` and the keys of that kind: its builder's
# keywords, and for the IDX kinds the files and their row limits
_STREAM_KINDS = {
    "synthetic": {"tasks": ("n_tasks", int), "classes_per_task": int,
                  "n_train": int, "n_test": int, "spread": float,
                  "variance": ("var", float)},
    "permuted": {"tasks": ("k", int), **_FILE_KEYS},
    "split": {"classes_per_task": int, **_FILE_KEYS},
    "rotated": {"angles": lambda text: [float(a) for a in text.split(",")],
                **_FILE_KEYS},
}


def _settings(cfg):
    """Every value of ``cfg``, converted, as ``{section: {keyword: value}}``
    (``[stream]`` also holds its ``kind``); each section of ``_SECTIONS`` is
    present, empty when unset.  A section, key or stream kind the schema
    lacks, or a value that does not convert, is a ConfigError."""
    settings = {section: {} for section in _SECTIONS}
    for section in cfg:  # [DEFAULT] first: its keys appear in every section
        keys, where = _SECTIONS.get(section), ""
        if section == "stream":
            kind = cfg[section].get("kind", "synthetic")
            if kind not in _STREAM_KINDS:
                raise ConfigError(f"unknown stream kind {kind!r}")
            keys = {"kind": str, **_STREAM_KINDS[kind]}
            where = f" for kind {kind!r}"
            settings[section] = {"kind": kind}
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in cfg[section].items():
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}{where}")
            name, convert = (keys[key] if isinstance(keys[key], tuple)
                             else (key, keys[key]))
            try:
                settings[section][name] = convert(text)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {key} = {text!r}: {exc}") from exc
    return settings


def _load_file_dataset(given, kind):
    """The IDX arrays ``given`` names, cut to its limits; pops those keys."""
    paths = {}
    for key in _IDX_KEYS:
        if key not in given:
            raise ConfigError(f"[stream] missing key {key!r} for kind "
                              f"{kind!r}")
        paths[key] = given.pop(key)
        if not Path(paths[key]).is_file():
            raise ConfigError(f"[stream] {key} = {paths[key]} is not a file")
    tx, ty, ex, ey = (streams.load_idx(paths[key]) for key in _IDX_KEYS)
    for images, labels, x, y in (("train_images", "train_labels", tx, ty),
                                 ("test_images", "test_labels", ex, ey)):
        if x.shape[0] != y.shape[0]:
            raise DataError(f"{paths[images]} holds {x.shape[0]} images but "
                            f"{paths[labels]} holds {y.shape[0]} labels")
    lim_tr = given.pop("limit_train", tx.shape[0])
    lim_te = given.pop("limit_test", ex.shape[0])
    streams._check_positive("[stream] limit_train", lim_tr)
    streams._check_positive("[stream] limit_test", lim_te)
    return tx[:lim_tr], ty[:lim_tr], ex[:lim_te], ey[:lim_te]


def build_stream(cfg, seed):
    if not cfg.has_section("stream"):
        raise ConfigError("config has no [stream] section")
    settings = _settings(cfg)
    given = settings["stream"]
    kind = given.pop("kind")
    if kind == "synthetic":
        if "input_shape" in settings["network"]:
            given["shape"] = settings["network"]["input_shape"]
        return streams.default_synthetic_stream(**given, seed=seed)
    data = _load_file_dataset(given, kind)
    if kind == "permuted":
        return streams.permuted_stream(*data, **given, seed=seed)[0]
    if kind == "split":
        return streams.split_stream(*data, **given)
    return streams.rotated_stream(*data, **given)


def _check_inputs(tasks, input_shape):
    """Every task's inputs are ``(N,) + input_shape``, checked before use."""
    for t in tasks:
        for x in (t.train_x, t.test_x):
            if x.shape[1:] != input_shape:
                raise DataError(f"task {t.id} inputs have shape {x.shape[1:]}"
                                f" but the network input is {input_shape}")


def build_train_config(cfg, seed):
    """The training settings of an INI; any invalid value is a ConfigError."""
    s = _settings(cfg)
    return TrainConfig(
        **s["network"], **s["train"], **s["expansion"], **s["similarity"],
        **s["reuse"], **s["replay"], lif=LIFConfig(**s["lif"]), seed=seed)


def _read_config(path, seed, out, default_out):
    """The checked INI at ``path`` with its run seed and output path; a
    ``seed`` or ``out`` that is not None overrides ``[run]``.  A config
    that cannot be read as text, a negative seed, or an empty output path,
    is a ConfigError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    given = _settings(cfg)["run"]
    seed = given.get("seed", 0) if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = given.get("out", default_out) if out is None else out
    if out == "":
        raise ConfigError("output path is empty")
    return cfg, seed, out


def _make_out(out):
    """Create the output directory; one that cannot be is a ConfigError."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc


def _fmt(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cil_report(network, tasks, disjoint):
    """CIL accuracy, or why it is skipped when class labels repeat."""
    if not disjoint:
        return {"accuracy": None,
                "skipped": "class labels repeat across tasks (TIL-only stream)"}
    return {"accuracy": cil_evaluate(network, tasks)}


def _write_reports(out, config_echo, tasks, network, per_task_logs, matrix,
                   til, cil, timings):
    out = Path(out)
    width = max((len(r) for r in matrix.entries), default=0)
    _write_csv(out / "accuracy_matrix.csv",
               ["after_task"] + [f"task{j}" for j in range(width)],
               [[i] + r + [""] * (width - len(r))
                for i, r in enumerate(matrix.entries)])
    sim_rows = []
    for log in per_task_logs:
        for rec in log["similarity"]:
            sim_rows.append([log["task"], rec["old_task"], rec["kl"], rec["s"]])
    _write_csv(out / "similarity.csv", ["new_task", "old_task", "kl", "s"],
               sim_rows)
    prune_rows = []
    for log in per_task_logs:
        for old_task, rate in sorted(log["pruning_rates"].items()):
            prune_rows.append([log["task"], old_task, rate])
    _write_csv(out / "pruning_rates.csv", ["task", "old_task", "pruning_rate"],
               prune_rows)
    energy_rows = []
    for t in tasks:
        rep = metrics.energy_report(network, t.id)
        energy_rows.append([t.id, rep.connections_active, rep.neurons_active,
                            rep.flops, rep.energy_pj,
                            metrics.energy(rep.flops, "dnn"), rep.pruning_rate])
    energy_header = ["task", "connections", "neurons", "flops",
                     "energy_snn_pj", "energy_dnn_pj", "pruning_rate"]
    _write_csv(out / "energy.csv", energy_header, energy_rows)
    network.save(out / "checkpoint.npz")
    report = {
        "config": config_echo,
        "per_task": per_task_logs,
        "accuracy_matrix": matrix.entries,
        "til": {"per_task": til[0], "average": til[1]},
        "cil": cil,
        "energy": [dict(zip(energy_header, row)) for row in energy_rows],
        "timings_s": timings,
        "artifacts": {
            name: _sha256(out / name)
            for name in ("accuracy_matrix.csv", "similarity.csv",
                         "pruning_rates.csv", "energy.csv", "checkpoint.npz")
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=2,
                                                sort_keys=True) + "\n")
    return report


def _echo(cfg, seed, out):
    echo = {s: dict(cfg[s]) for s in cfg.sections()}
    echo.setdefault("run", {})
    echo["run"]["seed"] = str(seed)
    echo["run"]["out"] = str(out)
    return echo


def run(config_path, seed=None, out=None):
    cfg, seed, out = _read_config(config_path, seed, out, "runs/latest")
    tasks = build_stream(cfg, seed)
    tcfg = build_train_config(cfg, seed)
    _check_inputs(tasks, tcfg.input_shape)
    _make_out(out)
    # class-incremental replay only means something when labels are disjoint
    disjoint = repeated_class(tasks) is None
    buffer = ReplayBuffer(tcfg.replay_capacity) if disjoint else None
    network = None
    logs = []
    matrix = metrics.AccuracyMatrix()
    timings = {}
    t_start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        network, log = learn_task(network, task, tcfg, buffer)
        timings[f"task{task.id}"] = time.perf_counter() - t0
        accs, _ = til_evaluate(network, tasks[: task.id + 1])
        matrix.add_row(accs)
        logs.append(log)
    # looked up at call time, so a wrapper set on the trainer applies
    t0 = time.perf_counter()
    trainer.calibrate_heads(network, buffer, tcfg)
    timings["calibrate_heads"] = time.perf_counter() - t0
    # the last row evaluated every task on the final network
    til = matrix.final(), matrix.average_final()
    cil = _cil_report(network, tasks, disjoint)
    timings["total"] = time.perf_counter() - t_start
    report = _write_reports(out, _echo(cfg, seed, out), tasks, network, logs,
                            matrix, til, cil, timings)
    return report


def evaluate(checkpoint_path, config_path, seed=None, out=None):
    cfg, seed, out = _read_config(config_path, seed, out, "runs/latest-eval")
    network = Network.load(checkpoint_path)
    tasks = build_stream(cfg, seed)
    if sorted(network.masks) != [t.id for t in tasks]:
        raise ConfigError(
            f"checkpoint has tasks {sorted(network.masks)} but the stream "
            f"defines {[t.id for t in tasks]}"
        )
    for t in tasks:
        if network.heads[t.id].classes != list(t.classes):
            raise ConfigError(
                f"task {t.id} class list mismatch: checkpoint "
                f"{network.heads[t.id].classes} vs stream {list(t.classes)}"
            )
    _check_inputs(tasks, network.input_shape)
    _make_out(out)
    t0 = time.perf_counter()
    til = til_evaluate(network, tasks)
    cil = _cil_report(network, tasks, repeated_class(tasks) is None)
    matrix = metrics.AccuracyMatrix()
    matrix.entries = [list(til[0])]  # evaluation-only: final accuracies
    timings = {"evaluate": time.perf_counter() - t0}
    logs = [trainer.task_log(t.id) for t in tasks]
    return _write_reports(out, _echo(cfg, seed, out), tasks, network, logs,
                          matrix, til, cil, timings)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="spikecl")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="train a full task stream")
    p_run.add_argument("config")
    p_eval = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("config")
    for p in (p_run, p_eval):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run(args.config, args.seed, args.out)
        else:
            evaluate(args.checkpoint, args.config, args.seed, args.out)
    except (ConfigError, DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
