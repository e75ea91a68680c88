"""Batch experiment runner.

``spikecl run <config.ini>`` executes a full task stream through the
per-task learning loop, evaluates TIL/CIL, and writes a report directory:
``report.json``, CSV series (accuracy matrix, similarity, pruning rates,
energy), and ``checkpoint.npz``.  ``spikecl evaluate <checkpoint> <config>``
re-runs the evaluation protocols on a saved network without training.

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

from . import metrics, streams
from .errors import (ConfigError, ContractError, DataError, FormatError,
                     TrainingError)
from .network import ConvSpec, DenseSpec, Network
from .plasticity import ExpansionPolicy
from .similarity import CLAMPED
from .spiking import HARD_RESET, LIFConfig
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


_CONV_RE = re.compile(r"^conv(\d+)(?:k(\d+))?(?:s(\d+))?(?:p(\d+))?$")
_DENSE_RE = re.compile(r"^dense(\d+)$")


def parse_arch(text):
    arch = []
    for token in (t.strip() for t in text.split(",")):
        m = _CONV_RE.match(token)
        if m:
            ch, k, s, p = (int(v) if v else None for v in m.groups())
            arch.append(ConvSpec(ch, k or 3, s or 1, 1 if p is None else p))
            continue
        m = _DENSE_RE.match(token)
        if m:
            arch.append(DenseSpec(int(m.group(1))))
            continue
        raise ConfigError(f"cannot parse architecture token {token!r}")
    return arch


def _value(cfg, section, key, default, convert=float):
    """``[section] key`` converted, or ``default`` when it is not set."""
    text = cfg.get(section, key, fallback=None)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc


def _load_file_dataset(cfg):
    sec = cfg["stream"]
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        if key not in sec:
            raise ConfigError(f"[stream] missing key {key!r} for kind "
                              f"{sec.get('kind')!r}")
        if not Path(sec[key]).exists():
            raise ConfigError(f"dataset file not found: {sec[key]}")
    tx = streams.load_idx(sec["train_images"])
    ty = streams.load_idx(sec["train_labels"])
    ex = streams.load_idx(sec["test_images"])
    ey = streams.load_idx(sec["test_labels"])
    lim_tr = _value(cfg, "stream", "limit_train", tx.shape[0], int)
    lim_te = _value(cfg, "stream", "limit_test", ex.shape[0], int)
    return tx[:lim_tr], ty[:lim_tr], ex[:lim_te], ey[:lim_te]


def build_stream(cfg, seed):
    if not cfg.has_section("stream"):
        raise ConfigError("config has no [stream] section")
    kind = cfg.get("stream", "kind", fallback="synthetic")
    shape = _parse_shape(cfg.get("network", "input_shape", fallback="1x9x9"))
    if kind == "synthetic":
        return streams.default_synthetic_stream(
            n_tasks=_value(cfg, "stream", "tasks", 5, int),
            classes_per_task=_value(cfg, "stream", "classes_per_task", 2, int),
            shape=shape,
            n_train=_value(cfg, "stream", "n_train", 400, int),
            n_test=_value(cfg, "stream", "n_test", 200, int),
            spread=_value(cfg, "stream", "spread", 2.0),
            var=_value(cfg, "stream", "variance", 0.05),
            seed=seed,
        )
    data = _load_file_dataset(cfg)
    if kind == "permuted":
        tasks, _ = streams.permuted_stream(
            *data, k=_value(cfg, "stream", "tasks", 5, int), seed=seed)
        return tasks
    if kind == "split":
        return streams.split_stream(
            *data,
            classes_per_task=_value(cfg, "stream", "classes_per_task", 2, int))
    if kind == "rotated":
        angles = _value(cfg, "stream", "angles", [0.0, 15.0, 30.0, 45.0, 60.0],
                        lambda text: [float(a) for a in text.split(",")])
        return streams.rotated_stream(*data, angles=angles)
    raise ConfigError(f"unknown stream kind {kind!r}")


def build_train_config(cfg, seed):
    """The training settings of an INI; any invalid value is a ConfigError."""
    lif = LIFConfig(
        tau=_value(cfg, "lif", "tau", 0.2),
        v_th=_value(cfg, "lif", "v_th", 0.5),
        lam=_value(cfg, "lif", "lambda", 2.0),
        window=_value(cfg, "lif", "window", 4, int),
        reset_mode=cfg.get("lif", "reset_mode", fallback=HARD_RESET),
    )
    arch = parse_arch(cfg.get("network", "arch",
                              fallback="conv8k3s2p1,conv16k3s2p1,dense64"))
    shape = _parse_shape(cfg.get("network", "input_shape", fallback="1x9x9"))
    caps = _value(cfg, "expansion", "max_per_layer", (), lambda text: tuple(
        int(v) for v in text.split(",") if v.strip()))
    try:
        return TrainConfig(
            arch=arch,
            input_shape=shape,
            epochs=_value(cfg, "train", "epochs", 20, int),
            batch_size=_value(cfg, "train", "batch_size", 32, int),
            lr=_value(cfg, "train", "lr", 1e-3),
            lif=lif,
            policy=ExpansionPolicy(_value(cfg, "expansion", "alpha", 5.0),
                                   caps),
            gamma=_value(cfg, "similarity", "gamma", 0.9),
            sim_mode=cfg.get("similarity", "mode", fallback=CLAMPED),
            probe_size=_value(cfg, "similarity", "probe_size", 512, int),
            beta=_value(cfg, "reuse", "beta", 1.0),
            bias0=_value(cfg, "reuse", "bias0", 0.2),
            bias_slope=_value(cfg, "reuse", "bias_slope", 0.1),
            replay_capacity=_value(cfg, "replay", "capacity", 2000, int),
            replay_mix=_value(cfg, "replay", "mix", 1.0),
            calib_epochs=_value(cfg, "replay", "calib_epochs", 15, int),
            calib_lr=_value(cfg, "replay", "calib_lr", 1e-2),
            seed=seed,
        )
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


def _read_config(path):
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cfg


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
                   til, cil, timings, mode_window):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
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
    energy_json = []
    for t in tasks:
        rep = metrics.energy_report(network, t.id, mode="snn",
                                    window=mode_window)
        dnn = metrics.energy(rep.flops, "dnn")
        energy_rows.append([t.id, rep.connections_active, rep.neurons_active,
                            rep.flops, rep.energy_pj, dnn, rep.pruning_rate])
        energy_json.append({
            "task": t.id, "connections": rep.connections_active,
            "neurons": rep.neurons_active, "flops": rep.flops,
            "energy_snn_pj": rep.energy_pj, "energy_dnn_pj": dnn,
            "pruning_rate": rep.pruning_rate,
        })
    _write_csv(out / "energy.csv",
               ["task", "connections", "neurons", "flops", "energy_snn_pj",
                "energy_dnn_pj", "pruning_rate"], energy_rows)
    network.save(out / "checkpoint.npz")
    report = {
        "config": config_echo,
        "per_task": per_task_logs,
        "accuracy_matrix": matrix.entries,
        "til": {"per_task": til[0], "average": til[1]},
        "cil": cil,
        "energy": energy_json,
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
    cfg = _read_config(config_path)
    if seed is None:
        seed = _value(cfg, "run", "seed", 0, int)
    if out is None:
        out = cfg.get("run", "out", fallback="runs/latest")
    tasks = build_stream(cfg, seed)
    tcfg = build_train_config(cfg, seed)
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
    # the last row evaluated every task on the final network
    til = matrix.final(), matrix.average_final()
    cil = _cil_report(network, tasks, disjoint)
    timings["total"] = time.perf_counter() - t_start
    report = _write_reports(out, _echo(cfg, seed, out), tasks, network, logs,
                            matrix, til, cil, timings, tcfg.lif.window)
    return report


def evaluate(checkpoint_path, config_path, seed=None, out=None):
    cfg = _read_config(config_path)
    if seed is None:
        seed = _value(cfg, "run", "seed", 0, int)
    if out is None:
        out = cfg.get("run", "out", fallback="runs/latest-eval")
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
    t0 = time.perf_counter()
    til = til_evaluate(network, tasks)
    cil = _cil_report(network, tasks, repeated_class(tasks) is None)
    matrix = metrics.AccuracyMatrix()
    matrix.entries = [list(til[0])]  # evaluation-only: final accuracies
    timings = {"evaluate": time.perf_counter() - t0}
    logs = [{"task": t.id, "similarity": [], "association": None,
             "expansion": None, "losses": [], "pruning_rates": {},
             "train_accuracy": None} for t in tasks]
    return _write_reports(out, _echo(cfg, seed, out), tasks, network, logs,
                          matrix, til, cil, timings, network.lif.window)


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
