"""Workloads, jobs, output checks and metrics of the spikecl benchmark.

One job is what a user does at the desk: ``spikecl run`` on a generated INI,
then ``spikecl evaluate`` on the checkpoint that run wrote, both through
``spikecl.cli.main`` in this process.  A run is a closed loop of jobs, one at
a time, for ``--seconds``.  Its inputs are a few task streams drawn from
``--seed`` (``streams`` in ``WORKLOADS``).  The loop cycles over them, so each
stream is learned at least twice and the artefact hashes of the repeats can
be compared.  A timing is the median over the repeats of one stream, then the
median over the streams: now and then a task looks like a duplicate and adds
no units, and the median keeps one such stream from moving the result.
Accuracy is exact per stream and is averaged over the streams.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spikecl import cli

import tracer as tracing

# Why each workload exists; the "why" lines in BENCHMARK.json say the same.
# conv-train: two tasks, many epochs, tiny replay and probe, so the backward
#   pass and the conv kernel dominate and there is little frozen-path work.
# conv-stream: the desk-scale conv stream cut down to four tasks and two
#   epochs, so the no-grad pass over every old mask (similarity probe, head
#   calibration, CIL) grows with the task index and takes the largest share.
# dense-stream: no conv layer at all, many small ops and many old units, so
#   per-op Python overhead, plasticity and energy counting show; conv2d work
#   should not move it.
# Floors sit about 0.1-0.2 below the lowest TIL/CIL seen over 24-36 input
# streams at the commit that introduced the benchmark, a margin for streams
# not seen then; they catch a collapse, the end-to-end bounds catch drift.
# ``streams`` input streams per run: fewer where one job is slow, so that two
# cycles fit in a run.
WORKLOADS = {
    "conv-train": dict(arch="conv8k3s2p1,conv16k3s2p1,dense64", tasks=2,
                       n_train=100, n_test=50, epochs=4, replay=40, probe=32,
                       streams=4, til_floor=0.9, cil_floor=0.7),
    "conv-stream": dict(arch="conv8k3s2p1,conv16k3s2p1,dense64", tasks=4,
                        n_train=60, n_test=20, epochs=2, replay=120, probe=60,
                        streams=3, til_floor=0.7, cil_floor=0.45),
    "dense-stream": dict(arch="dense64,dense64,dense32", tasks=5, n_train=60,
                         n_test=30, epochs=3, replay=200, probe=64,
                         streams=4, til_floor=0.6, cil_floor=0.4),
}
SETUP_PROBES = 5
_clock = time.perf_counter


def ini_text(w):
    return f"""\
[stream]
kind = synthetic
tasks = {w['tasks']}
classes_per_task = 2
n_train = {w['n_train']}
n_test = {w['n_test']}

[network]
arch = {w['arch']}
input_shape = 1x9x9

[lif]
window = 4

[train]
epochs = {w['epochs']}
batch_size = 32
lr = 0.01

[similarity]
probe_size = {w['probe']}

[replay]
capacity = {w['replay']}
calib_epochs = 15
"""


def warmup_config(w):
    """A tiny job of the same shape, run once before timing starts."""
    return dict(w, tasks=2, n_train=16, n_test=8, epochs=1, replay=8, probe=8)


# -- environment ----------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    """Versions, threads and machine load; read only, never changed."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": _loadavg(),
    }


# -- one job --------------------------------------------------------------


def _command(argv):
    """Exit code of one ``spikecl`` command; a raw exception counts as 1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def run_job(ini, w, seed, work, expected_artifacts=None):
    """One ``run`` + ``evaluate`` pair with its output checks.

    Returns a dict with ``ops`` (operation name -> passed) and, when both
    commands succeed, the timings and accuracies of the job.
    """
    run_dir, eval_dir = work / "run", work / "eval"
    for d in (run_dir, eval_dir):
        shutil.rmtree(d, ignore_errors=True)
    job = {"seed": seed, "ops": {}}
    t0 = _clock()
    code = _command(["run", str(ini), "--seed", str(seed), "--out",
                     str(run_dir)])
    t1 = _clock()
    job["ops"]["run"] = code == 0
    if code != 0:
        return job
    t2 = _clock()
    code = _command(["evaluate", str(run_dir / "checkpoint.npz"), str(ini),
                     "--seed", str(seed), "--out", str(eval_dir)])
    t3 = _clock()
    job["ops"]["evaluate"] = code == 0
    if code != 0:
        return job
    ran = json.loads((run_dir / "report.json").read_text())
    evaluated = json.loads((eval_dir / "report.json").read_text())
    matrix = ran["accuracy_matrix"]
    task_s = [ran["timings_s"][f"task{i}"] for i in range(len(matrix))]
    til, cil = ran["til"]["average"], ran["cil"]["accuracy"]
    job["ops"]["til_stable"] = all(
        matrix[-1][j] == matrix[j][j] for j in range(len(matrix)))
    job["ops"]["evaluate_reproduces"] = (evaluated["til"] == ran["til"]
                                         and evaluated["cil"] == ran["cil"])
    if expected_artifacts is not None:
        job["ops"]["artifacts_repeat"] = ran["artifacts"] == expected_artifacts
    job["ops"]["til_floor"] = til >= w["til_floor"]
    job["ops"]["cil_floor"] = cil is not None and cil >= w["cil_floor"]
    job.update(
        artifacts=ran["artifacts"],
        run_s=t1 - t0,
        eval_s=t3 - t2,
        task_first_s=task_s[0],
        task_last_s=task_s[-1],
        train_samples_per_s=(len(task_s) * w["n_train"] * w["epochs"]
                             / sum(task_s)),
        til_avg=til,
        cil_acc=cil if cil is not None else 0.0,
    )
    return job


# -- a run ----------------------------------------------------------------


def measure(ini, w, seed, seconds, work, tracer=None):
    """Cycle over the run's input streams until ``seconds`` have passed.

    At least two cycles run.  With a tracer, cycles alternate untraced and
    traced, so both kinds are measured on the same inputs.
    """
    seeds = [seed * 10 + k for k in range(w["streams"])]
    artifacts = {}
    jobs = []
    start = _clock()
    cycle = 0
    while True:
        cycle_start = _clock()
        traced = tracer is not None and cycle % 2 == 1
        for s in seeds:
            if traced:
                tracer.reset()
                with tracer.installed():
                    job = run_job(ini, w, s, work, artifacts.get(s))
                job["layers"] = tracer.summary()
            else:
                job = run_job(ini, w, s, work, artifacts.get(s))
            job["traced"] = traced
            artifacts.setdefault(s, job.get("artifacts"))
            jobs.append(job)
        cycle += 1
        now = _clock()
        if cycle >= 2 and now - start + (now - cycle_start) > seconds:
            return jobs


def per_input(jobs, key, combine=statistics.median):
    """Median over the repeats of each input stream, combined over streams."""
    by_seed = {}
    for job in jobs:
        if key in job:
            by_seed.setdefault(job["seed"], []).append(job[key])
    if not by_seed:
        return float("nan")
    return combine([statistics.median(v) for v in by_seed.values()])


def setup_seconds(root, workload, seed, work):
    """Median wall time of fresh processes that stop where ``cli.run`` starts."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--setup-probe", "--workload", workload, "--seed", str(seed),
           "--work", str(work)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = _clock()
        subprocess.run(cmd, cwd=root, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(_clock() - t0)
    return statistics.median(times)


def end_to_end(jobs, setup_s):
    timed = [j for j in jobs if not j.get("traced")]
    out = {key: per_input(timed, key)
           for key in ("run_s", "eval_s", "task_first_s", "task_last_s",
                       "train_samples_per_s")}
    # Accuracy is exact per stream; the mean uses every stream of the run.
    for key in ("til_avg", "cil_acc"):
        out[key] = per_input(timed, key, statistics.fmean)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(jobs):
    traced = [j for j in jobs if j.get("traced") and "layers" in j]
    keys = sorted({k for j in traced for k in j["layers"]})
    out = {k: statistics.fmean(j["layers"].get(k, 0.0) for j in traced)
           for k in keys}
    plain = [j for j in jobs if not j.get("traced")]
    traced_run = per_input(traced, "run_s")
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - per_input(plain, "run_s")
    return out


def tally(jobs):
    counts = {}
    for job in jobs:
        for op, ok in job["ops"].items():
            passed, attempted = counts.get(op, (0, 0))
            counts[op] = (passed + ok, attempted + 1)
    return counts


# -- entry ----------------------------------------------------------------


def parse_args(argv, names):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def declared(spec, trace):
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def report(metrics, units, counts, env_start, env_end):
    print("environment " + json.dumps({"start": env_start, "end": env_end}))
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:.6g} {unit}")
    attempted = sum(a for _, a in counts.values())
    failed = sum(a - p for p, a in counts.values())
    for op, (passed, tried) in counts.items():
        print(f"  check {op:24s} {passed}/{tried} pass")
    share = failed / attempted if attempted else 1.0
    print(f"  failed operations {failed}/{attempted} ({share:.1%})")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in units.items()},
    }


def run_all(root, args):
    """Every workload in its own process; prints each table, then a summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", name, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv, root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.workload == "all":
        return run_all(root, args)
    w = WORKLOADS[args.workload]
    base = Path(args.work) if args.work else root / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ini = work / "workload.ini"
        ini.write_text(ini_text(w))
        if args.setup_probe:
            return 0
        env_start = environment()
        setup_s = (None if args.trace
                   else setup_seconds(root, args.workload, args.seed, base))
        warm = work / "warmup.ini"
        warm.write_text(ini_text(warmup_config(w)))
        run_job(warm, w, 0, work / "warmup")
        tracer = tracing.Tracer() if args.trace else None
        jobs = measure(ini, w, args.seed, args.seconds, work, tracer)
        metrics = per_layer(jobs) if args.trace else end_to_end(jobs, setup_s)
        units = declared(spec, args.trace)
        for name in units:
            if name.startswith("trainer.learn_task.s.task"):
                metrics.setdefault(name, 0.0)  # stream has fewer tasks
        result = report(metrics, units, tally(jobs), env_start, environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not args.work:
            try:
                base.rmdir()
            except OSError:
                pass
    print(json.dumps(result))
    return 0
