"""Time two source trees' benchmark jobs in one process, interleaved.

    python3 tools/interleave.py PARENT CHANGE WORKLOAD [N] [--seed SEED]

PARENT and CHANGE are source checkouts (or their ``src/`` directories);
WORKLOAD is a workload of ``perfbench/bench.py``.  Each tree's ``spikecl``
package is imported under its own module name (``spikecl_parent``,
``spikecl_change``): its modules import each other relatively, so the two
live side by side.  After one warm-up job per tree, N rounds (default 20)
each run one job per tree, ``spikecl run`` and then ``spikecl evaluate`` on
the workload's INI as ``perfbench`` does, the order flipped every round.
Round r learns input stream ``10 * SEED + r % streams``.  BLAS runs on one
thread.

It prints each tree's medians of ``run_s``, ``eval_s``, ``task_first_s``,
``task_last_s`` (the first and the last task's training time, from the
run's ``report.json``) and ``train_samples_per_s``, the ratio change /
parent, and in how many rounds the change did better.  Next to them it
prints each tree's medians of ``til_avg`` and ``cil_acc``, from the same
report, and in how many rounds the two trees' ``til`` and ``cil`` differ:
both learn the same stream in a round, so a change that should move no
output differs in none.  Both trees run in one process, so a process that
runs slow or fast as a whole moves both alike, which separate benchmark
processes cannot promise.  It is a diagnostic, not a benchmark result:
the trees share one heap, so neither ``peak_rss_mb`` nor the page faults
one tree's allocations cause when glibc trims the heap can be told apart,
and one process's import order and heap layout can favour either tree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SIDES = ("parent", "change")
METRICS = {"run_s": "lower", "eval_s": "lower", "task_first_s": "lower",
           "task_last_s": "lower", "train_samples_per_s": "higher"}
OUTPUTS = ("til_avg", "cil_acc")


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "spikecl").is_dir() else path
    if not (src / "spikecl" / "__init__.py").is_file():
        raise SystemExit(f"error: no spikecl package under {path}")
    return src


def load_cli(path, name):
    """``cli`` of the ``spikecl`` package under source tree ``path``,
    imported as package ``name``."""
    pkg = _src(path) / "spikecl"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def job(cli, ini, w, seed, work):
    """One ``run`` + ``evaluate`` pair: {metric: value}, as
    ``perfbench/bench.py:run_job`` times it, with the run's ``OUTPUTS`` and,
    under ``"outputs"``, its ``til`` and ``cil`` reports."""
    run_dir, eval_dir = work / "run", work / "eval"
    for d in (run_dir, eval_dir):
        shutil.rmtree(d, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(["run", str(ini), "--seed", str(seed), "--out",
                         str(run_dir)])
        t1 = time.perf_counter()
        if code == 0:
            code = cli.main(["evaluate", str(run_dir / "checkpoint.npz"),
                             str(ini), "--seed", str(seed), "--out",
                             str(eval_dir)])
        t2 = time.perf_counter()
    if code != 0:
        raise SystemExit(f"error: {cli.__name__} exited {code} on seed {seed}")
    report = json.loads((run_dir / "report.json").read_text())
    task_s = [report["timings_s"][f"task{i}"] for i in range(w["tasks"])]
    return {"run_s": t1 - t0, "eval_s": t2 - t1, "task_first_s": task_s[0],
            "task_last_s": task_s[-1],
            "train_samples_per_s": (w["tasks"] * w["n_train"] * w["epochs"]
                                    / sum(task_s)),
            "til_avg": report["til"]["average"],
            "cil_acc": report["cil"]["accuracy"],
            "outputs": (report["til"], report["cil"])}


def interleave(clis, w, rounds, seed, work, ini_text):
    """{side: [job metrics per round]} of ``rounds`` alternating rounds."""
    ini = work / "workload.ini"
    ini.write_text(ini_text(w))
    for side, cli in clis.items():  # warm-up, untimed
        job(cli, ini, w, 10 * seed, work / side)
    results = {side: [] for side in clis}
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(job(clis[side], ini, w,
                                     10 * seed + r % w["streams"],
                                     work / side))
    return results


def summary(results):
    """{metric: (parent median, change median, ratio, change wins)}."""
    out = {}
    for metric, better in METRICS.items():
        p, c = ([j[metric] for j in results[side]] for side in SIDES)
        wins = sum((b < a) if better == "lower" else (b > a)
                   for a, b in zip(p, c))
        mp, mc = statistics.median(p), statistics.median(c)
        out[metric] = (mp, mc, mc / mp, wins)
    return out


def agreement(results):
    """({output: (parent median, change median)} of ``OUTPUTS``, the number
    of rounds in which the trees' ``til`` or ``cil`` differ)."""
    medians = {name: tuple(statistics.median(j[name] for j in results[side])
                           for side in SIDES) for name in OUTPUTS}
    differ = sum(p["outputs"] != c["outputs"]
                 for p, c in zip(*(results[side] for side in SIDES)))
    return medians, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("rounds", nargs="?", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from bench import WORKLOADS, ini_text

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    clis = {side: load_cli(path, f"spikecl_{side}")
            for side, path in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        results = interleave(clis, WORKLOADS[args.workload], args.rounds,
                             args.seed, Path(tmp), ini_text)
    print(f"{args.workload}: {args.rounds} jobs per tree, seed {args.seed}")
    for metric, (mp, mc, ratio, wins) in summary(results).items():
        print(f"  {metric:20s} parent {mp:.6g}  change {mc:.6g}  "
              f"x{ratio:.3f}  change better in {wins}/{args.rounds}")
    medians, differ = agreement(results)
    for name, (mp, mc) in medians.items():
        print(f"  {name:20s} parent {mp:.6g}  change {mc:.6g}")
    print(f"  til/cil differ in {differ}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
