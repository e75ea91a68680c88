"""Output gate for a change to arithmetic: compare two source trees' outputs.

    python3 tools/compare_runs.py PARENT CHANGE [SEED ...] [--bench]

PARENT and CHANGE are source checkouts (or their ``src/`` directories).  For
every config and seed, both trees run ``spikecl run`` and then ``spikecl
evaluate`` on the checkpoint that run wrote, each command in a fresh
interpreter that imports that tree's ``spikecl``, with BLAS on one thread as
in the benchmark.  The configs are the criterion-8 INI of the acceptance
tests, the three benchmark workloads (``perfbench/bench.py:ini_text``), and
one INI for each IDX stream kind (``permuted``, ``split``, ``rotated``) over a
small IDX dataset written into the temporary directory, the same for every
seed.

Seeds default to 0 and 7, 28 reports.  With ``--bench`` each SEED is a
benchmark ``--seed`` instead: a workload runs that seed's input streams
(``10 * SEED + k``, ``k < streams``), the other configs run SEED.

For each report it prints whether each artefact's sha256 matches, whether
``til``/``cil`` are equal, which fields of the rest of the report differ
(``timings_s`` and ``config`` aside), and, for every checkpoint array that
differs, why: its drift, max |change - parent| / max |parent|; or that it is
missing on one side; or its shape change; or, for ``__meta__``, which JSON
keys differ.  Each report's label carries its command's peak RSS, parent ->
change, as information: it never fails the gate, and it is never below this
tool's own peak RSS.  Last it prints the line counts of each tree's
``spikecl`` package and of its ``tests/`` directory, and their differences.
Exits 1 when a CSV, ``til``/``cil`` or a command's exit code differs, else
0; checkpoint differences alone are reported, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from bench import WORKLOADS, ini_text  # noqa: E402

# the config of tests/test_acceptance.py::test_criterion_8_...
CRITERION_8_INI = """\
[stream]
kind = synthetic
tasks = 3
classes_per_task = 2
n_train = 60
n_test = 30

[network]
arch = dense12,dense8
input_shape = 1x3x3

[lif]
window = 2

[train]
epochs = 4
batch_size = 16
lr = 0.01

[similarity]
probe_size = 48

[replay]
capacity = 100
calib_epochs = 5
"""
# the IDX kinds read the files ``_write_idx_dataset`` leaves in {d}
IDX_INI = """\
[stream]
kind = {kind}
{keys}
train_images = {d}/train-images
train_labels = {d}/train-labels
test_images = {d}/test-images
test_labels = {d}/test-labels

[network]
arch = conv4k3s1p1,conv4k3s1p0,dense8
input_shape = 1x6x6

[lif]
window = 2

[train]
epochs = 2
batch_size = 16
lr = 0.01

[similarity]
probe_size = 32

[replay]
capacity = 40
calib_epochs = 3
"""
IDX_KEYS = {
    "permuted": "tasks = 3",
    "split": "classes_per_task = 2\nlimit_train = 96",
    "rotated": "angles = 0,30,60\nlimit_test = 30",
}
CSVS = ("accuracy_matrix.csv", "similarity.csv", "pruning_rates.csv",
        "energy.csv")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _write_idx_dataset(d):
    """120 training and 40 test 6x6 images of 4 classes, as IDX files: each
    class a bright 3x3 corner over uniform noise."""
    rng = np.random.default_rng(0)
    for split, n in (("train", 120), ("test", 40)):
        labels = np.arange(n) % 4
        images = rng.integers(0, 100, size=(n, 6, 6))
        for c in range(4):
            r, k = divmod(c, 2)
            images[labels == c, 3 * r:3 * r + 3, 3 * k:3 * k + 3] += 150
        for name, array, magic in (("images", images, 0x803),
                                   ("labels", labels, 0x801)):
            dims = struct.pack(">" + "I" * array.ndim, *array.shape)
            (d / f"{split}-{name}").write_bytes(
                struct.pack(">I", magic) + dims
                + array.astype(np.uint8).tobytes())


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "spikecl").is_dir() else path
    if not (src / "spikecl" / "__init__.py").is_file():
        raise SystemExit(f"error: no spikecl package under {path}")
    return src


def _lines(root):
    """Lines of the ``.py`` files under ``root``, none if it is missing."""
    return sum(p.read_bytes().count(b"\n") for p in root.rglob("*.py"))


def package_lines(src):
    """Lines of the ``.py`` files of the ``spikecl`` package under ``src``."""
    return _lines(src / "spikecl")


def tests_lines(src):
    """Lines of the ``.py`` files of the ``tests`` directory beside ``src``."""
    return _lines(src.parent / "tests")


def run_child(argv, env=None):
    """Run ``argv``; return its exit code, its stderr and its own peak RSS in
    MB.  ``os.wait4`` reads the child's usage alone; ``RUSAGE_CHILDREN``
    would give the largest of every child waited for so far.  Linux starts
    a child's peak at this process's own (34 MB with numpy 2.4 loaded), so
    a reading never falls below it."""
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as child:
        err = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, err.strip(), usage.ru_maxrss / 1024


def _spikecl(src, argv):
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return run_child([sys.executable, "-m", "spikecl", *argv], env)


def _run_pair(src, ini, seed, out):
    """(exit code, stderr, report directory, peak RSS) of ``run`` then
    ``evaluate`` in ``out``."""
    run_dir, eval_dir = out / "run", out / "eval"
    code, err, rss = _spikecl(src, ["run", str(ini), "--seed", str(seed),
                                    "--out", str(run_dir)])
    results = {"run": (code, err, run_dir, rss)}
    if code == 0:
        code, err, rss = _spikecl(src, [
            "evaluate", str(run_dir / "checkpoint.npz"), str(ini),
            "--seed", str(seed), "--out", str(eval_dir)])
        results["evaluate"] = (code, err, eval_dir, rss)
    return results


def _json_leaves(obj, path=""):
    """{dotted path: value} of every leaf of nested JSON objects and arrays."""
    if not isinstance(obj, (dict, list)) or not obj:
        return {path: obj}
    pairs = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return {key: value for k, v in pairs
            for key, value in _json_leaves(v, f"{path}.{k}" if path
                                           else str(k)).items()}


def _differing(a, b):
    """Dotted paths of the JSON leaves that differ between ``a`` and ``b``."""
    a, b = _json_leaves(a), _json_leaves(b)
    return [k for k in sorted(set(a) | set(b))
            if k not in a or k not in b or a[k] != b[k]]


def _drift(parent_npz, change_npz):
    """{array name: why it differs} for every array that is not equal: a
    relative drift (float), or a reason (str) when the values cannot be
    compared."""
    drift = {}
    with np.load(parent_npz) as a, np.load(change_npz) as b:
        for name in sorted(set(a.files) | set(b.files)):
            if name not in a.files or name not in b.files:
                side = "change" if name in a.files else "parent"
                drift[name] = f"missing in {side}"
                continue
            x, y = a[name], b[name]
            if x.shape == y.shape and np.array_equal(x, y):
                continue
            if name == "__meta__":
                keys = _differing(*(json.loads(bytes(m).decode())
                                    for m in (x, y)))
                drift[name] = ("JSON keys differ: " + ", ".join(keys)
                               if keys else "JSON layout differs, keys equal")
            elif x.shape != y.shape:
                drift[name] = f"shape {x.shape} -> {y.shape}"
            else:
                x, y = x.astype(np.float64), y.astype(np.float64)
                scale = float(np.max(np.abs(x))) or 1.0
                drift[name] = float(np.max(np.abs(y - x))) / scale
    return drift


def _mb(rss):
    return "-" if rss is None else f"{rss:.1f} MB"


def _describe(d):
    return d if isinstance(d, str) else f"drift {d:.3g}"


def _body(report):
    return {k: v for k, v in report.items()
            if k not in ("timings_s", "config", "artifacts")}


def compare(label, parent, change, worst):
    """Print one report's comparison; return False when a gate fails."""
    p_code, p_err, p_dir, p_rss = parent
    c_code, c_err, c_dir, c_rss = change
    label += f" (peak RSS {_mb(p_rss)} -> {_mb(c_rss)})"
    if p_code != 0 or c_code != 0:
        same = p_code == c_code
        print(f"{label}: exit {p_code} -> {c_code}"
              f"{'' if same else '  EXIT CODE DIFFERS'}")
        for side, err in (("parent", p_err), ("change", c_err)):
            if err:
                print(f"    {side}: {err.splitlines()[-1]}")
        return same
    p = json.loads((p_dir / "report.json").read_text())
    c = json.loads((c_dir / "report.json").read_text())
    same = {n: p["artifacts"][n] == c["artifacts"][n] for n in p["artifacts"]}
    marks = [f"{n} {'=' if same[n] else 'DIFFERS'}" for n in sorted(same)]
    til_cil = p["til"] == c["til"] and p["cil"] == c["cil"]
    fields = _differing(_body(p), _body(c))
    print(f"{label}: {', '.join(marks)}; til/cil "
          f"{'equal' if til_cil else 'DIFFER'}; rest of report "
          f"{'differs: ' + ', '.join(fields) if fields else 'equal'}")
    drift = _drift(p_dir / "checkpoint.npz", c_dir / "checkpoint.npz")
    for name, d in drift.items():
        print(f"    {name}: {_describe(d)}")
        if isinstance(d, str):
            worst[name] = d  # a reason outranks any drift
        elif not isinstance(worst.get(name), str):
            worst[name] = max(worst.get(name, 0.0), d)
    return all(same[n] for n in CSVS) and til_cil


def _jobs(seeds, bench, idx_dir):
    """(config name, INI text, run seed) for every report pair."""
    jobs = []
    for seed in seeds:
        jobs.append(("criterion-8", CRITERION_8_INI, seed))
        jobs.extend((kind, IDX_INI.format(kind=kind, keys=keys, d=idx_dir),
                     seed) for kind, keys in IDX_KEYS.items())
        for name, w in WORKLOADS.items():
            streams = ([10 * seed + k for k in range(w["streams"])] if bench
                       else [seed])
            jobs.extend((name, ini_text(w), s) for s in streams)
    return jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 7])
    parser.add_argument("--bench", action="store_true",
                        help="seeds are benchmark --seed values")
    args = parser.parse_args(argv)
    parent, change = _src(args.parent), _src(args.change)
    ok, reports, worst = True, 0, {}
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = Path(tmp)
        _write_idx_dataset(tmp)
        for i, (name, text, seed) in enumerate(_jobs(args.seeds, args.bench,
                                                     tmp)):
            ini = tmp / f"{i}.ini"
            ini.write_text(text)
            sides = [_run_pair(src, ini, seed, tmp / f"{i}-{side}")
                     for side, src in (("parent", parent), ("change", change))]
            for command in ("run", "evaluate"):
                if command in sides[0] or command in sides[1]:
                    missing = (None, "not run", None, None)
                    ok &= compare(f"{name} seed {seed} {command}",
                                  sides[0].get(command, missing),
                                  sides[1].get(command, missing), worst)
                    reports += 1
    verdict = "CSVs and til/cil all equal" if ok else "MISMATCH"
    print(f"\n{reports} reports: {verdict}")
    if worst:
        print("largest checkpoint difference per array:")
        reasons = sorted((n, d) for n, d in worst.items() if isinstance(d, str))
        drifts = sorted(((n, d) for n, d in worst.items()
                         if not isinstance(d, str)), key=lambda kv: -kv[1])
        for name, d in reasons + drifts:
            print(f"    {name}: {_describe(d)}")
    else:
        print("every checkpoint array is equal")
    for name, count in (("src/spikecl", package_lines),
                        ("tests", tests_lines)):
        lines = [count(src) for src in (parent, change)]
        print(f"{name} lines: {lines[0]} -> {lines[1]} "
              f"({lines[1] - lines[0]:+d})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
