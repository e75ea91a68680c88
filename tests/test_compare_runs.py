"""Output gate: how ``tools/compare_runs.py`` tells checkpoint arrays apart."""

import importlib.util
import json
import resource
import sys
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _PATH)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _save(path, meta, **arrays):
    meta = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, __meta__=meta, **arrays)
    return path


def test_drift_says_why_each_array_differs(tmp_path):
    parent = _save(tmp_path / "parent.npz",
                   {"seed": 0, "lif": {"tau": 0.2}},
                   w=np.ones((2, 2)), b=np.array([1.0, 2.0]),
                   gone=np.ones(1), same=np.array([5.0]))
    change = _save(tmp_path / "change.npz",
                   {"seed": 1, "lif": {"tau": 0.2, "smooth": False}},
                   w=np.ones((2, 3)), b=np.array([1.0, 2.5]),
                   new=np.ones(1), same=np.array([5.0]))
    assert compare_runs._drift(parent, change) == {
        "__meta__": "JSON keys differ: lif.smooth, seed",
        "b": 0.25,
        "gone": "missing in change",
        "new": "missing in parent",
        "w": "shape (2, 2) -> (2, 3)",
    }


def test_package_lines_counts_every_module_line(tmp_path):
    pkg = tmp_path / "spikecl"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Doc."""\n\nX = 1\n')
    (pkg / "sub" / "mod.py").write_text("def f():\n    return 2\n")
    (pkg / "notes.txt").write_text("not\ncode\n")
    assert compare_runs.package_lines(tmp_path) == 5


def test_tests_lines_counts_the_tests_beside_src(tmp_path):
    (tmp_path / "src").mkdir()
    tests = tmp_path / "tests"
    (tests / "data").mkdir(parents=True)
    (tests / "test_a.py").write_text("def test_a():\n    pass\n")
    (tests / "data" / "helper.py").write_text("X = 1\n")
    (tests / "notes.txt").write_text("not\ncode\n")
    assert compare_runs.tests_lines(tmp_path / "src") == 3
    assert compare_runs.tests_lines(tests / "data") == 0  # no tests beside


def test_differing_names_every_changed_leaf():
    parent = {"per_task": [{"losses": [0.1, 0.2], "task": 0}], "energy": 3}
    change = {"per_task": [{"losses": [0.1, 0.3], "task": 0}], "gain": 1}
    assert compare_runs._differing(parent, change) == [
        "energy", "gain", "per_task.0.losses.1"]


def test_run_child_reads_each_childs_own_peak_rss():
    # Linux starts a child's peak at its spawner's (this process's) peak
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    big = [sys.executable, "-c",
           f"import sys; b = b'x' * ({int(floor) + 64} << 20); "
           f"sys.stderr.write('done\\n')"]
    code, err, big_mb = compare_runs.run_child(big)
    assert (code, err) == (0, "done") and big_mb >= floor + 64
    small = [sys.executable, "-c", "import sys; sys.exit(3)"]
    code, err, small_mb = compare_runs.run_child(small)
    # RUSAGE_CHILDREN would read at least big_mb here
    assert (code, err) == (3, "") and small_mb < big_mb - 32
