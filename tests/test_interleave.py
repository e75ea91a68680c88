"""Diagnostic timing: ``tools/interleave.py`` runs two trees in one process."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "interleave", ROOT / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(interleave)


def test_same_tree_on_both_sides_times_every_round(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from bench import WORKLOADS, ini_text, warmup_config

    import spikecl.tensor

    try:
        clis = {side: interleave.load_cli(ROOT, f"spikecl_{side}")
                for side in interleave.SIDES}
        # each tree is a package of its own, apart from ``spikecl``
        assert clis["parent"].__name__ == "spikecl_parent.cli"
        tensors = [sys.modules[f"spikecl_{side}.tensor"]
                   for side in interleave.SIDES]
        assert len({id(spikecl.tensor), *map(id, tensors)}) == 3
        w = warmup_config(WORKLOADS["conv-train"])
        results = interleave.interleave(clis, w, 3, 0, tmp_path, ini_text)
    finally:
        for name in [n for n in sys.modules
                     if n.startswith(("spikecl_parent", "spikecl_change"))]:
            del sys.modules[name]
    assert sorted(results) == sorted(interleave.SIDES)
    for jobs in results.values():
        assert len(jobs) == 3
        assert all(math.isfinite(j[m]) and j[m] > 0 for j in jobs
                   for m in interleave.METRICS)
    summary = interleave.summary(results)
    assert sorted(summary) == sorted(interleave.METRICS)
    # the first and the last task's training time, as perfbench reads them
    assert {"task_first_s", "task_last_s"} <= set(summary)
    for jobs in results.values():
        assert all(j["task_first_s"] < j["run_s"] > j["task_last_s"]
                   for j in jobs)
    for parent, change, ratio, wins in summary.values():
        assert ratio == change / parent and 0 <= wins <= 3
    # one tree on both sides: every round's outputs agree
    medians, differ = interleave.agreement(results)
    assert differ == 0
    assert sorted(medians) == sorted(interleave.OUTPUTS)
    assert all(parent == change and 0 <= parent <= 1
               for parent, change in medians.values())
    results["change"][1]["outputs"] = ({}, {})  # as if round 1 broke
    assert interleave.agreement(results)[1] == 1
