"""Tests of the benchmark itself, on tiny streams.

Run with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spikecl.network
import spikecl.tensor
from spikecl.tensor import Tensor

import bench
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
TINY_CONV = dict(arch="conv4k3s2p1,dense8", tasks=2, n_train=16, n_test=8,
                 epochs=1, replay=8, probe=8, streams=2, til_floor=0.0,
                 cil_floor=0.0)
TINY_DENSE = dict(TINY_CONV, arch="dense8,dense4")


def _traced_job(tmp_path, w, seed=0):
    ini = tmp_path / "tiny.ini"
    ini.write_text(bench.ini_text(w))
    tracer = tracing.Tracer()
    with tracer.installed():
        job = bench.run_job(ini, w, seed, tmp_path / "traced")
    return job, tracer.summary()


def test_every_entry_point_records_calls(tmp_path):
    job, layers = _traced_job(tmp_path, TINY_CONV)
    assert all(job["ops"].values())
    assert [n for n in tracing.TIMED if layers[n + ".calls"] == 0] == []
    assert layers["trainer.learn_task.s.task1"] > 0
    assert layers["similarity.probe_rows"] > 0


def test_conv2d_never_runs_on_dense_net(tmp_path):
    job, layers = _traced_job(tmp_path, TINY_DENSE)
    assert all(job["ops"].values())
    assert layers["tensor.conv2d.calls"] == 0
    assert layers["tensor.matmul.calls"] > 0


def test_traced_run_writes_identical_artifacts(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(bench.ini_text(TINY_CONV))
    plain = bench.run_job(ini, TINY_CONV, 3, tmp_path / "plain")
    traced, _ = _traced_job(tmp_path, TINY_CONV, seed=3)
    assert traced["artifacts"] == plain["artifacts"]
    assert spikecl.network.conv2d is spikecl.tensor.conv2d


def test_kernel_counts_follow_argument_shapes():
    tracer = tracing.Tracer()
    with tracer.installed():
        spikecl.network.conv2d(Tensor(np.ones((2, 3, 9, 9))),
                               Tensor(np.ones((4, 3, 3, 3))), 2, 1)
        Tensor(np.ones((5, 6))).matmul(Tensor(np.ones((6, 7))))
    # 2 * B * C_out * C_in * k^2 * H_o * W_o and 2 * M * K * N
    assert tracer.counts["tensor.conv2d.flop"] == 2 * 2 * 4 * 3 * 9 * 5 * 5
    assert tracer.counts["tensor.matmul.flop"] == 2 * 5 * 6 * 7
    assert tracer.counts["tensor.matmul.bytes"] == 8 * (30 + 42 + 35)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [("tensor.backward", 0.0, 10.0, -1),
                    ("tensor.conv2d.backward", 1.0, 4.0, 0),
                    ("tensor.matmul.backward", 5.0, 6.0, 0)]
    layers = tracer.summary()
    assert layers["tensor.backward.s"] == 10.0
    assert layers["tensor.backward.self_s"] == 6.0


def test_output_names_exactly_the_declared_metrics(tmp_path, monkeypatch,
                                                  capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        monkeypatch.setitem(bench.WORKLOADS, w["name"], TINY_CONV)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = bench.main(["--workload", spec["workloads"][0]["name"],
                           "--seconds", "0", "--trace", str(trace),
                           "--work", str(tmp_path)], ROOT)
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in spec[section])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conv-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
