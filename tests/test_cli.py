"""Command-line runner: config parsing, report layout, exit codes, determinism."""

import configparser
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from spikecl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_TRAINING,
                         build_train_config, evaluate, main, parse_arch, run,
                         _parse_shape)
from spikecl.errors import ConfigError, TrainingError
from spikecl.network import ConvSpec, DenseSpec
from spikecl.similarity import LITERAL
from spikecl.spiking import LITERAL_EQ3

CONFIG = """\
[run]
seed = 0
out = {out}

[stream]
kind = synthetic
tasks = {tasks}
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
lr = {lr}

[similarity]
probe_size = 48

[replay]
capacity = 100
calib_epochs = 5
"""

CSV_NAMES = ("accuracy_matrix.csv", "similarity.csv", "pruning_rates.csv",
             "energy.csv")


def _write_config(tmp_path, tasks=2, name="run.ini", out="out", lr=0.01):
    path = tmp_path / name
    path.write_text(CONFIG.format(out=tmp_path / out, tasks=tasks, lr=lr))
    return path


class TestParseArch:
    def test_tokens(self):
        arch = parse_arch("conv8k3s2p1,conv16,dense64")
        assert arch == [ConvSpec(8, 3, 2, 1), ConvSpec(16, 3, 1, 1),
                        DenseSpec(64)]

    def test_defaults(self):
        assert parse_arch("conv4") == [ConvSpec(4, 3, 1, 1)]

    def test_bad_token(self):
        with pytest.raises(ConfigError, match="token"):
            parse_arch("dense64,pool2")

    def test_shape_parsing(self):
        assert _parse_shape("1x9x9") == (1, 9, 9)
        for text in ("9x9", "1xax9"):
            with pytest.raises(ConfigError, match="CxHxW"):
                _parse_shape(text)


class TestRun:
    def test_minimal_two_task_report(self, tmp_path):
        report = run(_write_config(tmp_path))
        assert len(report["per_task"]) == 2
        matrix = report["accuracy_matrix"]
        assert len(matrix) == 2 and [len(r) for r in matrix] == [1, 2]
        assert report["cil"]["accuracy"] is not None
        out = tmp_path / "out"
        for name in CSV_NAMES + ("checkpoint.npz", "report.json"):
            assert (out / name).exists()

    def test_same_seed_byte_identical_csvs(self, tmp_path):
        cfg = _write_config(tmp_path)
        run(cfg, out=tmp_path / "a")
        run(cfg, out=tmp_path / "b")
        for name in CSV_NAMES:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_missing_dataset_exits_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[stream]\nkind = permuted\ntrain_images = /nonexistent\n"
            "train_labels = /nonexistent\ntest_images = /nonexistent\n"
            "test_labels = /nonexistent\n")
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_training_error_exits_three(self, tmp_path, monkeypatch):
        import spikecl.cli as cli

        def boom(*args, **kwargs):
            raise TrainingError("loss diverged (synthetic)")

        monkeypatch.setattr(cli, "learn_task", boom)
        assert main(["run", str(_write_config(tmp_path))]) == EXIT_TRAINING

    def test_diverging_run_exits_three(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, tasks=3, lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(cfg)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert "training error" in err and "seed 0, task 0, epoch 0" in err

    def test_main_exit_ok(self, tmp_path):
        assert main(["run", str(_write_config(tmp_path))]) == EXIT_OK

    @pytest.mark.parametrize("section,key,value,message", [
        ("train", "epochs", "abc", "[train] epochs = 'abc'"),
        ("train", "batch_size", "1e3", "[train] batch_size = '1e3'"),
        ("stream", "spread", "x", "[stream] spread = 'x'"),
        ("network", "input_shape", "1xax3", "CxHxW"),
        ("train", "epochs", "0", "epochs must be positive"),
        ("replay", "capacity", "0", "replay_capacity must be positive"),
        ("expansion", "alpha", "0", "alpha must be positive"),
        ("stream", "classes_per_task", "0", "classes per task must be >= 1"),
        ("stream", "tasks", "0", "task count must be >= 1"),
        ("stream", "n_train", "0", "training samples per class must be >= 1"),
        ("stream", "n_test", "0", "test samples per class must be >= 1"),
        ("similarity", "probe_size", "0", "probe_size must be positive"),
        ("stream", None, None, "no [stream] section"),
        ("similarity", "mode", "bogus", "unknown similarity mode 'bogus'"),
        ("similarity", "gamma", "0", "gamma must lie in (0, 1]"),
        ("expansion", "max_per_layer", "4", "expected 2 expansion counts"),
    ], ids=["epochs=abc", "batch_size=1e3", "spread=x", "input_shape=1xax3",
            "epochs=0", "capacity=0", "alpha=0", "classes_per_task=0",
            "tasks=0", "n_train=0", "n_test=0", "probe_size=0",
            "no-stream-section", "mode=bogus", "gamma=0",
            "max_per_layer-length"])
    def test_bad_value_exits_config_error_before_training(
            self, tmp_path, capsys, monkeypatch, section, key, value, message):
        import spikecl.cli as cli

        learned = []
        monkeypatch.setattr(cli, "learn_task",
                            lambda *args: learned.append(args))
        cfg = configparser.ConfigParser()
        cfg.read_string(CONFIG.format(out=tmp_path / "out", tasks=2, lr=0.01))
        if key is None:
            cfg.remove_section(section)
        else:
            if not cfg.has_section(section):
                cfg.add_section(section)
            cfg[section][key] = value
        path = tmp_path / "bad.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert learned == []

    def test_literal_forms_come_from_ini_keys(self, tmp_path):
        cfg = configparser.ConfigParser()
        cfg.read_string(CONFIG.format(out=tmp_path, tasks=2, lr=0.01))
        cfg["lif"]["reset_mode"] = "literal-eq3"
        cfg["similarity"]["mode"] = "literal"
        tcfg = build_train_config(cfg, seed=0)
        assert tcfg.lif.reset_mode == LITERAL_EQ3
        assert tcfg.sim_mode == LITERAL

    def test_final_til_reuses_the_last_matrix_row(self, tmp_path,
                                                  monkeypatch):
        import spikecl.cli as cli

        original, calls = cli.til_evaluate, []

        def counted(network, tasks):
            calls.append(len(tasks))
            return original(network, tasks)

        monkeypatch.setattr(cli, "til_evaluate", counted)
        report = run(_write_config(tmp_path, tasks=3))
        assert calls == [1, 2, 3]
        final = report["accuracy_matrix"][-1]
        assert report["til"] == {"per_task": final,
                                 "average": sum(final) / len(final)}

    def test_report_echo_reproducibility_fields(self, tmp_path):
        report = run(_write_config(tmp_path))
        assert report["config"]["run"]["seed"] == "0"
        assert set(report["artifacts"]) == set(CSV_NAMES) | {"checkpoint.npz"}
        assert all(len(v) == 64 for v in report["artifacts"].values())


class TestEvaluate:
    def test_matches_run_metrics(self, tmp_path):
        cfg = _write_config(tmp_path)
        report = run(cfg)
        ckpt = tmp_path / "out" / "checkpoint.npz"
        eval_report = evaluate(ckpt, cfg, out=tmp_path / "eval")
        assert eval_report["til"] == report["til"]
        assert eval_report["cil"] == report["cil"]

    def test_task_count_mismatch_rejected(self, tmp_path):
        cfg2 = _write_config(tmp_path, tasks=2)
        run(cfg2)
        ckpt = tmp_path / "out" / "checkpoint.npz"
        cfg3 = _write_config(tmp_path, tasks=3, name="three.ini", out="out3")
        assert main(["evaluate", str(ckpt), str(cfg3)]) == EXIT_CONFIG

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        cfg = _write_config(tmp_path)
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(b"\x00" * 32)
        assert main(["evaluate", str(bad), str(cfg)]) == EXIT_CONFIG

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = _write_config(tmp_path)
        run(cfg)
        ckpt = tmp_path / "out" / "checkpoint.npz"
        # a different seed builds a different stream: class lists still match
        # (synthetic ids are positional) but accuracies will differ
        r0 = evaluate(ckpt, cfg, out=tmp_path / "e0")
        r1 = evaluate(ckpt, cfg, seed=1, out=tmp_path / "e1")
        assert r0["til"] != r1["til"]


PERMUTED_CONFIG = """\
[stream]
kind = permuted
tasks = 2
train_images = {d}/train-images
train_labels = {d}/train-labels
test_images = {d}/test-images
test_labels = {d}/test-labels

[network]
arch = dense8
input_shape = 1x3x3

[lif]
window = 2

[train]
epochs = 1
batch_size = 8

[similarity]
probe_size = 16

[replay]
capacity = 20
calib_epochs = 1
"""


def _write_idx(path, array, magic):
    dims = struct.pack(">" + "I" * array.ndim, *array.shape)
    path.write_bytes(struct.pack(">I", magic) + dims
                     + array.astype(np.uint8).tobytes())


class TestTilOnlyStream:
    def test_permuted_stream_skips_cil_in_run_and_evaluate(self, tmp_path,
                                                            monkeypatch):
        import spikecl.trainer as trainer

        original, calibrations = trainer.calibrate_heads, []

        def counted(*args, **kwargs):
            calibrations.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "calibrate_heads", counted)
        rng = np.random.default_rng(0)
        for split, n in (("train", 16), ("test", 8)):
            labels = np.arange(n) % 2
            images = rng.integers(0, 60, size=(n, 3, 3))
            images += 150 * labels.reshape(-1, 1, 1)
            _write_idx(tmp_path / f"{split}-images", images, 0x803)
            _write_idx(tmp_path / f"{split}-labels", labels, 0x801)
        cfg = tmp_path / "permuted.ini"
        cfg.write_text(PERMUTED_CONFIG.format(d=tmp_path))
        skipped = {"accuracy": None,
                   "skipped": "class labels repeat across tasks "
                              "(TIL-only stream)"}
        report = run(cfg, out=tmp_path / "run")
        assert report["cil"] == skipped
        assert len(report["til"]["per_task"]) == 2
        assert calibrations == []  # no replay on a TIL-only stream
        again = evaluate(tmp_path / "run" / "checkpoint.npz", cfg,
                         out=tmp_path / "eval")
        assert again["cil"] == skipped
        assert again["til"] == report["til"]


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    cfg = _write_config(tmp)
    run(cfg)
    with np.load(tmp / "out" / "checkpoint.npz") as data:
        arrays = dict(data)
    return tmp, cfg, arrays


class TestCheckpointValidation:
    @pytest.mark.parametrize("change,message", [
        ("version 1", "checkpoint version 1 unsupported"),
        ("version 2", "checkpoint version 2 unsupported"),
        ("version 3", "checkpoint version 3 unsupported"),
        ("task0/conn1", "task0/conn1 has shape (9, 12)"),
    ])
    def test_old_format_or_wider_prefix_exits_config_error(
            self, saved_run, tmp_path, capsys, change, message):
        _, cfg, arrays = saved_run
        arrays = dict(arrays)
        if change.startswith("version"):
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            meta["version"] = int(change.split()[1])
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                               dtype=np.uint8)
        else:  # one row wider than task 0's prefix of layer 1
            conn = arrays[change]
            arrays[change] = np.vstack([conn, conn[:1]])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert main(["evaluate", str(bad), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["task1/conn1", "layer1/w",
                                      "task0/head_w"])
    def test_column_cut_exits_config_error(self, saved_run, tmp_path, capsys,
                                           name):
        _, cfg, arrays = saved_run
        arrays = dict(arrays, **{name: arrays[name][:, :-1]})
        bad = tmp_path / "cut.npz"
        np.savez(bad, **arrays)
        assert main(["evaluate", str(bad), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    def test_missing_array_exits_config_error(self, saved_run, tmp_path,
                                              capsys):
        _, cfg, arrays = saved_run
        arrays = {k: v for k, v in arrays.items() if k != "task1/head_b"}
        bad = tmp_path / "truncated.npz"
        np.savez(bad, **arrays)
        assert main(["evaluate", str(bad), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert "task1/head_b" in capsys.readouterr().err

    def test_intact_copy_still_evaluates(self, saved_run, tmp_path):
        _, cfg, arrays = saved_run
        good = tmp_path / "copy.npz"
        np.savez(good, **arrays)
        assert main(["evaluate", str(good), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK
