"""Command-line runner: config parsing, report layout, exit codes, determinism."""

import configparser
import contextlib
import dataclasses
import itertools
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from spikecl import streams
from spikecl.cli import (EXIT_CONFIG, EXIT_OK, EXIT_TRAINING, build_stream,
                         build_train_config, evaluate, main, parse_arch, run,
                         _parse_shape)
from spikecl.errors import ConfigError, TrainingError
from spikecl.network import ConvSpec, DenseSpec
from spikecl.spiking import LITERAL_EQ3, LIFConfig
from spikecl.trainer import TrainConfig

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

# the smallest run that reaches every stage: two tasks, one epoch
SWEEP_CONFIG = """\
[stream]
kind = synthetic
tasks = 2
classes_per_task = 2
n_train = 4
n_test = 2

[network]
arch = dense4,dense3
input_shape = 1x2x2

[lif]
window = 1

[train]
epochs = 1
batch_size = 8

[similarity]
probe_size = 8

[replay]
capacity = 8
calib_epochs = 1
"""

# the values the sweeps set each key of ``_sweep_keys`` to, and further
# values of the keys that do not read a number, for the two-key sweep
SWEEP_VALUES = ["-1", "0", "-0", "nan", "inf", "1e308", "1e-300", "5e-324"]
SWEEP_TEXT = {
    ("network", "arch"): ["conv2k3s2p1,dense3", "conv3k1,conv2k2s1p0,dense2",
                          "conv2k5s1p0,dense3", "dense1"],
    ("network", "input_shape"): ["1x3x3", "2x2x2", "1x1x1", "3x4x5"],
    ("lif", "reset_mode"): ["literal-eq3", "hard-reset", "bogus"],
}


def _sweep_keys():
    """(section, key) of every INI key a synthetic-stream run reads."""
    import spikecl.cli as cli

    keys = [(section, key) for section, given in cli._SECTIONS.items()
            for key in given]
    return keys + [("stream", key) for key in cli._STREAM_KINDS["synthetic"]]


@pytest.fixture(autouse=True)
def _empty_working_directory(tmp_path_factory, monkeypatch):
    """Each test starts in an empty directory of its own, which it must
    leave empty: a run given no output path writes ``runs/latest`` where
    it starts."""
    home = tmp_path_factory.mktemp("cwd")
    monkeypatch.chdir(home)
    yield
    assert [p.name for p in home.iterdir()] == []


def _sweep_code(tmp_path, settings):
    """Exit code of ``run`` on SWEEP_CONFIG with each (section, key, value)
    of ``settings`` set, or the repr of the exception it raised, so one
    sweep names every failure.  The run starts in ``tmp_path``, where a
    relative ``[run] out``, the default ``runs/latest`` included, lands."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(SWEEP_CONFIG)
    for section, key, value in settings:
        if section not in cfg:
            cfg.add_section(section)
        cfg[section][key] = value
    path = tmp_path / "sweep.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    try:
        with np.errstate(all="ignore"), contextlib.chdir(tmp_path):
            return main(["run", str(path)])
    except Exception as exc:
        return repr(exc)


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
        # only an absent field defaults: an explicit zero stays
        assert parse_arch("conv4k0s0p0") == [ConvSpec(4, 0, 0, 0)]

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
        out = str(tmp_path / "out")
        assert main(["run", str(path), "--out", out]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    @pytest.mark.parametrize("binary", [False, True],
                             ids=["a-directory", "not-text"])
    def test_config_that_is_not_a_readable_file_exits_config_error(
            self, tmp_path, capsys, binary):
        path = tmp_path / "cfg"
        path.write_bytes(b"[run\xff") if binary else path.mkdir()
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert f"cannot read config {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [False, True], ids=["ini", "flag"])
    def test_empty_out_exits_config_error(self, tmp_path, capsys,
                                          monkeypatch, flag):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.format(out="x" * flag, tasks=2, lr=0.01))
        assert main(["run", str(path)] + ["--out", ""] * flag) == EXIT_CONFIG
        assert "output path is empty" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("settings", [
        [("similarity", "probe_size", "1")],
        # task 1's 3-row probe draws one class only at seed 4
        [("run", "seed", "4"), ("stream", "n_train", "20"),
         ("stream", "n_test", "10"), ("network", "arch", "dense8,dense4"),
         ("network", "input_shape", "1x3x3"),
         ("similarity", "probe_size", "3")]], ids=["one-row", "seed-4"])
    def test_similarity_probe_covers_every_class(self, tmp_path, settings):
        assert _sweep_code(tmp_path, settings) == EXIT_OK

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

    def test_diverging_calibration_exits_three(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "calib_lr = 1e308\n")  # in [replay]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(cfg)]) == EXIT_TRAINING
        err = capsys.readouterr().err
        assert "training error" in err
        assert "seed 0, head calibration" in err

    def test_calibration_diverging_on_its_last_step_exits_three(
            self, tmp_path, capsys):
        # one step of one epoch: only the check after the fit can see it
        cfg = tmp_path / "calib.ini"
        cfg.write_text(
            "[stream]\nkind = synthetic\ntasks = 2\nn_train = 40\n"
            "n_test = 20\n\n[network]\narch = dense16,dense8\n\n"
            "[train]\nepochs = 2\n\n[replay]\ncapacity = 20\n"
            "calib_epochs = 1\ncalib_lr = 1e308\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_TRAINING
        assert "seed 0, head calibration" in capsys.readouterr().err

    def test_layer_with_every_unit_pruned_runs(self, tmp_path):
        # task 1 adds no final-layer unit and prunes all 8 reused ones
        cfg = tmp_path / "empty.ini"
        cfg.write_text(
            "[stream]\nkind = synthetic\ntasks = 2\nn_train = 40\n"
            "n_test = 20\n\n[network]\narch = dense16,dense8\n\n"
            "[train]\nepochs = 2\n\n[expansion]\nmax_per_layer = 4,0\n\n"
            "[reuse]\nbeta = -100\n")
        out, again = tmp_path / "out", tmp_path / "eval"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["evaluate", str(out / "checkpoint.npz"), str(cfg),
                     "--out", str(again)]) == EXIT_OK
        for d in (out, again):
            report = json.loads((d / "report.json").read_text())
            # no feature left: the logits are the bias, so chance on 2 classes
            assert report["til"]["per_task"][1] == 0.5

    def test_conv_layer_with_no_active_input_channel_runs(self, tmp_path,
                                                          monkeypatch):
        # task 1 adds no layer-0 unit and prunes all 4 reused ones, so the
        # second conv layer reads a 0-channel input
        import spikecl.network as network

        channels, original = set(), network.conv2d

        def recorded(x, kernels, *args):
            channels.add(x.shape[1])
            return original(x, kernels, *args)

        monkeypatch.setattr(network, "conv2d", recorded)
        cfg = tmp_path / "empty.ini"
        cfg.write_text(
            "[stream]\nkind = synthetic\ntasks = 2\nn_train = 40\n"
            "n_test = 20\n\n[network]\n"
            "arch = conv4k3s2p1,conv4k3s2p1,dense8\ninput_shape = 1x5x5\n\n"
            "[train]\nepochs = 3\n\n[expansion]\nmax_per_layer = 0,2,2\n\n"
            "[reuse]\nbeta = -100\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_OK
        assert 0 in channels

    def test_disjoint_run_calibrates_once_after_the_last_task(
            self, tmp_path, monkeypatch):
        import spikecl.trainer as trainer

        original, calibrated = trainer.calibrate_heads, []

        def counted(network, buffer, cfg):
            calibrated.append(sorted(network.masks))
            return original(network, buffer, cfg)

        monkeypatch.setattr(trainer, "calibrate_heads", counted)
        report = run(_write_config(tmp_path, tasks=3))
        assert calibrated == [[0, 1, 2]]
        assert report["timings_s"]["calibrate_heads"] > 0.0

    def test_one_task_run_reports_cil_equal_to_til(self, tmp_path):
        report = run(_write_config(tmp_path, tasks=1))
        assert report["cil"]["accuracy"] == report["til"]["average"]
        with np.load(tmp_path / "out" / "checkpoint.npz") as data:
            np.testing.assert_array_equal(data["task0/cil_w"],
                                          data["task0/head_w"])
            np.testing.assert_array_equal(data["task0/cil_b"],
                                          data["task0/head_b"])

    def test_main_exit_ok(self, tmp_path):
        assert main(["run", str(_write_config(tmp_path))]) == EXIT_OK

    def test_percent_in_a_value_is_literal(self, tmp_path):
        cfg = _write_config(tmp_path, tasks=1, out="runs/100%")
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "runs" / "100%" / "report.json").exists()

    def test_kernel_larger_than_input_exits_config_error(self, tmp_path,
                                                         capsys):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            "arch = dense12,dense8", "arch = conv4k5s1p0,dense8"))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "kernel 5x5 is larger than its padded input: input 3x3" in err

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
        ("similarity", "mode", "bogus", "unknown key [similarity] mode"),
        ("similarity", "mode", "literal", "unknown key [similarity] mode"),
        ("run", "seed", "-1", "seed must be >= 0, got -1"),
        ("stream", "spread", "-1", "spread must be finite and >= 0, got -1.0"),
        ("stream", "variance", "nan",
         "isotropic variance must be positive and finite, got nan"),
        ("similarity", "gamma", "0", "gamma must lie in (0, 1]"),
        ("similarity", "gamma", "1e-300", "be >= 1e-09, got 1e-300"),
        ("expansion", "max_per_layer", "4", "expected 2 expansion counts"),
        ("expansion", "alpha", "nan", "alpha must be positive and finite"),
        ("lif", "v_th", "nan", "v_th must be positive and finite"),
        ("lif", "lambda", "inf", "lambda must be positive and finite"),
        ("train", "lr", "inf", "learning rates must be positive and finite"),
        ("replay", "calib_lr", "nan",
         "learning rates must be positive and finite"),
        ("reuse", "beta", "nan", "beta, bias0 and bias_slope must be finite"),
        ("train", "epoch", "50", "unknown key [train] epoch"),
        ("replay", "mix", "0.5", "unknown key [replay] mix"),
        ("bogus", "x", "1", "unknown section [bogus]"),
        ("DEFAULT", "epochs", "2", "unknown key [DEFAULT] epochs"),
        ("network", "arch", "conv4k0,dense8", "kernel and stride must be"),
        ("network", "arch", "conv4s0,dense8", "kernel and stride must be"),
        ("stream", "angles", "0,90",
         "unknown key [stream] angles for kind 'synthetic'"),
        ("stream", "limit_train", "0",
         "unknown key [stream] limit_train for kind 'synthetic'"),
        ("stream", "kind", "bogus", "unknown stream kind 'bogus'"),
    ], ids=["epochs=abc", "batch_size=1e3", "spread=x", "input_shape=1xax3",
            "epochs=0", "capacity=0", "alpha=0", "classes_per_task=0",
            "tasks=0", "n_train=0", "n_test=0", "probe_size=0",
            "no-stream-section", "mode=bogus", "mode=literal", "seed=-1",
            "spread=-1", "variance=nan", "gamma=0", "gamma=1e-300",
            "max_per_layer-length", "alpha=nan",
            "v_th=nan", "lambda=inf", "lr=inf", "calib_lr=nan", "beta=nan",
            "train-epoch", "replay-mix", "bogus-section", "default-section",
            "arch=conv4k0", "arch=conv4s0", "synthetic-angles",
            "synthetic-limit_train", "kind=bogus"])
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
            if section not in cfg:
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

    def test_unknown_key_exits_config_error_before_loading(self, tmp_path,
                                                           capsys):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "mix = 0.5\n")  # under [replay]
        missing = tmp_path / "no-such-checkpoint.npz"
        assert main(["evaluate", str(missing), str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key [replay] mix" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_negative_seed_option_exits_config_error(self, tmp_path, capsys,
                                                     command):
        paths = [str(_write_config(tmp_path))]
        if command == "evaluate":  # the seed is checked before the checkpoint
            paths.insert(0, str(tmp_path / "no-such-checkpoint.npz"))
        assert main([command, *paths, "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_every_value_ends_in_an_exit_code(self, tmp_path):
        outcomes = {}
        for (section, key), value in itertools.product(_sweep_keys(),
                                                       SWEEP_VALUES):
            outcomes[f"[{section}] {key} = {value}"] = _sweep_code(
                tmp_path, [(section, key, value)])
        assert {k: c for k, c in outcomes.items()
                if c not in (EXIT_OK, EXIT_CONFIG, EXIT_TRAINING)} == {}
        # a non-finite stream value is bad data, not a diverged training
        assert {k: c for k, c in outcomes.items() if k.startswith("[stream]")
                and k.endswith(("nan", "inf")) and c != EXIT_CONFIG} == {}

    def test_two_keys_set_at_once_end_in_an_exit_code(self, tmp_path,
                                                      capsys):
        settings = [(section, key, value) for (section, key), value
                    in itertools.product(_sweep_keys(), SWEEP_VALUES)]
        settings += [(section, key, value)
                     for (section, key), values in SWEEP_TEXT.items()
                     for value in values]
        rng = np.random.default_rng(1)
        pairs = set()
        while len(pairs) < 300:
            a, b = sorted(rng.choice(len(settings), size=2, replace=False))
            if settings[a][:2] != settings[b][:2]:
                pairs.add((settings[a], settings[b]))
        outcomes = {}
        for pair in sorted(pairs):
            outcomes[" and ".join(f"[{s}] {k} = {v}" for s, k, v in pair)] = (
                _sweep_code(tmp_path, pair))
        assert {k: c for k, c in outcomes.items()
                if c not in (EXIT_OK, EXIT_CONFIG, EXIT_TRAINING)} == {}
        assert "Traceback" not in capsys.readouterr().err

    def test_literal_forms_come_from_ini_keys(self, tmp_path):
        cfg = configparser.ConfigParser()
        cfg.read_string(CONFIG.format(out=tmp_path, tasks=2, lr=0.01))
        cfg["lif"]["reset_mode"] = "literal-eq3"
        tcfg = build_train_config(cfg, seed=0)
        assert tcfg.lif.reset_mode == LITERAL_EQ3

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


def _write_permuted(tmp_path):
    rng = np.random.default_rng(0)
    for split, n in (("train", 16), ("test", 8)):
        labels = np.arange(n) % 2
        images = rng.integers(0, 60, size=(n, 3, 3))
        images += 150 * labels.reshape(-1, 1, 1)
        _write_idx(tmp_path / f"{split}-images", images, 0x803)
        _write_idx(tmp_path / f"{split}-labels", labels, 0x801)
    cfg = tmp_path / "permuted.ini"
    cfg.write_text(PERMUTED_CONFIG.format(d=tmp_path))
    return cfg


class TestTilOnlyStream:
    def test_permuted_stream_skips_cil_in_run_and_evaluate(self, tmp_path,
                                                            monkeypatch):
        import spikecl.trainer as trainer

        original, calibrations, fits = trainer.calibrate_heads, [], []
        loss, inside = trainer.softmax_cross_entropy, []

        def counted(*args, **kwargs):
            calibrations.append(args)
            inside.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        def spy(*args):  # training calls it too: a call inside is a fit
            if inside:
                fits.append(args)
            return loss(*args)

        monkeypatch.setattr(trainer, "calibrate_heads", counted)
        monkeypatch.setattr(trainer, "softmax_cross_entropy", spy)
        cfg = _write_permuted(tmp_path)
        skipped = {"accuracy": None,
                   "skipped": "class labels repeat across tasks "
                              "(TIL-only stream)"}
        report = run(cfg, out=tmp_path / "run")
        assert report["cil"] == skipped
        assert len(report["til"]["per_task"]) == 2
        # one call syncs the copies: no replay, so no fit, on a TIL-only stream
        assert [args[1] for args in calibrations] == [None]
        assert fits == []
        again = evaluate(tmp_path / "run" / "checkpoint.npz", cfg,
                         out=tmp_path / "eval")
        assert again["cil"] == skipped
        assert again["til"] == report["til"]

    def test_saved_cil_copies_equal_the_trained_heads(self, tmp_path):
        run(_write_permuted(tmp_path), out=tmp_path / "run")
        z = np.load(tmp_path / "run" / "checkpoint.npz")
        for t in range(2):
            np.testing.assert_array_equal(z[f"task{t}/cil_w"],
                                          z[f"task{t}/head_w"])
            np.testing.assert_array_equal(z[f"task{t}/cil_b"],
                                          z[f"task{t}/head_b"])


class TestFileStreamLimits:
    @pytest.mark.parametrize("key,value,message", [
        ("limit_train", "0", "[stream] limit_train must be >= 1, got 0"),
        ("limit_train", "-1", "[stream] limit_train must be >= 1, got -1"),
        ("limit_test", "0", "[stream] limit_test must be >= 1, got 0"),
        ("limit_train", "1", "task 0 has no training sample of class 1"),
        ("tasks", "2", "unknown key [stream] tasks for kind 'split'"),
        ("n_train", "8", "unknown key [stream] n_train for kind 'split'"),
    ])
    def test_bad_limit_exits_config_error(self, tmp_path, capsys, key, value,
                                          message):
        for split, n in (("train", 8), ("test", 4)):
            labels = np.arange(n) % 2
            _write_idx(tmp_path / f"{split}-images",
                       np.zeros((n, 3, 3)), 0x803)
            _write_idx(tmp_path / f"{split}-labels", labels, 0x801)
        cfg = tmp_path / "split.ini"
        cfg.write_text(PERMUTED_CONFIG.format(d=tmp_path).replace(
            "kind = permuted\ntasks = 2",
            f"kind = split\nclasses_per_task = 2\n{key} = {value}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestConfigSchema:
    def test_stream_kind_alone_gives_the_callee_defaults(self):
        cfg = configparser.ConfigParser()
        cfg.read_string("[stream]\nkind = synthetic\n")
        assert build_train_config(cfg, 0) == TrainConfig(seed=0)
        for got, want in zip(build_stream(cfg, 0),
                             streams.default_synthetic_stream(seed=0),
                             strict=True):
            np.testing.assert_array_equal(got.train_x, want.train_x)
            np.testing.assert_array_equal(got.test_y, want.test_y)

    def test_every_key_reaches_its_field(self):
        cfg = configparser.ConfigParser()
        cfg.read_dict({
            "stream": {"kind": "synthetic", "tasks": "3",
                       "classes_per_task": "3", "n_train": "7",
                       "n_test": "4", "spread": "1.5", "variance": "0.02"},
            "network": {"arch": "conv4k5s2p0,dense6",
                        "input_shape": "1x7x7"},
            "train": {"epochs": "3", "batch_size": "5", "lr": "0.25"},
            "lif": {"tau": "0.5", "v_th": "0.75", "lambda": "3.5",
                    "window": "6", "reset_mode": "literal-eq3"},
            "expansion": {"alpha": "1.5", "max_per_layer": "2,3"},
            "similarity": {"gamma": "0.5", "probe_size": "7"},
            "reuse": {"beta": "0.5", "bias0": "0.25", "bias_slope": "0.125"},
            "replay": {"capacity": "9", "calib_epochs": "2",
                       "calib_lr": "0.5"},
        })
        expected = TrainConfig(
            arch=[ConvSpec(4, 5, 2, 0), DenseSpec(6)], input_shape=(1, 7, 7),
            epochs=3, batch_size=5, lr=0.25,
            lif=LIFConfig(tau=0.5, v_th=0.75, lam=3.5, window=6,
                          reset_mode=LITERAL_EQ3),
            alpha=1.5, max_per_layer=(2, 3),
            gamma=0.5, probe_size=7, beta=0.5, bias0=0.25,
            bias_slope=0.125, replay_capacity=9, calib_epochs=2,
            calib_lr=0.5, seed=3)
        # every INI-settable field is off its default, so none can be lost
        for obj, default in ((expected, TrainConfig()),
                             (expected.lif, LIFConfig())):
            for f in dataclasses.fields(obj):
                if f.name != "smooth":  # not an INI key
                    assert getattr(obj, f.name) != getattr(default, f.name)
        assert build_train_config(cfg, 3) == expected
        tasks = build_stream(cfg, 3)
        for got, want in zip(tasks, streams.default_synthetic_stream(
                n_tasks=3, classes_per_task=3, shape=(1, 7, 7), n_train=7,
                n_test=4, spread=1.5, var=0.02, seed=3), strict=True):
            assert got.classes == want.classes
            np.testing.assert_array_equal(got.train_x, want.train_x)
            np.testing.assert_array_equal(got.test_x, want.test_x)

    @pytest.mark.parametrize("kind,keys,build", [
        ("permuted", "tasks = 3",
         lambda *data: streams.permuted_stream(*data, k=3, seed=4)[0]),
        ("split", "classes_per_task = 1",
         lambda *data: streams.split_stream(*data, classes_per_task=1)),
        ("rotated", "angles = 0,90",
         lambda *data: streams.rotated_stream(*data, angles=(0, 90))),
    ])
    def test_idx_kind_keys_reach_their_builder(self, tmp_path, kind, keys,
                                               build):
        path = _write_permuted(tmp_path)
        path.write_text(path.read_text().replace(
            "kind = permuted\ntasks = 2",
            f"kind = {kind}\n{keys}\nlimit_train = 12\nlimit_test = 6"))
        cfg = configparser.ConfigParser()
        cfg.read(path)
        data = [streams.load_idx(tmp_path / f"{split}-{part}")[:n]
                for split, n in (("train", 12), ("test", 6))
                for part in ("images", "labels")]
        for got, want in zip(build_stream(cfg, 4), build(*data),
                             strict=True):
            assert got.classes == want.classes
            for name in ("train_x", "train_y", "test_x", "test_y"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))


class TestInputChecks:
    def _split_config(self, tmp_path, input_shape="1x3x3"):
        cfg = tmp_path / "split.ini"
        cfg.write_text(PERMUTED_CONFIG.format(d=tmp_path).replace(
            "kind = permuted\ntasks = 2",
            "kind = split\nclasses_per_task = 2").replace(
            "input_shape = 1x3x3", f"input_shape = {input_shape}"))
        return cfg

    def _write_split(self, tmp_path, counts, side=3):
        for split, (n_images, n_labels) in counts.items():
            _write_idx(tmp_path / f"{split}-images",
                       np.zeros((n_images, side, side)), 0x803)
            _write_idx(tmp_path / f"{split}-labels",
                       np.arange(n_labels) % 2, 0x801)

    @pytest.mark.parametrize("counts,message", [
        ({"train": (8, 6), "test": (4, 4)}, "train-images holds 8 images but"),
        ({"train": (8, 8), "test": (4, 5)}, "test-labels holds 5 labels"),
    ])
    def test_label_rows_must_match_image_rows(self, tmp_path, capsys, counts,
                                              message):
        self._write_split(tmp_path, counts)
        cfg = self._split_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_images_must_match_input_shape(self, tmp_path, capsys):
        self._write_split(tmp_path, {"train": (8, 8), "test": (4, 4)})
        cfg = self._split_config(tmp_path, input_shape="1x4x4")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert ("task 0 inputs have shape (1, 3, 3) but the network input is "
                "(1, 4, 4)") in capsys.readouterr().err

    def test_task_without_test_sample_exits_config_error(self, tmp_path,
                                                         capsys):
        # classes 2 and 3, task 1's, have training rows but no test row
        for split, n, classes in (("train", 16, 4), ("test", 8, 2)):
            _write_idx(tmp_path / f"{split}-images", np.zeros((n, 3, 3)),
                       0x803)
            _write_idx(tmp_path / f"{split}-labels", np.arange(n) % classes,
                       0x801)
        cfg = self._split_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "task 1 has no test sample" in err

    def test_dataset_path_naming_a_directory_exits_config_error(
            self, tmp_path, capsys):
        self._write_split(tmp_path, {"train": (8, 8), "test": (4, 4)})
        (tmp_path / "test-labels").unlink()
        (tmp_path / "test-labels").mkdir()
        cfg = self._split_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"[stream] test_labels = {tmp_path / 'test-labels'} is not " \
               f"a file" in err

    def test_evaluate_stream_must_match_checkpoint_input(self, tmp_path,
                                                         capsys):
        self._write_split(tmp_path, {"train": (8, 8), "test": (4, 4)})
        cfg = self._split_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_OK
        self._write_split(tmp_path, {"train": (8, 8), "test": (4, 4)}, side=4)
        assert main(["evaluate", str(tmp_path / "out" / "checkpoint.npz"),
                     str(self._split_config(tmp_path, input_shape="1x4x4")),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert ("task 0 inputs have shape (1, 4, 4) but the network input is "
                "(1, 3, 3)") in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    cfg = _write_config(tmp)
    run(cfg)
    with np.load(tmp / "out" / "checkpoint.npz") as data:
        arrays = dict(data)
    return tmp, cfg, arrays


def _refuse(*args, **kwargs):
    raise AssertionError("ran before the output path was checked")


class TestOutputPath:
    @pytest.mark.parametrize("below", [False, True],
                             ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_unusable_out_exits_config_error_before_any_work(
            self, saved_run, tmp_path, capsys, monkeypatch, command, below):
        import spikecl.cli as cli

        monkeypatch.setattr(cli, "learn_task", _refuse)
        monkeypatch.setattr(cli, "til_evaluate", _refuse)
        saved, cfg, _ = saved_run
        out = tmp_path / "afile"
        out.write_text("")
        out = out / "sub" if below else out
        args = ([command, str(cfg)] if command == "run" else
                [command, str(saved / "out" / "checkpoint.npz"), str(cfg)])
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"cannot create output directory {out}" in err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_a_failed_check_leaves_no_output_directory(
            self, saved_run, tmp_path, capsys, command):
        saved, _, _ = saved_run
        cfg = tmp_path / "missing.ini"
        cfg.write_text("[stream]\nkind = permuted\n" + "".join(
            f"{key} = {tmp_path / 'absent'}\n"
            for key in ("train_images", "train_labels", "test_images",
                        "test_labels")))
        args = ([command, str(cfg)] if command == "run" else
                [command, str(saved / "out" / "checkpoint.npz"), str(cfg)])
        assert main(args + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "is not a file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCheckpointValidation:
    @pytest.mark.parametrize("change,message", [
        ("version 1", "checkpoint version 1 unsupported"),
        ("version 2", "checkpoint version 2 unsupported"),
        ("version 3", "checkpoint version 3 unsupported"),
        ("version 4", "checkpoint version 4 unsupported"),
        ("version 5", "checkpoint version 5 unsupported"),
        ("task0/active1 wider than task 1's",
         "task1/active1 has 15 units, fewer than task 0's 16"),
        ("task0/active1 float", "task0/active1 has dtype float64"),
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
        elif change.endswith("float"):
            arrays["task0/active1"] = arrays["task0/active1"].astype(float)
        else:  # one unit wider than all of layer 1 at task 1
            active = arrays["task1/active1"]
            arrays["task0/active1"] = np.concatenate([active, active[:1]])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        assert main(["evaluate", str(bad), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["task1/cil_w", "layer1/w",
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

    def test_weight_outside_synapses_exits_config_error(self, saved_run,
                                                        tmp_path, capsys):
        _, cfg, arrays = saved_run
        w = arrays["layer1/w"].copy()
        # row 0 is task 0's and reads only its 12 layer-0 units
        assert w.shape[1] > 12
        w[0, -1] = 0.5
        bad = tmp_path / "grown.npz"
        np.savez(bad, **dict(arrays, **{"layer1/w": w}))
        assert main(["evaluate", str(bad), str(cfg),
                     "--out", str(tmp_path / "eval")]) == EXIT_CONFIG
        assert "layer1/w has nonzero weights" in capsys.readouterr().err

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
