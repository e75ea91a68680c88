"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line with the
measured quantity so the suite output doubles as a results summary.
"""

import math
import time

import numpy as np
import pytest

from spikecl.metrics import count_active, energy, flops_estimate
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.plasticity import association, expansion_counts
from spikecl.similarity import (compute_anchors, kl_estimate,
                                similarity_score, similarity_vector)
from spikecl.spiking import LIFConfig, lif_step, surrogate_grad
from spikecl.streams import (GaussianClass, SyntheticTaskSpec,
                             default_synthetic_stream, synthetic_stream)
from spikecl.trainer import (ReplayBuffer, TrainConfig, calibrate_heads,
                             cil_evaluate, learn_task, step_gradients,
                             til_evaluate)

from oracles import finite_diff_arrays, gaussian_kl

SHAPE3 = (1, 3, 3)


def _line_task(var=0.02, n_train=160, n_test=40):
    """A two-class task whose means vary across pixels (permutation-sensitive)."""
    return SyntheticTaskSpec(
        [GaussianClass(0, np.linspace(-0.5, 1.0, 9), var),
         GaussianClass(1, np.linspace(1.2, -0.3, 9), var)], n_train, n_test)


def _wave_task(n_train=160, n_test=40):
    return SyntheticTaskSpec(
        [GaussianClass(2, np.cos(np.arange(9)) * 2 - 1, 0.02),
         GaussianClass(3, np.sin(np.arange(9)) * 2 + 1, 0.02)],
        n_train, n_test)


def _toy_cfg(seed, epochs=4, window=2, probe=64):
    return TrainConfig(arch=[DenseSpec(12), DenseSpec(8)], input_shape=SHAPE3,
                       epochs=epochs, batch_size=16, lr=0.01,
                       probe_size=probe, lif=LIFConfig(window=window),
                       seed=seed)


def test_criterion_1_gradient_correctness():
    """2-conv/2-dense smoothed SNN, T=2: autodiff vs central differences."""
    start = time.perf_counter()
    worst = 0.0
    n_params = 0
    for seed in range(20):
        task = default_synthetic_stream(n_tasks=1, classes_per_task=2,
                                        shape=(1, 5, 5), n_train=8, n_test=4,
                                        seed=seed)[0]
        # v_th=0.4 keeps quiescent units off the surrogate's branch point,
        # where one-sided curvature would poison the central differences
        lif = LIFConfig(window=2, smooth=True, v_th=0.4, lam=2.0)
        net = init_first_task(
            [ConvSpec(2, 3, 1, 0), ConvSpec(2, 3, 1, 0), DenseSpec(5),
             DenseSpec(4)], (1, 5, 5), task, lif=lif, seed=seed)
        params = [p for p, _ in net.parameters(0)]
        n_params = sum(p.size for p in params)
        x = task.train_x[:2]
        labels = np.array([0, 1])

        def loss():
            return step_gradients(net, x, labels, 0)[0]

        grads = step_gradients(net, x, labels, 0)[1]
        worst = max(worst, finite_diff_arrays(loss, params, grads, step=1e-5))
    elapsed = time.perf_counter() - start
    assert n_params <= 1000
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: max relative gradient error {worst:.3e} "
          f"over 20 seeds, {n_params} params, {elapsed:.1f}s")


def test_criterion_2_equation_fidelity():
    """Reference arithmetic: surrogate branches, min/floor maps, R update, energy."""
    # surrogate branch points
    assert surrogate_grad(np.array([0.0]), 2.0)[0] == 2.0
    assert surrogate_grad(np.array([1.0]), 2.0)[0] == 0.0  # |u| = 2/lambda
    assert surrogate_grad(np.array([0.25]), 2.0)[0] == 1.0
    # association is the minimum similarity
    from spikecl.similarity import SimilarityRecord
    sims = [SimilarityRecord(0, 0.0, 0.74),
            SimilarityRecord(1, 0.0, 0.29)]
    assert association(sims) == 0.29
    # expansion sizing reference value
    counts = expansion_counts(0.29, 5.0, (100,))
    assert counts == [76] and math.floor(100 * (1 - math.exp(-1.45))) == 76
    # one-step membrane trace
    cfg = LIFConfig(tau=0.2, v_th=1.0)
    membrane, spikes = lif_step(np.array([0.8]), np.array([0.0]),
                                np.array([0.5]), cfg)
    assert membrane[0] == pytest.approx(0.66)
    assert spikes[0] == 0.0
    # relatedness one-step arithmetic: R' = 0.99*0 - e^0 * (2*Norm - rho)
    assert 0.99 * 0.0 - 1.0 * (2 * 1.0 - 1.0) == -1.0
    assert 0.99 * 0.0 - 1.0 * (2 * 0.0 - 0.71) == pytest.approx(0.71)
    # energy arithmetic
    assert energy(10 ** 6, "snn", window=4) == pytest.approx(3.6e6)
    assert energy(10 ** 6, "dnn") == pytest.approx(4.6e6)
    print("\nPASS criterion 2: equation-fidelity reference values exact")


def test_criterion_3_similarity_oracle():
    start = time.perf_counter()
    # (a) ordering against the closed-form Gaussian KL on 3-way sets
    ordered = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = 8
        base_mean = rng.normal(size=d)
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        base = rng.normal(base_mean, 1.0, size=(600, d))
        anchors_p = compute_anchors({0: base})
        truths, estimates = [], []
        for scale in rng.permutation([0.7, 2.0, 5.0]):
            mean = base_mean + scale * direction
            truths.append(gaussian_kl(mean, 1.0, base_mean, 1.0))
            samples = rng.normal(mean, 1.0, size=(600, d))
            anchors_tp = compute_anchors({0: samples[300:]})
            kl = kl_estimate({0: samples[:300]}, anchors_p, anchors_tp,
                             gamma=1.0)
            estimates.append(kl)
        if np.argsort(truths).tolist() == np.argsort(estimates).tolist():
            ordered += 1  # rank correlation 1 on the 3-way ordering
    assert ordered == 10

    # (b) identical task scores below a pixel-permuted version of itself
    hits = 0
    for seed in range(20):
        cfg = _toy_cfg(seed, epochs=12, probe=128)
        t0 = synthetic_stream([_line_task()], SHAPE3, seed=seed)[0]
        net, _ = learn_task(None, t0, cfg)
        dup = synthetic_stream([_line_task()], SHAPE3, seed=seed + 500)[0]
        dup.id = 1
        s_dup = similarity_vector(net, dup, probe_size=128,
                                  seed=seed + 9)[0].s
        perm = np.random.default_rng(seed + 77).permutation(9)
        permuted = synthetic_stream([_line_task()], SHAPE3, seed=seed + 500)[0]
        permuted.id = 1
        flat = permuted.train_x.reshape(-1, 9)[:, perm]
        permuted.train_x = flat.reshape(permuted.train_x.shape)
        s_perm = similarity_vector(net, permuted, probe_size=128,
                                   seed=seed + 9)[0].s
        hits += s_dup < s_perm
    elapsed = time.perf_counter() - start
    assert hits >= 19  # >= 95% of 20 seeds
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: ordering 10/10, identical<permuted "
          f"{hits}/20 seeds, {elapsed:.1f}s")


def test_criterion_4_expansion_and_pruning_direction():
    ok_expansion = 0
    ok_pruning = 0
    for seed in range(20):
        cfg = _toy_cfg(seed)
        t0 = synthetic_stream([_line_task(n_train=120)], SHAPE3, seed=seed)[0]
        net, _ = learn_task(None, t0, cfg)

        def sized(task):
            sims = similarity_vector(net, task, probe_size=64, seed=seed + 7)
            return expansion_counts(association(sims), 5.0, (12, 8))

        dup = synthetic_stream([_line_task(n_train=120)], SHAPE3,
                               seed=seed + 100)[0]
        dup.id = 1
        dissimilar = synthetic_stream([_wave_task(n_train=120)], SHAPE3,
                                      seed=seed + 200)[0]
        dissimilar.id = 1
        c_dup, c_dis = sized(dup), sized(dissimilar)
        ok_expansion += all(a <= 0.25 * b for a, b in zip(c_dup, c_dis))

        # stream: related task 0, unrelated task 1, then a near-duplicate of 0
        net, _ = learn_task(net, dissimilar, cfg)
        dup2 = synthetic_stream([_line_task(n_train=120)], SHAPE3,
                                seed=seed + 300)[0]
        dup2.id = 2
        dup2.classes = [4, 5]
        dup2.train_y = dup2.train_y + 4
        dup2.test_y = dup2.test_y + 4
        net, log = learn_task(net, dup2, cfg)
        rates = log["pruning_rates"]
        ok_pruning += rates.get(1, 0.0) > rates.get(0, 0.0)
    assert ok_expansion >= 18  # >= 90% of 20 seeds
    assert ok_pruning >= 18
    print(f"\nPASS criterion 4: expansion ratio {ok_expansion}/20, "
          f"pruning direction {ok_pruning}/20 seeds")


def test_criterion_5_zero_til_forgetting():
    for seed in range(3):
        stream = default_synthetic_stream(n_tasks=5, classes_per_task=2,
                                          shape=SHAPE3, n_train=80, n_test=40,
                                          seed=seed)
        cfg = _toy_cfg(seed)
        net = None
        immediate = []
        for task in stream:
            net, _ = learn_task(net, task, cfg)
            immediate.append(til_evaluate(net, [task])[0][0])
        final, _ = til_evaluate(net, stream)
        assert final == immediate  # bit-identical, not approximately equal
    print("\nPASS criterion 5: TIL accuracies bit-identical across 5 tasks, "
          "3 seeds")


def test_criterion_6_desk_scale_continual_run():
    start = time.perf_counter()
    cfg = TrainConfig(
        arch=[ConvSpec(8, 3, 2, 1), ConvSpec(16, 3, 2, 1), DenseSpec(64)],
        input_shape=(1, 9, 9), epochs=20, batch_size=32, lr=0.01,
        lif=LIFConfig(window=4), replay_capacity=2000, seed=0)
    stream = default_synthetic_stream(n_tasks=5, classes_per_task=2,
                                      shape=(1, 9, 9), n_train=400,
                                      n_test=200, seed=0)
    buffer = ReplayBuffer(cfg.replay_capacity)
    net = None
    for task in stream:
        net, _ = learn_task(net, task, cfg, buffer)
    calibrate_heads(net, buffer, cfg)
    _, til_avg = til_evaluate(net, stream)
    cil = cil_evaluate(net, stream)
    elapsed = time.perf_counter() - start
    assert til_avg >= 0.90
    assert cil >= 0.55
    assert elapsed < 1800.0
    print(f"\nPASS criterion 6: TIL {til_avg:.4f}, CIL {cil:.4f}, "
          f"{elapsed / 60:.1f} min")


def test_criterion_7_energy_exactness():
    shape = (2, 1, 1)
    task = default_synthetic_stream(n_tasks=1, classes_per_task=2,
                                    shape=shape, n_train=8, n_test=4,
                                    seed=0)[0]
    net = init_first_task([DenseSpec(10), DenseSpec(5)], shape, task,
                          lif=LIFConfig(window=4), seed=0)
    mask = net.masks[0]
    mask.active[0][:4] = False           # prune 4 of layer 1's 10 inputs
    mask.active[-1][:] = [True, True, False, True, False]
    # hand count: 6 units x 2 inputs + 3 units x 6 surviving inputs
    # + 3 head units x 2 classes; 6 + 3 active neurons
    conns, neurons = count_active(net, 0)
    assert conns == 6 * 2 + 3 * 6 + 3 * 2
    assert neurons == 9
    flops = flops_estimate(net, 0)
    assert flops == 12 + 18 + 6
    for window in (1, 4, 7):
        ratio = energy(flops, "snn", window=window) / energy(flops, "dnn")
        assert ratio == pytest.approx(0.9 * window / 4.6, rel=1e-15)
    print("\nPASS criterion 7: hand-counted FLOPs/active totals exact, "
          "snn/dnn ratio = 0.9T/4.6")


def test_criterion_8_determinism_and_persistence(tmp_path):
    from spikecl.cli import evaluate, run

    config = tmp_path / "run.ini"
    config.write_text(f"""\
[run]
seed = 0
out = {tmp_path / 'a'}

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
""")
    report_a = run(config, out=tmp_path / "a")
    report_b = run(config, out=tmp_path / "b")
    names = ("accuracy_matrix.csv", "similarity.csv", "pruning_rates.csv",
             "energy.csv")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    assert report_a["accuracy_matrix"] == report_b["accuracy_matrix"]
    # checkpoint round-trip preserves every evaluation metric exactly
    eval_report = evaluate(tmp_path / "a" / "checkpoint.npz", config,
                           out=tmp_path / "eval")
    assert eval_report["til"] == report_a["til"]
    assert eval_report["cil"] == report_a["cil"]
    print("\nPASS criterion 8: byte-identical CSVs and exact checkpoint "
          "round-trip metrics")
