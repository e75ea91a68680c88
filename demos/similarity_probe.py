"""How the similarity probe ranks incoming tasks.

Trains a small spiking network on one Gaussian-blob task, then scores three
candidate follow-up tasks against it: a fresh draw from the same distribution,
a pixel-permuted copy, and an unrelated task.  The duplicate should land near
similarity 0 and trigger almost no expansion; the others should not.
"""

import numpy as np

from spikecl import (DenseSpec, GaussianClass, LIFConfig, SyntheticTaskSpec,
                     TrainConfig, association, expansion_counts, learn_task,
                     similarity_vector, synthetic_stream)

SHAPE = (1, 3, 3)


def line_task(classes=(0, 1)):
    a, b = classes
    return SyntheticTaskSpec(
        [GaussianClass(a, np.linspace(-0.5, 1.0, 9), 0.02),
         GaussianClass(b, np.linspace(1.2, -0.3, 9), 0.02)], 160, 40)


def wave_task(classes=(2, 3)):
    a, b = classes
    return SyntheticTaskSpec(
        [GaussianClass(a, np.cos(np.arange(9)) * 2 - 1, 0.02),
         GaussianClass(b, np.sin(np.arange(9)) * 2 + 1, 0.02)], 160, 40)


def main():
    cfg = TrainConfig(arch=[DenseSpec(12), DenseSpec(8)], input_shape=SHAPE,
                      epochs=12, batch_size=16, lr=0.01, probe_size=128,
                      lif=LIFConfig(window=2), seed=0)
    base = synthetic_stream([line_task()], SHAPE, seed=0)[0]
    net, log = learn_task(None, base, cfg)
    print(f"trained base task: accuracy {log['train_accuracy']:.3f}")

    duplicate = synthetic_stream([line_task()], SHAPE, seed=500)[0]
    duplicate.id = 1

    permuted = synthetic_stream([line_task()], SHAPE, seed=500)[0]
    permuted.id = 1
    perm = np.random.default_rng(7).permutation(9)
    permuted.train_x = permuted.train_x.reshape(-1, 9)[:, perm].reshape(
        permuted.train_x.shape)

    unrelated = synthetic_stream([wave_task()], SHAPE, seed=500)[0]
    unrelated.id = 1

    print(f"\n{'candidate':<12} {'kl':>8} {'similarity':>10} {'expansion':>12}")
    for name, task in [("duplicate", duplicate), ("permuted", permuted),
                       ("unrelated", unrelated)]:
        sims = similarity_vector(net, task, probe_size=128, seed=9)
        counts = expansion_counts(association(sims), 5.0, (12, 8))
        print(f"{name:<12} {sims[0].kl:>8.3f} {sims[0].s:>10.3f} "
              f"{str(counts):>12}")


if __name__ == "__main__":
    main()
