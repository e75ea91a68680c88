"""Accumulate-vs-multiply energy accounting under progressive pruning.

Spike-driven layers pay an accumulate (0.9 pJ) per potential synaptic event
per timestep; a dense real-valued network pays a multiply-accumulate (4.6 pJ)
per connection once.  The script prunes growing fractions of the units of
the task's mask, which removes their connections, and reports how the
estimated FLOPs and energy respond.
"""

import numpy as np

from spikecl import (DenseSpec, LIFConfig, count_active,
                     default_synthetic_stream, energy, flops_estimate,
                     init_first_task)


def main():
    shape = (16, 1, 1)
    window = 4
    task = default_synthetic_stream(n_tasks=1, classes_per_task=2,
                                    shape=shape, n_train=8, n_test=4,
                                    seed=0)[0]
    net = init_first_task([DenseSpec(32), DenseSpec(16)], shape, task,
                          lif=LIFConfig(window=window), seed=0)
    full = flops_estimate(net, 0)
    rng = np.random.default_rng(1)
    print(f"{'pruned':>7} {'conns':>6} {'flops':>6} {'snn pJ':>10} "
          f"{'dnn pJ':>10} {'ratio':>6}")
    for fraction in (0.0, 0.25, 0.5, 0.75):
        for active in net.masks[0].active:
            active &= rng.random(active.shape) >= fraction / 3
        conns, _ = count_active(net, 0)
        flops = flops_estimate(net, 0)
        snn = energy(flops, "snn", window=window)
        dnn = energy(flops, "dnn")
        print(f"{1 - flops / full:>7.2%} {conns:>6} {flops:>6} "
              f"{snn:>10.1f} {dnn:>10.1f} {snn / dnn:>6.3f}")
    print(f"\nsnn/dnn ratio is 0.9*T/4.6 = {0.9 * window / 4.6:.3f} "
          f"at T={window}, independent of structure")


if __name__ == "__main__":
    main()
