"""A five-task continual run on synthetic Gaussian streams.

Walks the full per-task loop — similarity probe, sized expansion,
relatedness-gated pruning, replay-calibrated shared head — and prints the
accuracy matrix, task-incremental / class-incremental scores, and forgetting.
Takes a few seconds on a laptop.
"""

from spikecl import (AccuracyMatrix, DenseSpec, LIFConfig, ReplayBuffer,
                     TrainConfig, calibrate_heads, cil_evaluate,
                     default_synthetic_stream, forgetting, learn_task,
                     til_evaluate)


def main():
    shape = (1, 3, 3)
    cfg = TrainConfig(arch=[DenseSpec(12), DenseSpec(8)], input_shape=shape,
                      epochs=10, batch_size=16, lr=0.01, probe_size=64,
                      lif=LIFConfig(window=2), replay_capacity=200, seed=0)
    stream = default_synthetic_stream(n_tasks=5, classes_per_task=2,
                                      shape=shape, n_train=120, n_test=60,
                                      seed=0)
    buffer = ReplayBuffer(cfg.replay_capacity)
    matrix = AccuracyMatrix()
    net = None
    for task in stream:
        net, log = learn_task(net, task, cfg, buffer)
        row, _ = til_evaluate(net, stream[: task.id + 1])
        matrix.add_row(row)
        a = log["association"]
        print(f"task {task.id}: association "
              f"{'-' if a is None else format(a, '.3f')}, "
              f"expansion {log['expansion']}, "
              f"row {[round(v, 3) for v in row]}")

    # the CIL heads are fitted once, on the replay buffer, after the last task
    calibrate_heads(net, buffer, cfg)
    _, til_avg = til_evaluate(net, stream)
    per_task, avg_f = forgetting(matrix)
    print(f"\nTIL average:  {til_avg:.4f}")
    print(f"CIL accuracy: {cil_evaluate(net, stream):.4f}")
    print(f"forgetting:   {[round(f, 3) for f in per_task]} "
          f"(avg {avg_f:.4f})")


if __name__ == "__main__":
    main()
