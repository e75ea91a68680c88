"""Expansion sizing and relatedness/pruning dynamics: one-step arithmetic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractError
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.plasticity import (RelatednessState, accumulate_gradients,
                                apply_pruning, association, bias_schedule,
                                build_relatedness, expansion_counts,
                                normalize_gradients, pruning_rates,
                                update_relatedness)
from spikecl.similarity import SimilarityRecord
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.trainer import Adam, step_gradients


def _records(values):
    return [SimilarityRecord(p, 0.0, s) for p, s in enumerate(values)]


class TestAssociation:
    def test_minimum_of_two(self):
        assert association(_records([0.74, 0.29])) == 0.29

    def test_single_value(self):
        assert association(_records([0.42])) == 0.42

    def test_all_equal(self):
        assert association(_records([0.5, 0.5, 0.5])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="at least one"):
            association([])


class TestExpansionCounts:
    def test_zero_association_zero_everywhere(self):
        assert expansion_counts(0.0, 5.0, (10, 20, 30)) == [0, 0, 0]

    def test_reference_value_76(self):
        assert expansion_counts(0.29, 5.0, (100,)) == [76]
        assert math.floor(100 * (1 - math.exp(-1.45))) == 76

    def test_saturation_below_max(self):
        assert expansion_counts(1.0, 5.0, (100,)) == [99]


class TestNormalizeGradients:
    def test_simple_span(self):
        np.testing.assert_array_equal(normalize_gradients([2.0, 4.0, 6.0]),
                                      [0.0, 0.5, 1.0])

    def test_constant_maps_to_half(self):
        np.testing.assert_array_equal(normalize_gradients([3.0, 3.0, 3.0]),
                                      [0.5, 0.5, 0.5])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(14)
        accum = rng.uniform(0, 10, size=17)
        lo = min(accum)
        hi = max(accum)
        expected = np.array([(a - lo) / (hi - lo) for a in accum])
        np.testing.assert_allclose(normalize_gradients(accum), expected,
                                   rtol=1e-12)


class _StubMask:
    def __init__(self, active):
        self.active = active


class _StubNetwork:
    def __init__(self, task_id, active):
        self.masks = {task_id: _StubMask(active)}


def _one_layer_state(rho_values, accums, task_id=1):
    state = RelatednessState(task_id,
                             [np.arange(len(rho_values), dtype=np.int64)],
                             [np.asarray(rho_values, dtype=np.float64)])
    state.grad_accum[0][:] = accums
    net = _StubNetwork(task_id, [np.ones(len(rho_values), dtype=bool)])
    return state, net


class TestUpdateRelatedness:
    def test_high_gradient_unit_doomed_at_epoch_zero(self):
        # Norm = {0, 1}, rho = 1: R' of the max-gradient unit = -(2*1-1) = -1
        state, net = _one_layer_state([1.0, 1.0], [0.0, 5.0])
        doomed = update_relatedness(state, net, epoch=0)
        assert state.r[0][1] == pytest.approx(-1.0)
        assert (0, 1) in doomed
        # Norm = 0 unit: R' = -(2*0-1) = +1, survives
        assert state.r[0][0] == pytest.approx(1.0)
        assert (0, 0) not in doomed

    def test_low_gradient_survives_with_similar_rho(self):
        # single unit -> constant accums -> Norm = 0.5 is avoided by pairing
        state, net = _one_layer_state([0.71, 0.71], [5.0, 0.0])
        doomed = update_relatedness(state, net, epoch=0)
        assert state.r[0][1] == pytest.approx(0.71)
        assert (0, 1) not in doomed

    def test_epoch_decay_bounds_update_magnitude(self):
        mags = []
        for epoch in (0, 6):
            state, net = _one_layer_state([0.0, 0.0], [0.0, 5.0])
            update_relatedness(state, net, epoch=epoch)
            mags.append(abs(state.r[0][1]))
        assert mags[1] <= math.exp(-3.0) * mags[0] + 1e-12

    def test_accumulator_resets(self):
        state, net = _one_layer_state([1.0, 1.0], [1.0, 2.0])
        update_relatedness(state, net, epoch=0)
        np.testing.assert_array_equal(state.grad_accum[0], [0.0, 0.0])

    def test_pruned_units_skip_normalization(self):
        state, net = _one_layer_state([1.0, 1.0, 1.0], [9.0, 1.0, 2.0])
        net.masks[1].active[0][0] = False
        update_relatedness(state, net, epoch=0)
        # normalization ran over units 1,2 only: accum 1 -> 0, accum 2 -> 1
        assert state.r[0][1] == pytest.approx(1.0)
        assert state.r[0][2] == pytest.approx(-1.0)
        assert state.r[0][0] == 0.0  # untouched


    def test_matches_per_unit_loop_on_random_masks(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = [7, 5]
            ids = [np.sort(rng.choice(9, size=k, replace=False)) for k in n]
            rho = [rng.uniform(0.0, 1.5, size=k) for k in n]
            active = [rng.random(9) < 0.7 for _ in n]
            r0 = [rng.normal(size=k) for k in n]
            g0 = [rng.uniform(0.0, 3.0, size=k) for k in n]
            pruned = {(li, int(u)) for li in range(2) for u in ids[li]
                      if rng.random() < 0.2}
            for li, u in pruned:
                active[li][u] = False
            states = [RelatednessState(1, ids, rho, [r.copy() for r in r0],
                                       [g.copy() for g in g0])
                      for _ in range(2)]
            net = _StubNetwork(1, active)
            doomed = update_relatedness(states[0], net, epoch=seed % 3)
            expected = _update_relatedness_loop(states[1], net, epoch=seed % 3)
            assert doomed == expected
            for a, b in zip(states[0].r + states[0].grad_accum,
                            states[1].r + states[1].grad_accum):
                np.testing.assert_array_equal(a, b)


def _update_relatedness_loop(state, network, epoch):
    """Oracle: the per-unit loop form of the relatedness update."""
    doomed = set()
    decay = math.exp(-epoch / 2.0)
    mask = network.masks[state.task_id]
    for li, ids in enumerate(state.unit_ids):
        alive = np.array([mask.active[li][u] for u in ids])
        if not alive.any():
            state.grad_accum[li][:] = 0.0
            continue
        norm = np.zeros(len(ids))
        norm[alive] = normalize_gradients(state.grad_accum[li][alive])
        state.r[li][alive] = (
            0.99 * state.r[li][alive]
            - decay * (2.0 * norm[alive] - state.unit_rho[li][alive])
        )
        for k in np.flatnonzero(alive):
            if state.r[li][k] < 0.0:
                doomed.add((li, int(ids[k])))
        state.grad_accum[li][:] = 0.0
    return doomed


class TestBiasSchedule:
    def test_negatively_correlated_with_depth(self):
        values = [bias_schedule(l) for l in range(4)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(0.2)
        assert values[1] == pytest.approx(0.1)


def _expanded_network(seed=0):
    stream = default_synthetic_stream(n_tasks=2, classes_per_task=2,
                                      shape=(1, 2, 2), n_train=12, n_test=4,
                                      seed=seed)
    t0, t1 = stream
    net = init_first_task([DenseSpec(5), DenseSpec(4)], (1, 2, 2), t0,
                          lif=LIFConfig(window=2), seed=seed)
    net.expand(t1, [2, 2])
    return net, t0, t1


class TestBuildRelatedness:
    def test_covers_frozen_units_with_rho(self):
        net, _, t1 = _expanded_network()
        sims = [SimilarityRecord(0, 0.1, 0.3)]
        state = build_relatedness(net, 1, sims, beta=1.0)
        np.testing.assert_array_equal(state.unit_ids[0], np.arange(5))
        np.testing.assert_array_equal(state.unit_ids[1], np.arange(4))
        # rho = beta - s + bias(l)
        assert state.unit_rho[0][0] == pytest.approx(1.0 - 0.3 + 0.2)
        assert state.unit_rho[1][0] == pytest.approx(1.0 - 0.3 + 0.1)
        assert all(np.all(r == 0.0) for r in state.r)

    @pytest.mark.parametrize("arch,shape", [
        ([DenseSpec(5), DenseSpec(4), DenseSpec(3)], (1, 2, 2)),
        ([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5)),
    ])
    def test_matches_per_unit_loop(self, arch, shape):
        stream = default_synthetic_stream(n_tasks=4, classes_per_task=2,
                                          shape=shape, n_train=4, n_test=2,
                                          seed=0)
        net = init_first_task(arch, shape, stream[0], seed=0)
        net.expand(stream[1], [2, 0, 1][: len(arch)])  # a size-0 population
        net.expand(stream[2], [0, 3, 2][: len(arch)])
        net.expand(stream[3], [1, 1, 1][: len(arch)])
        sims = [SimilarityRecord(0, 0.1, 0.3),
                SimilarityRecord(2, 0.2, 0.55)]  # task 1: no record
        for task_id in (1, 2, 3):
            state = build_relatedness(net, task_id, sims, beta=0.8,
                                      bias0=0.3, bias_slope=0.15)
            ids, rho = _build_relatedness_loop(net, task_id, sims, 0.8, 0.3,
                                               0.15)
            for a, b in zip(state.unit_ids + state.unit_rho, ids + rho):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


def _build_relatedness_loop(network, task_id, sims, beta, bias0, bias_slope):
    """Oracle: the per-unit loop that built ``unit_ids``/``unit_rho``; task p
    owns the units between task p-1's mask sizes and its own."""
    s_by_task = {r.old_task: r.s for r in sims}
    sizes = [[0] * len(network.layers)] + [
        [a.size for a in network.masks[p].active] for p in range(task_id)]
    unit_ids, unit_rho = [], []
    for li in range(len(network.layers)):
        ids, rho = [], []
        for p in range(task_id):
            s = s_by_task.get(p, 1.0)
            for u in range(sizes[p][li], sizes[p + 1][li]):
                ids.append(u)
                rho.append(beta - s + bias_schedule(li, bias0, bias_slope))
        unit_ids.append(np.asarray(ids, dtype=np.int64))
        unit_rho.append(np.asarray(rho, dtype=np.float64))
    return unit_ids, unit_rho


class TestAccumulateGradients:
    @pytest.mark.parametrize("arch,shape", [
        ([DenseSpec(5), DenseSpec(4), DenseSpec(3)], (1, 2, 2)),
        ([ConvSpec(3, 3, 2, 1), DenseSpec(4)], (1, 5, 5)),
    ])
    def test_matches_masked_accumulation_after_pruning(self, arch, shape):
        got, expected = _accumulated(
            arch, shape, [[2] * len(arch)] * 2,
            [(0, 0), (0, 4), (len(arch) - 1, 1)], _accumulate_masked, seed=0)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        assert all(a.any() for a in got)

    @pytest.mark.parametrize("arch,shape", [
        ([DenseSpec(5), DenseSpec(4), DenseSpec(3)], (1, 2, 2)),
        ([ConvSpec(3, 3, 2, 1), ConvSpec(2, 3, 1, 1), DenseSpec(4)],
         (1, 5, 5)),
    ])
    def test_old_rows_equal_the_full_shape_sum_bit_for_bit(self, arch,
                                                             shape):
        # task 2 adds no layer-1 unit: its first own row is the layer width
        got, expected = _accumulated(
            arch, shape, [[2, 1, 2], [1, 0, 2]], [(0, 1), (1, 1), (2, 0)],
            _accumulate_full_shape, seed=1)
        for a, b in zip(got, expected):
            assert a.any()
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _accumulated(arch, shape, counts, doomed, oracle, seed):
    """G of every layer after 3 training steps of task 2 of a 3-task stream,
    tasks 1 and 2 expanded by ``counts`` and ``doomed`` pruned from task 2:
    by ``accumulate_gradients`` and by ``oracle(state, network, grads)``."""
    stream = default_synthetic_stream(n_tasks=3, classes_per_task=2,
                                      shape=shape, n_train=8, n_test=2,
                                      seed=seed)
    net = init_first_task(arch, shape, stream[0], lif=LIFConfig(window=2),
                          seed=seed)
    for task, n in zip(stream[1:], counts):
        net.expand(task, n)
    sims = [SimilarityRecord(0, 0.1, 0.3), SimilarityRecord(1, 0.2, 0.5)]
    state = build_relatedness(net, 2, sims)
    expected = build_relatedness(net, 2, sims)
    net.prune_units(2, doomed)
    optim = Adam(net.parameters(2), lr=0.05)
    labels = (stream[2].train_y - stream[2].classes[0]).astype(int)
    for _ in range(3):
        grads = step_gradients(net, stream[2].train_x, labels, 2)[1]
        accumulate_gradients(state, net, grads)
        oracle(expected, net, grads)
        optim.step(grads)
    return state.grad_accum, expected.grad_accum


def _accumulate_full_shape(state, network, grads):
    """Oracle: the accumulation that took |gradient| of every row and zeroed
    each task's rows past its input prefix, the current task's included."""
    tasks = [(network.owned(t), network._in_widths(t)) for t in network.masks]
    for li, layer in enumerate(network.layers):
        ids = state.unit_ids[li]
        if ids.size == 0:
            continue
        g = np.abs(grads[2 * li])
        for owned, in_widths in tasks:
            rows = owned[li]
            g[rows.start:rows.stop, in_widths[li] * layer.block:] = 0.0
        per_unit = g.sum(axis=tuple(range(1, g.ndim)))
        state.grad_accum[li] += per_unit[ids]


def _accumulate_masked(state, network, grads):
    """Oracle: the accumulation that multiplied in the task's connection
    bits, repeated over each input unit's block of weight columns."""
    conns = network.connections(state.task_id)
    for li, layer in enumerate(network.layers):
        ids = state.unit_ids[li]
        if ids.size == 0:
            continue
        bits = np.repeat(conns[li], layer.block, axis=1)
        bits = bits.reshape(bits.shape + (1,) * (layer.w.ndim - 2))
        g = np.abs(grads[2 * li]) * bits
        state.grad_accum[li] += g.sum(axis=tuple(range(1, g.ndim)))[ids]


class TestApplyPruning:
    def test_empty_doomed_is_noop(self):
        net, t0, _ = _expanded_network()
        before = [m.copy() for m in net.masks[1].active]
        report = apply_pruning(net, 1, set())
        for a, b in zip(net.masks[1].active, before):
            np.testing.assert_array_equal(a, b)
        assert report[0][0] == (0, 5)

    def test_rate_report_matches_hand_count(self):
        net, _, _ = _expanded_network()
        report = apply_pruning(net, 1, {(0, 1), (0, 3), (1, 2)})
        assert report[0][0] == (2, 5)
        assert report[0][1] == (1, 4)
        rates = pruning_rates(report)
        assert rates[0] == pytest.approx(3 / 9)

    def test_all_old_units_doomed_isolates_task(self):
        net, _, _ = _expanded_network()
        doomed = {(0, u) for u in range(5)} | {(1, u) for u in range(4)}
        apply_pruning(net, 1, doomed)
        mask = net.masks[1]
        assert not mask.active[0][:5].any()
        assert not mask.active[1][:4].any()
        assert mask.active[0][5:].all() and mask.active[1][4:].all()
        assert pruning_rates(apply_pruning(net, 1, set()))[0] == 1.0

    def test_report_per_source_task_skips_empty_blocks(self):
        stream = default_synthetic_stream(n_tasks=4, classes_per_task=2,
                                          shape=(1, 2, 2), n_train=4,
                                          n_test=2, seed=0)
        net = init_first_task([DenseSpec(5), DenseSpec(4)], (1, 2, 2),
                              stream[0], seed=0)
        net.expand(stream[1], [2, 0])  # task 1 owns no layer-1 unit
        net.expand(stream[2], [0, 3])  # task 2 owns no layer-0 unit
        net.expand(stream[3], [1, 1])
        report = apply_pruning(net, 3, {(0, 0), (0, 6), (1, 5), (1, 6)})
        # layer 0: task 0 owns 0..4, task 1 owns 5..6;
        # layer 1: task 0 owns 0..3, task 2 owns 4..6
        assert report == {0: {0: (1, 5), 1: (0, 4)}, 1: {0: (1, 2)},
                          2: {1: (2, 3)}}


@settings(max_examples=100, deadline=None)
@given(a1=st.floats(0, 1), a2=st.floats(0, 1))
def test_property_expansion_monotone(a1, a2):
    caps = (7, 33, 100)
    c1, c2 = expansion_counts(a1, 5.0, caps), expansion_counts(a2, 5.0, caps)
    if a1 <= a2:
        assert all(x <= y for x, y in zip(c1, c2))


def _simulate_r(norms, rho):
    r = 0.0
    history = []
    for epoch, norm in enumerate(norms):
        r = 0.99 * r - math.exp(-epoch / 2.0) * (2.0 * norm - rho)
        history.append(r)
    return history


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(0.01, 0.99))
def test_property_relatedness_dichotomy(rho):
    high = _simulate_r([1.0] * 30, rho)
    # strictly decreasing while the decay term dominates the 0.99 pull-back
    assert all(b < a for a, b in zip([0.0] + high[:5], high[:5]))
    assert high[0] < 0.0  # doomed immediately, and R never recovers
    assert all(v < 0.0 for v in high)
    low = _simulate_r([0.0] * 30, rho)
    assert all(v >= 0.0 for v in low)


@settings(max_examples=50, deadline=None)
@given(s_small=st.floats(0.0, 0.5), delta=st.floats(0.01, 0.5),
       seed=st.integers(0, 100))
def test_property_larger_similarity_dooms_superset(s_small, delta, seed):
    """Identical gradient traces: higher S (smaller rho) -> more units doomed."""
    rng = np.random.default_rng(seed)
    norms = rng.uniform(0, 1, size=(5, 8))  # epochs x units
    s_large = s_small + delta

    def doomed_set(s):
        r = np.zeros(8)
        out = set()
        rho = 1.0 - s  # beta = 1, bias = 0
        for epoch in range(5):
            r = 0.99 * r - math.exp(-epoch / 2.0) * (2.0 * norms[epoch] - rho)
            out |= {u for u in range(8) if r[u] < 0.0}
        return out

    assert doomed_set(s_large) >= doomed_set(s_small)
