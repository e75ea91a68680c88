"""Expansion sizing and relatedness/pruning dynamics: one-step arithmetic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractError
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.plasticity import (ExpansionPolicy, RelatednessState,
                                accumulate_gradients, apply_pruning,
                                association, bias_schedule, build_relatedness,
                                expansion_counts, normalize_gradients,
                                pruning_rates, update_relatedness)
from spikecl.similarity import SimilarityRecord
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream
from spikecl.tensor import Tensor, cross_entropy, gradients
from spikecl.trainer import Adam, _trainable_rows


def _records(values):
    return [SimilarityRecord(9, p, 0.0, s, 0.9) for p, s in enumerate(values)]


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
        policy = ExpansionPolicy(alpha=5.0, max_per_layer=(10, 20, 30))
        assert expansion_counts(0.0, policy) == [0, 0, 0]

    def test_reference_value_76(self):
        policy = ExpansionPolicy(alpha=5.0, max_per_layer=(100,))
        assert expansion_counts(0.29, policy) == [76]
        assert math.floor(100 * (1 - math.exp(-1.45))) == 76

    def test_saturation_below_max(self):
        policy = ExpansionPolicy(alpha=5.0, max_per_layer=(100,))
        assert expansion_counts(1.0, policy) == [99]

    def test_invalid_policy(self):
        with pytest.raises(ContractError):
            ExpansionPolicy(alpha=0.0)
        with pytest.raises(ContractError):
            ExpansionPolicy(max_per_layer=(-1,))


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
    state.epoch = epoch + 1
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
        sims = [SimilarityRecord(1, 0, 0.1, 0.3, 0.9)]
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
        sims = [SimilarityRecord(3, 0, 0.1, 0.3, 0.9),
                SimilarityRecord(3, 2, 0.2, 0.55, 0.9)]  # task 1: no record
        for task_id in (1, 2, 3):
            state = build_relatedness(net, task_id, sims, beta=0.8,
                                      bias0=0.3, bias_slope=0.15)
            ids, rho = _build_relatedness_loop(net, task_id, sims, 0.8, 0.3,
                                               0.15)
            for a, b in zip(state.unit_ids + state.unit_rho, ids + rho):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


def _build_relatedness_loop(network, task_id, sims, beta, bias0, bias_slope):
    """Oracle: the per-unit loop that built ``unit_ids``/``unit_rho``."""
    s_by_task = {r.old_task: r.s for r in sims}
    unit_ids, unit_rho = [], []
    for li, layer in enumerate(network.layers):
        ids, rho = [], []
        for pop in layer.populations:
            if pop.task_id >= task_id:
                continue
            s = s_by_task.get(pop.task_id, 1.0)
            for u in range(pop.start, pop.stop):
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
        stream = default_synthetic_stream(n_tasks=3, classes_per_task=2,
                                          shape=shape, n_train=8, n_test=2,
                                          seed=0)
        net = init_first_task(arch, shape, stream[0],
                              lif=LIFConfig(window=2), seed=0)
        net.expand(stream[1], [2] * len(arch))
        net.expand(stream[2], [2] * len(arch))
        sims = [SimilarityRecord(2, 0, 0.1, 0.3, 0.9),
                SimilarityRecord(2, 1, 0.2, 0.5, 0.9)]
        state = build_relatedness(net, 2, sims)
        oracle = build_relatedness(net, 2, sims)
        net.prune_units(2, [(0, 0), (0, 4), (len(arch) - 1, 1)])
        params = net.parameters(2)
        optim = Adam(params, _trainable_rows(net), lr=0.05)
        x = Tensor(stream[2].train_x)
        labels = (stream[2].train_y - stream[2].classes[0]).astype(int)
        for _ in range(3):
            logits, _ = net.forward_task(x, 2)
            optim.zero_grad()
            gradients(cross_entropy(logits, labels), params)
            accumulate_gradients(state, net)
            _accumulate_masked(oracle, net, 2)
            optim.step()
        for a, b in zip(state.grad_accum, oracle.grad_accum):
            np.testing.assert_array_equal(a, b)
        assert all(a.any() for a in state.grad_accum)


def _accumulate_masked(state, network, task_id):
    """Oracle: the accumulation that multiplied in the connection mask."""
    mask = network.masks[task_id]
    for li, layer in enumerate(network.layers):
        ids = state.unit_ids[li]
        if ids.size == 0 or layer.w.grad is None:
            continue
        g = np.abs(layer.w.grad) * layer.weight_mask(mask.conn[li])
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


@settings(max_examples=100, deadline=None)
@given(a1=st.floats(0, 1), a2=st.floats(0, 1))
def test_property_expansion_monotone(a1, a2):
    policy = ExpansionPolicy(alpha=5.0, max_per_layer=(7, 33, 100))
    c1, c2 = expansion_counts(a1, policy), expansion_counts(a2, policy)
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
