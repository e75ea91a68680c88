"""Active-structure counting, FLOPs, the AC/MAC energy model, and forgetting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ContractError
from spikecl.metrics import (AccuracyMatrix, E_AC_PJ, E_MAC_PJ, count_active,
                             energy, energy_report, flops_estimate, forgetting)
from spikecl.network import ConvSpec, DenseSpec, init_first_task
from spikecl.spiking import LIFConfig
from spikecl.streams import default_synthetic_stream


def _dense_net(in_units=10, hidden=5, classes=2, seed=0):
    shape = (in_units, 1, 1)
    t0 = default_synthetic_stream(n_tasks=1, classes_per_task=classes,
                                  shape=shape, n_train=8, n_test=4,
                                  seed=seed)[0]
    return init_first_task([DenseSpec(hidden)], shape, t0,
                           lif=LIFConfig(window=4), seed=seed)


class TestCountActive:
    def test_dense_single_task_full_totals(self):
        net = _dense_net()
        conns, neurons = count_active(net, 0)
        assert conns == 10 * 5 + 5 * 2  # layer synapses + head synapses
        assert neurons == 5

    def test_pruned_population_excluded(self):
        net = _dense_net()
        mask = net.masks[0]
        mask.head_active[3] = False
        mask.conn[0][3, :] = False
        mask.active[0][3] = False
        conns, neurons = count_active(net, 0)
        assert conns == 4 * 10 + 4 * 2  # four surviving rows + head bits
        assert neurons == 4

    def test_hand_built_mask_matches_hand_count(self):
        net = _dense_net()
        mask = net.masks[0]
        mask.conn[0][:, :5] = False  # sever half the input fan-in
        mask.head_active[:] = [True, False, True, False, True]
        conns, neurons = count_active(net, 0)
        assert conns == 25 + 3 * 2
        assert neurons == 3


    def test_matches_per_unit_loop_on_random_masks(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            shape = (2, 3, 3)
            stream = default_synthetic_stream(n_tasks=2, shape=shape,
                                              n_train=8, n_test=4, seed=seed)
            net = init_first_task([DenseSpec(6), DenseSpec(5), DenseSpec(4)],
                                  shape, stream[0], seed=seed)
            net.expand(stream[1], rng.integers(0, 4, size=3))
            mask = net.masks[1]
            for a, c in zip(mask.active, mask.conn):
                a &= rng.random(a.shape) < 0.7
                c &= rng.random(c.shape) < 0.3
            assert count_active(net, 1) == _count_active_loop(net, 1)


def _count_active_loop(network, task_id):
    """Oracle: visit every unit and look for an outgoing bit."""
    mask = network.masks[task_id]
    conns = sum(int(c.sum()) for c in mask.conn)
    neurons = 0
    last = len(network.layers) - 1
    for li in range(len(network.layers)):
        for u in range(network.layers[li].width):
            if not mask.active[li][u]:
                continue
            if li == last:
                neurons += bool(mask.head_active[u])
            else:
                neurons += bool(mask.conn[li + 1][:, u].any())
    conns += int(mask.head_active.sum()) * network.heads[task_id].w.shape[0]
    return conns, neurons


class TestFlops:
    def test_dense_layer_fifty(self):
        net = _dense_net()
        net.masks[0].head_active[:] = False  # isolate the layer term
        assert flops_estimate(net, 0) == 50

    def test_half_masked_twenty_five(self):
        net = _dense_net()
        net.masks[0].head_active[:] = False
        net.masks[0].conn[0][:, :5] = False
        assert flops_estimate(net, 0) == 25

    def test_head_contribution(self):
        net = _dense_net()
        assert flops_estimate(net, 0) == 50 + 5 * 2

    def test_conv_closed_form(self):
        shape = (1, 9, 9)
        t0 = default_synthetic_stream(n_tasks=1, shape=shape, n_train=8,
                                      n_test=4, seed=0)[0]
        net = init_first_task([ConvSpec(4, 3, 2, 1), DenseSpec(3)], shape, t0,
                              seed=0)
        net.masks[0].head_active[:] = False
        h_out = w_out = 5  # (9 + 2 - 3) // 2 + 1
        conv_flops = 4 * 1 * 3 * 3 * h_out * w_out
        dense_flops = 3 * 4 * (h_out * w_out)
        assert flops_estimate(net, 0) == conv_flops + dense_flops

    def test_masked_never_exceeds_unmasked(self):
        net = _dense_net()
        full = flops_estimate(net, 0)
        rng = np.random.default_rng(8)
        net.masks[0].conn[0] &= rng.random((5, 10)) < 0.5
        assert flops_estimate(net, 0) <= full


class TestEnergy:
    def test_snn_reference_value(self):
        assert energy(10 ** 6, "snn", window=4) == pytest.approx(3.6e6)

    def test_zero_flops(self):
        assert energy(0, "snn") == 0.0
        assert energy(0, "dnn") == 0.0

    def test_ratio_equals_constants(self):
        flops = 12345
        ratio = energy(flops, "snn", window=4) / energy(flops, "dnn")
        assert ratio == pytest.approx(0.9 * 4 / 4.6, rel=1e-15)
        assert (E_AC_PJ, E_MAC_PJ) == (0.9, 4.6)

    def test_negative_flops_rejected(self):
        with pytest.raises(ContractError):
            energy(-1, "snn")
        with pytest.raises(ContractError, match="mode"):
            energy(1, "analog")

    def test_report_fields(self):
        net = _dense_net()
        rep = energy_report(net, 0, mode="snn")
        assert rep.flops == 60
        assert rep.energy_pj == pytest.approx(60 * 0.9 * 4)
        assert rep.pruning_rate == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(flops=st.integers(0, 10 ** 9), scale=st.integers(1, 10))
    def test_property_linear_in_flops_and_window(self, flops, scale):
        base = energy(flops, "snn", window=2)
        assert energy(flops * scale, "snn", window=2) == pytest.approx(
            base * scale)
        assert energy(flops, "snn", window=2 * scale) == pytest.approx(
            base * scale)


class TestAccuracyMatrix:
    def test_triangular_growth_enforced(self):
        m = AccuracyMatrix()
        m.add_row([0.9])
        with pytest.raises(ContractError, match="entries"):
            m.add_row([0.9, 0.8, 0.7])

    def test_range_enforced(self):
        m = AccuracyMatrix()
        with pytest.raises(ContractError, match="0, 1"):
            m.add_row([1.2])

    def test_final_and_average(self):
        m = AccuracyMatrix()
        m.add_row([0.8])
        m.add_row([0.8, 0.6])
        assert m.final() == [0.8, 0.6]
        assert m.average_final() == pytest.approx(0.7)


class TestForgetting:
    def test_constant_columns_zero(self):
        m = AccuracyMatrix()
        m.add_row([0.9])
        m.add_row([0.9, 0.8])
        m.add_row([0.9, 0.8, 0.7])
        per_task, avg = forgetting(m)
        assert per_task == [0.0, 0.0, 0.0] and avg == 0.0

    def test_single_task_zero(self):
        m = AccuracyMatrix()
        m.add_row([0.95])
        assert forgetting(m) == ([0.0], 0.0)

    def test_crafted_matrix(self):
        m = AccuracyMatrix()
        m.add_row([0.9])
        m.add_row([0.9, 0.8])
        m.add_row([0.7, 0.8, 0.9])
        per_task, avg = forgetting(m)
        assert per_task[0] == pytest.approx(0.2)
        assert per_task[1] == pytest.approx(0.0)
        assert avg == pytest.approx(0.2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            forgetting(AccuracyMatrix())
