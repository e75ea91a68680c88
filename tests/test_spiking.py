"""LIF dynamics and surrogate: hand-trace oracles and branch-point checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ConfigError, ShapeError
from spikecl.spiking import (HARD_RESET, LITERAL_EQ3, LIFConfig, SpikeState,
                             lif_step, run_window, smooth_spike_value, spike,
                             surrogate_grad)
from spikecl.tensor import Tensor, backward


class TestLIFConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"tau": 1.5}, {"v_th": 0.0}, {"lam": -1.0},
        {"window": 0}, {"reset_mode": "bogus"},
        {"v_th": float("nan")}, {"lam": float("inf")},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LIFConfig(**kwargs)

    def test_defaults(self):
        cfg = LIFConfig()
        assert (cfg.tau, cfg.v_th, cfg.lam, cfg.window) == (0.2, 0.5, 2.0, 4)
        assert cfg.reset_mode == HARD_RESET


class TestLIFStep:
    def test_hand_trace_subthreshold(self):
        # U = tau * U_prev * (1 - O_prev) + I = 0.2 * 0.8 + 0.5 = 0.66 < v_th
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        state = SpikeState(Tensor(np.array([0.8])), Tensor(np.array([0.0])))
        new = lif_step(state, Tensor(np.array([0.5])), cfg)
        assert new.membrane.data[0] == pytest.approx(0.66)
        assert new.spikes.data[0] == 0.0

    def test_threshold_crossing(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        state = SpikeState.zeros((1,))
        new = lif_step(state, Tensor(np.array([1.2])), cfg)
        assert new.membrane.data[0] == pytest.approx(1.2)
        assert new.spikes.data[0] == 1.0

    def test_zero_input_never_spikes(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        state = SpikeState.zeros((3,))
        for _ in range(10):
            state = lif_step(state, Tensor(np.zeros(3)), cfg)
            assert np.all(state.spikes.data == 0.0)
            assert np.all(state.membrane.data == 0.0)

    def test_hard_reset_clears_membrane_contribution(self):
        cfg = LIFConfig(tau=0.5, v_th=1.0)
        state = SpikeState(Tensor(np.array([2.0])), Tensor(np.array([1.0])))
        new = lif_step(state, Tensor(np.array([0.3])), cfg)
        # the spiking neuron restarts from the reset baseline
        assert new.membrane.data[0] == pytest.approx(0.3)

    def test_literal_mode_update(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0, reset_mode=LITERAL_EQ3)
        state = SpikeState(Tensor(np.array([0.8])), Tensor(np.array([0.0])))
        new = lif_step(state, Tensor(np.array([0.5])), cfg)
        # U = tau * (1 - U_prev) + I = 0.2 * 0.2 + 0.5
        assert new.membrane.data[0] == pytest.approx(0.54)

    def test_shape_mismatch(self):
        cfg = LIFConfig()
        with pytest.raises(ShapeError, match="shape"):
            lif_step(SpikeState.zeros((2,)), Tensor(np.zeros(3)), cfg)


class TestSurrogate:
    def test_value_at_zero_is_lambda(self):
        assert surrogate_grad(np.array([0.0]), 3.0)[0] == 3.0

    def test_outside_support_is_zero(self):
        lam = 3.0
        assert surrogate_grad(np.array([2.0 / lam]), lam)[0] == 0.0
        assert surrogate_grad(np.array([-2.0 / lam]), lam)[0] == 0.0

    def test_half_width_value(self):
        lam = 2.0
        assert surrogate_grad(np.array([1.0 / (2 * lam)]), lam)[0] == 1.0

    def test_spike_backward_uses_surrogate(self):
        cfg = LIFConfig(v_th=0.5, lam=2.0)
        u = Tensor(np.array([0.5, 0.75, 2.0]), requires_grad=True)
        out = spike(u, cfg)
        backward(out.sum())
        np.testing.assert_allclose(
            u.grad, surrogate_grad(u.data - cfg.v_th, cfg.lam))

    def test_smooth_value_is_antiderivative(self):
        lam = 2.0
        us = np.linspace(-1.0, 1.0, 201)
        vals = smooth_spike_value(us, lam)
        # numerical derivative of the ramp matches the surrogate away from kinks
        du = us[1] - us[0]
        mid = (us[:-1] + us[1:]) / 2
        numeric = np.diff(vals) / du
        interior = np.abs(np.abs(mid) - 1.0 / lam) > 2 * du
        np.testing.assert_allclose(numeric[interior],
                                   surrogate_grad(mid, lam)[interior],
                                   atol=1e-2)
        assert smooth_spike_value(np.array([0.0]), lam)[0] == 0.5
        assert smooth_spike_value(np.array([-1.0]), lam)[0] == 0.0
        assert smooth_spike_value(np.array([1.0]), lam)[0] == 1.0


class TestRunWindow:
    def _step(self, w, cfg):
        def step(x, states):
            if states is None:
                states = SpikeState.zeros((x.shape[0], w.shape[1]))
            current = x @ Tensor(w)
            new = lif_step(states, current, cfg)
            return new.spikes, new
        return step

    def test_window_one_equals_single_step(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(3, 4))
        x = Tensor(rng.normal(size=(2, 3)))
        cfg = LIFConfig(window=1)
        out = run_window(self._step(w, cfg), x, cfg)
        state = lif_step(SpikeState.zeros((2, 4)), x @ Tensor(w), cfg)
        np.testing.assert_array_equal(out.data, state.spikes.data)

    def test_rate_stays_in_unit_interval(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        x = Tensor(rng.normal(size=(5, 3)))
        for window in (2, 4, 8):
            cfg = LIFConfig(window=window)
            out = run_window(self._step(w, cfg), x, cfg)
            assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)

    def test_four_step_hand_simulation(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        xv = rng.normal(size=(2, 3))
        cfg = LIFConfig(tau=0.2, v_th=0.5, window=4)
        out = run_window(self._step(w, cfg), Tensor(xv), cfg)
        # manual numpy trace of the same four steps
        u = np.zeros((2, 4))
        o = np.zeros((2, 4))
        total = np.zeros((2, 4))
        current = xv @ w
        for _ in range(4):
            u = cfg.tau * u * (1.0 - o) + current
            o = (u >= cfg.v_th).astype(float)
            total += o
        np.testing.assert_allclose(out.data, total / 4.0, rtol=1e-12)

    def test_backward_equals_explicit_unroll(self):
        rng = np.random.default_rng(10)
        wv = rng.normal(size=(3, 4))
        xv = rng.normal(size=(2, 3))
        cfg = LIFConfig(window=3)

        w1 = Tensor(wv, requires_grad=True)
        def step1(x, states):
            if states is None:
                states = SpikeState.zeros((x.shape[0], 4))
            new = lif_step(states, x @ w1, cfg)
            return new.spikes, new
        backward(run_window(step1, Tensor(xv), cfg).sum())

        w2 = Tensor(wv, requires_grad=True)
        state = SpikeState.zeros((2, 4))
        total = None
        for _ in range(cfg.window):
            state = lif_step(state, Tensor(xv) @ w2, cfg)
            total = state.spikes if total is None else total + state.spikes
        backward((total * (1.0 / cfg.window)).sum())

        np.testing.assert_array_equal(w1.grad, w2.grad)


@settings(max_examples=50, deadline=None)
@given(u=st.floats(-10, 10, allow_nan=False),
       lam=st.floats(0.1, 10, allow_nan=False))
def test_property_surrogate_even_bounded(u, lam):
    g_pos = surrogate_grad(np.array([u]), lam)[0]
    g_neg = surrogate_grad(np.array([-u]), lam)[0]
    assert g_pos == g_neg  # even in u
    assert 0.0 <= g_pos <= lam  # maximal at zero
    # continuity at the branch point: both branches give 0 at |u| = 1/lam
    edge = surrogate_grad(np.array([1.0 / lam]), lam)[0]
    assert abs(edge) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_spikes_are_binary(seed):
    rng = np.random.default_rng(seed)
    cfg = LIFConfig(window=3)
    state = SpikeState.zeros((4,))
    for _ in range(cfg.window):
        state = lif_step(state, Tensor(rng.normal(size=4)), cfg)
        assert set(np.unique(state.spikes.data)) <= {0.0, 1.0}
