"""LIF dynamics and surrogate: hand-trace oracles and branch-point checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ConfigError, NumericalError, ShapeError
from spikecl.spiking import (HARD_RESET, LITERAL_EQ3, LIFConfig, lif_step,
                             lif_window, rate, run_window, smooth_spike_value,
                             surrogate_grad)
from spikecl.tensor import Tensor, backward

import lif_oracle
from oracles import add, finite_diff_check, mul, total, window_rate


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


def _arrays(*values):
    return [np.array(v, dtype=float) for v in values]


class TestLIFStep:
    def test_hand_trace_subthreshold(self):
        # U = tau * U_prev * (1 - O_prev) + I = 0.2 * 0.8 + 0.5 = 0.66 < v_th
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        membrane, spikes = lif_step(*_arrays([0.8], [0.0], [0.5]), cfg)
        assert membrane[0] == pytest.approx(0.66)
        assert spikes[0] == 0.0

    def test_threshold_crossing(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        membrane, spikes = lif_step(*_arrays([0.0], [0.0], [1.2]), cfg)
        assert membrane[0] == pytest.approx(1.2)
        assert spikes[0] == 1.0

    def test_zero_input_never_spikes(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0)
        membrane = spikes = np.zeros(3)
        for _ in range(10):
            membrane, spikes = lif_step(membrane, spikes, np.zeros(3), cfg)
            assert np.all(spikes == 0.0)
            assert np.all(membrane == 0.0)

    def test_hard_reset_clears_membrane_contribution(self):
        cfg = LIFConfig(tau=0.5, v_th=1.0)
        membrane, _ = lif_step(*_arrays([2.0], [1.0], [0.3]), cfg)
        # the spiking neuron restarts from the reset baseline
        assert membrane[0] == pytest.approx(0.3)

    def test_literal_mode_update(self):
        cfg = LIFConfig(tau=0.2, v_th=1.0, reset_mode=LITERAL_EQ3)
        membrane, _ = lif_step(*_arrays([0.8], [0.0], [0.5]), cfg)
        # U = tau * (1 - U_prev) + I = 0.2 * 0.2 + 0.5
        assert membrane[0] == pytest.approx(0.54)

    def test_shape_mismatch(self):
        cfg = LIFConfig()
        with pytest.raises(ShapeError, match="shape"):
            lif_step(np.zeros(2), np.zeros(2), np.zeros(3), cfg)

    @pytest.mark.parametrize("cfg", [
        LIFConfig(tau=0.3), LIFConfig(tau=0.6, reset_mode=LITERAL_EQ3),
        LIFConfig(v_th=0.4, smooth=True),
        LIFConfig(tau=0.6, v_th=0.4, smooth=True, reset_mode=LITERAL_EQ3),
    ], ids=["hard-reset", "literal-eq3", "smooth", "smooth-literal-eq3"])
    def test_writing_into_out_equals_the_update_bit_for_bit(self, cfg):
        rng, shape = np.random.default_rng(11), (40, 25)  # rounding shows
        membrane = rng.normal(0.4, 0.6, size=shape)
        spikes = (rng.random(shape) < 0.5).astype(float)
        if cfg.smooth:
            spikes = rng.random(shape)
        current = rng.normal(0.3, 0.5, size=shape)
        current[0, 0] = -0.0
        # the update as one expression, in the order of the equations
        if cfg.reset_mode == HARD_RESET:
            u = membrane * (1.0 - spikes) * cfg.tau + current
        else:
            u = (1.0 - membrane) * cfg.tau + current
        o = (smooth_spike_value(u - cfg.v_th, cfg.lam) if cfg.smooth
             else (u >= cfg.v_th).astype(np.float64))
        out = (np.full(shape, np.nan), np.full(shape, np.nan))
        got = lif_step(membrane, spikes, current, cfg, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for want in ((u, o), lif_step(membrane, spikes, current, cfg)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.view(np.int64),
                                              b.view(np.int64))


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
        # over one step from rest the membrane is the current itself
        u = Tensor(np.array([[0.5, 0.75, 2.0]]), requires_grad=True)
        out = run_window(lif_step, u, LIFConfig(v_th=0.5, lam=2.0, window=1),
                         held=True)
        backward(total(out))
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
    def test_window_one_equals_single_step(self):
        rng = np.random.default_rng(7)
        current = rng.normal(size=(2, 4))
        cfg = LIFConfig(window=1)
        out = run_window(lif_step, Tensor(current), cfg, held=True)
        _, spikes = lif_step(np.zeros((2, 4)), np.zeros((2, 4)), current, cfg)
        np.testing.assert_array_equal(out.data, spikes)
        np.testing.assert_array_equal(rate(out.data, 1), spikes)

    def test_rate_stays_in_unit_interval(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        x = Tensor(rng.normal(size=(5, 3)))
        for window in (2, 4, 8):
            cfg = LIFConfig(window=window)
            out = rate(run_window(lif_step, x.matmul(Tensor(w)), cfg,
                                  held=True).data, window)
            assert out.shape == (5, 4)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_four_step_hand_simulation(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        xv = rng.normal(size=(2, 3))
        cfg = LIFConfig(tau=0.2, v_th=0.5, window=4)
        out = run_window(lif_step, Tensor(xv).matmul(Tensor(w)), cfg,
                         held=True)
        # manual numpy trace of the same four steps
        u = np.zeros((2, 4))
        o = np.zeros((2, 4))
        total = np.zeros((2, 4))
        current = xv @ w
        for t in range(4):
            u = cfg.tau * u * (1.0 - o) + current
            o = (u >= cfg.v_th).astype(float)
            np.testing.assert_array_equal(out.data[2 * t:2 * t + 2], o)
            total += o
        np.testing.assert_allclose(rate(out.data, 4), total / 4.0,
                                   rtol=1e-12)

    def test_backward_equals_explicit_unroll(self):
        rng = np.random.default_rng(10)
        wv = rng.normal(size=(3, 4))
        xv = rng.normal(size=(2, 3))
        cfg = LIFConfig(window=3)

        w1 = Tensor(wv, requires_grad=True)
        spikes = run_window(lif_step, Tensor(xv).matmul(w1), cfg, held=True)
        backward(total(window_rate(spikes, cfg.window)))

        w2 = Tensor(wv, requires_grad=True)
        steps = lif_oracle.unroll([Tensor(xv).matmul(w2)] * cfg.window, cfg)
        backward(total(lif_oracle.rate(steps, cfg)))

        np.testing.assert_allclose(w1.grad, w2.grad, rtol=1e-12)

    def test_stacked_current_must_fill_the_window(self):
        with pytest.raises(ShapeError, match="multiple of the window"):
            run_window(lif_step, Tensor(np.zeros((5, 2))), LIFConfig(window=2))

    def test_non_finite_membrane_rejected(self):
        # the current is finite, but a silent membrane's sum of two overflows
        current = Tensor(np.full((2, 1), -1e308))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="membrane"):
            run_window(lif_step, current, LIFConfig(tau=1.0, window=2),
                       held=True)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_current_from_a_middle_step_on_rejected(self, value):
        # one check per window still sees a step that is not the first
        cfg = LIFConfig(window=4)
        cur = np.random.default_rng(12).normal(size=(4 * 3, 2))
        cur[2 * 3:, 1] = value
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="membrane"):
            lif_window(lif_step, cur, cfg)
        membranes, _ = lif_window(lif_step, cur[:2 * 3], dataclasses.replace(
            cfg, window=2))
        assert np.isfinite(membranes).all()

    def test_rate_of_zero_units(self):
        # a layer whose every unit is pruned: 3 rows, no columns; the
        # adjoint is step_gradients', tested on an empty final layer
        assert rate(np.zeros((2 * 3, 0)), 2).shape == (3, 0)


MODES = {
    "hard-reset": LIFConfig(window=4),
    "literal-eq3": LIFConfig(tau=0.6, window=4, reset_mode=LITERAL_EQ3),
    "smooth-hard-reset": LIFConfig(v_th=0.4, window=4, smooth=True),
    "smooth-literal-eq3": LIFConfig(tau=0.6, v_th=0.4, window=4, smooth=True,
                                    reset_mode=LITERAL_EQ3),
}


def _bptt_per_step(membranes, spikes, grad, cfg, held):
    """Oracle: ``run_window``'s backward as it ran with step-sized arrays,
    the surrogate slope and 1 - spikes computed step by step."""
    g_cur = None if held else np.empty(spikes.shape)
    g_next = None
    for t in reversed(range(cfg.window)):
        m, g_o = membranes[t], grad[t]
        slope = surrogate_grad(m - cfg.v_th, cfg.lam)
        if g_next is None:
            g_m = g_o * slope
        elif cfg.reset_mode == HARD_RESET:
            g_keep = g_next * cfg.tau
            g_m = (g_o - g_keep * m) * slope + g_keep * (1.0 - spikes[t])
        else:
            g_m = g_o * slope - g_next * cfg.tau
        if held:
            g_cur = g_m if g_cur is None else g_cur + g_m
        else:
            g_cur[t] = g_m
        g_next = g_m
    return g_cur


class TestRunWindowOracle:
    """``run_window`` against the per-step Tensor path of ``lif_oracle``."""

    @staticmethod
    def _case(mode, held, window, seed=0):
        """(cfg, current, coefficients over the stacked spikes)."""
        cfg = dataclasses.replace(MODES[mode], window=window)
        rng = np.random.default_rng(seed)
        rows = 3 if held else 3 * window
        current = rng.normal(0.4, 0.5, size=(rows, 2, 2))
        coef = rng.normal(size=(3 * window, 2, 2))
        return cfg, current, coef

    @staticmethod
    def _oracle(cfg, current, held):
        """Per-step spikes and the current leaves they were built from."""
        if held:
            leaves = [Tensor(current, requires_grad=True)]
            currents = leaves * cfg.window
        else:
            leaves = [Tensor(c, requires_grad=True)
                      for c in np.split(current, cfg.window)]
            currents = leaves
        return lif_oracle.unroll(currents, cfg), leaves

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "stacked"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_matches_per_step_graph(self, mode, held, window):
        cfg, current, coef = self._case(mode, held, window)
        leaf = Tensor(current, requires_grad=True)
        out = run_window(lif_step, leaf, cfg, held=held)
        backward(total(mul(out, Tensor(coef))))

        steps, leaves = self._oracle(cfg, current, held)
        loss = None
        for s, c in zip(steps, np.split(coef, window)):
            term = total(mul(s, Tensor(c)))
            loss = term if loss is None else add(loss, term)
        backward(loss)

        np.testing.assert_array_equal(
            out.data, np.concatenate([s.data for s in steps]))
        np.testing.assert_array_equal(
            rate(out.data, window), lif_oracle.rate(steps, cfg).data)
        expected = np.concatenate([l.grad for l in leaves])
        assert np.any(expected != 0.0)
        np.testing.assert_allclose(leaf.grad, expected, rtol=1e-12)

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "stacked"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_backward_equals_the_per_step_loop_bit_for_bit(self, mode, held,
                                                           window):
        cfg, current, coef = self._case(mode, held, window, seed=2)
        leaf = Tensor(current, requires_grad=True)
        out = run_window(lif_step, leaf, cfg, held=held)
        backward(total(mul(out, Tensor(coef))))
        membranes, stacked = lif_window(lif_step, current, cfg, held)
        want = _bptt_per_step(membranes, stacked.reshape(membranes.shape),
                              coef.reshape(membranes.shape), cfg, held)
        # the gradient's first write adds it to +0.0
        want = want.reshape(current.shape) + 0.0
        np.testing.assert_array_equal(leaf.grad.view(np.int64),
                                      want.view(np.int64))

    @pytest.mark.parametrize("held", [True, False], ids=["held", "stacked"])
    @pytest.mark.parametrize("mode", ["smooth-hard-reset",
                                      "smooth-literal-eq3"])
    def test_smooth_mode_matches_finite_differences(self, mode, held):
        cfg, current, coef = self._case(mode, held, 4, seed=1)
        leaf = Tensor(current, requires_grad=True)

        def f():
            spikes = run_window(lif_step, leaf, cfg, held=held)
            return total(mul(spikes, Tensor(coef)))

        assert finite_diff_check(f, [leaf], step=1e-6) < 1e-5


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
    membrane = spikes = np.zeros(4)
    for _ in range(cfg.window):
        membrane, spikes = lif_step(membrane, spikes, rng.normal(size=4), cfg)
        assert set(np.unique(spikes)) <= {0.0, 1.0}
