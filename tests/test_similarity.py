"""Similarity: anchors, the nearest-anchor divergence estimate, and the score map."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecl.errors import ConfigError, ContractError, DataError
from spikecl.network import DenseSpec, init_first_task
from spikecl.similarity import (EPS, compute_anchors, kl_estimate,
                                similarity_score, similarity_vector)
from spikecl.spiking import LIFConfig
from spikecl.streams import GaussianClass, SyntheticTaskSpec, synthetic_stream

from oracles import gaussian_kl


class TestComputeAnchors:
    def test_single_sample_is_its_own_anchor(self):
        v = np.array([1.0, -2.0, 3.0])
        anchor = compute_anchors({7: v[None, :]})
        np.testing.assert_array_equal(anchor[7], v)

    def test_symmetric_pair_averages_to_zero(self):
        v = np.array([0.5, -1.5])
        anchor = compute_anchors({0: np.stack([v, -v])})
        np.testing.assert_array_equal(anchor[0], np.zeros(2))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(37, 8))
        anchor = compute_anchors({0: feats})
        total = np.zeros(8)
        for row in feats:  # streaming-sum oracle
            total += row
        np.testing.assert_allclose(anchor[0], total / 37, rtol=1e-12)

    def test_empty_class_names_the_class(self):
        with pytest.raises(DataError, match="class 3"):
            compute_anchors({3: np.zeros((0, 4))})


class TestKLEstimate:
    def test_equidistant_gives_zero(self):
        anchors_p = {0: np.array([1.0, 0.0])}
        anchors_tp = {5: np.array([-1.0, 0.0])}
        feats = {5: np.array([[0.0, 0.0]])}
        kl = kl_estimate(feats, anchors_p, anchors_tp, gamma=1.0)
        assert kl == pytest.approx(0.0)

    def test_identical_distribution_near_zero(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(400, 6))
        half_a, half_b = base[:200], base[200:]
        anchors_p = compute_anchors({0: half_b})
        anchors_tp = compute_anchors({0: half_b})
        kl = kl_estimate({0: half_a}, anchors_p, anchors_tp, gamma=1.0)
        assert abs(kl) < 0.5

    def test_degenerate_features_flagged(self):
        # with gamma < 1 the floored distances alone would give log(1/gamma)
        z = np.zeros((3, 4))
        anchors = {0: np.zeros(4)}
        assert kl_estimate({0: z}, anchors, anchors, gamma=0.5) == 0.0

    def test_gamma_out_of_range(self):
        anchors = {0: np.ones(2)}
        with pytest.raises(ConfigError, match="gamma"):
            kl_estimate({0: np.ones((1, 2))}, anchors, anchors, gamma=1.5)
        # below EPS the floored divisor gamma * EPS could overflow the ratio
        with pytest.raises(ConfigError, match="gamma"):
            kl_estimate({0: np.ones((1, 2))}, anchors, anchors, gamma=EPS / 2)
        far = {0: np.full(2, 1e9)}
        assert math.isfinite(kl_estimate({0: np.zeros((1, 2))}, far,
                                         {0: np.zeros(2)}, gamma=EPS))

    def test_preserves_gaussian_ordering(self):
        """Farther true Gaussians produce larger estimates (closed-form oracle)."""
        rng = np.random.default_rng(13)
        d = 6
        base_mean = np.zeros(d)
        base = rng.normal(base_mean, 1.0, size=(600, d))
        anchors_p = compute_anchors({0: base})
        estimates, truths = [], []
        for shift in (0.5, 2.0, 6.0):
            mean = base_mean + shift / math.sqrt(d)
            truths.append(gaussian_kl(mean, 1.0, base_mean, 1.0))
            samples = rng.normal(mean, 1.0, size=(600, d))
            anchors_tp = compute_anchors({0: samples[300:]})
            kl = kl_estimate({0: samples[:300]}, anchors_p, anchors_tp,
                             gamma=1.0)
            estimates.append(kl)
        assert truths == sorted(truths)
        assert estimates == sorted(estimates)


class TestSimilarityScore:
    def test_zero_maps_to_zero(self):
        assert similarity_score(0.0) == 0.0

    def test_large_kl_saturates(self):
        assert similarity_score(50.0) == pytest.approx(1.0)

    def test_half_value(self):
        assert similarity_score(0.5) == pytest.approx(1 - math.exp(-1))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            similarity_score(float("nan"))


def _toy_network_with_anchors(seed=0):
    shape = (1, 3, 3)
    specs = [SyntheticTaskSpec(
        [GaussianClass(0, np.linspace(-0.5, 1.0, 9), 0.02),
         GaussianClass(1, np.linspace(1.2, -0.3, 9), 0.02)], 120, 40)]
    t0 = synthetic_stream(specs, shape, seed=seed)[0]
    net = init_first_task([DenseSpec(12), DenseSpec(8)], shape, t0,
                          lif=LIFConfig(window=2), seed=seed)
    anchors = {}
    for c in t0.classes:
        feats = net.extract_features(t0.train_x[t0.train_y == c], 0)
        anchors[c] = compute_anchors({c: feats})[c]
    net.anchors[0] = anchors
    return net, t0, specs, shape


class TestSimilarityVector:
    def test_first_task_empty(self):
        net, t0, _, _ = _toy_network_with_anchors()
        assert similarity_vector(net, t0) == []

    def test_duplicate_task_has_minimal_similarity(self):
        net, t0, specs, shape = _toy_network_with_anchors()
        # add a dissimilar second anchor set under an identical mask
        net.masks[1] = copy.deepcopy(net.masks[0])
        far = synthetic_stream([SyntheticTaskSpec(
            [GaussianClass(0, np.full(9, -3.0), 0.02),
             GaussianClass(1, np.full(9, 4.0), 0.02)], 120, 40)],
            shape, seed=3)[0]
        anchors = {}
        for c in far.classes:
            feats = net.extract_features(far.train_x[far.train_y == c], 0)
            anchors[c] = compute_anchors({c: feats})[c]
        net.anchors[1] = anchors
        dup = synthetic_stream(specs, shape, seed=9)[0]
        dup.id = 2
        records = similarity_vector(net, dup, seed=1)
        by_old = {r.old_task: r.s for r in records}
        assert by_old[0] == min(by_old.values())

    def test_permuted_less_similar_than_identical(self):
        net, _, specs, shape = _toy_network_with_anchors()
        rng = np.random.default_rng(21)
        dup = synthetic_stream(specs, shape, seed=9)[0]
        dup.id = 1
        s_dup = similarity_vector(net, dup, seed=2)[0].s
        perm = rng.permutation(9)
        permuted = synthetic_stream(specs, shape, seed=9)[0]
        permuted.id = 1
        flat = permuted.train_x.reshape(-1, 9)[:, perm]
        permuted.train_x = flat.reshape(permuted.train_x.shape)
        s_perm = similarity_vector(net, permuted, seed=2)[0].s
        assert s_dup < s_perm

    def test_deterministic_given_seed(self):
        net, _, specs, shape = _toy_network_with_anchors()
        dup = synthetic_stream(specs, shape, seed=9)[0]
        dup.id = 1
        r1 = similarity_vector(net, dup, seed=4)
        r2 = similarity_vector(net, dup, seed=4)
        assert [(a.kl, a.s) for a in r1] == [(b.kl, b.s) for b in r2]


@settings(max_examples=100, deadline=None)
@given(kl1=st.floats(0, 20, allow_nan=False), kl2=st.floats(0, 20,
                                                            allow_nan=False))
def test_property_clamped_map_monotone_and_bounded(kl1, kl2):
    s1, s2 = similarity_score(kl1), similarity_score(kl2)
    assert 0.0 <= s1 <= 1.0
    if kl1 < kl2:
        assert s1 <= s2
