import math
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entwatch.detector import (
    Alert,
    DetectorConfig,
    Verdict,
    convexity_signal,
    fuse_and_decide,
    is_attack,
    likelihood_ratio,
    posterior,
)
from entwatch.entropy import BinnedDistribution, second_difference


def dist(masses):
    return BinnedDistribution(np.asarray(masses, dtype=np.float64))


class TestLikelihoodRatio:
    def test_attack_equals_baseline(self):
        q = dist([0.25, 0.25, 0.25, 0.25] + [0.0] * 60)
        for deviation in (0.05, 0.2, 3.0, 7.9):
            assert likelihood_ratio(deviation, q, q) == pytest.approx(1.0)

    def test_direct_ratio(self):
        baseline = dist([0.95, 0.05] + [0.0] * 62)
        attack = dist([0.5, 0.5] + [0.0] * 62)
        # deviation 0.2 lands in bin 1 (bin width 0.125)
        assert likelihood_ratio(0.2, baseline, attack) == pytest.approx(10.0)

    def test_symmetric_smoothing_of_empty_bins(self):
        baseline = dist([1.0] + [0.0] * 63)
        attack = dist([1.0] + [0.0] * 63)
        assert likelihood_ratio(5.0, baseline, attack) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        # An attack model binned otherwise cannot be built, so the ratio never sees one.
        with pytest.raises(ValueError, match="64 masses"):
            dist([1.0 / 32] * 32)

    def test_scale_invariance_of_decision_inputs(self):
        # scaling both models identically cannot change the ratio
        base_raw = np.asarray([0.7, 0.2, 0.1] + [0.0] * 61)
        attack_raw = np.asarray([0.1, 0.3, 0.6] + [0.0] * 61)
        r1 = likelihood_ratio(0.3, dist(base_raw), dist(attack_raw))
        r2 = likelihood_ratio(0.3, dist(base_raw / base_raw.sum()), dist(attack_raw / attack_raw.sum()))
        assert r1 == pytest.approx(r2)


class TestPosterior:
    def test_uninformative(self):
        assert posterior(0.5, 1.0) == 0.5

    def test_zero_prior(self):
        for lr in (0.0, 1.0, 1e9):
            assert posterior(0.0, lr) == 0.0

    def test_direct_arithmetic(self):
        assert posterior(0.1, 10.0) == pytest.approx(10 / 19)
        assert posterior(0.1, 10.0) == pytest.approx(0.5263157894736842)

    def test_certain_prior(self):
        assert posterior(1.0, 0.0) == 1.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_monotone_in_lr(self, prior, lr_a, lr_b):
        lo, hi = sorted((lr_a, lr_b))
        assert posterior(prior, lo) <= posterior(prior, hi) + 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1.0, 100.0))
    def test_monotone_in_prior_for_lr_above_one(self, prior_a, prior_b, lr):
        lo, hi = sorted((prior_a, prior_b))
        assert posterior(lo, lr) <= posterior(hi, lr) + 1e-12


class TestConvexitySignal:
    def test_quadratic_ramp(self):
        # t^2 / 2
        pairs = [(0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (3.0, 4.5), (4.0, 8.0)]
        assert convexity_signal(pairs, 2) is True

    def test_linear_ramp_is_not_convex(self):
        pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
        assert convexity_signal(pairs, 2) is False

    def test_plateau_after_fast_rise(self):
        # S-curve style trajectory evaluated on the plateau
        pairs = [(0.0, 2.1), (1.0, 5.0), (2.0, 7.0), (3.0, 7.7), (4.0, 7.8), (5.0, 7.8)]
        assert convexity_signal(pairs, 2) is False

    def test_insufficient_samples(self):
        pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]
        assert convexity_signal(pairs, 1) is True
        assert convexity_signal(pairs, 2) is False

    def test_reads_only_the_last_run(self):
        # Concave over the first four pairs, convex over the last four.
        pairs = [(0.0, 0.0), (1.0, 3.0), (2.0, 4.0), (3.0, 4.5), (4.0, 5.5), (5.0, 7.0)]
        assert convexity_signal(pairs, 2) is True
        assert convexity_signal(pairs, 3) is False

    def test_linear_across_gap_is_not_convex(self):
        # Linear in time (slope 0.5/s), so not convex; the unequal gaps
        # (1 s, then 9 s) would read as convex without the spacing check.
        assert convexity_signal([(0.0, 1.0), (1.0, 1.5), (10.0, 6.0)], 1) is False

    def test_run_length_must_be_positive(self):
        with pytest.raises(ValueError, match="run length"):
            convexity_signal([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)], 0)
        for samples in ([], (), deque(maxlen=3)):
            for m in (0, -1):
                with pytest.raises(ValueError, match="run length"):
                    convexity_signal(samples, m)

    @staticmethod
    def reference(samples, m):
        """The signal over a copy of the last ``m + 2`` pairs, sliced from a list."""
        if len(samples) < m + 2:
            return False
        last = list(samples)[-(m + 2):]
        for i in range(m):
            accel = second_difference(*last[i:i + 3])
            if accel is None or not accel > 0:
                return False
        return True

    def test_any_sequence_matches_the_list_reference(self):
        # Gaps of 1.0 and 1.05 s are even within 10%, 1.5 s is not; steps may
        # rise, fall or stay flat, so every branch of the run is taken.
        rng = np.random.default_rng(35)
        seen = set()
        for n in range(9):
            for _ in range(60):
                gaps = rng.choice([1.0, 1.0, 1.05, 1.5], size=n)
                steps = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 2.0], size=n)
                pairs = list(zip(np.cumsum(gaps).tolist(), np.cumsum(steps).tolist()))
                for m in range(1, n + 2):
                    want = self.reference(pairs, m)
                    seen.add(want)
                    for kind in (list, tuple, deque):
                        assert convexity_signal(kind(pairs), m) is want, (kind, pairs, m)
        assert seen == {True, False}


def detector_configs():
    return st.builds(DetectorConfig,
                     kl_threshold=st.floats(0.0, allow_infinity=False),
                     posterior_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     convexity_run=st.integers(1, 10))


class TestFuseAndDecide:
    def test_high_posterior_with_kl_gate(self):
        cfg = DetectorConfig(kl_threshold=1.0, posterior_threshold=0.9)
        verdict = fuse_and_decide("s", posterior=0.99, kl=3.2, convexity=False, config=cfg)
        assert verdict.label == "ransomware"
        assert verdict.confidence == 0.99

    def test_below_threshold_is_benign(self):
        cfg = DetectorConfig()
        verdict = fuse_and_decide("s", posterior=0.2, kl=100.0, convexity=True, config=cfg)
        assert verdict.label == "benign"
        assert verdict.confidence == 0.2

    def test_gate_requires_kl_or_convexity(self):
        cfg = DetectorConfig(kl_threshold=1.0)
        verdict = fuse_and_decide("s", posterior=0.95, kl=0.1, convexity=False, config=cfg)
        assert verdict.label == "benign"
        verdict = fuse_and_decide("s", posterior=0.95, kl=0.1, convexity=True, config=cfg)
        assert verdict.label == "ransomware"

    @given(st.floats(0.0, 1.0), st.floats(0.0, 5.0), st.booleans())
    def test_gate_soundness(self, post, kl, convexity):
        cfg = DetectorConfig()
        verdict = fuse_and_decide("s", post, kl, convexity, cfg)
        assert verdict.confidence == post
        assert (verdict.label == "ransomware") == is_attack(post, kl, convexity, cfg)
        if verdict.label == "ransomware":
            assert verdict.confidence >= cfg.posterior_threshold

    def test_is_attack_truth_table(self):
        cfg = DetectorConfig(kl_threshold=1.0, posterior_threshold=0.9)
        table = [  # posterior, KL, convexity, flagged
            (0.9, 1.0, False, True),    # both at their thresholds
            (0.9, 0.0, True, True),     # convexity stands in for the KL
            (0.9, math.inf, True, True),
            (0.9, 0.99, False, False),  # the KL is short and no convexity
            (0.89, 1.0, False, False),  # the posterior is short
            (0.89, math.inf, True, False),
            (0.0, 0.0, False, False),
            (1.0, 0.0, False, False),
        ]
        for post, kl, convexity, flagged in table:
            assert is_attack(post, kl, convexity, cfg) is flagged, (post, kl, convexity)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0), st.floats(0.0),
           st.booleans(), st.booleans(), detector_configs())
    def test_is_attack_is_monotone(self, post_a, post_b, kl_a, kl_b, conv_a, conv_b, cfg):
        # More of any one input never unflags a source.
        if is_attack(post_a, kl_a, conv_a, cfg):
            assert is_attack(max(post_a, post_b), max(kl_a, kl_b), conv_a or conv_b, cfg)

    @given(st.floats(0.0, 1.0), st.floats(0.0), st.booleans(), detector_configs())
    def test_attack_rule_flags_at_its_most_favourable_evidence(self, post, kl, convexity, cfg):
        # A window close reads a source's KL only when the rule flags it at
        # infinite KL and with convexity: no other source can be flagged.
        if is_attack(post, kl, convexity, cfg):
            assert is_attack(post, math.inf, True, cfg)


class TestAlerts:
    def test_zero_latency(self):
        alert = Alert("s", 10.0, 0.0, 0.0, onset_at=10.0)
        assert alert.latency_ms == 0.0

    def test_390ms(self):
        alert = Alert("s", 10.39, 0.0, 0.0, onset_at=10.0)
        assert alert.latency_ms == pytest.approx(390.0)

    def test_negative_latency_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Alert("s", 9.0, 0.0, 0.0, onset_at=10.0)

    def test_missing_onset(self):
        alert = Alert("s", 10.0, 0.0, 0.0)
        assert alert.onset_at is None and alert.latency_ms is None


class TestConfigValidation:
    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            DetectorConfig(posterior_threshold=1.0)
        with pytest.raises(ValueError):
            DetectorConfig(kl_threshold=-1.0)
        with pytest.raises(ValueError):
            DetectorConfig(convexity_run=0)
        with pytest.raises(ValueError):
            DetectorConfig(convexity_run=3.0)
        with pytest.raises(ValueError):
            DetectorConfig(convexity_run=True)
        for name in ("kl_threshold", "posterior_threshold", "window_seconds"):
            with pytest.raises(ValueError, match=name):
                DetectorConfig(**{name: True})

    def test_fields_are_the_four_settings(self):
        assert [f.name for f in fields(DetectorConfig)] == [
            "kl_threshold", "posterior_threshold", "convexity_run", "window_seconds"]
        with pytest.raises(TypeError, match="outlier_weight"):
            DetectorConfig(outlier_weight=0.2)

    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            Verdict("s", "maybe", 0.5)
        with pytest.raises(ValueError):
            Verdict("s", "benign", 1.5)
