"""Score fusion and decision logic.

Per-source evidence is combined in two stages:

1. A two-hypothesis Bayes update turns the likelihood ratio of the observed
   entropy deviation (attack model vs baseline) into a posterior.
2. The clustering outlier score adds evidence and never removes it:
   ``fused = max(posterior, (1 - w) * posterior + w * outlier)`` with
   ``w = OUTLIER_WEIGHT``, so a high outlier score can lift a source's
   confidence and a low one leaves the posterior as it is. The weight is a
   constant, not a setting. The attack rule, ``is_attack``, labels a source
   ransomware only when the fused confidence clears the decision threshold
   AND a corroborating gate holds: KL divergence of its recent deviation
   window above the KL threshold, or a sustained positive second derivative
   of level entropy (the convexity signal).

The rule is monotone in the outlier score, so evaluating it at outlier 1.0
and at 0.0 tells whether an outlier score could decide a source's label:
only when the first flags it and the second does not. The caller keeps the
evidence, owns the latch (once ransomware, always ransomware) and raises at
most one alert per source, which holds the source's KL and posterior then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import (
    BinnedDistribution,
    EPSILON_MASS,
    MAX_ENTROPY_BITS,
    bin_index,
    second_difference,
)
from .errors import checked, shown
from .traces import BENIGN, RANSOMWARE

# Weight of the outlier score in its blend with the posterior.
OUTLIER_WEIGHT = 0.2


@dataclass(frozen=True)
class DetectorConfig:
    """Decision thresholds. Defaults are tuned on the synthetic corpus."""

    kl_threshold: float = 1.0
    posterior_threshold: float = 0.9
    convexity_run: int = 3
    window_seconds: float = 1.0

    def __post_init__(self):
        for name in ("kl_threshold", "posterior_threshold", "window_seconds"):
            object.__setattr__(self, name, checked(getattr(self, name), name, float))
        if not (math.isfinite(self.kl_threshold) and self.kl_threshold >= 0):
            raise ValueError(f"kl_threshold must be finite and non-negative, got {self.kl_threshold}")
        if not 0.0 < self.posterior_threshold < 1.0:
            raise ValueError(f"posterior_threshold must be in (0, 1), got {self.posterior_threshold}")
        if checked(self.convexity_run, "convexity_run", int) < 1:
            raise ValueError(f"convexity_run must be positive, got {self.convexity_run}")
        if not (math.isfinite(self.window_seconds) and self.window_seconds > 0):
            raise ValueError(f"window_seconds must be finite and positive, got {self.window_seconds}")


@dataclass(frozen=True)
class Alert:
    """First ransomware flag for a source: its KL and posterior then, and the trace's onset."""

    source_id: str
    raised_at: float
    kl: float
    posterior: float
    onset_at: float | None = None

    def __post_init__(self):
        if self.onset_at is not None and self.onset_at > self.raised_at:
            raise ValueError(f"onset {self.onset_at} is after the alert at {self.raised_at}")

    @property
    def latency_ms(self) -> float | None:
        """Milliseconds from the onset to the alert; None without an onset."""
        return None if self.onset_at is None else (self.raised_at - self.onset_at) * 1000.0


@dataclass(frozen=True)
class Verdict:
    source_id: str
    label: str
    confidence: float

    def __post_init__(self):
        if self.label not in (BENIGN, RANSOMWARE):
            raise ValueError(f"label must be benign or ransomware, got {shown(self.label)}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0, 1]: {self.confidence}")


def likelihood_ratio(deviation: float, baseline: BinnedDistribution,
                     attack_model: BinnedDistribution) -> float:
    """Attack-vs-baseline mass ratio at the deviation's bin, both floored.

    Symmetric flooring means a bin empty in both models scores exactly 1
    (uninformative), and scaling both models by the same constant leaves the
    ratio unchanged.
    """
    if not 0.0 <= deviation <= MAX_ENTROPY_BITS:
        raise ValueError(f"deviation out of [0, 8]: {deviation}")
    idx = bin_index(deviation)
    num = max(float(attack_model.bins[idx]), EPSILON_MASS)
    den = max(float(baseline.bins[idx]), EPSILON_MASS)
    return num / den


def posterior(prior: float, lr: float) -> float:
    """Two-hypothesis Bayes update, monotone in both arguments."""
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior out of [0, 1]: {prior}")
    if lr < 0:
        raise ValueError(f"likelihood ratio must be non-negative, got {lr}")
    if prior == 1.0:
        return 1.0
    return prior * lr / (prior * lr + (1.0 - prior))


def convexity_signal(samples, m: int) -> bool:
    """True when the last ``m`` second differences over ``samples``, a sequence of
    ``(timestamp, entropy)`` pairs oldest first, are evenly spaced and > 0.

    False with fewer than ``m + 2`` pairs.
    """
    if m < 1:
        raise ValueError(f"run length must be positive, got {m}")
    if len(samples) < m + 2:
        return False
    last = list(samples)[-(m + 2):]
    for i in range(m):
        accel = second_difference(*last[i:i + 3])
        if accel is None or not accel > 0:
            return False
    return True


def fused_confidence(posterior: float, outlier: float) -> float:
    """The posterior, raised by its blend with the outlier score when that blend is higher."""
    return max(posterior, (1.0 - OUTLIER_WEIGHT) * posterior + OUTLIER_WEIGHT * outlier)


def is_attack(posterior: float, outlier: float, kl: float, convexity: bool,
              config: DetectorConfig) -> bool:
    """The attack rule: fused >= posterior_threshold, and KL >= kl_threshold or convexity."""
    return fused_confidence(posterior, outlier) >= config.posterior_threshold and (
        kl >= config.kl_threshold or convexity
    )


def fuse_and_decide(source_id: str, posterior: float, outlier: float, kl: float,
                    convexity: bool, config: DetectorConfig) -> Verdict:
    """Label a source by the attack rule, with its fused confidence."""
    attack = is_attack(posterior, outlier, kl, convexity, config)
    fused = fused_confidence(posterior, outlier)
    return Verdict(source_id, RANSOMWARE if attack else BENIGN, fused)
