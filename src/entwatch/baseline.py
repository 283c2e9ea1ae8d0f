"""Baseline profiles: expected per-level distributions of entropy deviations.

The deviation random variable is the absolute window-to-window entropy change
of a source, clamped to [0, 8] bits and binned by ``entropy.bin_index``. A
profile holds one smoothed distribution over those 64 bins for each of its
levels, of which it has at least one, plus a prior probability of attack, and
round-trips through a single JSON document with an embedded CRC-32 checksum;
a level's ``lo`` and ``hi`` there are 0.0 and 8.0 or the profile is corrupt.
Profiles are immutable after fit/load and safe to share between threads;
the scoring tables and KL memos that detection derives from a profile are
filled on first use, each entry to the same value whichever thread fills it.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .entropy import DEVIATION_BINS, EPSILON_MASS, MAX_ENTROPY_BITS, BinnedDistribution, bin_index
from .errors import (
    CorruptProfile,
    TooFewSamples,
    UnsupportedVersion,
    checked,
    opened,
    shown,
)

PROFILE_VERSION = 1
MIN_FIT_SAMPLES = 30
DEFAULT_PRIOR = 0.01


@dataclass(frozen=True)
class BaselineProfile:
    prior: float
    created_at: float
    per_level: dict[str, BinnedDistribution]
    sample_counts: dict[str, int]
    inputs: tuple[str, ...] = field(default=())
    # What detection derives from the profile, one entry per attack model
    # (see ``pipeline._scored_levels``): per level, its likelihood-ratio
    # table and KL memo, so that every processor scoring against the profile
    # shares them and they live as long as it.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        prior = checked(self.prior, "prior", float)
        if not 0.0 <= prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {prior}")
        created_at = checked(self.created_at, "created_at", float)
        if not math.isfinite(created_at):
            raise ValueError(f"created_at must be finite, got {created_at}")
        if not self.per_level:  # it would score no source
            raise ValueError("a profile needs at least one level")
        checked(list(self.per_level), "level ids", (str,))
        if set(self.sample_counts) != set(self.per_level):
            raise ValueError(f"sample counts are for levels {list(self.sample_counts)}, "
                             f"distributions for {list(self.per_level)}")
        if min(checked(list(self.sample_counts.values()), "sample counts", (int,))) < 0:
            raise ValueError(f"sample counts must be non-negative, got {shown(self.sample_counts)}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "created_at", created_at)
        object.__setattr__(self, "inputs", checked(self.inputs, "inputs", (str,)))


def empirical_distribution(bins: Sequence[int]) -> BinnedDistribution:
    """Normalized histogram of a window of deviation bins, no smoothing applied."""
    if not len(bins):
        raise ValueError("empirical distribution needs at least one sample")
    counts = np.bincount(bins, minlength=DEVIATION_BINS)
    return BinnedDistribution(counts / counts.sum())


def smoothed_distribution(samples: Sequence[float]) -> BinnedDistribution:
    """Histogram of deviation samples, zero masses floored at EPSILON_MASS, rescaled to sum to 1."""
    counts = np.bincount([bin_index(s) for s in samples], minlength=DEVIATION_BINS)
    floored = np.maximum(counts / counts.sum(), EPSILON_MASS)
    return BinnedDistribution(floored / floored.sum())


def fit_baseline(benign_samples: Mapping[str, Sequence[float]],
                 prior: float = DEFAULT_PRIOR,
                 created_at: float | None = None,
                 inputs: Sequence[str] = ()) -> BaselineProfile:
    """Fit per-level smoothed deviation distributions from benign observations.

    There must be at least one level, and every level present in
    ``benign_samples`` must carry at least MIN_FIT_SAMPLES observations; short
    levels produce degenerate single-bin baselines and are rejected. A sample
    that is not a deviation (NaN, or outside [0, 8]) is a ValueError naming its
    level, not a clamped bin.
    """
    if not benign_samples:
        raise TooFewSamples(f"no level has deviation samples, fitting needs a level with "
                            f"{MIN_FIT_SAMPLES}")
    per_level: dict[str, BinnedDistribution] = {}
    sample_counts: dict[str, int] = {}
    for level_id in sorted(benign_samples):
        samples = list(benign_samples[level_id])
        if len(samples) < MIN_FIT_SAMPLES:
            raise TooFewSamples(
                f"level {shown(level_id)} has {len(samples)} samples, fitting needs {MIN_FIT_SAMPLES}"
            )
        bad = next((s for s in samples if not 0.0 <= s <= MAX_ENTROPY_BITS), None)
        if bad is not None:  # NaN fails the range test too
            raise ValueError(f"level {shown(level_id)} has a deviation sample {bad!r} "
                             f"outside [0.0, {MAX_ENTROPY_BITS}]")
        per_level[level_id] = smoothed_distribution(samples)
        sample_counts[level_id] = len(samples)
    return BaselineProfile(
        prior=prior,
        created_at=time.time() if created_at is None else created_at,
        per_level=per_level,
        sample_counts=sample_counts,
        inputs=inputs,
    )


def _profile_document(profile: BaselineProfile) -> dict:
    return {
        "version": PROFILE_VERSION,
        "prior": profile.prior,
        "created_at": profile.created_at,
        "inputs": list(profile.inputs),
        "levels": [
            {
                "level_id": level_id,
                "lo": 0.0,
                "hi": MAX_ENTROPY_BITS,
                "bins": [float(b) for b in dist.bins],
                "sample_count": profile.sample_counts[level_id],
            }
            for level_id, dist in sorted(profile.per_level.items())
        ],
    }


def _checksum(doc: dict) -> int:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return zlib.crc32(payload) & 0xFFFFFFFF


def save_profile(profile: BaselineProfile, path) -> None:
    """Write the profile as an indented JSON document with a CRC-32 field."""
    doc = _profile_document(profile)
    doc["crc32"] = _checksum(doc)
    with opened(path, "w", f"cannot write profile to {path}", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_profile(path) -> BaselineProfile:
    """Read a profile back; checksum and version are verified before use."""
    with opened(path, "rb", f"cannot read profile from {path}") as fh:
        raw = fh.read()
    try:
        return _profile_from_text(raw, path)
    except RecursionError as exc:  # nesting past the limit, in the parse or the checksum
        raise CorruptProfile(f"profile {path} is nested too deeply: {exc}") from exc


def _profile_from_text(raw: bytes, path) -> BaselineProfile:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CorruptProfile(f"profile {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "crc32" not in doc:
        raise CorruptProfile(f"profile {path} is missing its checksum field")
    stored = doc.pop("crc32")
    if stored != _checksum(doc):
        raise CorruptProfile(f"profile {path} failed its CRC-32 check")
    version = doc.pop("version", None)
    if type(version) is not int or version != PROFILE_VERSION:
        raise UnsupportedVersion(f"profile version {shown(version)} is not supported (expected {PROFILE_VERSION})")
    try:
        per_level, sample_counts = {}, {}
        for entry in checked(doc.pop("levels"), "levels", (dict,)):
            level_id = entry.pop("level_id")
            if level_id in per_level:
                raise ValueError(f"level {shown(level_id)} is listed more than once")
            sample_counts[level_id] = entry.pop("sample_count")
            support = checked(entry.pop("lo"), "lo", float), checked(entry.pop("hi"), "hi", float)
            if support != (0.0, MAX_ENTROPY_BITS):
                raise ValueError(f"level {shown(level_id)} spans {list(support)}, "
                                 f"profiles bin deviations over [0.0, {MAX_ENTROPY_BITS}]")
            per_level[level_id] = BinnedDistribution(**entry)
        return BaselineProfile(**doc, per_level=per_level, sample_counts=sample_counts)
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: an unknown key
        raise CorruptProfile(f"profile {path} has an invalid structure: {exc}") from exc
