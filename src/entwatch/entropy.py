"""Byte-level Shannon entropy, second differences over time, KL divergence.

Conventions used throughout the package:

* Entropy is measured in bits per byte over the 256-symbol byte alphabet,
  so values live in [0, 8]. An empty histogram has entropy 0 by definition,
  which keeps stream starts total. A histogram may carry its entropy
  (``ByteHistogram.entropy``) when it was computed bit-identically, as
  ``full_row_entropies`` computes it for the trace reader's blocks.
* An entropy series is a sequence of ``(timestamp, entropy)`` pairs, oldest
  first, with strictly increasing timestamps (seconds). Its second
  difference over three pairs is defined only for near-uniform spacing (each
  gap within 10% of a mean of at least 4.2e-154 s), and is None otherwise.
* Deviations (absolute entropy changes) have one binning, ``bin_index``:
  64 equal bins of 1/8 bit over [0, 8]. A ``BinnedDistribution`` is 64
  probability masses over those bins and carries no bounds of its own.
* KL divergence is computed in bits, as the sum, in ascending bin order, of
  m * log2(m / r) over the bins where p has a mass m, r being q's mass there
  floored at ``EPSILON_MASS`` so that the divergence stays finite. The
  result is clamped at 0 to absorb the tiny negative drift the floor can
  introduce. Identical distributions therefore score exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import checked

MAX_ENTROPY_BITS = 8.0

# Deviations are binned in this many equal bins over [0, MAX_ENTROPY_BITS].
DEVIATION_BINS = 64
_BINS_PER_BIT = DEVIATION_BINS / MAX_ENTROPY_BITS  # 8.0, a power of two

# Floor applied to zero probability masses before ratios/logs.
EPSILON_MASS = 1e-9

INT64_MAX = int(np.iinfo(np.int64).max)

# 256 counts of at most this much (2**55 - 1) sum to at most INT64_MAX, so
# their int64 sum is exact.
EXACT_SUM_COUNT = INT64_MAX >> 8

# Maximum per-gap deviation from the mean gap for second differences.
SPACING_TOLERANCE = 0.10

# Least squared mean gap of a second difference: over it, a difference of
# entropies in [0, 8] (at most 16 = 2**4) gives at most 2**1023, a finite float.
MIN_SQUARED_GAP = 2.0 ** -1019


class ByteHistogram:
    """256-bucket count vector over byte values.

    ``counts`` is a list of 256 ints (not bools or floats), stored as an int64
    array. ``total`` is the exact sum of ``counts``, and never passes int64.
    ``entropy`` is the histogram's ``shannon_entropy`` when that is already
    known, and None otherwise. A histogram is a value: nothing changes it once
    it is built, so it can be shared freely, and ``merged`` returns a new one.
    """

    __slots__ = ("counts", "total", "entropy")

    def __init__(self, counts=None):
        self.entropy = None
        if counts is None:
            self.counts = np.zeros(256, dtype=np.int64)
            self.total = 0
            return
        values = checked(counts, "histogram counts", (int,))
        if len(values) != 256:
            raise ValueError(f"histogram needs exactly 256 buckets, got {len(values)}")
        if min(values) < 0:
            raise ValueError("histogram counts must be non-negative")
        # Summed as Python ints: an int64 sum of buckets that each fit can wrap.
        # Every count is at most the total, so none passes int64 either.
        total = sum(values)
        if total > INT64_MAX:
            raise ValueError(f"histogram total {total} passes the 64-bit range")
        self.counts = np.array(values, dtype=np.int64)
        self.total = total

    @classmethod
    def unchecked(cls, counts: np.ndarray, total: int,
                  entropy: float | None = None) -> "ByteHistogram":
        """The histogram of ``counts``, taken as is: the caller knows them to be
        256 non-negative int64 values whose exact sum is ``total``, and
        ``entropy``, when given, to be their ``shannon_entropy``."""
        hist = cls.__new__(cls)
        hist.counts = counts
        hist.total = total
        hist.entropy = entropy
        return hist

    def merged(self, other: "ByteHistogram") -> "ByteHistogram":
        """A new histogram of the bucket-wise sum of this one and ``other``, its
        entropy unknown.

        Raises OverflowError, changing neither, when the total would pass int64
        (and with it any bucket, since none exceeds the total).
        """
        total = self.total + other.total
        if total > INT64_MAX:
            raise OverflowError(f"merged byte count {total} passes the 64-bit range")
        return ByteHistogram.unchecked(self.counts + other.counts, total)

    def __eq__(self, other):
        if not isinstance(other, ByteHistogram):
            return NotImplemented
        return self.total == other.total and bool(np.array_equal(self.counts, other.counts))

    def __repr__(self):
        return f"ByteHistogram(total={self.total}, distinct={int(np.count_nonzero(self.counts))})"


def histogram_from_bytes(data: bytes) -> ByteHistogram:
    """Count byte-value occurrences in ``data``. Empty input yields all zeros."""
    if not data:
        return ByteHistogram()
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256).astype(np.int64)
    return ByteHistogram.unchecked(counts, len(data))


def shannon_entropy(hist: ByteHistogram) -> float:
    """Shannon entropy of the histogram in bits/byte, 0 for an empty histogram;
    ``hist.entropy`` when that is set.

    Otherwise it is -sum(p * log2(p)) over the non-zero buckets, p being each
    count over the total, summed by numpy's pairwise ``add.reduce`` and
    clamped to [0, 8]. The zero buckets are masked out only when
    ``np.count_nonzero`` finds fewer than 256 non-zero counts, the total is
    divided as a float (the cast numpy's int64 true division makes anyway),
    and each log term is multiplied by its p in place. Float multiplication
    commutes, so the value is bit for bit that of ``p * log2(p)`` over the
    masked counts divided by the int total.
    """
    if hist.entropy is not None:
        return hist.entropy
    total = hist.total
    if total == 0:
        return 0.0
    counts = hist.counts
    if np.count_nonzero(counts) < 256:
        counts = counts[counts > 0]
    p = counts / float(total)
    terms = np.log2(p)
    terms *= p
    value = -float(np.add.reduce(terms))
    # Clamp float summation noise; the true value is within [0, 8]. A single
    # symbol's sum is 0.0, and its negation -0.0 is returned as 0.0.
    if value <= 0.0:
        return 0.0
    return value if value <= MAX_ENTROPY_BITS else MAX_ENTROPY_BITS


def full_row_entropies(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``shannon_entropy`` of each row of a C-contiguous (k, 256) int64 array
    whose counts are all non-zero, ``totals`` being the rows' sums.

    Each value is bit-identical to the row's ``shannon_entropy``: the same
    elementwise arithmetic, and each row summed along the last axis by the
    same 256-term pairwise sum.
    """
    p = counts / totals[:, None]
    values = -np.add.reduce(p * np.log2(p), axis=1)
    return np.minimum(np.maximum(values, 0.0), MAX_ENTROPY_BITS)


def second_difference(s0: tuple[float, float], s1: tuple[float, float],
                      s2: tuple[float, float]) -> float | None:
    """Central second difference (bits/second^2) over three ``(timestamp, entropy)``
    pairs, oldest first.

    None when either gap deviates from the mean gap by more than 10%; trace
    timestamps are nominal, not hard-real-time. None too for a mean gap under
    4.2e-154 s, whose square is below ``MIN_SQUARED_GAP`` or underflows to 0.
    """
    (t0, h0), (t1, h1), (t2, h2) = s0, s1, s2
    mean_dt = (t2 - t0) / 2.0
    squared = mean_dt * mean_dt
    if abs((t1 - t0) - mean_dt) > SPACING_TOLERANCE * mean_dt or squared < MIN_SQUARED_GAP:
        return None
    return (h2 - 2.0 * h1 + h0) / squared


def bin_index(deviation: float) -> int:
    """Deviation bin of ``deviation``: ``DEVIATION_BINS`` equal bins over [0, 8].

    Values below 0 fall in the first bin, 8 and above in the last. The bin
    width, 1/8 bit, is a power of two, so the scaling is exact.
    """
    return min(max(int(deviation * _BINS_PER_BIT), 0), DEVIATION_BINS - 1)


@dataclass(eq=False)
class BinnedDistribution:
    """Probability masses over the ``DEVIATION_BINS`` deviation bins."""

    bins: np.ndarray

    def __post_init__(self):
        bins = self.bins
        if not (isinstance(bins, np.ndarray) and bins.dtype.kind == "f"):
            bins = checked(bins, "bins", (float,))
        self.bins = np.asarray(bins, dtype=np.float64)
        if self.bins.shape != (DEVIATION_BINS,):
            raise ValueError(f"bins must be {DEVIATION_BINS} masses, got shape {self.bins.shape}")
        if (self.bins < 0).any():
            raise ValueError("bin masses must be non-negative")
        total = float(self.bins.sum())
        # Written so that a NaN mass (and so a NaN total) fails the check.
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"bin masses must sum to 1 within 1e-9, got {total!r}")

    def __eq__(self, other):
        if not isinstance(other, BinnedDistribution):
            return NotImplemented
        return bool(np.array_equal(self.bins, other.bins))


def kl_divergence(p: BinnedDistribution, q: BinnedDistribution) -> float:
    """D(p || q) in bits with the zero bins of ``q`` floored at EPSILON_MASS.

    The result is non-negative and 0 exactly when p equals q bin-wise. Bins
    where p carries no mass contribute nothing regardless of q.
    """
    mask = p.bins > 0
    masses = p.bins[mask]
    if not masses.size:
        return 0.0
    value = float(np.add.reduce(masses * np.log2(masses / np.maximum(q.bins[mask], EPSILON_MASS))))
    return max(value, 0.0)
