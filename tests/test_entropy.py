import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwatch.entropy import (
    DEVIATION_BINS,
    EPSILON_MASS,
    INT64_MAX,
    MIN_SQUARED_GAP,
    BinnedDistribution,
    ByteHistogram,
    bin_index,
    full_row_entropies,
    histogram_from_bytes,
    kl_divergence,
    second_difference,
    shannon_entropy,
)


def dist(masses):
    """A distribution with ``masses`` in its first bins and zero mass in the rest.

    Zero padding leaves a KL value unchanged: a bin where p has no mass
    contributes nothing.
    """
    masses = np.asarray(masses, dtype=np.float64)
    return BinnedDistribution(np.pad(masses, (0, DEVIATION_BINS - masses.size)))


class TestHistogram:
    def test_empty_input(self):
        hist = histogram_from_bytes(b"")
        assert hist.total == 0
        assert hist.counts.sum() == 0

    def test_one_of_each_value(self):
        hist = histogram_from_bytes(bytes(range(256)))
        assert hist.total == 256
        assert (hist.counts == 1).all()

    def test_direct_count(self):
        hist = histogram_from_bytes(b"AAABBC")
        assert hist.total == 6
        assert hist.counts[ord("A")] == 3
        assert hist.counts[ord("B")] == 2
        assert hist.counts[ord("C")] == 1

    def test_merge_keeps_total_consistent(self):
        a = histogram_from_bytes(b"abc")
        b = histogram_from_bytes(b"cde")
        merged = a.merged(b)
        assert merged.total == 6
        assert merged.counts[ord("c")] == 2
        assert a == histogram_from_bytes(b"abc") and b == histogram_from_bytes(b"cde")

    def test_merged_past_int64_raises_and_changes_neither(self):
        a = ByteHistogram.unchecked(np.full(256, INT64_MAX >> 8, dtype=np.int64),
                                    (INT64_MAX >> 8) * 256, 8.0)
        b = histogram_from_bytes(b"\x00" * 256)
        a_state, b_state = (a.counts.copy(), a.total), (b.counts.copy(), b.total)
        with pytest.raises(OverflowError, match="passes the 64-bit range"):
            a.merged(b)
        assert np.array_equal(a.counts, a_state[0]) and a.total == a_state[1]
        assert np.array_equal(b.counts, b_state[0]) and b.total == b_state[1]
        assert a.entropy == 8.0 and b.entropy is None

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ByteHistogram([1, 2, 3])

    @pytest.mark.parametrize("counts", [
        [1.9] * 256,
        [True] * 256,
        [1] * 255 + [True],
        np.full(256, 1.5),
        np.ones(256, dtype=bool),
        ["1"] * 256,
    ], ids=["floats", "bools", "one_bool", "float_array", "bool_array", "strings"])
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            ByteHistogram(counts)

    def test_array_counts_rejected(self):
        # Counts are a list of exact ints; an array passes .tolist().
        with pytest.raises(ValueError):
            ByteHistogram(np.ones(256, dtype=np.int64))

    def test_total_past_int64_rejected(self):
        # Each count fits int64, but their sum is 2^64, which an int64 sum wraps to 0.
        with pytest.raises(ValueError):
            ByteHistogram([2**62] * 4 + [0] * 252)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    def test_merge_additivity(self, left, right):
        merged = histogram_from_bytes(left).merged(histogram_from_bytes(right))
        assert merged == histogram_from_bytes(left + right)
        assert merged.total == len(left) + len(right)


class TestShannonEntropy:
    def test_uniform_histogram_is_exactly_eight(self):
        hist = ByteHistogram(np.full(256, 17).tolist())
        assert abs(shannon_entropy(hist) - 8.0) < 1e-12

    def test_single_symbol_is_zero(self):
        counts = np.zeros(256, dtype=np.int64)
        counts[42] = 1000
        # 0.0, not the -0.0 that negating the sum 1.0 * log2(1.0) gives.
        assert shannon_entropy(ByteHistogram(counts.tolist())).hex() == "0x0.0p+0"

    def test_fair_coin_is_one_bit(self):
        counts = np.zeros(256, dtype=np.int64)
        counts[0] = counts[255] = 500
        assert abs(shannon_entropy(ByteHistogram(counts.tolist())) - 1.0) < 1e-12

    def test_aaabbc(self):
        expected = -(0.5 * math.log2(0.5) + (1 / 3) * math.log2(1 / 3) + (1 / 6) * math.log2(1 / 6))
        got = shannon_entropy(histogram_from_bytes(b"AAABBC"))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.4591479170272448, abs=1e-12)

    def test_empty_histogram_is_zero(self):
        assert shannon_entropy(ByteHistogram()) == 0.0

    @given(st.binary(min_size=1, max_size=2048))
    def test_bounds(self, data):
        value = shannon_entropy(histogram_from_bytes(data))
        assert 0.0 <= value <= 8.0
        distinct = len(set(data))
        if distinct == 1:
            assert value == 0.0
        else:
            assert value > 0.0

    def test_eight_only_for_uniform(self):
        counts = np.full(256, 4)
        counts[0] = 3
        counts[1] = 5
        assert shannon_entropy(ByteHistogram(counts.tolist())) < 8.0

    @given(st.binary(min_size=1, max_size=512), st.integers(min_value=1, max_value=255))
    def test_permutation_invariance(self, data, shift):
        hist = histogram_from_bytes(data)
        rolled = ByteHistogram(np.roll(hist.counts, shift).tolist())
        assert shannon_entropy(hist) == pytest.approx(shannon_entropy(rolled), abs=1e-12)


def reference_shannon_entropy(hist):
    """The entropy by mask, divide, log2, multiply, sum and clamp, with no cache;
    a single symbol's -0.0 is clamped to 0.0."""
    if hist.total == 0:
        return 0.0
    counts = hist.counts[hist.counts > 0]
    p = counts / hist.total
    value = float(-(p * np.log2(p)).sum())
    return 0.0 if value <= 0.0 else min(value, 8.0)


def random_counts(seed, rows=1):
    """(rows, 256) counts up to 2**40 whose rows have no zero, a few, or many."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, rng.choice([2, 255, 2 ** 40]), size=(rows, 256), endpoint=True)
    return counts * (rng.random((rows, 256)) >= rng.choice([0.0, 0.01, 0.5]))


class TestEntropyCache:
    """``ByteHistogram.entropy`` holds the histogram's entropy when it is known."""

    def test_new_histograms_carry_none(self):
        assert ByteHistogram().entropy is None
        assert ByteHistogram([1] * 256).entropy is None
        assert histogram_from_bytes(b"abc").entropy is None
        assert ByteHistogram.unchecked(np.ones(256, dtype=np.int64), 256).entropy is None

    def test_cached_value_is_returned_as_is(self):
        # shannon_entropy trusts the cache: 1.25 is not these counts' entropy.
        hist = ByteHistogram.unchecked(np.ones(256, dtype=np.int64), 256, 1.25)
        assert shannon_entropy(hist) == 1.25

    def test_merged_carries_none_and_operands_keep_theirs(self):
        hist = ByteHistogram.unchecked(np.ones(256, dtype=np.int64), 256, 8.0)
        other = ByteHistogram.unchecked(np.full(256, 2, dtype=np.int64), 512, 8.0)
        merged = hist.merged(other)
        assert merged.entropy is None
        assert merged == ByteHistogram.unchecked(np.full(256, 3, dtype=np.int64), 768)
        assert shannon_entropy(merged) == reference_shannon_entropy(merged)
        assert hist.entropy == 8.0 and hist.total == 256 and (hist.counts == 1).all()
        assert other.entropy == 8.0 and other.total == 512 and (other.counts == 2).all()

    def test_equality_ignores_it(self):
        hist = ByteHistogram([1] * 256)
        assert hist == ByteHistogram.unchecked(hist.counts.copy(), 256, 8.0)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_fresh_value_is_the_reference_bit_for_bit(self, seed):
        hist = ByteHistogram(random_counts(seed)[0].tolist())
        assert shannon_entropy(hist).hex() == reference_shannon_entropy(hist).hex()

    @pytest.mark.parametrize("zeros", [0, 1, 2, 128, 255])
    @given(st.integers(0, 2 ** 32 - 1))
    def test_merged_rows_are_the_reference_bit_for_bit(self, zeros, seed):
        # A window's merged block rows with ``zeros`` empty buckets in both:
        # full rows, exactly one zero (255 non-zero counts, the boundary of the
        # zero-bucket branch), and many, up to a single symbol (entropy 0.0).
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, rng.choice([2, 255, 2 ** 40]), size=(2, 256), endpoint=True)
        counts[:, rng.permutation(256)[:zeros]] = 0
        a, b = (ByteHistogram.unchecked(row, int(row.sum()), None) for row in counts)
        merged = a.merged(b)
        assert np.count_nonzero(merged.counts) == 256 - zeros
        assert shannon_entropy(merged).hex() == reference_shannon_entropy(merged).hex()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
    def test_full_row_entropies_are_shannon_entropy_bit_for_bit(self, seed, rows):
        counts = random_counts(seed, rows)
        counts = counts[counts.all(axis=1)]
        got = full_row_entropies(counts, counts.sum(axis=1)).tolist()
        assert [h.hex() for h in got] == [
            shannon_entropy(ByteHistogram(row.tolist())).hex() for row in counts]


class TestSecondDifference:
    def test_linear_is_zero(self):
        assert second_difference((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)) == 0.0

    def test_quadratic(self):
        assert second_difference((0.0, 0.0), (1.0, 1.0), (2.0, 4.0)) == pytest.approx(2.0, abs=1e-12)

    def test_concave(self):
        assert second_difference((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_irregular_spacing_rejected(self):
        # gaps 1.0 and 1.5: 20% off the mean
        assert second_difference((0.0, 1.0), (1.0, 2.0), (2.5, 3.0)) is None

    def test_spacing_within_tolerance_accepted(self):
        # gaps 1.0 and 1.1: under 10% of the mean
        assert second_difference((0.0, 1.0), (1.0, 2.0), (2.1, 3.0)) is not None

    def test_sin_convergence(self):
        # Halving dt must shrink the error roughly fourfold (second order).
        def error(dt):
            t0 = 1.0
            pairs = [(t0 + k * dt, math.sin(t0 + k * dt)) for k in (-1, 0, 1)]
            return abs(second_difference(*pairs) - (-math.sin(t0)))

        assert error(0.2) / error(0.1) > 3.5

    @pytest.mark.parametrize("gap", [1e-170, 1e-160, 4.2e-154])
    def test_gap_too_small_for_the_quotient_is_none(self, gap):
        # The squared gap underflows to 0 (1e-170), or 16 over it passes the
        # float range (1e-160), or lies just under MIN_SQUARED_GAP.
        assert gap * gap < MIN_SQUARED_GAP
        assert second_difference((0.0, 0.0), (gap, 8.0), (2 * gap, 0.0)) is None

    def test_smallest_gap_gives_a_finite_quotient(self):
        gap = math.sqrt(MIN_SQUARED_GAP) * (1 + 1e-15)
        assert gap * gap >= MIN_SQUARED_GAP
        accel = second_difference((0.0, 0.0), (gap, 8.0), (2 * gap, 0.0))
        assert accel == -16.0 / (gap * gap) and math.isfinite(accel)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = dist([0.25, 0.25, 0.5])
        assert kl_divergence(p, dist([0.25, 0.25, 0.5])) < 1e-9

    def test_point_mass_vs_fair(self):
        assert kl_divergence(dist([1.0, 0.0]), dist([0.5, 0.5])) == pytest.approx(1.0, abs=1e-9)

    def test_three_quarters(self):
        got = kl_divergence(dist([0.75, 0.25]), dist([0.5, 0.5]))
        assert got == pytest.approx(0.18872187554086717, abs=1e-9)

    def test_shape_mismatch(self):
        # Every distribution has the one binning; another bin count cannot be built.
        for shape in (2, 32, 65, (8, 8)):
            with pytest.raises(ValueError, match="64 masses"):
                BinnedDistribution(np.full(shape, 1.0 / np.prod(shape)))

    def test_zero_reference_bins_stay_finite(self):
        got = kl_divergence(dist([0.5, 0.5]), dist([1.0, 0.0]))
        assert math.isfinite(got)
        assert got > 10.0  # half the mass sits on an almost-impossible bin

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=64),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=64))
    def test_gibbs_inequality(self, raw_p, raw_q):
        size = min(len(raw_p), len(raw_q))
        p = np.asarray(raw_p[:size])
        q = np.asarray(raw_q[:size])
        p_dist = dist(p / p.sum())
        q_dist = dist(q / q.sum())
        assert kl_divergence(p_dist, q_dist) >= 0.0
        assert kl_divergence(p_dist, p_dist) < 1e-9


def reference_kl_divergence(p, q):
    """KL with the whole reference floored first and p indexed by its mask twice."""
    q_floored = np.maximum(q.bins, EPSILON_MASS)
    mask = p.bins > 0
    if not mask.any():
        return 0.0
    value = float((p.bins[mask] * np.log2(p.bins[mask] / q_floored[mask])).sum())
    return max(value, 0.0)


class TestKlDivergenceReference:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((2, DEVIATION_BINS)) * (rng.random((2, DEVIATION_BINS)) < 0.5)
        raw += np.eye(2, DEVIATION_BINS)  # p has mass in bin 0, q in bin 1
        p, q = (BinnedDistribution(row / row.sum()) for row in raw)
        assert kl_divergence(p, q).hex() == reference_kl_divergence(p, q).hex()


class TestBinnedDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dist([0.5, 0.6])

    def test_bin_index_floor_and_clamp(self):
        assert bin_index(7.5) == 60
        assert bin_index(0.0) == 0
        assert bin_index(8.0) == 63
        assert bin_index(-1.0) == 0
        assert bin_index(100.0) == 63


def reference_bin(value, lo=0.0, hi=8.0, bin_count=64):
    """The binning formula as it was with explicit support bounds and bin count."""
    return min(max(int((value - lo) / (hi - lo) * bin_count), 0), bin_count - 1)


# 0, each multiple of 1/8 and the float just below it, 8, and a subnormal.
EDGE_DEVIATIONS = sorted({0.0, 8.0, 5e-324}
                         | {k / 8 for k in range(65)}
                         | {math.nextafter(k / 8, 0.0) for k in range(1, 65)})


class TestBinIndex:
    def test_edges_match_reference(self):
        for value in EDGE_DEVIATIONS:
            assert bin_index(value) == reference_bin(value), value

    @given(st.floats(0.0, 8.0))
    def test_matches_reference(self, value):
        assert bin_index(value) == reference_bin(value)
