from itertools import combinations

import numpy as np
import pytest

from entwatch.clustering import (
    Dendrogram,
    FeatureVector,
    Merge,
    agglomerate,
    outliers,
    scaled_distance_matrix,
)
from entwatch.errors import TooFewVectors


def fv(sid, *features):
    padded = tuple(features) + (0.0,) * (4 - len(features))
    return FeatureVector(sid, padded)


def naive_average_linkage(vectors):
    """Brute force reference: recompute mean pairwise distances every step."""
    dist = scaled_distance_matrix(vectors)
    n = len(vectors)
    clusters = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                d = float(np.mean([dist[i, j] for i in clusters[a] for j in clusters[b]]))
                if best is None or d < best[0] or (d == best[0] and (a, b) < best[1:]):
                    best = (d, a, b)
        d, a, b = best
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, len(clusters[next_id])))
        next_id += 1
    return merges


def masked_argmin_linkage(vectors):
    """The O(n^3) formulation: Lance-Williams updates, then at every merge a
    row-major argmin over the active upper triangle. Same arithmetic as
    `agglomerate`, so merges and heights must be bit-identical."""
    n = len(vectors)
    size = 2 * n - 1
    dist = np.full((size, size), np.inf)
    dist[:n, :n] = scaled_distance_matrix(vectors)
    sizes = np.zeros(size, dtype=np.int64)
    sizes[:n] = 1
    active = list(range(n))
    merges = []
    for new in range(n, size):
        live = np.zeros(size, dtype=bool)
        live[active] = True
        masked = np.where(np.triu(np.outer(live, live), 1), dist, np.inf)
        a, b = divmod(int(np.argmin(masked)), size)
        new_size = int(sizes[a] + sizes[b])
        merges.append(Merge(a, b, float(dist[a, b]), new_size))
        active.remove(a)
        active.remove(b)
        others = np.asarray(active, dtype=np.int64)
        updated = (sizes[a] * dist[a, others] + sizes[b] * dist[b, others]) / new_size
        dist[new, others] = dist[others, new] = updated
        sizes[new] = new_size
        active.append(new)
    return Dendrogram(tuple(merges), n_leaves=n)


def assert_matches_naive(vectors):
    got = agglomerate(vectors)
    expected = naive_average_linkage(vectors)
    assert len(got.merges) == len(expected)
    for merge, (a, b, height, size) in zip(got.merges, expected):
        assert (merge.cluster_a, merge.cluster_b) == (a, b)
        assert merge.height == pytest.approx(height, abs=1e-9)
        assert merge.new_size == size


def assert_average_linkage_up_to_float_ties(vectors):
    """Replay each merge against brute-force mean distances.

    The merged pair must be at the minimum mean distance, within 1e-9; where
    no other pair is that close to the minimum, it is the only choice.
    Mathematically equal means can differ in the last ulp between the
    Lance-Williams recursion and a direct mean, so exact pairs are not
    compared where such a tie exists.
    """
    dist = scaled_distance_matrix(vectors)
    n = len(vectors)
    clusters = {i: [i] for i in range(n)}
    for step, merge in enumerate(agglomerate(vectors).merges):
        means = {(a, b): float(np.mean(dist[np.ix_(clusters[a], clusters[b])]))
                 for a, b in combinations(sorted(clusters), 2)}
        best = min(means.values())
        assert (merge.cluster_a, merge.cluster_b) in {p for p, d in means.items() if d - best <= 1e-9}
        assert merge.height == pytest.approx(best, abs=1e-9)
        clusters[n + step] = clusters.pop(merge.cluster_a) + clusters.pop(merge.cluster_b)
        assert merge.new_size == len(clusters[n + step])


def integer_grid_batch(rng):
    """Features in {0, 1, 2}: many pairs share a distance, so most merges
    are decided by the (a, b) tie-break."""
    n = int(rng.integers(2, 41))
    return [fv(f"s{i}", *rng.integers(0, 3, size=4)) for i in range(n)]


def repeated_rows_batch(rng):
    """A few distinct rows repeated in random order: zero-height merges,
    then clusters of equal members at equal distances."""
    rows = rng.uniform(0, 8, size=(int(rng.integers(1, 5)), 4))
    n = int(rng.integers(2, 41))
    return [fv(f"s{i}", *rows[rng.integers(len(rows))]) for i in range(n)]


class TestPairwiseDistance:
    def test_identity(self):
        a = fv("a", 1.0, 2.0, 3.0, 4.0)
        b = fv("b", 5.0, 6.0, 7.0, 8.0)
        dist = scaled_distance_matrix([a, b, a])
        assert np.all(np.diag(dist) == 0.0)
        assert dist[0, 2] == 0.0

    def test_unit_displacement(self):
        a = fv("a", 1.0, 5.0)
        b = fv("b", 1.0, 9.0)
        assert scaled_distance_matrix([a, b])[0, 1] == pytest.approx(1.0)

    def test_matches_broadcast_sum(self):
        # Per-feature accumulation must equal the (n, n, 4) broadcast sum bit for bit.
        rng = np.random.default_rng(6)
        for _ in range(20):
            vectors = [fv(f"v{i}", *rng.uniform(0, 8, size=4)) for i in range(int(rng.integers(2, 60)))]
            mat = np.asarray([v.features for v in vectors])
            scaled = (mat - mat.min(axis=0)) / (mat.max(axis=0) - mat.min(axis=0))
            diff = scaled[:, None, :] - scaled[None, :, :]
            assert np.array_equal(scaled_distance_matrix(vectors), np.sqrt((diff * diff).sum(axis=2)))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vectors = [fv(f"v{i}", *rng.uniform(0, 8, size=4)) for i in range(4)]
            dist = scaled_distance_matrix(vectors)
            assert np.allclose(dist, dist.T, rtol=0.0, atol=1e-12)


class TestAgglomerate:
    def test_two_identical_vectors(self):
        dendro = agglomerate([fv("a", 1.0), fv("b", 1.0)])
        assert len(dendro.merges) == 1
        assert dendro.merges[0].height == 0.0
        assert dendro.merges[0].new_size == 2

    def test_collinear_points(self):
        # Scaled coordinates become 0, 0.1, 1; average linkage pairs the two
        # close points first, then absorbs the far one at the mean distance.
        dendro = agglomerate([fv("a", 0.0, 0.0), fv("b", 0.0, 1.0), fv("c", 0.0, 10.0)])
        first, second = dendro.merges
        assert (first.cluster_a, first.cluster_b) == (0, 1)
        assert first.height == pytest.approx(0.1, abs=1e-12)
        assert (second.cluster_a, second.cluster_b) == (2, 3)
        assert second.height == pytest.approx(0.95, abs=1e-12)

    def test_too_few_vectors(self):
        with pytest.raises(TooFewVectors):
            agglomerate([fv("a", 1.0)])

    def test_monotone_heights(self):
        rng = np.random.default_rng(11)
        vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(24)]
        dendro = agglomerate(vectors)
        heights = [m.height for m in dendro.merges]
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            assert_matches_naive([fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(n)])

    def test_matches_naive_reference_on_repeated_rows(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            assert_matches_naive(repeated_rows_batch(rng))

    def test_integer_grid_is_average_linkage(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            assert_average_linkage_up_to_float_ties(integer_grid_batch(rng))

    @pytest.mark.parametrize("make_batch", [
        integer_grid_batch,
        repeated_rows_batch,
        lambda rng: [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(int(rng.integers(2, 41)))],
    ], ids=["integer_grid", "repeated_rows", "uniform"])
    def test_bit_identical_to_masked_argmin(self, make_batch):
        rng = np.random.default_rng(79)
        for _ in range(40):
            vectors = make_batch(rng)
            assert agglomerate(vectors) == masked_argmin_linkage(vectors)

    def test_reference_agreement_with_duplicates(self):
        vectors = [fv("a", 1.0), fv("b", 1.0), fv("c", 1.0), fv("d", 5.0)]
        got = agglomerate(vectors)
        expected = naive_average_linkage(vectors)
        assert [(m.cluster_a, m.cluster_b) for m in got.merges] == [e[:2] for e in expected]

    def test_determinism(self):
        rng = np.random.default_rng(9)
        vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(12)]
        a = agglomerate(vectors)
        b = agglomerate(list(vectors))
        assert a == b


class TestOutliers:
    def test_identical_vectors_score_zero(self):
        vectors = [fv(f"s{i}", 3.0) for i in range(5)]
        report = outliers(agglomerate(vectors), vectors)
        assert all(s == 0.0 for s in report.scores.values())

    def test_far_point_flagged(self):
        vectors = [fv(f"s{i}", 0.01 * i) for i in range(9)] + [fv("far", 8.0)]
        report = outliers(agglomerate(vectors), vectors)
        assert report.scores["far"] == 1.0
        assert all(s < 1.0 for sid, s in report.scores.items() if sid != "far")

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(31)
        vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(15)]
        report = outliers(agglomerate(vectors), vectors)
        assert all(0.0 <= s <= 1.0 for s in report.scores.values())
        assert set(report.scores) == {v.source_id for v in vectors}
