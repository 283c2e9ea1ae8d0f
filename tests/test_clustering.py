import numpy as np
import pytest

from entwatch.clustering import (
    FeatureVector,
    agglomerate,
    outliers,
    scaled_distance_matrix,
)
from entwatch.errors import InvalidQuantile, TooFewVectors


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
            vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(n)]
            got = agglomerate(vectors)
            expected = naive_average_linkage(vectors)
            assert len(got.merges) == len(expected)
            for merge, (a, b, height, size) in zip(got.merges, expected):
                assert (merge.cluster_a, merge.cluster_b) == (a, b)
                assert merge.height == pytest.approx(height, abs=1e-9)
                assert merge.new_size == size

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
        report = outliers(agglomerate(vectors), vectors, 0.9)
        assert all(s == 0.0 for s in report.scores.values())
        assert report.flagged == frozenset()

    def test_far_point_flagged(self):
        vectors = [fv(f"s{i}", 0.01 * i) for i in range(9)] + [fv("far", 8.0)]
        report = outliers(agglomerate(vectors), vectors, 0.9)
        assert report.flagged == {"far"}
        assert report.scores["far"] == 1.0

    def test_quantile_open_interval(self):
        vectors = [fv("a", 1.0), fv("b", 2.0)]
        dendro = agglomerate(vectors)
        with pytest.raises(InvalidQuantile):
            outliers(dendro, vectors, 1.0)
        with pytest.raises(InvalidQuantile):
            outliers(dendro, vectors, 0.0)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(31)
        vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(15)]
        report = outliers(agglomerate(vectors), vectors, 0.8)
        assert all(0.0 <= s <= 1.0 for s in report.scores.values())
        assert report.flagged <= set(report.scores)
