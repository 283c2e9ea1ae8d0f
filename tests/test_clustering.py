from itertools import combinations

import numpy as np
import pytest

from entwatch.clustering import (
    SMALL_CLUSTER_FRACTION,
    Dendrogram,
    FeatureVector,
    Merge,
    agglomerate,
    _fill_distances,
    outliers,
)
from entwatch.errors import TooFewVectors


def fv(sid, *features):
    padded = tuple(features) + (0.0,) * (4 - len(features))
    return FeatureVector(sid, padded)


def scaled_distance_matrix(vectors) -> np.ndarray:
    """The full pairwise distance matrix that ``agglomerate`` starts from."""
    vectors = list(vectors)
    dist = np.empty((len(vectors), len(vectors)))
    _fill_distances(vectors, dist)
    return dist


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


def uniform_batch(rng):
    return [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(int(rng.integers(2, 41)))]


def window_close_batch(rng):
    """About 200 sources shaped like the batches a 200-file ransomware trace
    clusters: mean entropies in a narrow band, max |dH| sometimes 0, KL on
    three values. max_accel is 0 for every source (the constant column of a
    mid-trace batch) or for most of them (a late batch)."""
    n = int(rng.integers(190, 211))
    mean = rng.uniform(2.8, 4.1, size=n)
    delta = np.where(rng.random(n) < 0.12, 0.0, rng.uniform(0.0, 2.4, size=n))
    accel = np.where(rng.random(n) < rng.choice([1.0, 0.8]), 0.0, rng.exponential(1e-3, size=n))
    kl = rng.choice([0.0, 28.979, 29.897], size=n)
    return [fv(f"s{i}", mean[i], delta[i], accel[i], kl[i]) for i in range(n)]


def hub_batch(rng):
    """Arms of points along three features, each nearest (among the ids above
    it) to one hub placed after every arm point: positions grow by more than
    2x along an arm, so the hub is closer than any farther point. The hub merges with
    a point behind it before any arm point merges, which leaves every arm
    row's bound stale. A random cloud in the negative orthant, after the hub,
    competes with those stale bounds."""
    arm = int(rng.integers(6, 12))
    factor = rng.uniform(2.2, 3.0)
    rows = [[0.0, 0.0, 0.0, 0.0] for _ in range(3 * arm)]
    for k in range(3 * arm):
        rows[k][1 + k % 3] = factor ** (k // 3)
    rows.append([0.0, 0.0, 0.0, 0.0])
    rows.append([0.0, -rng.uniform(0.2, 0.9), 0.0, 0.0])
    rows.extend([0.0, *cloud] for cloud in -rng.uniform(1.5, 3.0, size=(int(rng.integers(2, 10)), 3)))
    return [fv(f"s{i}", 4.0, *row[1:]) for i, row in enumerate(rows)]


def reference_outlier_scores(dendrogram):
    """`outliers` as it was before it dropped large clusters' member lists."""
    n = dendrogram.n_leaves
    small_max = max(1, int(SMALL_CLUSTER_FRACTION * n))
    members = {i: [i] for i in range(n)}
    last_height = [0.0] * n
    for step, merge in enumerate(dendrogram.merges):
        for side in (merge.cluster_a, merge.cluster_b):
            side_members = members[side]
            if len(side_members) <= small_max:
                for leaf in side_members:
                    last_height[leaf] = merge.height
        members[n + step] = members[merge.cluster_a] + members[merge.cluster_b]
    max_height = dendrogram.merges[-1].height if dendrogram.merges else 0.0
    return tuple(h / max_height for h in last_height) if max_height > 0 else (0.0,) * n


class TestFeatureVector:
    @pytest.mark.parametrize("bad", ["1.5", True, np.bool_(False)], ids=["str", "bool", "numpy_bool"])
    @pytest.mark.parametrize("position", range(4))
    def test_rejects_strings_and_bools(self, bad, position):
        features = [1.0, 0.0, 0.0, 0.0]
        features[position] = bad
        with pytest.raises(ValueError, match="real numbers"):
            FeatureVector("a", tuple(features))

    def test_accepts_python_and_numpy_reals(self):
        vector = FeatureVector("a", (np.float64(1.5), np.int64(2), 3, np.float32(0.5)))
        assert vector.features == (1.5, 2.0, 3.0, 0.5)
        assert all(type(f) is float for f in vector.features)


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

    def test_feature_range_past_float_range(self):
        # max - min of the second feature overflows to inf; scaling would give NaN.
        vectors = [fv("a", 1.0, 1e308), fv("b", 1.0, -1e308), fv("c", 1.0, 0.0)]
        with pytest.raises(ValueError, match="past the float range"):
            agglomerate(vectors)

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

    @pytest.mark.parametrize("make_batch, batches", [
        (integer_grid_batch, 40),
        (repeated_rows_batch, 40),
        (uniform_batch, 40),
        (window_close_batch, 3),
        (hub_batch, 20),
    ], ids=["integer_grid", "repeated_rows", "uniform", "window_close", "hub"])
    def test_bit_identical_to_masked_argmin(self, make_batch, batches):
        rng = np.random.default_rng(79)
        for _ in range(batches):
            vectors = make_batch(rng)
            assert agglomerate(vectors) == masked_argmin_linkage(vectors)

    def test_stale_bound_tied_with_exact_minimum_below_it(self):
        # Scaled positions 0, 1/4, 3/8, 3/4, 1. Merging (1, 2) at 1/8 leaves
        # row 0's bound at 1/4, stale: its minimum is now 5/16, to cluster 5.
        # Row 3's exact minimum is 1/4 too, so the pop takes row 0 first;
        # its rescan must send the merge to (3, 4).
        vectors = [fv(f"s{i}", x) for i, x in enumerate((0.0, 2.0, 3.0, 6.0, 8.0))]
        dendro = agglomerate(vectors)
        assert dendro == masked_argmin_linkage(vectors)
        assert [(m.cluster_a, m.cluster_b, m.height) for m in dendro.merges[:2]] == [
            (1, 2, 0.125), (3, 4, 0.25)]

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
    @pytest.mark.parametrize("make_batch", [integer_grid_batch, repeated_rows_batch, uniform_batch],
                             ids=["integer_grid", "repeated_rows", "uniform"])
    def test_bit_identical_to_full_member_lists(self, make_batch):
        rng = np.random.default_rng(80)
        for _ in range(40):
            vectors = make_batch(rng)
            dendro = agglomerate(vectors)
            assert outliers(dendro).scores == reference_outlier_scores(dendro)

    def test_identical_vectors_score_zero(self):
        vectors = [fv(f"s{i}", 3.0) for i in range(5)]
        report = outliers(agglomerate(vectors))
        assert report.scores == (0.0,) * 5

    def test_far_point_flagged(self):
        vectors = [fv(f"s{i}", 0.01 * i) for i in range(9)] + [fv("far", 8.0)]
        *near, far = outliers(agglomerate(vectors)).scores
        assert far == 1.0
        assert all(s < 1.0 for s in near)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(31)
        vectors = [fv(f"s{i}", *rng.uniform(0, 8, size=4)) for i in range(15)]
        report = outliers(agglomerate(vectors))
        assert all(0.0 <= s <= 1.0 for s in report.scores)
        assert len(report.scores) == len(vectors)

    def test_repeated_ids_keep_every_score(self):
        # Scores follow the vectors' positions, so an id given twice loses nothing.
        vectors = [fv("a", 0.0), fv("a", 0.1), fv("b", 8.0)]
        scores = outliers(agglomerate(vectors)).scores
        assert len(scores) == 3
        assert scores[2] == 1.0
