"""Agglomerative clustering of per-source entropy features, for outlier surfacing.

Average linkage over Euclidean distances in min-max-scaled feature space.
Cluster ids follow the usual convention: leaves are 0..n-1 and merge k
creates cluster n+k. Ties on merge distance break on the smallest
(cluster_a, cluster_b) pair, which makes the merge sequence a pure function
of input order and values. A tie here means equal computed Lance-Williams
distances: two mathematically equal averages that round apart in the last
ulp do not tie.

`agglomerate` is Müllner's generic algorithm with a cached minimum per
row: a row whose partner was merged is rescanned and takes the smallest id
among ties, and any other row moves to the new cluster only on a strictly
smaller distance. That keeps the smallest-pair tie-break exactly, at O(n^2)
cost in practice and O(n^3) in the worst case.

`agglomerate` and `outliers` read two attributes of each item, given in the
same order to both: ``features`` (4 finite floats, in ``FEATURE_NAMES``
order) and ``source_id``. ``FeatureVector`` is one such item, validated.

Everything here is batch computation with no shared state; disjoint
batches can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import MAX_ENTROPY_BITS
from .errors import TooFewVectors

FEATURE_NAMES = ("mean_entropy", "max_abs_delta", "max_accel", "kl_to_baseline")

# Clusters at most this fraction of the batch count as "small" when scoring.
SMALL_CLUSTER_FRACTION = 0.10


@dataclass(frozen=True)
class FeatureVector:
    """Per-source summary: mean entropy, max |dH|, max d2H/dt2, KL vs level baseline."""

    source_id: str
    features: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(float(f) for f in self.features))
        if len(self.features) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(self.features)}")
        if not all(math.isfinite(f) for f in self.features):
            raise ValueError(f"features must be finite, got {self.features}")
        if not 0.0 <= self.features[0] <= MAX_ENTROPY_BITS:
            raise ValueError(f"mean entropy out of [0, 8]: {self.features[0]}")


@dataclass(frozen=True)
class Merge:
    cluster_a: int
    cluster_b: int
    height: float
    new_size: int


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple[Merge, ...]
    n_leaves: int

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(self.merges))
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError(f"{self.n_leaves} leaves need {self.n_leaves - 1} merges, got {len(self.merges)}")
        heights = [m.height for m in self.merges]
        for prev, cur in zip(heights, heights[1:]):
            # Average linkage is monotone; allow only float-level slack.
            if cur < prev - 1e-9:
                raise ValueError(f"merge heights decreased: {prev} -> {cur}")


@dataclass(frozen=True)
class OutlierReport:
    """Outlier score in [0, 1] per source id."""

    scores: dict[str, float]


def scaled_distance_matrix(vectors) -> np.ndarray:
    """Full pairwise Euclidean distance matrix in batch-scaled feature space.

    Each feature is min-max scaled over the batch, so a constant feature
    contributes 0 and, between two vectors, a single differing feature
    contributes exactly 1. Squared differences are summed in feature order.
    """
    mat = np.asarray([v.features for v in vectors], dtype=np.float64)
    lo = mat.min(axis=0)
    span = mat.max(axis=0) - lo
    scaled = np.zeros_like(mat)
    active = span > 0
    scaled[:, active] = (mat[:, active] - lo[active]) / span[active]
    squared = np.zeros((len(mat), len(mat)))
    for column in scaled.T:
        diff = np.subtract.outer(column, column)
        squared += diff * diff
    return np.sqrt(squared)


def agglomerate(vectors) -> Dendrogram:
    """Average-linkage merge sequence over batch-scaled Euclidean distances.

    Müllner's generic algorithm ("Modern hierarchical, agglomerative
    clustering algorithms", arXiv:1109.2378) with a cache of each row's
    minimum. Every active cluster c caches its nearest active partner among
    the ids above c, the smallest such id among equal distances, and the
    distance to it. The merge pair is (a, partner of a) for the smallest a
    holding the least cached distance: the smallest (a, b) pair among equal
    distances, as a row-major scan of the upper triangle would find it.

    A merge sets distances to the new cluster with the Lance-Williams
    update, so heights match a brute-force recomputation from the scaled
    matrix up to rounding. Then only the rows whose partner was a or b are
    rescanned, taking the smallest id among ties. Every other row moves its
    partner to the new cluster only on a strictly smaller distance; the new
    id is larger than every other, so it loses all ties. Cost is O(n^2) in
    practice and O(n^3) in the worst case, when most rows need a rescan at
    every merge.
    """
    vectors = list(vectors)
    n = len(vectors)
    if n < 2:
        raise TooFewVectors(f"clustering needs at least 2 vectors, got {n}")

    size = 2 * n - 1
    # Slots of merged-away clusters and of clusters not created yet hold inf,
    # so a scan of row c over the ids above c sees only active partners.
    dist = np.full((size, size), np.inf)
    dist[:n, :n] = scaled_distance_matrix(vectors)
    np.fill_diagonal(dist, np.inf)
    cluster_sizes = np.zeros(size, dtype=np.int64)
    cluster_sizes[:n] = 1

    # Row cache: partner[c] is c's nearest active cluster among the ids above
    # c (-1 for none), row_min[c] the distance to it (inf for none).
    partner = np.full(size, -1, dtype=np.int64)
    row_min = np.full(size, np.inf)

    def rescan(c):
        # argmin returns the first index, so the smallest id among ties.
        partner[c] = c + 1 + dist[c, c + 1:].argmin()
        row_min[c] = dist[c, partner[c]]

    for c in range(n - 1):
        rescan(c)

    merges = []
    for new in range(n, size):
        a = int(row_min.argmin())
        b = int(partner[a])
        new_size = int(cluster_sizes[a] + cluster_sizes[b])
        merges.append(Merge(a, b, float(row_min[a]), new_size))

        partner[a] = partner[b] = -1
        row_min[a] = row_min[b] = np.inf
        dist[:, a] = dist[:, b] = np.inf
        # Lance-Williams; inactive columns stay inf.
        updated = (cluster_sizes[a] * dist[a] + cluster_sizes[b] * dist[b]) / new_size
        dist[new] = updated
        dist[:, new] = updated
        cluster_sizes[new] = new_size

        stale = (partner == a) | (partner == b)
        closer = (updated < row_min) & ~stale
        np.copyto(partner, new, where=closer)
        np.copyto(row_min, updated, where=closer)
        for c in np.flatnonzero(stale):
            rescan(c)

    return Dendrogram(tuple(merges), n_leaves=n)


def outliers(dendrogram: Dendrogram, vectors) -> OutlierReport:
    """Score sources by how high their small cluster last merged.

    A source that stays in a singleton (or a cluster no bigger than 10% of
    the batch) until a late, tall merge scores near 1; sources absorbed early
    into the bulk score near 0.
    """
    vectors = list(vectors)
    n = dendrogram.n_leaves
    if len(vectors) != n:
        raise ValueError(f"dendrogram covers {n} leaves but {len(vectors)} vectors supplied")

    small_max = max(1, int(SMALL_CLUSTER_FRACTION * n))
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    last_height = [0.0] * n

    for step, merge in enumerate(dendrogram.merges):
        for side in (merge.cluster_a, merge.cluster_b):
            side_members = members[side]
            if len(side_members) <= small_max:
                for leaf in side_members:
                    last_height[leaf] = merge.height
        members[n + step] = members[merge.cluster_a] + members[merge.cluster_b]

    max_height = dendrogram.merges[-1].height if dendrogram.merges else 0.0
    if max_height > 0:
        raw = [h / max_height for h in last_height]
    else:
        raw = [0.0] * n

    return OutlierReport({vectors[i].source_id: raw[i] for i in range(n)})
