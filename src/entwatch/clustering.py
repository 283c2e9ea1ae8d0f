"""Agglomerative clustering of per-source entropy features, for outlier surfacing.

Average linkage over Euclidean distances in min-max-scaled feature space.
Cluster ids follow the usual convention: leaves are 0..n-1 and merge k
creates cluster n+k. Ties on merge distance break on the smallest
(cluster_a, cluster_b) pair, which makes the merge sequence a pure function
of input order and values. Everything here is batch computation with no
shared state; disjoint batches can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import MAX_ENTROPY_BITS
from .errors import InvalidQuantile, TooFewVectors

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
    scores: dict[str, float]
    flagged: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "flagged", frozenset(self.flagged))
        if not self.flagged <= set(self.scores):
            raise ValueError("flagged sources must be a subset of scored sources")


def scaled_distance_matrix(vectors) -> np.ndarray:
    """Full pairwise Euclidean distance matrix in batch-scaled feature space.

    Each feature is min-max scaled over the batch, so a constant feature
    contributes 0 and, between two vectors, a single differing feature
    contributes exactly 1.
    """
    mat = np.asarray([v.features for v in vectors], dtype=np.float64)
    lo = mat.min(axis=0)
    span = mat.max(axis=0) - lo
    scaled = np.zeros_like(mat)
    active = span > 0
    scaled[:, active] = (mat[:, active] - lo[active]) / span[active]
    diff = scaled[:, None, :] - scaled[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def agglomerate(vectors) -> Dendrogram:
    """Average-linkage merge sequence over batch-scaled Euclidean distances.

    Uses the Lance-Williams update, so each merge costs one vector operation;
    heights match a brute-force recomputation from the scaled matrix.
    """
    vectors = list(vectors)
    n = len(vectors)
    if n < 2:
        raise TooFewVectors(f"clustering needs at least 2 vectors, got {n}")

    size = 2 * n - 1
    dist = np.full((size, size), np.inf)
    dist[:n, :n] = scaled_distance_matrix(vectors)
    np.fill_diagonal(dist, np.inf)

    active = np.zeros(size, dtype=bool)
    active[:n] = True
    cluster_sizes = np.zeros(size, dtype=np.int64)
    cluster_sizes[:n] = 1

    # Only consider ordered pairs a < b; row-major argmin then lands on the
    # smallest (a, b) among equal distances.
    masked = dist.copy()
    masked[np.tril_indices(size)] = np.inf

    merges = []
    for step in range(n - 1):
        flat = int(np.argmin(masked))
        a, b = divmod(flat, size)
        height = float(masked[a, b])
        new = n + step
        new_size = int(cluster_sizes[a] + cluster_sizes[b])
        merges.append(Merge(a, b, height, new_size))

        others = np.flatnonzero(active)
        others = others[(others != a) & (others != b)]
        if others.size:
            updated = (cluster_sizes[a] * dist[a, others] + cluster_sizes[b] * dist[b, others]) / new_size
            dist[new, others] = updated
            dist[others, new] = updated
            lower = others[others < new]
            masked[lower, new] = dist[lower, new]

        active[a] = active[b] = False
        active[new] = True
        cluster_sizes[new] = new_size
        masked[a, :] = np.inf
        masked[:, a] = np.inf
        masked[b, :] = np.inf
        masked[:, b] = np.inf

    return Dendrogram(tuple(merges), n_leaves=n)


def outliers(dendrogram: Dendrogram, vectors, threshold_quantile: float) -> OutlierReport:
    """Score sources by how high their small cluster last merged.

    A source that stays in a singleton (or a cluster no bigger than 10% of
    the batch) until a late, tall merge scores near 1; sources absorbed early
    into the bulk score near 0. Flagged sources are those strictly above the
    requested quantile of all scores.
    """
    if not 0.0 < threshold_quantile < 1.0:
        raise InvalidQuantile(f"threshold quantile must be in (0, 1), got {threshold_quantile}")
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

    scores = {vectors[i].source_id: raw[i] for i in range(n)}
    threshold = float(np.quantile(np.asarray(raw), threshold_quantile))
    flagged = frozenset(sid for sid, s in scores.items() if s > threshold)
    return OutlierReport(scores=scores, flagged=flagged)
