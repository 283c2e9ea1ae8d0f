"""Agglomerative clustering of per-source entropy features, for outlier surfacing.

Average linkage over Euclidean distances in min-max-scaled feature space.
Cluster ids follow the usual convention: leaves are 0..n-1 and merge k
creates cluster n+k. Ties on merge distance break on the smallest
(cluster_a, cluster_b) pair, which makes the merge sequence a pure function
of input order and values. A tie here means equal computed Lance-Williams
distances: two mathematically equal averages that round apart in the last
ulp do not tie.

`agglomerate` is Müllner's generic algorithm with a lower bound on each
row's minimum: a merge leaves bounds stale rather than rescanning the rows
that pointed at the merged pair, and a popped row whose bound proves stale
is rescanned, takes its true minimum as the bound, and the pop repeats.
Ties still break on the smallest pair: the pop takes the first row among
equal bounds, and a bound is never above its row's minimum. Cost is
O(n^2) in practice and O(n^3) in the worst case.

`agglomerate` reads one attribute of each item: ``features`` (4 finite
floats, in ``FEATURE_NAMES`` order). ``FeatureVector`` is one such item,
validated. `outliers` reads only the dendrogram and returns one score per
leaf, in input order, so the caller keeps any ids.

Everything here is batch computation with no shared state; disjoint
batches can run concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .entropy import MAX_ENTROPY_BITS

FEATURE_NAMES = ("mean_entropy", "max_abs_delta", "max_accel", "kl_to_baseline")

# Clusters at most this fraction of the batch count as "small" when scoring.
SMALL_CLUSTER_FRACTION = 0.10


@dataclass(frozen=True)
class FeatureVector:
    """Per-source summary: mean entropy, max |dH|, max d2H/dt2, KL vs level baseline."""

    source_id: str
    features: tuple[float, float, float, float]

    def __post_init__(self):
        features = tuple(self.features)
        # numpy reals pass, as batches are built from arrays; a bool is an
        # int subclass, and numpy's bool_ is not a numbers.Real at all.
        if not all(isinstance(f, numbers.Real) and not isinstance(f, bool) for f in features):
            raise ValueError(f"features must be real numbers, got {features!r}")
        try:
            object.__setattr__(self, "features", tuple(float(f) for f in features))
        except OverflowError:  # an int past the float range
            raise ValueError(f"features must be finite, got {features!r}") from None
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
    """Outlier score in [0, 1] per leaf, in the order of the clustered vectors."""

    scores: tuple[float, ...]


def _fill_distances(vectors, out: np.ndarray) -> None:
    """Write the pairwise Euclidean distances of ``vectors`` in batch-scaled
    feature space into ``out``, an n x n view.

    Each feature is min-max scaled over the batch, so a constant feature
    contributes 0 and, between two vectors, a single differing feature
    contributes exactly 1. Squared differences are summed in feature order.
    """
    mat = np.asarray([v.features for v in vectors], dtype=np.float64)
    lo = mat.min(axis=0)
    with np.errstate(over="ignore"):
        span = mat.max(axis=0) - lo
    if not np.isfinite(span).all():
        raise ValueError(f"feature ranges past the float range: {span}")
    scaled = np.zeros_like(mat)
    active = span > 0
    scaled[:, active] = (mat[:, active] - lo[active]) / span[active]
    out.fill(0.0)
    diff = np.empty_like(out)
    for column in scaled.T:
        np.subtract.outer(column, column, out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    np.sqrt(out, out=out)


def agglomerate(vectors) -> Dendrogram:
    """Average-linkage merge sequence over batch-scaled Euclidean distances.

    Müllner's generic algorithm ("Modern hierarchical, agglomerative
    clustering algorithms", arXiv:1109.2378) in its lower-bound form.
    ``row_min[c]`` is a lower bound on the distance from active cluster c to
    its nearest active cluster among the ids above c. A merge pops the
    smallest c holding the least bound and rescans that row alone; if the
    row's true minimum is above the bound, the minimum becomes the bound and
    the pop repeats. Bounds stay valid because a merge only removes ids from
    rows, which can only raise their minima, and adds one id, the new
    cluster, whose distances are folded into every bound with one
    ``np.minimum``.

    Ties still break on the smallest (a, b) pair, as a row-major scan of the
    upper triangle would find it. When the popped row a's bound is exact,
    every row with a smaller id holds a strictly larger bound (the argmin
    takes the first index), hence a strictly larger minimum, and every other
    row a minimum no smaller; the rescan's argmin takes the smallest b among
    equal distances.

    A merge sets distances to the new cluster with the Lance-Williams
    update, so heights match a brute-force recomputation from the scaled
    matrix up to rounding. Cost is O(n^2) in practice and O(n^3) in the
    worst case, when most pops find a stale bound.
    """
    vectors = list(vectors)
    n = len(vectors)
    if n < 2:
        raise ValueError(f"clustering needs at least 2 vectors, got {n}")

    size = 2 * n - 1
    # Slots of merged-away clusters and of clusters not created yet hold inf,
    # so a scan of row c over the ids above c sees only active partners.
    dist = np.full((size, size), np.inf)
    _fill_distances(vectors, dist[:n, :n])
    np.fill_diagonal(dist, np.inf)
    row_min = np.full(size, np.inf)
    row_min[:n] = np.where(np.tri(n, dtype=bool), np.inf, dist[:n, :n]).min(axis=1)
    sizes = [1] * n
    weighted_b = np.empty(size)

    merges = []
    for new in range(n, size):
        while True:
            a = int(row_min.argmin())
            row = dist[a, a + 1:new]
            j = int(row.argmin())
            height = row[j]
            if not height > row_min[a]:
                break
            row_min[a] = height  # the bound was stale; pop again
        b = a + 1 + j
        size_a, size_b = sizes[a], sizes[b]
        new_size = size_a + size_b
        merges.append(Merge(a, b, float(height), new_size))
        sizes.append(new_size)

        row_min[a] = row_min[b] = np.inf
        dist[:new, a] = np.inf
        dist[:new, b] = np.inf
        # Lance-Williams; inactive columns stay inf. Multiplying by 1 is
        # exact in IEEE arithmetic, so those products are skipped.
        updated = dist[new]
        dist_a, dist_b = dist[a], dist[b]
        if size_b != 1:
            dist_b = np.multiply(dist_b, size_b, out=weighted_b)
        if size_a != 1:
            dist_a = np.multiply(dist_a, size_a, out=updated)
        np.add(dist_a, dist_b, out=updated)
        np.divide(updated, new_size, out=updated)
        dist[:new, new] = updated[:new]
        np.minimum(row_min, updated, out=row_min)

    return Dendrogram(tuple(merges), n_leaves=n)


def outliers(dendrogram: Dendrogram) -> OutlierReport:
    """Score leaves by how high their small cluster last merged.

    A leaf that stays in a singleton (or a cluster no bigger than 10% of
    the batch) until a late, tall merge scores near 1; leaves absorbed early
    into the bulk score near 0. Scores are in leaf order, the order of the
    vectors given to `agglomerate`.
    """
    n = dendrogram.n_leaves

    small_max = max(1, int(SMALL_CLUSTER_FRACTION * n))
    # Leaves of each cluster id, kept only while the cluster is small: a
    # larger cluster's leaves are never read again, since every cluster
    # that later contains it is larger still.
    members: list[list[int] | None] = [[i] for i in range(n)]
    last_height = [0.0] * n

    for merge in dendrogram.merges:
        side_a, side_b = members[merge.cluster_a], members[merge.cluster_b]
        for side in (side_a, side_b):
            if side is not None:
                for leaf in side:
                    last_height[leaf] = merge.height
        small = side_a is not None and side_b is not None and len(side_a) + len(side_b) <= small_max
        members.append(side_a + side_b if small else None)

    max_height = dendrogram.merges[-1].height if dendrogram.merges else 0.0
    if max_height > 0:
        return OutlierReport(tuple(h / max_height for h in last_height))
    return OutlierReport((0.0,) * n)
