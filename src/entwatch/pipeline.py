"""Streaming detection over event records.

Records are consumed in timestamp order. ``SourceWindows`` buckets them into
fixed windows of ``DetectorConfig.window_seconds`` and routes each source to
a level at its first record. At each window close every source with payload
activity gets one entropy sample, a (window end, entropy) pair for its merged
window histogram, and keeps its last three. The window histogram is the
source's first record's own, so a window of one record costs no copy and
reads that histogram's entropy: for a block-path record, the first such read
of its trace block computes the entropies of all the block's rows at once
(see ``traces``). Each later record replaces it with
``ByteHistogram.merged``, a new histogram whose entropy is computed at the
close; no histogram's counts or total change once it is built. Sources with
two or more samples yield an absolute entropy deviation |dH|, read off
their last two samples. Window ends strictly increase, each at or after its
window's records (see ``SourceWindows``), and entropies are in [0, 8], so
samples are kept as computed. ``collect_trace_deviations`` drives it alone
to gather deviations for profile fitting; ``TraceProcessor`` composes it
and, at each close:

1. walks the sampled sources once. Each new sample goes into the source's
   entropy sum and sample count, each new deviation into its max |dH| and,
   binned once, into its recent-deviation window, the second difference of
   its last three samples into its max acceleration (none when they are
   unevenly spaced, as across a window the source skipped; see
   ``entropy.second_difference``); then, for a source not yet flagged, its
   posterior (a Bayes update by the attack-vs-baseline likelihood ratio of
   the deviation's bin) is updated. Labels latch, so a flagged source's
   posterior stays as it was at the close that flagged it. The attack rule
   (``detector.is_attack``) is monotone in the outlier score, the KL and
   convexity, so a source it does not flag at outlier 1.0, infinite KL
   and convexity cannot be flagged at this close: only a source that
   passes this gate has its KL read here, once, and the close reuses that
   value. No KL is stored: ``SourceTrack.kl`` computes it from the recent
   deviations against the level baseline whenever it is read. Each profile
   level's 64 ratios are built once per profile and attack model, and kept
   on the profile for every processor that scores against it
   (``_scored_levels``), beside the level's KL memo; a source looks up its
   level's entry once, when it is created. KL reads only the multiset of
   the recent bins, so it is read from that memo, keyed by the multiset,
   and on a miss computed as the ``kl_divergence`` of the bins'
   ``empirical_distribution`` (``_memoised_kl``);
2. gives each sampled source's latest entropy to the processor's
   ``hierarchy.LevelMeans``, which appends each level's mean of its sampled
   members' latest entropies to the heatmap's samples and returns their
   weighted mean over the levels that have data so far. The close appends
   that to the aggregate series, which keeps its last three (window end,
   entropy) pairs and a count of its latest second differences, in a row,
   that are evenly spaced and positive: each appended pair updates the
   count by one ``detector.convexity_signal(pairs, 1)``, which reads the
   three pairs of the deque by index, and the close is convex when the
   count reaches ``convexity_run``, as ``convexity_signal`` over the whole
   series would say. When those levels' weights sum to 0 there is no mean,
   and the close appends nothing, calls no ``convexity_signal`` and keeps
   the count;
3. takes as candidates the gated sources of step 1 that the attack rule
   flags at outlier 1.0, their own KL and the close's convexity. The
   outlier score is in [0, 1], so no other source can be flagged at this
   close, and a close with no candidate ends here. It clusters the sampled
   sources on ``SourceTrack.features`` (mean entropy, max |dH|, max
   acceleration, KL, the last computed from the recent deviations as the
   features are read), and outlier-scores them only when some candidate is
   not flagged at outlier 0.0: that is the only case in which an outlier
   score can decide a label. A source the rule flags at 0.0 is flagged
   whatever its score and gives no reason to cluster;
4. decides each candidate by the same rule at its actual outlier score,
   reading the evidence off its ``SourceTrack`` and the KL read in step 1;
   a ``Verdict`` is built only for a source the rule flags.

Labels latch (benign -> ransomware only): a flagged source keeps the verdict
of the close that flagged it and is not decided again, and its one alert is
raised here, with the trace's onset attached unless it postdates the alert.
One processor handles one trace; processors share only the ratio tables and
KL memos derived from their profile, and may run concurrently on distinct
traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter

from .baseline import BaselineProfile, empirical_distribution, smoothed_distribution
from .clustering import agglomerate, outliers
from .detector import (
    Alert,
    BENIGN,
    DetectorConfig,
    RANSOMWARE,
    Verdict,
    convexity_signal,
    fuse_and_decide,
    fused_confidence,
    is_attack,
    likelihood_ratio,
    posterior,
)
from .entropy import (
    DEVIATION_BINS,
    MAX_ENTROPY_BITS,
    BinnedDistribution,
    ByteHistogram,
    bin_index,
    kl_divergence,
    second_difference,
    shannon_entropy,
)
from .errors import MalformedRecord
from .hierarchy import HierarchyConfig, LevelMeans, default_hierarchy, route_source
from .simulate import ScenarioSpec, simulate_scenario
from .traces import EventRecord

# How many recent deviations form the per-source empirical distribution.
DEVIATION_HISTORY = 16

# Entries a level's KL memo holds before it is cleared, so traces of
# ever-new deviation windows cannot grow it without limit.
KL_MEMO_LIMIT = 4096

# Posterior clamp; keeps sequential updates recoverable in both directions.
POSTERIOR_FLOOR = 1e-6

# Seeded encryptor runs used to fit the attack-conditional deviation model.
ATTACK_MODEL_SEEDS = (9101, 9102, 9103)
ATTACK_FIT_DURATION = 60.0

# The model ``fit_attack_model()`` fits, stored so that detection simulates
# nothing: the mass of each bin above the smoothing floor, which every other
# bin holds. The floats are reprs, so they round-trip bit for bit; a test
# refits the model and compares.
_ATTACK_FLOOR_MASS = 9.999999430000036e-10
_ATTACK_MASSES = {
    5: 0.8888888382222252,
    14: 0.018518517462963024,
    15: 0.02160493704012353,
    16: 0.024691356617284034,
    17: 0.018518517462963024,
    18: 0.024691356617284034,
    19: 0.0030864195771605043,
}
ATTACK_MODEL = BinnedDistribution(
    [_ATTACK_MASSES.get(b, _ATTACK_FLOOR_MASS) for b in range(DEVIATION_BINS)])
ATTACK_MODEL.bins.flags.writeable = False  # shared by every processor

# The key a close sorts its sampled sources by, built once rather than per close.
_SOURCE_ORDER = attrgetter("order")


def _scored_levels(profile: BaselineProfile, attack_model: BinnedDistribution
                   ) -> dict[str, tuple[BinnedDistribution, list[float], dict]]:
    """Per profile level, its baseline, the likelihood ratio against
    ``attack_model`` of each deviation bin, read at the bin's lower edge
    (``bin_index`` gives it back), and the level's KL memo (``_memoised_kl``).

    Built the first time a processor asks for the pair and kept on the
    profile, so every processor that scores against it shares the tables and
    memos, and they live as long as the profile. The entry holds the model
    too, so its id is not reused while the entry exists.
    """
    entry = profile.derived.get(id(attack_model))
    if entry is None:
        edges = [b * MAX_ENTROPY_BITS / DEVIATION_BINS for b in range(DEVIATION_BINS)]
        levels = {level_id: (q, [likelihood_ratio(edge, q, attack_model) for edge in edges], {})
                  for level_id, q in profile.per_level.items()}
        entry = profile.derived[id(attack_model)] = (attack_model, levels)
    return entry[1]


def _memoised_kl(memo: dict[tuple[int, ...], float], q: BinnedDistribution,
                 deviations) -> float:
    """``kl_divergence`` of the deviation bins' ``empirical_distribution``
    against ``q``. It reads only their multiset, so it is kept in ``memo``
    by the sorted bins, and ``memo`` is cleared once it holds
    ``KL_MEMO_LIMIT`` entries.

    ``memo`` is a level's memo from ``_scored_levels``, which processors on
    other threads may share. A race between them can compute a KL twice or
    drop entries at a clear, but never changes a value that is returned.
    """
    key = tuple(sorted(deviations))
    kl = memo.get(key)
    if kl is None:
        if len(memo) >= KL_MEMO_LIMIT:
            memo.clear()
        kl = memo[key] = kl_divergence(empirical_distribution(key), q)
    return kl


@dataclass
class SourceWindow:
    """One source's open-window histogram and its latest entropy samples."""

    source_id: str
    level_id: str
    # The last three (window end, entropy) pairs: second differences read
    # all three, the level mean and the next deviation the last one.
    samples: deque = field(default_factory=lambda: deque(maxlen=3))
    # The open window's histogram: its first record's own, then its merge
    # with each later record of the window.
    pending: ByteHistogram | None = None
    # The source's place in first-record order.
    order: int = 0

    @property
    def deviation(self) -> float | None:
        """|dH| between the source's last two samples; None before its second."""
        samples = self.samples
        return abs(samples[-1][1] - samples[-2][1]) if len(samples) > 1 else None


@dataclass
class SourceTrack(SourceWindow):
    """A source's window state plus the detector's evidence about it."""

    # Sum and count of every entropy sample the source has had, for its mean.
    entropy_sum: float = 0.0
    sample_count: int = 0
    # Bins (``entropy.bin_index``) of the most recent deviations.
    deviations: deque = field(default_factory=lambda: deque(maxlen=DEVIATION_HISTORY))
    # The source's slot in ``LevelMeans``; None until its first sample.
    level_slot: int | None = None
    # Frozen once the source is flagged: nothing reads it after that.
    posterior: float = 0.0
    outlier: float = 0.0
    max_abs_delta: float = 0.0
    max_accel: float = 0.0
    # The verdict of the close that flagged the source; None while unflagged.
    verdict: Verdict | None = None
    # The level's (baseline, bin ratios, KL memo) from ``_scored_levels``;
    # None when the profile has no baseline for the level.
    scored: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def kl(self) -> float:
        """KL of the recent deviations against the level baseline
        (``_memoised_kl``); 0.0 without a deviation or a baseline."""
        if self.scored is None or not self.deviations:
            return 0.0
        q, _, memo = self.scored
        return _memoised_kl(memo, q, self.deviations)

    @property
    def features(self) -> tuple[float, float, float, float]:
        """Clustering features, in ``clustering.FEATURE_NAMES`` order."""
        return (self.entropy_sum / self.sample_count, self.max_abs_delta, self.max_accel, self.kl)


class SourceWindows:
    """Per-source entropy over fixed windows, fed one record at a time.

    A record belongs to window ``timestamp // window_seconds``, computed in
    ``push`` alone, which ends at ``(index + 1) * window_seconds``. A record
    from a later window first closes the open one (window 0 before the first
    record, so that close is empty); the windows skipped in between hold no
    records, so a gap of any length costs one close. A record from a closed
    window raises MalformedRecord, and so does one whose index is 2**51 or
    more, or whose window end is past the float range. Below 2**51 the index
    is exact, so each end is at or after its window's records and at least
    half a window after the end before; with Unix-epoch timestamps, windows
    must be about 0.8 us or more. Each source is routed to a level at its
    first record (``hierarchy.route_source``, level hint first), built by
    ``new_source`` and kept in first-record order. A close visits only the
    sources that had payload in the window, so its cost does not grow with
    the sources seen so far: it hands the caller the window's own list of
    them, sorted in place into first-record order when it holds two or
    more, and the next window starts a new list.
    """

    def __init__(self, hierarchy: HierarchyConfig, window_seconds: float,
                 new_source=SourceWindow):
        self.hierarchy = hierarchy
        self.window_seconds = window_seconds
        self.new_source = new_source
        self.sources: dict[str, SourceWindow] = {}
        self._index = 0.0  # the open window's index; window 0 until a record opens another
        self._pending: list[SourceWindow] = []  # sources with payload in the open window

    def push(self, rec: EventRecord) -> tuple[float, list] | None:
        """Add one record; returns ``close()``'s result when the record closed a window."""
        q = rec.timestamp // self.window_seconds
        closed = None
        if q != self._index:
            if q < self._index:
                raise MalformedRecord(f"source {rec.source_path} at {rec.timestamp}s is in window "
                                      f"{q:.0f}, before the open window {self._index:.0f}")
            if not q < 2 ** 51 or (q + 1) * self.window_seconds == math.inf:
                raise MalformedRecord(f"source {rec.source_path} at {rec.timestamp}s: its window, "
                                      f"{q:g}, is past the float range: a window index must be "
                                      f"below 2**51 and its end finite")
            closed = self.close()
            self._index = q
        src = self.sources.get(rec.source_path)
        if src is None:
            src = self._add_source(rec)
        if rec.bytes > 0:
            pending = src.pending
            if pending is None:
                src.pending = rec.histogram
                self._pending.append(src)
            else:
                try:
                    src.pending = pending.merged(rec.histogram)
                except OverflowError as exc:
                    raise MalformedRecord(
                        f"source {rec.source_path} at {rec.timestamp}s: {exc}") from exc
        return closed

    def close(self) -> tuple[float, list]:
        """Sample the open window: its end time and the sources sampled, in source order."""
        t_end = (self._index + 1) * self.window_seconds
        fresh = self._pending
        self._pending = []
        if len(fresh) > 1:
            fresh.sort(key=_SOURCE_ORDER)
        for src in fresh:
            value = shannon_entropy(src.pending)
            src.pending = None
            src.samples.append((t_end, value))
        return t_end, fresh

    def _add_source(self, rec: EventRecord) -> SourceWindow:
        level_id = route_source(self.hierarchy, rec.source_path, rec.level_hint)
        src = self.new_source(rec.source_path, level_id, order=len(self.sources))
        self.sources[rec.source_path] = src
        return src


@dataclass
class TraceResult:
    """Outcome of streaming one trace through the detector."""

    trace: str
    label: str | None
    verdict: str
    confidence: float
    alerts: list[Alert]
    per_source: dict[str, Verdict]
    level_samples: list[tuple[str, float, float]]
    convexity_true_at: list[float]
    post_onset_total: int
    post_onset_at_alert: int | None

    @property
    def latency_ms(self) -> float | None:
        """Latency of the trace's first alert; None without an alert or a known onset."""
        return self.alerts[0].latency_ms if self.alerts else None


class TraceProcessor:
    """Single-trace detection state. Feed records in order, then call finish()."""

    def __init__(self, hierarchy: HierarchyConfig | None = None,
                 detector: DetectorConfig | None = None, *,
                 profile: BaselineProfile,
                 attack_model: BinnedDistribution | None = None,
                 trace_name: str = "", label: str | None = None,
                 onset_at: float | None = None):
        self.hierarchy = hierarchy if hierarchy is not None else default_hierarchy()
        self.detector = detector if detector is not None else DetectorConfig()
        self.profile = profile
        self.attack_model = attack_model if attack_model is not None else ATTACK_MODEL
        self.trace_name = trace_name
        self.label = label
        self.onset_at = onset_at

        self._scored_levels = scored = _scored_levels(profile, self.attack_model)

        # Holds no reference to ``self``, so a processor is freed when its
        # last reference goes, not at the next cycle collection.
        def new_source(source_id: str, level_id: str, order: int) -> SourceTrack:
            return SourceTrack(source_id, level_id, order=order, posterior=profile.prior,
                               scored=scored.get(level_id))

        self._windows = SourceWindows(self.hierarchy, self.detector.window_seconds, new_source)
        self.sources: dict[str, SourceTrack] = self._windows.sources
        self._level_means = LevelMeans(self.hierarchy)
        # The last three (window end, aggregate entropy) pairs, and how many
        # of the latest second differences of the aggregate, in a row, are
        # evenly spaced and positive: a close is convex when that count
        # reaches ``convexity_run``.
        self._aggregate: deque = deque(maxlen=3)
        self._convex_run = 0
        self.alerts: list[Alert] = []
        self.level_samples: list[tuple[str, float, float]] = []
        self.convexity_true_at: list[float] = []
        self.post_onset_seen = 0
        self._post_onset_at_alert: int | None = None
        self._finished = False

    # -- ingestion ---------------------------------------------------------

    def process_record(self, rec: EventRecord) -> None:
        if self._finished:
            raise RuntimeError("processor already finished")
        if self.onset_at is not None and rec.timestamp >= self.onset_at:
            self.post_onset_seen += 1
        closed = self._windows.push(rec)
        if closed is not None:
            self._close_window(*closed)

    def process(self, records) -> "TraceProcessor":
        for rec in records:
            self.process_record(rec)
        return self

    # -- window close ------------------------------------------------------

    def _close_window(self, t_end: float, fresh: list[SourceTrack]) -> None:
        if not fresh:
            return
        cfg = self.detector
        gated: list[tuple[SourceTrack, float]] = []  # with the KL read at the gate
        update = self._level_means.update
        for track in fresh:
            samples = track.samples
            value = samples[-1][1]
            track.entropy_sum += value
            track.sample_count += 1
            track.level_slot = update(track.level_id, track.level_slot, value)
            dev = track.deviation
            if dev is None:
                continue
            dev_bin = bin_index(dev)
            track.deviations.append(dev_bin)
            track.max_abs_delta = max(track.max_abs_delta, dev)
            if len(samples) == 3:
                accel = second_difference(*samples)
                if accel is not None:  # None: the three samples are unevenly spaced
                    track.max_accel = max(track.max_accel, accel)
            if track.verdict is not None:
                continue  # latched: nothing reads its posterior again
            if track.scored is not None:
                updated = posterior(track.posterior, track.scored[1][dev_bin])
                track.posterior = min(max(updated, POSTERIOR_FLOOR), 1.0 - POSTERIOR_FLOOR)
            # The attack rule is monotone in the outlier score, the KL and
            # convexity: a source it does not flag at their most favourable
            # values is not flagged this close, and its KL is not read here.
            if is_attack(track.posterior, 1.0, math.inf, True, cfg):
                gated.append((track, track.kl))
        total = self._level_means.means(t_end - self._windows.window_seconds, self.level_samples)
        if total is not None:  # else no level has data, or their weights sum to 0
            aggregate = self._aggregate
            aggregate.append((t_end, min(max(total, 0.0), 8.0)))
            self._convex_run = self._convex_run + 1 if convexity_signal(aggregate, 1) else 0

        convex = self._convex_run >= cfg.convexity_run
        if convex:
            self.convexity_true_at.append(t_end)
        # The outlier score is in [0, 1]: a source the rule does not flag at
        # outlier 1.0 is not flagged this close. Unless some candidate is
        # flagged at 1.0 and not at 0.0, outlier scores cannot decide a label,
        # and clustering is skipped.
        candidates = [(t, kl) for t, kl in gated if is_attack(t.posterior, 1.0, kl, convex, cfg)]
        if not candidates:
            return
        if any(not is_attack(t.posterior, 0.0, kl, convex, cfg) for t, kl in candidates):
            self._refresh_outliers()
        for track, kl in candidates:
            if not is_attack(track.posterior, track.outlier, kl, convex, cfg):
                continue
            track.verdict = fuse_and_decide(track.source_id, track.posterior, track.outlier,
                                            kl, convex, cfg)
            onset = self.onset_at
            if onset is not None and onset > t_end:
                onset = None  # an onset after the alert is not attached
            self.alerts.append(Alert(track.source_id, t_end, kl, track.posterior, onset))
            if self._post_onset_at_alert is None:
                self._post_onset_at_alert = self.post_onset_seen

    def _refresh_outliers(self) -> None:
        # Sampled sources in first-record order; the order breaks linkage ties.
        tracks = [t for t in self.sources.values() if t.sample_count]
        if len(tracks) < 2:
            return
        for track, score in zip(tracks, outliers(agglomerate(tracks)).scores):
            track.outlier = score

    # -- completion --------------------------------------------------------

    def finish(self) -> TraceResult:
        if self._finished:
            raise RuntimeError("processor already finished")
        self._close_window(*self._windows.close())
        self._refresh_outliers()
        self._finished = True

        per_source: dict[str, Verdict] = {}
        for sid, track in self.sources.items():
            if track.verdict is not None:
                per_source[sid] = track.verdict
            else:
                fused = fused_confidence(track.posterior, track.outlier)
                per_source[sid] = Verdict(sid, BENIGN, min(max(fused, 0.0), 1.0))

        any_flagged = any(v.label == RANSOMWARE for v in per_source.values())
        confidence = max((v.confidence for v in per_source.values()), default=0.0)
        return TraceResult(
            trace=self.trace_name,
            label=self.label,
            verdict=RANSOMWARE if any_flagged else BENIGN,
            confidence=confidence,
            alerts=list(self.alerts),
            per_source=per_source,
            level_samples=list(self.level_samples),
            convexity_true_at=list(self.convexity_true_at),
            post_onset_total=self.post_onset_seen,
            post_onset_at_alert=self._post_onset_at_alert,
        )


def collect_trace_deviations(records, hierarchy: HierarchyConfig | None = None,
                             detector: DetectorConfig | None = None,
                             cutoff: float | None = None) -> dict[str, list[float]]:
    """Per-level deviation samples from a record stream, for profile fitting.

    With a ``cutoff``, deviations from windows that end at or before it are
    dropped; their levels still get a key.
    """
    windows = SourceWindows(
        hierarchy if hierarchy is not None else default_hierarchy(),
        (detector if detector is not None else DetectorConfig()).window_seconds,
    )
    out: dict[str, list[float]] = {}

    def collect(t_end: float, fresh: list[SourceWindow]) -> None:
        for src in fresh:
            if (dev := src.deviation) is not None:
                devs = out.setdefault(src.level_id, [])
                if cutoff is None or t_end > cutoff:
                    devs.append(dev)

    for rec in records:
        closed = windows.push(rec)
        if closed is not None:
            collect(*closed)
    collect(*windows.close())
    return out


@cache
def fit_attack_model() -> BinnedDistribution:
    """Deviation distribution under encryption, fit from seeded simulator runs.

    The encryptor scenarios behind this model are fixed, so the result is a
    process-wide constant, computed once and shared by every caller. Detection
    does not call it: ``ATTACK_MODEL`` stores its bins, and this is the
    reference fit that the tests compare them against.
    """
    pooled: list[float] = []
    for seed in ATTACK_MODEL_SEEDS:
        trace = simulate_scenario(ScenarioSpec("ransomware", seed, duration=ATTACK_FIT_DURATION))
        per_level = collect_trace_deviations(trace.records, cutoff=trace.meta.onset_at)
        for devs in per_level.values():
            pooled.extend(devs)
    return smoothed_distribution(pooled)
