import gc
import weakref
from collections import deque
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwatch import pipeline
from entwatch.baseline import empirical_distribution, fit_baseline
from entwatch.detector import DetectorConfig, RANSOMWARE, BENIGN, likelihood_ratio
from entwatch.entropy import (
    DEVIATION_BINS,
    EPSILON_MASS,
    ByteHistogram,
    bin_index,
    kl_divergence,
    shannon_entropy,
    window_kl,
)
from entwatch.errors import MalformedRecord
from entwatch.hierarchy import (
    HierarchyConfig,
    LevelConfig,
    aggregate_entropy,
    default_hierarchy,
    level_entropy,
)
from entwatch.pipeline import (
    DEVIATION_HISTORY,
    TraceProcessor,
    collect_trace_deviations,
    fit_attack_model,
)
from entwatch.simulate import ScenarioSpec, simulate_scenario
from entwatch.traces import EventRecord, histogram_from_bytes, read_trace, write_trace


class TestAttackModel:
    def test_cached_and_valid(self):
        a = fit_attack_model()
        b = fit_attack_model()
        assert a is b
        assert abs(a.bins.sum() - 1.0) < 1e-9
        assert (a.bins > 0).all()  # smoothed

    def test_stored_model_is_the_fit(self):
        fit = fit_attack_model().bins
        floor = fit.min()
        masses = {b: float(m) for b, m in enumerate(fit) if m != floor}
        # On a deliberate change to the fit, the message holds the new literal.
        assert pipeline.ATTACK_MODEL.bins.tobytes() == fit.tobytes(), (
            f"refit: _ATTACK_FLOOR_MASS = {float(floor)!r}, _ATTACK_MASSES = {masses!r}")

    def test_stored_model_is_read_only(self):
        with pytest.raises(ValueError):
            pipeline.ATTACK_MODEL.bins[0] = 0.5

    def test_processor_defaults_to_the_stored_model(self, benign_profile):
        assert TraceProcessor(profile=benign_profile).attack_model is pipeline.ATTACK_MODEL

    def test_mass_sits_on_large_deviations(self):
        model = fit_attack_model()
        # encryption produces jumps of 1.5+ bits; benign noise stays near zero
        heavy = model.bins[12:].sum()
        assert heavy > 0.05
        assert model.bins[0] < 0.01


class TestDeviationCollection:
    def test_benign_deviations_are_small(self):
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=800))
        per_level = collect_trace_deviations(trace.records)
        assert set(per_level) == {"fs-user"}
        devs = per_level["fs-user"]
        assert len(devs) > 100
        assert max(devs) < 0.5

    def test_onset_filter(self):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=801))
        all_devs = collect_trace_deviations(trace.records)
        post_only = collect_trace_deviations(trace.records, cutoff=trace.meta.onset_at)
        assert len(post_only["fs-user"]) < len(all_devs["fs-user"])
        assert max(post_only["fs-user"]) > 1.5

    def test_record_from_a_closed_window_is_rejected(self):
        # Reversed, every record after the first window's is from a closed window.
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=802, duration=30.0))
        assert len(collect_trace_deviations(trace.records)["fs-user"]) > 100
        with pytest.raises(MalformedRecord, match=r"in window 28, before the open window 29"):
            collect_trace_deviations(trace.records[::-1])


class TestVerdicts:
    def test_ransomware_flagged_early(self, run_detection):
        for seed in (900, 901, 902):
            trace = simulate_scenario(ScenarioSpec("ransomware", seed=seed))
            result = run_detection(trace, f"rw{seed}")
            assert result.verdict == RANSOMWARE
            assert result.latency_ms is not None and result.latency_ms >= 0
            assert result.post_onset_at_alert is not None
            assert result.post_onset_at_alert / result.post_onset_total < 0.30

    def test_benign_stays_benign(self, run_detection):
        for seed in (910, 911, 912):
            trace = simulate_scenario(ScenarioSpec("benign_edit", seed=seed))
            result = run_detection(trace, f"be{seed}")
            assert result.verdict == BENIGN
            assert not result.alerts

    def test_compressor_stays_benign(self, run_detection):
        for seed in (920, 921, 922):
            trace = simulate_scenario(ScenarioSpec("compressor", seed=seed))
            result = run_detection(trace, f"cp{seed}")
            assert result.verdict == BENIGN
            assert not result.alerts

    def test_single_alert_per_source(self, run_detection):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=930))
        result = run_detection(trace, "rw")
        sources = [a.source_id for a in result.alerts]
        assert len(sources) == len(set(sources))

    def test_flagged_sources_keep_confidence_above_threshold(self, run_detection):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=931))
        result = run_detection(trace, "rw")
        flagged = [v for v in result.per_source.values() if v.label == RANSOMWARE]
        assert flagged
        assert all(v.confidence >= 0.9 for v in flagged)

    def test_deterministic_results(self, run_detection):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=932))
        a = run_detection(trace, "rw")
        b = run_detection(trace, "rw")
        assert a.per_source == b.per_source
        assert [al.raised_at for al in a.alerts] == [al.raised_at for al in b.alerts]
        assert a.level_samples == b.level_samples


class TestAlerts:
    """Alerting: the latch, the single alert per source and the onset rule."""

    # KL >= 0 always holds and the floored posterior always clears the
    # threshold, so every source is flagged at its first deviation (t = 2.0).
    FLAG_ALL = DetectorConfig(kl_threshold=0.0, posterior_threshold=1e-7)

    def run(self, attack_model, onset_at=None):
        profile = fit_baseline({"fs-user": [0.01] * 40}, created_at=0.0)
        records = [
            EventRecord(w + 0.1 * k, f"/home/u/{k}", "write",
                        histogram_from_bytes(bytes(range(8 * (w + k + 1)))), 8 * (w + k + 1))
            for w in range(6) for k in range(3)
        ]
        proc = TraceProcessor(detector=self.FLAG_ALL, profile=profile,
                              attack_model=attack_model, onset_at=onset_at)
        return proc.process(records).finish()

    def test_alert_only_on_first_transition(self, attack_model):
        result = self.run(attack_model)
        assert [(a.source_id, a.raised_at) for a in result.alerts] == [
            (f"/home/u/{k}", 2.0) for k in range(3)
        ]
        assert all(v.label == RANSOMWARE for v in result.per_source.values())

    def test_onset_attached_when_known(self, attack_model):
        alerts = self.run(attack_model, onset_at=1.61).alerts
        assert alerts and all(a.onset_at == 1.61 for a in alerts)
        assert all(a.latency_ms == pytest.approx(390.0) for a in alerts)

    def test_premature_onset_not_attached(self, attack_model):
        alerts = self.run(attack_model, onset_at=10.0).alerts
        assert len(alerts) == 3
        assert all(a.onset_at is None and a.latency_ms is None for a in alerts)


class TestLevelSeries:
    def test_level_samples_cover_run(self, run_detection):
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=940))
        result = run_detection(trace, "be")
        levels = {lvl for lvl, _, _ in result.level_samples}
        assert levels == {"fs-user"}
        starts = [t for _, t, _ in result.level_samples]
        assert starts == sorted(starts)
        assert max(starts) >= trace.meta.duration - 2.0

    def test_multi_level_routing(self, attack_model):
        hierarchy = HierarchyConfig(levels=(
            LevelConfig("docs", "filesystem", 0.6, ("/home/**",)),
            LevelConfig("sys", "filesystem", 0.4, ("/etc/**",)),
        ))
        rng = np.random.default_rng(5)

        def burst(path, base):
            out = []
            for i in range(40):
                payload = bytes(rng.integers(0, base, size=512, dtype=np.uint8))
                out.append(EventRecord(0.2 + i * 0.5, path, "write",
                                       histogram_from_bytes(payload), 512))
            return out

        records = sorted(burst("/home/u/a.txt", 200) + burst("/etc/conf", 4),
                         key=lambda r: r.timestamp)
        devs = {"docs": [0.01] * 40, "sys": [0.01] * 40}
        profile = fit_baseline(devs, created_at=0.0)
        proc = TraceProcessor(hierarchy, DetectorConfig(), profile=profile,
                              attack_model=attack_model)
        proc.process(records)
        result = proc.finish()
        assert {lvl for lvl, _, _ in result.level_samples} == {"docs", "sys"}


    def test_zero_weight_active_level_skips_aggregate(self, benign_profile, attack_model,
                                                      run_detection):
        # Only fs-user has data and its weight is 0, so the weighted mean
        # cannot be formed: each close skips it, and with it the
        # convexity signal, but still scores and decides every source.
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=900))
        assert run_detection(trace, "rw").convexity_true_at
        default = default_hierarchy()
        hierarchy = HierarchyConfig(
            levels=tuple(replace(lvl, weight=0.0) if lvl.level_id == "fs-user" else lvl
                         for lvl in default.levels),
        )
        proc = TraceProcessor(hierarchy, profile=benign_profile, attack_model=attack_model)
        proc.process(trace.records)
        result = proc.finish()
        assert result.convexity_true_at == []
        assert {lvl for lvl, _, _ in result.level_samples} == {"fs-user"}
        assert set(result.per_source) == {r.source_path for r in trace.records}

    def test_long_convexity_run_is_evaluated(self, benign_profile, attack_model):
        # One source whose entropy follows 0.9 * (k / 309)^2 over 310 windows:
        # every second difference of the aggregate is positive, so a run of
        # 300 holds from the 302nd sample on.
        records = []
        for k in range(310):
            hist, n = two_symbols(0.9 * (k / 309) ** 2, total=2 ** 40)
            records.append(EventRecord(k + 0.5, "/home/u/x", "write", hist, n))
        proc = TraceProcessor(detector=DetectorConfig(convexity_run=300),
                              profile=benign_profile, attack_model=attack_model)
        proc.process(records)
        result = proc.finish()
        assert result.convexity_true_at == [float(t) for t in range(302, 311)]


class TestProcessor:
    def test_profile_is_required(self):
        with pytest.raises(TypeError):
            TraceProcessor()

    def test_long_gap_closes_once(self, benign_profile, attack_model, monkeypatch):
        closes = []
        original = TraceProcessor._close_window

        def counting(proc, t_end, fresh):
            closes.append(t_end)
            original(proc, t_end, fresh)

        monkeypatch.setattr(TraceProcessor, "_close_window", counting)
        hist = histogram_from_bytes(b"abcd" * 16)
        records = [EventRecord(t, "/home/u/x", "write", hist, 64) for t in (0.5, 1e9 + 0.5)]
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process(records)
        assert closes == [1.0]
        proc.finish()
        assert closes == [1.0, 1e9 + 1.0]
        assert [t for t, _ in proc.sources["/home/u/x"].samples] == closes


class TestOutlierGate:
    def test_wide_trace_clusters_only_in_finish(self, attack_model, monkeypatch):
        # The golden wide trace: every file it flags is flagged on posterior
        # and KL alone, so no window close needs an outlier score.
        pooled = {}
        for seed in (7000, 7001, 7002):
            trace = simulate_scenario(ScenarioSpec("benign_edit", seed))
            for level_id, devs in collect_trace_deviations(trace.records).items():
                pooled.setdefault(level_id, []).extend(devs)
        profile = fit_baseline(pooled, created_at=0.0)
        wide = simulate_scenario(ScenarioSpec("ransomware", 7020, duration=300.0, file_count=120))

        calls = []
        original = pipeline.agglomerate

        def counting(tracks):
            calls.append(len(tracks))
            return original(tracks)

        monkeypatch.setattr(pipeline, "agglomerate", counting)
        proc = TraceProcessor(profile=profile, attack_model=attack_model,
                              onset_at=wide.meta.onset_at).process(wide.records)
        assert calls == []
        result = proc.finish()
        assert calls == [120]
        flagged = sum(v.label == RANSOMWARE for v in result.per_source.values())
        assert (flagged, len(result.per_source)) == (62, 120)


class TestWindowing:
    def test_record_from_a_closed_window_is_rejected(self, benign_profile, attack_model):
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=802, duration=30.0))
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        with pytest.raises(MalformedRecord, match=r"/home/user/\S+ at 28\.\d+s is in window 28"):
            proc.process(trace.records[::-1])

    def test_windowed_source_entropy(self, benign_profile, attack_model):
        # two writes in one window must merge before the entropy sample is taken
        payload_a = b"\x00" * 64
        payload_b = b"\xff" * 64
        records = [
            EventRecord(0.1, "/home/u/x", "write", histogram_from_bytes(payload_a), 64),
            EventRecord(0.2, "/home/u/x", "write", histogram_from_bytes(payload_b), 64),
            EventRecord(1.5, "/home/u/x", "write", histogram_from_bytes(payload_a), 64),
        ]
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process(records)
        proc.finish()
        values = [h for _, h in proc.sources["/home/u/x"].samples]
        assert values[0] == pytest.approx(1.0)  # two half-and-half symbols
        assert values[1] == pytest.approx(0.0)

    def test_zero_byte_ops_do_not_sample(self, benign_profile, attack_model):
        records = [
            EventRecord(0.1, "/home/u/x", "rename", histogram_from_bytes(b""), 0),
            EventRecord(1.1, "/home/u/x", "write", histogram_from_bytes(b"aa"), 2),
        ]
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process(records)
        proc.finish()
        assert len(proc.sources["/home/u/x"].samples) == 1

    def test_level_hint_wins_over_patterns(self, benign_profile, attack_model):
        records = [EventRecord(0.1, "/home/u/x", "net_tx", histogram_from_bytes(b"ab"), 2,
                               level_hint="network")]
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process(records)
        proc.finish()
        assert proc.sources["/home/u/x"].level_id == "net"


def scored_keys(proc, records):
    """Feed ``records`` and finish: the distinct (level, sorted deviation bins)
    windows that KL was scored on, and how many samples were scored.

    Read off each source's state after every record, apart from the memo.
    """
    keys, scored = set(), 0
    counts = {}

    def observe():
        nonlocal scored
        for sid, track in proc.sources.items():
            if track.sample_count == counts.get(sid, 0):
                continue
            counts[sid] = track.sample_count
            if track.deviation is not None and track.level_id in proc.profile.per_level:
                keys.add((track.level_id, tuple(sorted(track.deviations))))
                scored += 1

    for rec in records:
        proc.process_record(rec)
        observe()
    proc.finish()
    observe()
    return keys, scored


def assert_term_rows_are_kl_divergence_terms(q):
    """Each term of each row that windows of up to DEVIATION_HISTORY bins read
    is, bit for bit, the term ``kl_divergence`` sums for a window with that
    many of its bins in that bin, by the expression it has always used."""
    for size in range(1, DEVIATION_HISTORY + 1):
        for n in range(1, size + 1):
            for b in range(DEVIATION_BINS):
                window = [b] * n + [(b + 1) % DEVIATION_BINS] * (size - n)
                fresh = window_kl(window, q)
                p = empirical_distribution(window)
                assert fresh.hex() == kl_divergence(p, q).hex()
                mask = p.bins > 0
                masses = p.bins[mask]
                terms = masses * np.log2(masses / np.maximum(q.bins[mask], EPSILON_MASS))
                want = float(terms[int(np.flatnonzero(mask).tolist().index(b))])
                assert q._kl_rows[n / size][b].hex() == want.hex(), (size, n, b)
    # One row per distinct fraction n/N, fewer than the (N, n) pairs.
    assert len(q._kl_rows) <= DEVIATION_HISTORY * (DEVIATION_HISTORY + 1) // 2


def two_symbols(target, total=2 ** 20):
    """A histogram of two byte values, ``total`` in all, whose entropy is the
    least at or above ``target`` (at most 1 bit): found by bisection, as the
    entropy rises with the minority count."""
    lo, hi = 0, total // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if shannon_entropy(ByteHistogram([mid, total - mid] + [0] * 254)) < target:
            lo = mid + 1
        else:
            hi = mid
    return ByteHistogram([lo, total - lo] + [0] * 254), total


def uniform_symbols(k, repeat=4):
    """A payload of ``k`` distinct byte values, each ``repeat`` times: log2(k) bits."""
    payload = bytes(range(k)) * repeat
    return histogram_from_bytes(payload), len(payload)


class TestKlMemo:
    """KL is memoised per trace by level and deviation-bin multiset."""

    @pytest.fixture(scope="class")
    def spread_profile(self):
        rng = np.random.default_rng(17)
        return fit_baseline({"fs-user": rng.uniform(0, 8, 400).tolist()}, created_at=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3) | st.integers(0, DEVIATION_BINS - 1),
                    min_size=1, max_size=6))
    def test_every_permutation_gives_the_fresh_kl(self, spread_profile, attack_model, bins):
        proc = TraceProcessor(profile=spread_profile, attack_model=attack_model)
        q = spread_profile.per_level["fs-user"]
        for perm in permutations(bins):
            want = kl_divergence(empirical_distribution(list(perm)), q)
            assert proc._kl("fs-user", q, deque(perm)).hex() == want.hex()
        assert len(proc._kl_memo) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 7) | st.integers(0, DEVIATION_BINS - 1),
                    min_size=DEVIATION_HISTORY, max_size=DEVIATION_HISTORY), st.data())
    def test_full_window_permutations_give_the_fresh_kl(self, spread_profile, attack_model,
                                                        bins, data):
        proc = TraceProcessor(profile=spread_profile, attack_model=attack_model)
        q = spread_profile.per_level["fs-user"]
        for _ in range(5):
            perm = data.draw(st.permutations(bins))
            want = kl_divergence(empirical_distribution(perm), q)
            assert proc._kl("fs-user", q, deque(perm)).hex() == want.hex()

    def test_memo_stays_within_its_bound(self, spread_profile, attack_model, monkeypatch):
        # Each window's entropy is log2 of a random symbol count, so the last
        # 16 deviation bins form a new multiset at almost every sample.
        rng = np.random.default_rng(11)
        records = []
        for w in range(300):
            hist, n = uniform_symbols(int(rng.integers(1, 257)))
            records.append(EventRecord(w + 0.5, "/home/u/x", "write", hist, n))
        unbounded = TraceProcessor(profile=spread_profile, attack_model=attack_model)
        kls = []
        for rec in records:
            unbounded.process_record(rec)
            kls.append(unbounded.sources["/home/u/x"].kl)

        monkeypatch.setattr(pipeline, "KL_MEMO_LIMIT", 8)
        proc = TraceProcessor(profile=spread_profile, attack_model=attack_model)
        sizes, bounded_kls = [], []
        for rec in records:
            proc.process_record(rec)
            sizes.append(len(proc._kl_memo))
            bounded_kls.append(proc.sources["/home/u/x"].kl)
        assert len(unbounded._kl_memo) > 250
        assert max(sizes) == 8
        assert bounded_kls == kls

    def test_kl_computed_once_per_distinct_key(self, benign_profile, attack_model, monkeypatch):
        # A memo miss sums the window's terms by ``window_kl``: once per key.
        calls = []
        original = pipeline.window_kl

        def counting(bins, q):
            calls.append(bins)
            return original(bins, q)

        monkeypatch.setattr(pipeline, "window_kl", counting)
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=900))
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model,
                              onset_at=trace.meta.onset_at)
        keys, scored = scored_keys(proc, trace.records)
        assert len(calls) == len(keys)
        assert len(set(calls)) == len(calls)  # no multiset is summed twice
        assert scored > 2 * len(keys)

    def test_term_rows_are_kl_divergence_terms(self, spread_profile):
        assert_term_rows_are_kl_divergence_terms(spread_profile.per_level["fs-user"])

    def test_seeded_windows_give_the_fresh_kl(self, spread_profile, benign_profile):
        rng = np.random.default_rng(23)
        for q in (*spread_profile.per_level.values(), *benign_profile.per_level.values()):
            for _ in range(500):
                size = int(rng.integers(1, DEVIATION_HISTORY + 1))
                bins = rng.integers(0, int(rng.choice([4, 16, DEVIATION_BINS])), size).tolist()
                want = kl_divergence(empirical_distribution(bins), q)
                assert window_kl(bins, q).hex() == want.hex()

    def test_processors_keep_their_own_memo(self, benign_profile, attack_model, run_detection):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=901))
        first = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        first.process(trace.records).finish()
        second = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        assert first._kl_memo and not second._kl_memo
        assert second.process(trace.records).finish().per_source == \
            run_detection(trace).per_source


class TestLevelMeans:
    def test_level_samples_match_a_recount(self, attack_model):
        """Every level sample is the mean of its members' latest entropies,
        recounted from the records, with sources joining mid-trace."""
        hierarchy = HierarchyConfig(levels=(
            LevelConfig("docs", "filesystem", 0.6, ("/home/**",)),
            LevelConfig("sys", "filesystem", 0.4, ("/etc/**",)),
        ))
        level_of = {"/home/a": "docs", "/etc/b": "sys", "/home/c": "docs", "/home/d": "docs",
                    "/etc/e": "sys"}
        joins = {"/home/a": 0, "/etc/b": 3, "/home/c": 5, "/home/d": 2, "/etc/e": 9}
        rng = np.random.default_rng(23)
        records = []
        for w in range(40):
            for k, path in enumerate(level_of):
                if w < joins[path] or rng.random() < 0.3:
                    continue
                # /home/d's first records carry no payload, so its first
                # sample comes after sources whose first record came later.
                empty = path == "/home/d" and w < 12
                hist, n = ((histogram_from_bytes(b""), 0) if empty
                           else uniform_symbols(int(rng.integers(1, 257)), int(rng.integers(1, 4))))
                records.append(EventRecord(w + 0.1 * (k + 1), path, "write", hist, n))
        profile = fit_baseline({"docs": [0.01] * 40, "sys": [0.01] * 40}, created_at=0.0)
        result = TraceProcessor(hierarchy, profile=profile, attack_model=attack_model) \
            .process(records).finish()

        expected = []
        latest = {}  # source -> latest entropy, in first-sample order
        order = list(dict.fromkeys(r.source_path for r in records))  # first-record order
        for w in sorted({int(r.timestamp) for r in records}):
            pending = {}
            for r in records:
                if int(r.timestamp) == w and r.bytes:
                    pending.setdefault(r.source_path, ByteHistogram()).merge(r.histogram)
            if not pending:
                continue
            for path in order:
                if path in pending:
                    latest[path] = shannon_entropy(pending[path])
            for lvl in ("docs", "sys"):
                members = [v for path, v in latest.items() if level_of[path] == lvl]
                if members:
                    expected.append((lvl, float(w), level_entropy(members)))
        assert list(latest).index("/home/d") > list(latest).index("/home/c")
        assert [(lvl, t, m.hex()) for lvl, t, m in result.level_samples] == \
            [(lvl, t, m.hex()) for lvl, t, m in expected]


class TestAcceleration:
    def test_skipped_windows_match_a_recount(self, attack_model):
        """Sources skip windows, and the whole trace skips some, so some sample
        triples are unevenly spaced. Each source's max acceleration and the
        convexity signal equal a recount from the records; a recount that
        ignores spacing does not."""
        hierarchy = HierarchyConfig(levels=(
            LevelConfig("docs", "filesystem", 0.6, ("/home/**",)),
            LevelConfig("sys", "filesystem", 0.4, ("/etc/**",)),
        ))
        paths = ("/home/a", "/home/b", "/etc/c")
        quiet = {20, 21, 22, 41}  # windows in which no source writes
        rng = np.random.default_rng(29)
        records = []
        for w in range(60):
            for k, path in enumerate(paths):
                if w in quiet or rng.random() < 0.25:
                    continue
                # Each source's entropy rises convexly in time.
                hist, n = two_symbols(0.9 * (w / 59) ** 2 * (1 - 0.2 * k))
                records.append(EventRecord(w + 0.1 * (k + 1), path, "write", hist, n))
        profile = fit_baseline({"docs": [0.01] * 40, "sys": [0.01] * 40}, created_at=0.0)
        proc = TraceProcessor(hierarchy, profile=profile, attack_model=attack_model)
        result = proc.process(records).finish()

        def recount(spacing_check):
            def accel(triple):
                """(h2 - 2 h1 + h0) / mean_gap^2; None when a gap is more than
                10% off the mean gap and ``spacing_check`` is on."""
                (t0, h0), (t1, h1), (t2, h2) = triple
                mean_dt = (t2 - t0) / 2.0
                if spacing_check and abs((t1 - t0) - mean_dt) > 0.1 * mean_dt:
                    return None
                return (h2 - 2.0 * h1 + h0) / (mean_dt * mean_dt)

            samples = {path: [] for path in paths}
            latest = {}  # source -> latest entropy, in first-sample order
            aggregate, convex = [], []
            for w in sorted({int(r.timestamp) for r in records}):
                pending = {}
                for r in records:
                    if int(r.timestamp) == w:
                        pending.setdefault(r.source_path, ByteHistogram()).merge(r.histogram)
                for path in paths:
                    if path in pending:
                        latest[path] = shannon_entropy(pending[path])
                        samples[path].append((w + 1.0, latest[path]))
                means = {}
                for lvl, prefix in (("docs", "/home/"), ("sys", "/etc/")):
                    members = [v for path, v in latest.items() if path.startswith(prefix)]
                    if members:
                        means[lvl] = level_entropy(members)
                total = aggregate_entropy(hierarchy, means)
                aggregate.append((w + 1.0, min(max(total, 0.0), 8.0)))
                run = aggregate[-5:]  # the default convexity run of 3 reads 5 pairs
                diffs = [accel(run[i:i + 3]) for i in range(len(run) - 2)]
                if len(diffs) == 3 and all(d is not None and d > 0 for d in diffs):
                    convex.append(w + 1.0)
            max_accel = {}
            for path, s in samples.items():
                diffs = [accel(s[i:i + 3]) for i in range(len(s) - 2)]
                max_accel[path] = max([0.0] + [d for d in diffs if d is not None])
            return max_accel, convex

        max_accel, convex = recount(spacing_check=True)
        assert {path: proc.sources[path].max_accel for path in paths} == max_accel
        assert result.convexity_true_at == convex
        assert convex
        blind_accel, blind_convex = recount(spacing_check=False)
        assert all(blind_accel[path] > max_accel[path] for path in paths)
        assert set(blind_convex) > set(convex)


def without_cache(records):
    """The records, each histogram rebuilt with no cached entropy."""
    return [replace(r, histogram=ByteHistogram.unchecked(r.histogram.counts, r.histogram.total))
            for r in records]


class TestEntropyCache:
    """A window close reads a cached entropy only where it is the window's."""

    def test_one_record_window_is_sampled_at_its_cached_entropy(self, benign_profile,
                                                                  attack_model):
        # The cache is trusted: 1.25 is not these counts' entropy, so a
        # recomputed entropy would show.
        hist = ByteHistogram.unchecked(np.ones(256, dtype=np.int64), 256, 1.25)
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process([EventRecord(0.1, "/home/u/x", "write", hist, 256)])
        proc.finish()
        assert [h for _, h in proc.sources["/home/u/x"].samples] == [1.25]
        assert hist.entropy == 1.25  # the record's histogram is not touched

    def test_two_records_are_sampled_at_their_merged_entropy(self, benign_profile,
                                                               attack_model):
        a = ByteHistogram.unchecked(np.arange(1, 257, dtype=np.int64), 32896, 1.25)
        b = ByteHistogram.unchecked(np.ones(256, dtype=np.int64), 256, 2.5)
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process([EventRecord(0.1, "/home/u/x", "write", a, a.total),
                      EventRecord(0.2, "/home/u/x", "write", b, b.total)])
        proc.finish()
        merged = ByteHistogram((np.arange(1, 257) + 1).tolist())
        assert [h for _, h in proc.sources["/home/u/x"].samples] == [shannon_entropy(merged)]
        assert (a.entropy, b.entropy) == (1.25, 2.5)
        assert np.array_equal(a.counts, np.arange(1, 257))

    @pytest.mark.parametrize("kind,seed", [("ransomware", 830), ("benign_edit", 831),
                                           ("compressor", 832)])
    def test_results_do_not_depend_on_the_cache(self, tmp_path, benign_profile, attack_model,
                                                 kind, seed):
        trace = simulate_scenario(ScenarioSpec(kind, seed=seed))
        write_trace(trace, tmp_path / "t.jsonl")
        records = read_trace(tmp_path / "t.jsonl").records
        assert any(r.histogram.entropy is not None for r in records)
        results = []
        for recs in (records, without_cache(records)):
            proc = TraceProcessor(profile=benign_profile, attack_model=attack_model,
                                  trace_name=kind, label=trace.meta.label,
                                  onset_at=trace.meta.onset_at)
            results.append(proc.process(recs).finish())
        cached, fresh = results
        # Alerts, per-source verdicts, level samples and convexity times alike.
        assert cached == fresh


class TestLikelihoodRatioTable:
    def test_each_bin_holds_the_likelihood_ratio_of_its_deviations(self, attack_model):
        rng = np.random.default_rng(19)
        profile = fit_baseline({"fs-user": rng.uniform(0, 8, 400).tolist(),
                                "net": rng.uniform(0, 2, 400).tolist()}, created_at=0.0)
        proc = TraceProcessor(profile=profile, attack_model=attack_model)
        assert set(proc._scored_levels) == {"fs-user", "net"}
        for level_id, (q, ratios) in proc._scored_levels.items():
            assert q is profile.per_level[level_id]
            for b in range(DEVIATION_BINS):
                lo, hi = b / 8.0, (b + 1) / 8.0
                devs = [lo, (lo + hi) / 2.0, float(np.nextafter(hi, 0.0))]
                if b == DEVIATION_BINS - 1:
                    devs.append(8.0)  # the last bin holds its upper edge too
                for dev in devs:
                    assert bin_index(dev) == b
                    assert ratios[b] == likelihood_ratio(dev, q, attack_model)


class TestSharedTables:
    """A profile's ratio tables and its levels' KL term rows are built once and
    shared by every processor that scores against the profile."""

    @pytest.fixture
    def fresh_profile(self):
        rng = np.random.default_rng(29)
        return fit_baseline({"fs-user": rng.uniform(0, 3, 400).tolist(),
                             "net": rng.uniform(0, 1, 400).tolist()}, created_at=0.0)

    @staticmethod
    def counting_ratios(monkeypatch):
        calls = []
        original = pipeline.likelihood_ratio

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "likelihood_ratio", counting)
        return calls

    def test_second_processor_builds_no_ratios(self, fresh_profile, attack_model, monkeypatch):
        calls = self.counting_ratios(monkeypatch)
        TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert len(calls) == DEVIATION_BINS * len(fresh_profile.per_level)
        calls.clear()
        TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert calls == []

    def test_another_attack_model_gets_its_own_ratios(self, fresh_profile, attack_model,
                                                      monkeypatch):
        calls = self.counting_ratios(monkeypatch)
        first = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        other = TraceProcessor(profile=fresh_profile)  # the stored model: an equal, other object
        assert len(calls) == 2 * DEVIATION_BINS * len(fresh_profile.per_level)
        for level_id, (q, ratios) in other._scored_levels.items():
            shared_q, shared_ratios = first._scored_levels[level_id]
            assert q is shared_q and ratios is not shared_ratios

    def test_processors_share_rows_and_ratios(self, fresh_profile, attack_model):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=903))
        first = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        first.process(trace.records).finish()
        rows = {level_id: dict(q._kl_rows or {})
                for level_id, q in fresh_profile.per_level.items()}
        assert any(rows.values())
        second = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert second._scored_levels is first._scored_levels
        for level_id, (q, ratios) in second._scored_levels.items():
            assert q is fresh_profile.per_level[level_id]
            assert ratios is first._scored_levels[level_id][1]
        second.process(trace.records).finish()
        # The same trace reads the same rows: none is added or rebuilt.
        for level_id, q in fresh_profile.per_level.items():
            after = q._kl_rows or {}
            assert after.keys() == rows[level_id].keys()
            assert all(after[m] is row for m, row in rows[level_id].items())

    def test_level_never_holds_more_than_136_rows(self, fresh_profile, attack_model):
        bound = DEVIATION_HISTORY * (DEVIATION_HISTORY + 1) // 2
        assert bound == 136
        for kind, seed in (("ransomware", 904), ("benign_edit", 905), ("compressor", 906)):
            trace = simulate_scenario(ScenarioSpec(kind, seed=seed))
            TraceProcessor(profile=fresh_profile, attack_model=attack_model) \
                .process(trace.records).finish()
            for q in fresh_profile.per_level.values():
                assert len(q._kl_rows or {}) <= bound
        # Every window size and count at once: one row per distinct n/N.
        q = fresh_profile.per_level["fs-user"]
        for size in range(1, DEVIATION_HISTORY + 1):
            for n in range(1, size + 1):
                window_kl([0] * n + [1] * (size - n), q)
        fractions = {n / size for size in range(1, DEVIATION_HISTORY + 1)
                     for n in range(1, size + 1)}
        assert q._kl_rows.keys() == fractions
        assert len(q._kl_rows) <= bound

    def test_tables_live_as_long_as_the_profile(self, attack_model):
        rng = np.random.default_rng(31)
        profile = fit_baseline({"fs-user": rng.uniform(0, 3, 400).tolist()}, created_at=0.0)
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=907))
        TraceProcessor(profile=profile, attack_model=attack_model).process(trace.records).finish()
        assert profile.per_level["fs-user"]._kl_rows
        alive = weakref.ref(profile)
        del profile
        gc.collect()
        assert alive() is None  # no module-level cache keeps it
