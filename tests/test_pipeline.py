import ast
import gc
import math
import sys
import threading
import weakref
from collections import deque
from dataclasses import fields, replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entwatch import pipeline
from entwatch.baseline import empirical_distribution, fit_baseline, smoothed_distribution
from entwatch.detector import DetectorConfig, RANSOMWARE, BENIGN, convexity_signal, likelihood_ratio
from entwatch.entropy import (
    DEVIATION_BINS,
    ByteHistogram,
    bin_index,
    kl_divergence,
    shannon_entropy,
)
from entwatch.errors import MalformedRecord
from entwatch.hierarchy import HierarchyConfig, LevelConfig, LevelMeans, default_hierarchy
from entwatch.pipeline import (
    DEVIATION_HISTORY,
    TraceProcessor,
    collect_trace_deviations,
    fit_attack_model,
)
from entwatch.simulate import ScenarioSpec, simulate_scenario
from entwatch.traces import (
    EventRecord,
    Trace,
    TraceMeta,
    histogram_from_bytes,
    read_trace,
    write_trace,
)

from conftest import post_onset_counts
from test_io_faults import found_sites


def level_entropy(members):
    """Reference level mean: the members' sum over their count."""
    return sum(members) / len(members)


def aggregate_entropy(hierarchy, level_values):
    """Reference weighted mean of the levels present in ``level_values``: in
    hierarchy order, each one's weight over their weight sum times its value,
    added from 0.0. None when that sum is 0, as it is when no level is present."""
    levels = [lvl for lvl in hierarchy.levels if lvl.level_id in level_values]
    weight_sum = sum(lvl.weight for lvl in levels)
    if weight_sum <= 0:
        return None
    total = 0.0
    for lvl in levels:
        total += lvl.weight / weight_sum * level_values[lvl.level_id]
    return total


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
            at_alert, total = post_onset_counts(trace.records, trace.meta.onset_at,
                                                result.alerts[0].raised_at)
            assert at_alert / total < 0.30

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

    @staticmethod
    def records(windows=6):
        return [
            EventRecord(w + 0.1 * k, f"/home/u/{k}", "write",
                        histogram_from_bytes(bytes(range(8 * (w + k + 1)))), 8 * (w + k + 1))
            for w in range(windows) for k in range(3)
        ]

    def processor(self, attack_model, onset_at=None):
        profile = fit_baseline({"fs-user": [0.01] * 40}, created_at=0.0)
        return TraceProcessor(detector=self.FLAG_ALL, profile=profile,
                              attack_model=attack_model, onset_at=onset_at)

    def run(self, attack_model, onset_at=None):
        return self.processor(attack_model, onset_at).process(self.records()).finish()

    def test_post_onset_count_at_alert_includes_the_closing_record(self, attack_model):
        # The record at exactly 2.0, the alerts' window end, closes window 1
        # and so raises them: the detector has read it by then.
        records = self.records()
        proc = self.processor(attack_model, onset_at=1.0)
        read = 0
        for rec in records:
            read += rec.timestamp >= 1.0
            proc.process_record(rec)
            if proc.alerts:
                break
        assert rec.timestamp == proc.alerts[0].raised_at == 2.0
        assert post_onset_counts(records, 1.0, 2.0) == (read, 15) == (4, 15)

    def test_post_onset_count_at_an_alert_raised_by_finish_is_the_total(self, attack_model):
        # Without a record at or after 2.0, window 1 and its alerts close in finish().
        records = self.records(windows=2)
        proc = self.processor(attack_model, onset_at=1.0).process(records)
        assert not proc.alerts
        assert proc.finish().alerts[0].raised_at == 2.0
        assert post_onset_counts(records, 1.0, 2.0) == (3, 3)

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
    """No window close clusters: the outlier score is reported, not a term of
    the attack rule, so ``finish()`` alone clusters, once per trace."""

    @staticmethod
    def clustering_calls(monkeypatch):
        """Wrap ``pipeline.agglomerate`` and ``pipeline.outliers``: each call's
        name, whether a window close made it, and for ``outliers`` its report."""
        calls = []
        in_close = []
        original_close = TraceProcessor._close_window

        def close(proc, t_end, fresh):
            in_close.append(True)
            try:
                original_close(proc, t_end, fresh)
            finally:
                in_close.pop()

        def wrapped(name):
            original = getattr(pipeline, name)

            def wrapper(arg):
                result = original(arg)
                calls.append((name, bool(in_close), result))
                return result
            return wrapper

        monkeypatch.setattr(TraceProcessor, "_close_window", close)
        for name in ("agglomerate", "outliers"):
            monkeypatch.setattr(pipeline, name, wrapped(name))
        return calls

    def test_ransomware_trace_clusters_once_in_finish(self, benign_profile, attack_model,
                                                      monkeypatch):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=904))
        calls = self.clustering_calls(monkeypatch)
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model,
                              onset_at=trace.meta.onset_at).process(trace.records)
        assert calls == []
        result = proc.finish()
        assert [(name, from_close) for name, from_close, _ in calls] == \
            [("agglomerate", False), ("outliers", False)]
        assert result.verdict == RANSOMWARE
        scores = calls[1][2].scores
        assert len(scores) == sum(t.sample_count > 0 for t in proc.sources.values()) > 1
        assert result.top_outlier == max(scores)

    def test_one_source_trace_has_no_top_outlier(self, run_detection, monkeypatch):
        trace = simulate_scenario(ScenarioSpec("compressor", seed=905))
        assert len({rec.source_path for rec in trace.records}) == 1
        calls = self.clustering_calls(monkeypatch)
        result = run_detection(trace)
        assert calls == []
        assert result.top_outlier is None
        # An unflagged source's confidence is its posterior.
        assert [v.confidence for v in result.per_source.values()] == [result.confidence]

    def test_wide_trace_clusters_only_in_finish(self, attack_model, monkeypatch):
        # The golden wide trace: its 120 sources are clustered once, in
        # ``finish``, after every flag was raised at a close.
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

    def test_benign_closes_read_no_kl(self, benign_profile, attack_model, monkeypatch):
        # No benign source's posterior reaches the threshold, so no close can
        # flag one and none reads its KL: only the clustering in ``finish``
        # does, once for each source with a deviation.
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=903))
        reads = counting(monkeypatch, "_memoised_kl")
        proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
        proc.process(trace.records)
        assert reads == []
        result = proc.finish()
        assert result.verdict == BENIGN
        scored = [t for t in proc.sources.values()
                  if t.deviations and t.level_id in benign_profile.per_level]
        assert len(reads) == len(scored) > 1


class TestLatchedSources:
    """A flagged source's posterior is frozen. A source's KL is computed from
    its recent deviations whenever it is read: at a close only when the
    attack rule could flag the source there, and by the clustering in
    ``finish``."""

    @pytest.fixture(scope="class", params=["default", "wide", "mixed_evidence"])
    def case(self, request):
        """Its name, a profile, an attack model, records and the onset."""
        if request.param == "mixed_evidence":
            # Baseline and attack model fit from two samples of one deviation
            # law, so likelihood ratios hover near 1: posteriors wander
            # across the threshold, and sources are flagged at many closes.
            def deviations(n):
                entropies = np.log2(rng.integers(1, 257, n + 1))
                return np.minimum(np.abs(np.diff(entropies)), 8.0).tolist()

            rng = np.random.default_rng(5)
            profile = fit_baseline({"fs-user": deviations(300)}, created_at=0.0, prior=0.5)
            model = smoothed_distribution(deviations(300))
            rng = np.random.default_rng(0)
            records = []
            for w in range(60):
                for s in range(30):
                    hist, n = uniform_symbols(int(rng.integers(1, 257)))
                    records.append(EventRecord(w + 0.5, f"/home/u/f{s}", "write", hist, n))
            return request.param, profile, model, records, None
        if request.param == "benign":
            trace = simulate_scenario(ScenarioSpec("benign_edit", 7031))
            return (request.param, request.getfixturevalue("benign_profile"),
                    request.getfixturevalue("attack_model"), trace.records, None)
        duration, file_count = {"default": (100.0, 20), "wide": (1000.0, 200)}[request.param]
        trace = simulate_scenario(ScenarioSpec("ransomware", 7030, duration=duration,
                                               file_count=file_count))
        return (request.param, request.getfixturevalue("benign_profile"),
                request.getfixturevalue("attack_model"), trace.records, trace.meta.onset_at)

    def test_no_posterior_update_after_flagging(self, case, monkeypatch):
        _, profile, model, records, onset_at = case
        updates = counting(monkeypatch, "posterior")
        original = TraceProcessor._close_window
        flagged_at = {}

        def close(proc, t_end, fresh):
            # Every source this close samples with a deviation, unless an
            # earlier close flagged it, gets exactly one update.
            unflagged = [t for t in fresh if t.deviation is not None and t.verdict is None]
            updates.clear()
            original(proc, t_end, fresh)
            assert len(updates) == len(unflagged)
            flagged_at.update((t.source_id, t_end) for t in unflagged if t.verdict is not None)

        monkeypatch.setattr(TraceProcessor, "_close_window", close)
        proc = TraceProcessor(profile=profile, attack_model=model,
                              onset_at=onset_at).process(records)
        result = proc.finish()
        flagged = {sid for sid, v in result.per_source.items() if v.label == RANSOMWARE}
        assert flagged and flagged == set(flagged_at)
        # The alert holds the posterior of the close that flagged the source,
        # and the source keeps it to the end.
        for alert in result.alerts:
            assert alert.raised_at == flagged_at[alert.source_id]
            assert proc.sources[alert.source_id].posterior == alert.posterior

    @pytest.mark.parametrize("case", ["default", "wide", "mixed_evidence", "benign"],
                             indirect=True)
    def test_clustering_reads_current_kl(self, case, monkeypatch):
        name, profile, model, records, onset_at = case
        flagged_counts = []
        original = pipeline.agglomerate

        def clustering(tracks):
            flagged_counts.append(sum(t.verdict is not None for t in tracks))
            for track in tracks:
                q = profile.per_level[track.level_id]
                want = (kl_divergence(empirical_distribution(sorted(track.deviations)), q)
                        if track.deviations else 0.0)
                assert track.kl.hex() == want.hex(), track.source_id
            return original(tracks)

        monkeypatch.setattr(pipeline, "agglomerate", clustering)
        TraceProcessor(profile=profile, attack_model=model,
                       onset_at=onset_at).process(records).finish()
        # ``finish`` clusters once. Flagged sources are among the clustered,
        # so the KL of each was checked there, long after the close that
        # flagged it; in the benign case nothing is flagged and no close reads
        # a KL, so every KL checked was computed for the clustering.
        assert len(flagged_counts) == 1
        assert (flagged_counts[0] > 0) == (name != "benign")

    def test_alert_kl_is_the_kl_of_its_close(self, case, monkeypatch):
        # An alert carries the KL of the recent deviations at the close that
        # raised it, bit for bit, whether or not that close clustered.
        _, profile, model, records, onset_at = case
        original = TraceProcessor._close_window
        checked = []

        def close(proc, t_end, fresh):
            raised = len(proc.alerts)
            original(proc, t_end, fresh)
            for alert in proc.alerts[raised:]:
                track = proc.sources[alert.source_id]
                q = profile.per_level[track.level_id]
                want = kl_divergence(empirical_distribution(sorted(track.deviations)), q)
                assert (alert.raised_at, alert.kl.hex()) == (t_end, want.hex()), alert.source_id
                checked.append(alert)

        monkeypatch.setattr(TraceProcessor, "_close_window", close)
        result = TraceProcessor(profile=profile, attack_model=model,
                                onset_at=onset_at).process(records).finish()
        assert checked and checked == result.alerts


def test_kl_and_deviation_are_read_from_the_history():
    # A source's KL and |dH| are computed from its deviations and samples
    # when read, never stored beside them: ``_memoised_kl`` is called only by
    # ``SourceTrack.kl``, nothing assigns an attribute named ``kl`` or
    # ``deviation``, and neither is a field of a source.
    def calls_memo(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_memoised_kl"

    def stores_evidence(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in ("kl", "deviation"))

    assert found_sites(calls_memo) == [("pipeline", "kl")]
    assert found_sites(stores_evidence) == []
    assert not {"kl", "deviation"} & {f.name for f in fields(pipeline.SourceTrack)}


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

    @staticmethod
    def write(t, path):
        return EventRecord(t, path, "write", histogram_from_bytes(b"ab"), 2)

    def test_window_is_sampled_in_first_record_order(self):
        # A's first record came a window before B's, so A is sampled first
        # although its record in window 1 arrives after B's.
        windows = pipeline.SourceWindows(default_hierarchy(), 1.0)
        assert windows.push(self.write(0.1, "/home/u/a")) is None
        _, fresh = windows.push(self.write(1.1, "/home/u/b"))
        assert [src.source_id for src in fresh] == ["/home/u/a"]
        assert windows.push(self.write(1.2, "/home/u/a")) is None
        t_end, fresh = windows.push(self.write(2.5, "/home/u/c"))
        assert t_end == 2.0
        assert [src.source_id for src in fresh] == ["/home/u/a", "/home/u/b"]

    def test_one_source_window_returns_that_source(self):
        windows = pipeline.SourceWindows(default_hierarchy(), 1.0)
        windows.push(self.write(0.1, "/home/u/a"))
        windows.push(self.write(0.2, "/home/u/a"))
        t_end, fresh = windows.close()
        assert t_end == 1.0
        assert fresh == [windows.sources["/home/u/a"]]

    def test_closed_list_is_not_the_next_windows(self):
        windows = pipeline.SourceWindows(default_hierarchy(), 1.0)
        windows.push(self.write(0.1, "/home/u/b"))
        windows.push(self.write(0.2, "/home/u/a"))
        _, fresh = windows.push(self.write(1.1, "/home/u/a"))
        closed = list(fresh)
        windows.push(self.write(1.2, "/home/u/b"))
        windows.push(self.write(1.3, "/home/u/c"))
        assert fresh == closed and len(fresh) == 2
        _, later = windows.close()
        assert later is not fresh
        assert [src.source_id for src in later] == ["/home/u/b", "/home/u/a", "/home/u/c"]


def magnitudes(low=-1074, high=1023):
    """Positive floats m * 2**e, m in [1, 2), e in [low, high]: subnormals at
    the lowest exponents. The mantissa's low 52 bits are uniform, from a
    ``random.Random`` that Hypothesis seeds: ``st.integers`` and
    ``st.randoms(use_true_random=False)`` mostly draw values at or next to a
    power of two, whose products with a window length are exact."""
    return st.builds(lambda rnd, e: math.ldexp(2 ** 52 + rnd.getrandbits(52), e - 52),
                     st.randoms(use_true_random=True), st.integers(low, high))


def window_start(index, window, below):
    """The start of window ``index`` (the largest float when that is past the
    range), or the float just below it."""
    t = min(index * window, sys.float_info.max)
    return math.nextafter(t, 0.0) if below else t


@st.composite
def windowed_times(draw):
    """A window length of any magnitude and 2 to 18 sorted timestamps: two or
    more at or just below the starts of four consecutive windows, whose first
    index is from 1 to 2**57 and most often from 2**51 to 2**54, where two
    window ends can round to one float, and any others 0 or any magnitude."""
    window = draw(magnitudes())
    index = draw(st.one_of(magnitudes(0, 56), magnitudes(51, 53)))
    starts = st.builds(lambda k, below: window_start(index + k, window, below),
                       st.integers(0, 3), st.booleans())
    times = (draw(st.lists(starts, min_size=2, max_size=6))
             + draw(st.lists(st.one_of(st.just(0.0), magnitudes()), max_size=12)))
    return window, sorted(times)


@settings(max_examples=100, deadline=None)
@given(case=windowed_times())
@example(case=(1e-171, [1.0]))
# Unix-epoch times under 0.3 us windows: a window index of about 2**51.9
# whose end, 1295139999.9999998, is before its record, and two consecutive
# indices of about 2**52.8 whose ends are equal.
@example(case=(3e-7, [1295140000.0]))
@example(case=(3e-7, [2414560000.0, 2414560000.0000005]))
@example(case=(1e308, [1.5e308]))  # window 1, which would end at 2e308
def test_window_ends_follow_their_records(case):
    # Each close's end is finite, at or after every record of its window and
    # after the end before it; or push rejects the record that would break it.
    window, times = case
    windows = pipeline.SourceWindows(default_hierarchy(), window)
    hist = histogram_from_bytes(b"ab")
    ends, window_times = [], []

    def check(t_end):
        assert math.isfinite(t_end)
        assert all(t <= t_end for t in window_times), (t_end, window_times)
        assert not ends or t_end > ends[-1], (t_end, ends[-1])
        ends.append(t_end)

    try:
        for t in times:
            closed = windows.push(EventRecord(t, "/home/u/a", "write", hist, 2))
            if closed is not None:
                check(closed[0])
                window_times.clear()
            window_times.append(t)
    except MalformedRecord as exc:
        assert "past the float range" in str(exc)
        return
    check(windows.close()[0])


def scored_keys(monkeypatch, proc, records):
    """Feed ``records`` and finish: the distinct (level, sorted deviation bins)
    windows whose KL was read, and how many reads there were.

    Models a processor whose config opens the attack rule's gate at every
    close (``TestKlMemo.GATE_OPEN``): then KL is read at each close that
    samples an unflagged source with a deviation, and for every source with
    a deviation at the clustering in ``finish``. Read off each source's state after
    every record and at the ``agglomerate`` call in ``finish``, apart from the memo.
    """
    keys, scored = set(), 0
    counts, flagged = {}, set()

    def read(track):
        nonlocal scored
        keys.add((track.level_id, tuple(sorted(track.deviations))))
        scored += 1

    def scorable(track):
        return track.deviation is not None and track.level_id in proc.profile.per_level

    def observe():
        for sid, track in proc.sources.items():
            if track.sample_count != counts.get(sid, 0):
                counts[sid] = track.sample_count
                if sid not in flagged and scorable(track):
                    read(track)
        flagged.update(sid for sid, track in proc.sources.items() if track.verdict is not None)

    original = pipeline.agglomerate

    def clustering(tracks):
        for track in tracks:
            if scorable(track):
                read(track)
        return original(tracks)

    monkeypatch.setattr(pipeline, "agglomerate", clustering)
    for rec in records:
        proc.process_record(rec)
        observe()
    proc.finish()
    observe()
    return keys, scored


def level_memo(proc, level_id):
    """The KL memo that ``proc`` shares with every processor on its profile."""
    return proc._scored_levels[level_id][2]


def detect(profile, attack_model, trace):
    """``trace``'s result from one processor scoring against ``profile``."""
    return TraceProcessor(profile=profile, attack_model=attack_model, label=trace.meta.label,
                          onset_at=trace.meta.onset_at).process(trace.records).finish()


def counting(monkeypatch, name):
    """Replace ``pipeline.<name>`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(pipeline, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


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
    """KL is memoised per profile level by deviation-bin multiset, in a memo
    that every processor scoring against the profile shares."""

    # A close reads a source's KL only when the attack rule could flag it
    # there. Under this config every posterior reaches the threshold, which
    # is the posterior's floor, while no KL reaches its threshold and no
    # close is convex: every scored close reads the KL, and no source is
    # flagged.
    GATE_OPEN = DetectorConfig(posterior_threshold=pipeline.POSTERIOR_FLOOR, kl_threshold=1e9,
                               convexity_run=10**6)

    @pytest.fixture(scope="class")
    def spread_profile(self):
        rng = np.random.default_rng(17)
        return fit_baseline({"fs-user": rng.uniform(0, 8, 400).tolist()}, created_at=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3) | st.integers(0, DEVIATION_BINS - 1),
                    min_size=1, max_size=6))
    def test_every_permutation_gives_the_fresh_kl(self, spread_profile, bins):
        memo = {}
        q = spread_profile.per_level["fs-user"]
        for perm in permutations(bins):
            want = kl_divergence(empirical_distribution(list(perm)), q)
            assert pipeline._memoised_kl(memo, q, deque(perm)).hex() == want.hex()
        assert len(memo) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 7) | st.integers(0, DEVIATION_BINS - 1),
                    min_size=DEVIATION_HISTORY, max_size=DEVIATION_HISTORY), st.data())
    def test_full_window_permutations_give_the_fresh_kl(self, spread_profile, bins, data):
        memo = {}
        q = spread_profile.per_level["fs-user"]
        for _ in range(5):
            perm = data.draw(st.permutations(bins))
            want = kl_divergence(empirical_distribution(perm), q)
            assert pipeline._memoised_kl(memo, q, deque(perm)).hex() == want.hex()

    def test_memo_stays_within_its_bound(self, spread_profile, attack_model, monkeypatch):
        # Each window's entropy is log2 of a random symbol count, so the last
        # 16 deviation bins form a new multiset at almost every sample.
        rng = np.random.default_rng(11)
        records = []
        for w in range(300):
            hist, n = uniform_symbols(int(rng.integers(1, 257)))
            records.append(EventRecord(w + 0.5, "/home/u/x", "write", hist, n))
        # Each run scores against a fresh copy of the profile, so a fresh memo.
        unbounded = TraceProcessor(detector=self.GATE_OPEN, profile=replace(spread_profile),
                                   attack_model=attack_model)
        kls = []
        for rec in records:
            unbounded.process_record(rec)
            kls.append(unbounded.sources["/home/u/x"].kl)

        monkeypatch.setattr(pipeline, "KL_MEMO_LIMIT", 8)
        proc = TraceProcessor(detector=self.GATE_OPEN, profile=replace(spread_profile),
                              attack_model=attack_model)
        sizes, bounded_kls = [], []
        for rec in records:
            proc.process_record(rec)
            sizes.append(len(level_memo(proc, "fs-user")))
            bounded_kls.append(proc.sources["/home/u/x"].kl)
        assert len(level_memo(unbounded, "fs-user")) > 250
        assert max(sizes) == 8
        assert bounded_kls == kls

    def test_kl_computed_once_per_distinct_key(self, benign_profile, attack_model, monkeypatch):
        # A memo miss computes the KL of the window's distribution: once per key.
        distributions = counting(monkeypatch, "empirical_distribution")
        kls = counting(monkeypatch, "kl_divergence")
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=900))
        proc = TraceProcessor(detector=self.GATE_OPEN, profile=replace(benign_profile),
                              attack_model=attack_model, onset_at=trace.meta.onset_at)
        keys, scored = scored_keys(monkeypatch, proc, trace.records)
        assert len(kls) == len(distributions) == len(keys)
        # No multiset is computed twice within a level.
        assert len({(bins, id(q)) for (bins,), (_, q) in zip(distributions, kls)}) == len(kls)
        assert scored > 2 * len(keys)

    def test_seeded_windows_give_the_fresh_kl(self, spread_profile, benign_profile):
        rng = np.random.default_rng(23)
        for q in (*spread_profile.per_level.values(), *benign_profile.per_level.values()):
            memo = {}
            for _ in range(500):
                size = int(rng.integers(1, DEVIATION_HISTORY + 1))
                bins = rng.integers(0, int(rng.choice([4, 16, DEVIATION_BINS])), size).tolist()
                want = kl_divergence(empirical_distribution(bins), q)
                assert pipeline._memoised_kl(memo, q, deque(bins)).hex() == want.hex()
                # A hit returns the value the miss stored.
                assert pipeline._memoised_kl(memo, q, deque(bins[::-1])).hex() == want.hex()

    def test_second_processor_computes_no_kl_for_a_seen_trace(self, benign_profile,
                                                               attack_model, monkeypatch):
        profile = replace(benign_profile)
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=901))
        first = detect(profile, attack_model, trace)
        kls = counting(monkeypatch, "kl_divergence")
        assert detect(profile, attack_model, trace) == first
        assert kls == []

    @pytest.mark.parametrize("first, then", [(("ransomware", 910), ("benign_edit", 911)),
                                             (("benign_edit", 912), ("ransomware", 913)),
                                             (("compressor", 914), ("ransomware", 915))])
    def test_results_do_not_depend_on_earlier_traces(self, benign_profile, attack_model,
                                                     first, then):
        # The shared memo carries nothing from one trace into the next: the
        # second trace's result equals its result on a fresh profile.
        earlier, trace = (simulate_scenario(ScenarioSpec(kind, seed=seed))
                          for kind, seed in (first, then))
        shared = replace(benign_profile)
        detect(shared, attack_model, earlier)
        assert detect(shared, attack_model, trace) == \
            detect(replace(benign_profile), attack_model, trace)


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
                    pending[r.source_path] = pending.get(r.source_path, ByteHistogram()).merged(r.histogram)
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

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 7.0, 1e-300])
                            | st.floats(0.0, 1e6), min_size=1, max_size=5),
           data=st.data())
    def test_planned_weights_sum_to_the_aggregate(self, weights, data):
        """The weighted mean ``LevelMeans.means`` returns, with the levels
        planned as members join in any order, is the reference
        ``aggregate_entropy``'s, bit for bit, on any subset of the levels,
        zero weights and all-zero subsets included."""
        hierarchy = HierarchyConfig(levels=tuple(
            LevelConfig(f"l{i}", "filesystem", w) for i, w in enumerate(weights)))
        ids = [lvl.level_id for lvl in hierarchy.levels]
        present = data.draw(st.lists(st.sampled_from(ids), unique=True))
        values = {level_id: data.draw(st.floats(0.0, 8.0)) for level_id in present}
        expected = aggregate_entropy(hierarchy, values)
        level_means = LevelMeans(hierarchy)
        for level_id in present:
            assert level_means.update(level_id, None, values[level_id]) == 0
        samples = []
        total = level_means.means(1.0, samples)
        assert samples == [(i, 1.0, values[i]) for i in ids if i in values]
        if expected is None:
            assert total is None
        else:
            assert total.hex() == expected.hex()


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
                        pending[r.source_path] = pending.get(r.source_path, ByteHistogram()).merged(r.histogram)
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

    @pytest.mark.parametrize("sys_weight", [0.4, 0.0])
    @pytest.mark.parametrize("run", [1, 2, 3, 5])
    def test_convexity_is_the_whole_series_signal(self, attack_model, run, sys_weight):
        """At every close, convexity is ``convexity_signal`` over the whole
        aggregate series so far, for each run length. Windows that no source
        writes in make the series unevenly spaced; with a 0 weight for the
        level of the source that writes first, the first closes have no
        aggregate and keep the signal as it was."""
        hierarchy = HierarchyConfig(levels=(
            LevelConfig("docs", "filesystem", 0.6, ("/home/**",)),
            LevelConfig("sys", "filesystem", sys_weight, ("/etc/**",)),
        ))
        joins = {"/etc/c": 0, "/home/a": 6, "/home/b": 9}
        quiet = {14, 15, 31, 33, 34}  # windows in which no source writes
        rng = np.random.default_rng(38)
        records = []
        for w in range(50):
            for k, (path, join) in enumerate(joins.items()):
                if w < join or w in quiet or rng.random() < 0.1:
                    continue
                hist, n = two_symbols(0.9 * (w / 49) ** 2 * (1 - 0.2 * k), total=2 ** 16)
                records.append(EventRecord(w + 0.1 * (k + 1), path, "write", hist, n))
        profile = fit_baseline({"docs": [0.01] * 40, "sys": [0.01] * 40}, created_at=0.0)
        result = TraceProcessor(hierarchy, DetectorConfig(convexity_run=run), profile=profile,
                                attack_model=attack_model).process(records).finish()

        series, convex, skipped = [], [], 0
        latest = {}  # source -> latest entropy
        for w in sorted({int(r.timestamp) for r in records}):
            pending = {}
            for r in records:
                if int(r.timestamp) == w:
                    pending[r.source_path] = pending.get(r.source_path, ByteHistogram()).merged(r.histogram)
            for path in joins:
                if path in pending:
                    latest[path] = shannon_entropy(pending[path])
            means = {}
            for lvl, prefix in (("docs", "/home/"), ("sys", "/etc/")):
                members = [v for path, v in latest.items() if path.startswith(prefix)]
                if members:
                    means[lvl] = level_entropy(members)
            total = aggregate_entropy(hierarchy, means)
            if total is None:
                skipped += 1
            else:
                series.append((w + 1.0, min(max(total, 0.0), 8.0)))
            if convexity_signal(series, run):
                convex.append(w + 1.0)
        assert result.convexity_true_at == convex
        assert convex
        assert bool(skipped) == (sys_weight == 0.0)


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


class TestCloseCalls:
    """The benchmark's traced run counts and times ``pipeline.shannon_entropy``
    and ``pipeline.convexity_signal``: the first is called once per sampled
    source per close, cached entropy or not, the second once per close that
    appends an aggregate pair."""

    @pytest.mark.parametrize("weight", [0.5, 0.0])
    def test_one_call_each(self, tmp_path, benign_profile, attack_model, monkeypatch, weight):
        hierarchy = HierarchyConfig((LevelConfig("fs-user", "filesystem", weight, ("/home/**",)),))
        entropy_calls = counting(monkeypatch, "shannon_entropy")
        convexity_calls = counting(monkeypatch, "convexity_signal")
        sizes = set()  # how many payload records the sampled windows merged
        for kind, seed in (("benign_edit", 836), ("compressor", 837)):
            write_trace(simulate_scenario(ScenarioSpec(kind, seed=seed)), tmp_path / "t.jsonl")
            records = read_trace(tmp_path / "t.jsonl").records
            windows = {}  # window index -> source -> its payload records there
            for r in records:
                if r.bytes:
                    windows.setdefault(int(r.timestamp), {}).setdefault(r.source_path, []).append(r)
            sizes.update(len(recs) for w in windows.values() for recs in w.values())
            del entropy_calls[:], convexity_calls[:]
            TraceProcessor(hierarchy, profile=benign_profile, attack_model=attack_model) \
                .process(records).finish()
            assert len(entropy_calls) == sum(len(w) for w in windows.values())
            # With a weight of 0 there is no aggregate, so no pair is appended.
            assert len(convexity_calls) == (len(windows) if weight else 0)
        assert 1 in sizes and max(sizes) > 1


def window_samples(monkeypatch):
    """A list that gets (source, window end, entropy) for each sample taken."""
    seen = []
    close = pipeline.SourceWindows.close

    def recording(windows):
        t_end, fresh = close(windows)
        seen.extend((src.source_id, t_end, src.samples[-1][1].hex()) for src in fresh)
        return t_end, fresh

    monkeypatch.setattr(pipeline.SourceWindows, "close", recording)
    return seen


def expected_samples(records):
    """Each window's sample, recounted: a one-record window's histogram's
    entropy, and a merged window's computed from its summed counts."""
    windows = {}
    for r in records:
        if r.bytes:
            key = (r.source_path, float(int(r.timestamp) + 1))
            windows.setdefault(key, []).append(r.histogram)
    out = []
    for (path, t_end), hists in windows.items():
        if len(hists) == 1:
            value = shannon_entropy(hists[0])
        else:
            merged = ByteHistogram()
            for hist in hists:
                merged = merged.merged(hist)
            assert merged.entropy is None
            value = shannon_entropy(merged)
        out.append((path, t_end, value.hex()))
    return sorted(out), sum(len(h) > 1 for h in windows.values())


def histogram_state(records):
    return [(r.histogram.counts.tolist(), r.histogram.total, r.histogram.entropy)
            for r in records]


class TestRecordsStayAsRead:
    """Detection and deviation collection read each record's histogram in
    place and never write to it, and merged windows are sampled at the
    entropy of their merged counts."""

    def run_both(self, records, benign_profile, attack_model, monkeypatch, reference):
        expected, merged = expected_samples(records)
        assert merged
        for run in (
            lambda: TraceProcessor(profile=benign_profile, attack_model=attack_model)
            .process(records).finish(),
            lambda: collect_trace_deviations(records),
        ):
            seen = window_samples(monkeypatch)
            run()
            assert sorted(seen) == expected
            assert histogram_state(records) == reference
            monkeypatch.undo()

    def test_compressor_trace(self, tmp_path, benign_profile, attack_model, monkeypatch):
        write_trace(simulate_scenario(ScenarioSpec("compressor", seed=833)), tmp_path / "z.jsonl")
        records = read_trace(tmp_path / "z.jsonl").records
        assert any(r.histogram.entropy is not None for r in records)
        reference = histogram_state(read_trace(tmp_path / "z.jsonl").records)
        self.run_both(records, benign_profile, attack_model, monkeypatch, reference)

    def test_one_histogram_shared_by_records_of_a_window(self, tmp_path, benign_profile,
                                                         attack_model, monkeypatch):
        shared = ByteHistogram.unchecked(np.arange(1, 257, dtype=np.int64), 32896)
        shared.entropy = shannon_entropy(shared)
        other, n = uniform_symbols(16)
        records = []
        for w in range(6):
            records += [EventRecord(w + 0.1, "/home/u/a", "write", shared, shared.total),
                        EventRecord(w + 0.2, "/home/u/b", "write", shared, shared.total),
                        EventRecord(w + 0.3, "/home/u/a", "write", shared, shared.total),
                        EventRecord(w + 0.4, "/home/u/b", "write", other, n),
                        EventRecord(w + 0.5, "/home/u/c", "write", shared, shared.total)]
        path = tmp_path / "shared.jsonl"
        write_trace(Trace(TraceMeta("hand-built", 0, BENIGN), tuple(records)), path)
        reference = histogram_state(read_trace(path).records)
        self.run_both(records, benign_profile, attack_model, monkeypatch, reference)


class TestLikelihoodRatioTable:
    def test_each_bin_holds_the_likelihood_ratio_of_its_deviations(self, attack_model):
        rng = np.random.default_rng(19)
        profile = fit_baseline({"fs-user": rng.uniform(0, 8, 400).tolist(),
                                "net": rng.uniform(0, 2, 400).tolist()}, created_at=0.0)
        proc = TraceProcessor(profile=profile, attack_model=attack_model)
        assert set(proc._scored_levels) == {"fs-user", "net"}
        for level_id, (q, ratios, _) in proc._scored_levels.items():
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
    """A profile's ratio tables and its levels' KL memos are built once and
    shared by every processor that scores against the profile."""

    @pytest.fixture
    def fresh_profile(self):
        rng = np.random.default_rng(29)
        return fit_baseline({"fs-user": rng.uniform(0, 3, 400).tolist(),
                             "net": rng.uniform(0, 1, 400).tolist()}, created_at=0.0)

    def test_second_processor_builds_no_ratios(self, fresh_profile, attack_model, monkeypatch):
        calls = counting(monkeypatch, "likelihood_ratio")
        TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert len(calls) == DEVIATION_BINS * len(fresh_profile.per_level)
        calls.clear()
        TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert calls == []

    def test_another_attack_model_gets_its_own_ratios(self, fresh_profile, attack_model,
                                                      monkeypatch):
        calls = counting(monkeypatch, "likelihood_ratio")
        first = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        other = TraceProcessor(profile=fresh_profile)  # the stored model: an equal, other object
        assert len(calls) == 2 * DEVIATION_BINS * len(fresh_profile.per_level)
        for level_id, (q, ratios, memo) in other._scored_levels.items():
            shared_q, shared_ratios, shared_memo = first._scored_levels[level_id]
            assert q is shared_q and ratios is not shared_ratios and memo is not shared_memo

    def test_processors_share_memos_and_ratios(self, fresh_profile, attack_model):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=903))
        first = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        first.process(trace.records).finish()
        memos = {level_id: dict(memo) for level_id, (_, _, memo) in first._scored_levels.items()}
        assert any(memos.values())
        second = TraceProcessor(profile=fresh_profile, attack_model=attack_model)
        assert second._scored_levels is first._scored_levels
        for level_id, (q, ratios, memo) in second._scored_levels.items():
            assert q is fresh_profile.per_level[level_id]
            assert ratios is first._scored_levels[level_id][1]
            assert memo is first._scored_levels[level_id][2]
        second.process(trace.records).finish()
        # The same trace reads the same windows: no entry is added or changed.
        for level_id, (_, _, memo) in second._scored_levels.items():
            assert memo == memos[level_id]

    def test_concurrent_processors_get_their_own_results(self, fresh_profile, attack_model,
                                                         monkeypatch):
        # Threads share the profile's memos. With a small memo, so that clears
        # race with lookups, and frequent thread switches, each processor
        # still gets the result it gets alone on a fresh profile.
        traces = [simulate_scenario(ScenarioSpec(kind, seed=seed)) for kind, seed in
                  (("ransomware", 920), ("benign_edit", 921), ("compressor", 922),
                   ("ransomware", 923))]
        want = [detect(replace(fresh_profile), attack_model, trace) for trace in traces]
        monkeypatch.setattr(pipeline, "KL_MEMO_LIMIT", 16)
        got = [None] * len(traces)

        def run(i):
            got[i] = detect(fresh_profile, attack_model, traces[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(traces))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_tables_live_as_long_as_the_profile(self, attack_model):
        rng = np.random.default_rng(31)
        profile = fit_baseline({"fs-user": rng.uniform(0, 3, 400).tolist()}, created_at=0.0)
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=907))
        proc = TraceProcessor(profile=profile, attack_model=attack_model)
        proc.process(trace.records).finish()
        assert level_memo(proc, "fs-user")
        alive = weakref.ref(profile)
        del profile, proc
        gc.collect()
        assert alive() is None  # no module-level cache keeps it

    def test_processor_is_freed_without_the_cycle_collector(self, benign_profile, attack_model):
        # A processor holds every source of its trace. With no reference
        # cycle through it, a run over many traces frees each one when its
        # last reference goes, not at the next cycle collection.
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=907))
        gc.disable()
        try:
            proc = TraceProcessor(profile=benign_profile, attack_model=attack_model)
            proc.process(trace.records).finish()
            alive = weakref.ref(proc)
            del proc
            assert alive() is None
        finally:
            gc.enable()
