"""Changes to a trace that do not touch its encryption keep its verdict.

Each input is a default 100 s trace, scored against the conftest benign
profile and the stored attack model. A transform is applied to the records
(and the onset), and the transformed trace must keep the verdict and the
flagged sources of the original.
"""

import heapq
from dataclasses import replace
import pytest

from entwatch.detector import RANSOMWARE, DetectorConfig
from entwatch.pipeline import TraceProcessor
from entwatch.simulate import ScenarioSpec, simulate_scenario

INPUTS = tuple(
    [("ransomware", seed) for seed in range(1000, 1006)]
    + [("benign_edit", seed) for seed in range(6000, 6006)]
    + [("compressor", seed) for seed in range(6100, 6106)]
)


def detect(profile, records, onset_at, detector=None):
    proc = TraceProcessor(detector=detector, profile=profile, onset_at=onset_at)
    return proc.process(records).finish()


def flagged(result):
    return {sid for sid, v in result.per_source.items() if v.label == RANSOMWARE}


@pytest.fixture(scope="module")
def originals(benign_profile):
    """Each input's trace and its result, by (kind, seed)."""
    out = {}
    for kind, seed in INPUTS:
        trace = simulate_scenario(ScenarioSpec(kind, seed))
        out[kind, seed] = trace, detect(benign_profile, trace.records, trace.meta.onset_at)
    return out


def test_inputs_cover_both_verdicts(originals):
    verdicts = {key: result.verdict for key, (_, result) in originals.items()}
    assert {key for key, v in verdicts.items() if v == RANSOMWARE} == \
        {key for key in INPUTS if key[0] == "ransomware"}


@pytest.mark.parametrize("shift", [1000.0, 0.375, 0.625])
def test_time_shift_keeps_the_verdict(benign_profile, originals, shift):
    """Whole windows, or a window phase: the same records fall into windows
    that start elsewhere."""
    changed = []
    for key, (trace, result) in originals.items():
        records = [replace(r, timestamp=r.timestamp + shift) for r in trace.records]
        onset = trace.meta.onset_at
        shifted = detect(benign_profile, records, None if onset is None else onset + shift)
        if (shifted.verdict, flagged(shifted)) != (result.verdict, flagged(result)):
            changed.append(key)
    assert changed == []


def test_benign_writer_at_another_level_keeps_the_verdict(benign_profile, originals):
    """A benign editor under /var/log routes to fs-system, so each trace runs
    through two levels of the default hierarchy."""
    changed = []
    for (kind, seed), (trace, result) in originals.items():
        other = simulate_scenario(ScenarioSpec("benign_edit", seed + 50000,
                                               target_dirs=("/var/log",)))
        records = list(heapq.merge(trace.records, other.records, key=lambda r: r.timestamp))
        merged = detect(benign_profile, records, trace.meta.onset_at)
        assert {lvl for lvl, _, _ in merged.level_samples} == {"fs-user", "fs-system"}
        if (merged.verdict, flagged(merged)) != (result.verdict, flagged(result)):
            changed.append((kind, seed))
    assert changed == []


@pytest.mark.parametrize("window_seconds", [0.5, 2.0])
def test_window_length_keeps_the_verdict(benign_profile, originals, window_seconds):
    detector = DetectorConfig(window_seconds=window_seconds)
    changed = []
    for key, (trace, result) in originals.items():
        other = detect(benign_profile, trace.records, trace.meta.onset_at, detector)
        if (other.verdict, len(flagged(other))) != (result.verdict, len(flagged(result))):
            changed.append(key)
    assert changed == []


def test_renamed_sources_keep_the_verdict_and_alerts(benign_profile, originals):
    """Every ``doc_`` file renamed ``file_``, in the same first-record order:
    the same level, so the same evidence, alerts and confidence."""
    def renamed(source_id):
        return source_id.replace("/doc_", "/file_")

    changed = []
    for key, (trace, result) in originals.items():
        records = [replace(r, source_path=renamed(r.source_path)) for r in trace.records]
        other = detect(benign_profile, records, trace.meta.onset_at)
        alerts = [replace(a, source_id=renamed(a.source_id)) for a in result.alerts]
        if (other.verdict, flagged(other), other.confidence, other.alerts) != \
                (result.verdict, {renamed(s) for s in flagged(result)}, result.confidence, alerts):
            changed.append(key)
    assert changed == []
