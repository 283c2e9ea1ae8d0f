from bisect import bisect_left

import pytest

from entwatch.baseline import fit_baseline
from entwatch.pipeline import TraceProcessor, collect_trace_deviations, fit_attack_model
from entwatch.simulate import ScenarioSpec, simulate_scenario

BASELINE_SEEDS = tuple(range(5000, 5008))


def post_onset_counts(records, onset_at: float, raised_at: float) -> tuple[int, int]:
    """(at alert, total): of a trace's records at or after ``onset_at``, how
    many the detector had read when it raised the alert at ``raised_at``, and
    how many there are.

    A window's close runs when the first record at or after its end arrives,
    so by an alert the detector has read the records before ``raised_at`` and
    that closing record. An alert raised by ``finish()`` has no closing record:
    every record was read.
    """
    stamps = [rec.timestamp for rec in records]  # in order, as a trace keeps them
    read = bisect_left(stamps, raised_at) + 1
    return (sum(t >= onset_at for t in stamps[:read]), sum(t >= onset_at for t in stamps))


@pytest.fixture(scope="session")
def benign_profile():
    """Baseline fit from a handful of seeded benign traces."""
    pooled = {}
    for seed in BASELINE_SEEDS:
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=seed))
        for level_id, devs in collect_trace_deviations(trace.records).items():
            pooled.setdefault(level_id, []).extend(devs)
    return fit_baseline(pooled, created_at=0.0, inputs=[f"seed:{s}" for s in BASELINE_SEEDS])


@pytest.fixture(scope="session")
def attack_model():
    return fit_attack_model()


@pytest.fixture(scope="session")
def run_detection(benign_profile, attack_model):
    def _run(trace, name="trace"):
        proc = TraceProcessor(
            profile=benign_profile,
            attack_model=attack_model,
            trace_name=name,
            label=trace.meta.label,
            onset_at=trace.meta.onset_at,
        )
        proc.process(trace.records)
        return proc.finish()

    return _run
