import tracemalloc

import numpy as np
import pytest

from entwatch.entropy import shannon_entropy
from entwatch import simulate
from entwatch.errors import InvalidSpec
from entwatch.simulate import (
    _BLOCK_ROWS,
    ScenarioSpec,
    _synthesize,
    simulate_scenario,
    solve_mixture_weights,
    synthesize_histogram,
)
from entwatch.traces import write_trace


def payload_entropies(trace):
    return [(r.timestamp, shannon_entropy(r.histogram)) for r in trace.records if r.bytes > 0]


def window_mean(pairs, lo, hi):
    values = [e for t, e in pairs if lo <= t < hi]
    assert values, f"no payload records in [{lo}, {hi})"
    return sum(values) / len(values)


class TestSynthesis:
    @pytest.mark.parametrize("target", [0.5, 1.0, 2.1, 4.5, 6.3, 7.8])
    def test_hits_target_entropy(self, target):
        hist = synthesize_histogram(target, 4096, heavy_byte=65)
        assert shannon_entropy(hist) == pytest.approx(target, abs=0.05)
        assert hist.total == 4096

    def test_extremes(self):
        assert shannon_entropy(synthesize_histogram(0.0, 1024, 0)) == 0.0
        assert shannon_entropy(synthesize_histogram(8.0, 256 * 16, 0)) == pytest.approx(8.0, abs=1e-6)

    def test_mixture_solver_is_monotone(self):
        targets = np.linspace(0.0, 8.0, 33)
        lams = solve_mixture_weights(targets)
        assert (np.diff(lams) >= 0).all()

    def test_invalid_target(self):
        with pytest.raises(InvalidSpec):
            synthesize_histogram(9.0, 100, 0)

    @pytest.mark.parametrize("heavy_byte", [-1, 256, 300, True, 1.5, "65", None])
    def test_heavy_byte_outside_the_byte_values_is_invalid(self, heavy_byte):
        with pytest.raises(InvalidSpec, match="heavy byte"):
            synthesize_histogram(4.0, 100, heavy_byte)

    def test_mixture_weight_is_not_a_parameter(self):
        # The weight is always solved from the target entropy.
        with pytest.raises(TypeError):
            synthesize_histogram(4.0, 100, 0, mixture_weight=2.0)

    def test_bisection_steps_are_a_module_constant(self):
        assert simulate._MIXTURE_ITERATIONS == 60
        with pytest.raises(TypeError):
            solve_mixture_weights(np.asarray([4.0]), iterations=30)


def reference_mixture_entropy(lam):
    """The mixture entropy with guards for lam = 0, as the one-row synthesis had it."""
    lam = np.asarray(lam, dtype=np.float64)
    p0 = 1.0 - 255.0 * lam / 256.0
    u = lam / 256.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p0 * np.log2(p0) + 255.0 * np.where(u > 0, u * np.log2(u), 0.0))
    return np.where(lam <= 0, 0.0, h)


def reference_solve(targets, iterations=60):
    targets = np.asarray(targets, dtype=np.float64)
    lo = np.zeros_like(targets)
    hi = np.ones_like(targets)
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        below = reference_mixture_entropy(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2.0


def reference_counts(lam, total, heavy_byte):
    """One row's counts by the one-row largest-remainder pass."""
    probs = np.full(256, lam / 256.0)
    probs[heavy_byte] = 1.0 - 255.0 * lam / 256.0
    scaled = probs * total
    counts = np.floor(scaled).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainders = scaled - counts
        order = np.argsort(-remainders, kind="stable")
        counts[order[:short]] += 1
    return counts


GRID_TARGETS = (0.0, 1e-9, 4.5, 7.999999, 8.0)
GRID_TOTALS = (1, 255, 256, 257, 4096, 16384, 2 ** 40)
GRID_HEAVIES = (0, 255)


class TestBlockSynthesisMatchesOneRow:
    """Block synthesis gives every count and weight that one row at a time gave."""

    @pytest.mark.parametrize("target", GRID_TARGETS)
    @pytest.mark.parametrize("total", GRID_TOTALS)
    @pytest.mark.parametrize("heavy", GRID_HEAVIES)
    def test_synthesize_histogram(self, target, total, heavy):
        lam = float(reference_solve(np.asarray([target]))[0])
        hist = synthesize_histogram(target, total, heavy)
        assert np.array_equal(hist.counts, reference_counts(lam, total, heavy))
        assert hist.total == total

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                      3 * _BLOCK_ROWS + 5])
    def test_rows_across_blocks(self, rows):
        rng = np.random.default_rng(rows)
        targets = rng.choice(GRID_TARGETS, size=rows)
        totals = rng.choice(GRID_TOTALS, size=rows)
        heavies = rng.choice(GRID_HEAVIES, size=rows)
        lams = solve_mixture_weights(targets)
        counts = list(_synthesize(lams, totals, heavies))
        assert len(counts) == rows
        for row, lam, total, heavy in zip(counts, lams.tolist(), totals.tolist(), heavies.tolist()):
            assert np.array_equal(row, reference_counts(lam, total, heavy))

    def test_mixture_weights_bit_identical(self):
        targets = np.concatenate([[0.0, 8.0], np.random.default_rng(2026).uniform(0.0, 8.0, 10_000)])
        assert np.array_equal(solve_mixture_weights(targets).view(np.uint64),
                              reference_solve(targets).view(np.uint64))


def test_synthesis_temporaries_stay_bounded():
    # On Linux a child's peak RSS (ru_maxrss) includes its parent's peak up to
    # the fork, so a process that simulates traces and then times `detect`
    # reports the simulator's temporaries as detect's memory. Synthesis works
    # in fixed row blocks so they stay small however long the trace.
    # tracemalloc sees numpy's allocations.
    spec = ScenarioSpec("benign_edit", seed=7, duration=1000.0)
    simulate_scenario(spec)
    tracemalloc.start()
    try:
        trace = simulate_scenario(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 4000
    assert peak - retained <= 2 ** 20


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("nosuch", seed=1)

    def test_ramp_ordering(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("ransomware", seed=1, ramp=(7.8, 2.1))
        with pytest.raises(InvalidSpec):
            ScenarioSpec("ransomware", seed=1, ramp=(2.1, 9.0))

    def test_seed_is_64_bit(self):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("benign_edit", seed=2 ** 64)

    @pytest.mark.parametrize("args", [
        {"seed": True},
        {"seed": 4.9},
        {"duration": True},
        {"duration": float("nan")},
        {"file_count": 2.5},
        {"target_dirs": "/home/u"},
        {"ramp": (True, 7.8)},
    ], ids=["seed_bool", "seed_float", "duration_bool", "duration_nan", "file_count_float",
            "target_dirs_string", "ramp_bool"])
    def test_mistyped_field_is_invalid_spec(self, args):
        with pytest.raises(InvalidSpec):
            ScenarioSpec("ransomware", **{"seed": 1, **args})

    def test_default_file_count_scales_with_duration(self):
        assert ScenarioSpec("benign_edit", seed=1, duration=100.0).file_count == 20
        assert ScenarioSpec("benign_edit", seed=1, duration=60.0).file_count == 12


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["benign_edit", "compressor", "ransomware"])
    def test_identical_specs_identical_files(self, kind, tmp_path):
        spec = ScenarioSpec(kind, seed=20240317)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(simulate_scenario(spec), a)
        write_trace(simulate_scenario(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = simulate_scenario(ScenarioSpec("benign_edit", seed=1))
        b = simulate_scenario(ScenarioSpec("benign_edit", seed=2))
        assert a != b


class TestBenignScenario:
    def test_every_record_below_five_and_a_half_bits(self):
        for seed in range(20):
            trace = simulate_scenario(ScenarioSpec("benign_edit", seed=seed))
            assert all(e <= 5.5 for _, e in payload_entropies(trace))

    def test_spreads_across_target_dirs(self):
        trace = simulate_scenario(ScenarioSpec("benign_edit", seed=5))
        dirs = {r.source_path.rsplit("/", 1)[0] for r in trace.records}
        assert dirs == set(trace.meta.target_dirs)

    def test_label(self):
        assert simulate_scenario(ScenarioSpec("benign_edit", seed=5)).meta.label == "benign"


class TestCompressorScenario:
    def test_single_output_path(self):
        trace = simulate_scenario(ScenarioSpec("compressor", seed=5))
        assert len({r.source_path for r in trace.records}) == 1

    def test_low_entropy_header_then_high_entropy_body(self):
        trace = simulate_scenario(ScenarioSpec("compressor", seed=5))
        pairs = payload_entropies(trace)
        assert pairs[0][1] < 3.0
        body = [e for _, e in pairs[1:]]
        assert min(body) > 7.4

    def test_labeled_benign(self):
        assert simulate_scenario(ScenarioSpec("compressor", seed=5)).meta.label == "benign"

    def test_header_past_duration_dropped(self):
        # The header is scheduled at 0.0625 s, after a 0.05 s trace ends.
        trace = simulate_scenario(ScenarioSpec("compressor", seed=5, duration=0.05))
        assert trace.records == ()


class TestRansomwareScenario:
    def test_onset_at_ten_percent(self):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=5))
        assert trace.meta.onset_at == pytest.approx(0.1 * trace.meta.duration)
        assert trace.meta.label == "ransomware"
        assert trace.meta.ramp == (2.1, 7.8)

    def test_ramp_window_means(self):
        for seed in range(10):
            trace = simulate_scenario(ScenarioSpec("ransomware", seed=seed))
            pairs = payload_entropies(trace)
            onset, duration = trace.meta.onset_at, trace.meta.duration
            assert window_mean(pairs, onset, onset + 1.0) == pytest.approx(2.1, abs=0.2)
            assert window_mean(pairs, duration - 1.0, duration) == pytest.approx(7.8, abs=0.2)

    def test_contains_rename_ops(self):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=5))
        renames = [r for r in trace.records if r.op == "rename"]
        assert renames
        assert all(r.bytes == 0 and r.timestamp >= trace.meta.onset_at for r in renames)

    def test_label_soundness(self):
        # some contiguous post-onset stretch must sit well above the pre-onset mean
        for seed in range(10):
            trace = simulate_scenario(ScenarioSpec("ransomware", seed=seed))
            pairs = payload_entropies(trace)
            onset, duration = trace.meta.onset_at, trace.meta.duration
            pre = window_mean(pairs, 0.0, onset)
            tail = [window_mean(pairs, t, t + 1.0) for t in np.arange(duration - 10.0, duration - 1.0)]
            assert all(v >= pre + 2.0 for v in tail)

    def test_pre_onset_looks_benign(self):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=5))
        pre = [e for t, e in payload_entropies(trace) if t < trace.meta.onset_at]
        assert all(4.0 <= e <= 5.0 for e in pre)

    def test_rename_past_duration_dropped(self):
        # The fourth rewrite is at 1.95 s; its rename would land at 2.075 s.
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=5, duration=2.0, file_count=1))
        assert trace.records
        assert all(r.timestamp < 2.0 for r in trace.records)
        assert [r.op for r in trace.records if r.timestamp > trace.meta.onset_at] == ["write"] * 4

    def test_custom_ramp_respected(self):
        trace = simulate_scenario(ScenarioSpec("ransomware", seed=5, ramp=(1.0, 6.0)))
        pairs = payload_entropies(trace)
        duration = trace.meta.duration
        assert window_mean(pairs, duration - 1.0, duration) == pytest.approx(6.0, abs=0.2)
