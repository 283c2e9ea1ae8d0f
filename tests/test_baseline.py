import json
import sys
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entwatch.baseline import (
    BaselineProfile,
    MIN_FIT_SAMPLES,
    PROFILE_VERSION,
    empirical_distribution,
    fit_baseline,
    load_profile,
    save_profile,
    smoothed_distribution,
)
from entwatch.entropy import DEVIATION_BINS, BinnedDistribution, bin_index
from entwatch.errors import (
    CorruptProfile,
    EmptyWindow,
    InvalidPrior,
    IoFailure,
    TooFewSamples,
    UnsupportedVersion,
)


def counting_oracle(samples):
    """Brute-force one-pass histogram over 64 bins spanning [0, 8]: count, then divide."""
    lo, hi, bin_count = 0.0, 8.0, 64
    counts = [0] * bin_count
    for s in samples:
        idx = int((s - lo) / (hi - lo) * bin_count)
        counts[min(max(idx, 0), bin_count - 1)] += 1
    return [c / len(samples) for c in counts]


def binned(samples):
    return [bin_index(s) for s in samples]


class TestEmpiricalDistribution:
    def test_single_sample_bin_placement(self):
        d = empirical_distribution(binned([7.5]))
        assert d.bins[60] == 1.0
        assert d.bins.sum() == 1.0

    def test_two_samples_same_bin(self):
        d = empirical_distribution(binned([1.0, 1.01]))
        assert d.bins[8] == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(77)
        samples = rng.uniform(0.0, 8.0, size=1000).tolist()
        d = empirical_distribution(binned(samples))
        assert np.array_equal(d.bins, np.asarray(counting_oracle(samples)))

    def test_bin_past_the_last_is_rejected(self):
        with pytest.raises(ValueError, match="64 masses"):
            empirical_distribution([DEVIATION_BINS])

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            empirical_distribution([])


class TestFitBaseline:
    def test_uniform_fill(self):
        # one sample per bin center -> exactly uniform before smoothing
        samples = [(i + 0.5) * 8.0 / 64 for i in range(64)]
        profile = fit_baseline({"L": samples}, created_at=0.0)
        assert profile.per_level["L"].bins == pytest.approx(np.full(64, 1 / 64), abs=1e-10)

    def test_point_mass_smoothing(self):
        samples = [4.0] * 64
        profile = fit_baseline({"L": samples}, created_at=0.0)
        bins = profile.per_level["L"].bins
        heavy = bin_index(4.0)
        assert bins[heavy] == pytest.approx(1.0, abs=1e-6)
        others = np.delete(bins, heavy)
        assert (others > 0).all()
        assert others.max() < 2e-9

    def test_matches_counting_oracle_modulo_smoothing(self):
        rng = np.random.default_rng(901)
        samples = rng.uniform(0.0, 2.0, size=500).tolist()
        profile = fit_baseline({"L": samples}, created_at=0.0)
        oracle = np.asarray(counting_oracle(samples))
        got = profile.per_level["L"].bins
        assert got[oracle > 0] == pytest.approx(oracle[oracle > 0], rel=1e-6)

    def test_too_few_samples_names_level(self):
        with pytest.raises(TooFewSamples, match="short"):
            fit_baseline({"ok": [1.0] * MIN_FIT_SAMPLES, "short": [1.0] * 5})

    def test_no_levels_is_too_few_samples(self):
        # A profile without levels scores no source, so detect would miss every attack.
        with pytest.raises(TooFewSamples, match="no level has deviation samples"):
            fit_baseline({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e30, -3.0])
    def test_sample_outside_deviation_range_names_level(self, bad):
        with pytest.raises(ValueError, match="'noisy'"):
            fit_baseline({"ok": [1.0] * MIN_FIT_SAMPLES,
                          "noisy": [1.0] * (MIN_FIT_SAMPLES - 1) + [bad]})

    def test_invalid_prior(self):
        with pytest.raises(InvalidPrior):
            fit_baseline({"L": [1.0] * 64}, prior=1.5)

    def test_determinism(self):
        samples = {"L": [0.1 * i % 8 for i in range(100)]}
        a = fit_baseline(samples, created_at=0.0)
        b = fit_baseline(samples, created_at=0.0)
        assert a == b

    def test_distributions_always_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            samples = rng.uniform(0, 8, size=rng.integers(30, 200)).tolist()
            profile = fit_baseline({"L": samples}, created_at=0.0)
            bins = profile.per_level["L"].bins
            assert abs(bins.sum() - 1.0) < 1e-9
            assert (bins >= 0).all()


def random_profile(rng):
    levels = {}
    counts = {}
    for i in range(int(rng.integers(1, 4))):
        n = int(rng.integers(MIN_FIT_SAMPLES, 200))
        levels[f"L{i}"] = rng.uniform(0, 8, size=n).tolist()
        counts[f"L{i}"] = n
    return fit_baseline(levels, prior=float(rng.uniform(0, 1)), created_at=float(rng.uniform(0, 1e9)))


# Values the loader rejects, each put in place of one constructor argument.
ODD_PROFILE = {
    "prior": [True, "0.5", 1.5],
    "created_at": [float("nan"), "0", True],
    "sample_counts": [{}, {"other": 1}],
    "inputs": ["abc", ("a", 5)],
}


@st.composite
def distributions(draw):
    """Deviation distributions, some with empty bins."""
    weights = np.asarray(draw(st.lists(st.sampled_from([0.0]) | st.floats(0.001, 1.0),
                                       min_size=DEVIATION_BINS, max_size=DEVIATION_BINS)
                              .filter(any)))
    return BinnedDistribution(weights / weights.sum())


@st.composite
def profile_arguments(draw):
    ids = draw(st.lists(st.text(max_size=6), max_size=3, unique=True))
    args = {
        "prior": draw(st.floats(0.0, 1.0) | st.sampled_from([0, 1])),
        "created_at": draw(st.floats(allow_nan=False, allow_infinity=False) | st.integers()),
        "per_level": {level_id: draw(distributions()) for level_id in ids},
        "sample_counts": {level_id: draw(st.integers(0, 10 ** 6)) for level_id in ids},
        "inputs": draw(st.lists(st.text(max_size=8), max_size=3) | st.tuples(st.text())),
    }
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(ODD_PROFILE)))
        args[name] = draw(st.sampled_from(ODD_PROFILE[name]))
    return args


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(20):
            profile = random_profile(rng)
            path = tmp_path / f"p{i}.json"
            save_profile(profile, path)
            assert load_profile(path) == profile

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(1)), path)
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        with pytest.raises(CorruptProfile):
            load_profile(path)

    def test_bit_flip_is_corrupt(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(2)), path)
        doc = json.loads(path.read_text())
        doc["prior"] = doc["prior"] / 2 + 0.001
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptProfile):
            load_profile(path)

    def test_version_gate(self, tmp_path):
        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(3)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        doc["version"] = 99
        # re-checksum so only the version is wrong
        from entwatch.baseline import _checksum

        doc["crc32"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            load_profile(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None, "missing", PROFILE_VERSION + 1],
                             ids=["true", "float", "string", "null", "missing", "next"])
    def test_version_other_than_the_int_is_refused(self, tmp_path, version):
        from entwatch.baseline import _checksum

        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(7)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        if version == "missing":
            del doc["version"]
        else:
            doc["version"] = version
        # re-checksum so only the version is wrong
        doc["crc32"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises((UnsupportedVersion, CorruptProfile)):
            load_profile(path)

    def test_profile_has_no_version_field(self, tmp_path):
        path = tmp_path / "p.json"
        profile = random_profile(np.random.default_rng(8))
        assert not hasattr(profile, "version")
        save_profile(profile, path)
        assert json.loads(path.read_text())["version"] == PROFILE_VERSION

    @pytest.mark.parametrize("field, value", [
        ("bins", float("nan")),
        ("lo", float("nan")),
        ("hi", float("inf")),
    ])
    def test_non_finite_numbers_are_corrupt(self, tmp_path, field, value):
        from entwatch.baseline import _checksum

        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(4)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        level = doc["levels"][0]
        if field == "bins":
            level["bins"][0] = value
        else:
            level[field] = value
        # re-checksum so only the non-finite number is wrong
        doc["crc32"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptProfile):
            load_profile(path)

    def test_stored_profile_without_levels_is_corrupt(self, tmp_path):
        from entwatch.baseline import _checksum

        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(6)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        doc["levels"] = []
        doc["crc32"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptProfile, match="at least one level"):
            load_profile(path)

    @pytest.mark.parametrize("key", ["levels", "version"])
    def test_nesting_near_the_recursion_limit_is_corrupt(self, tmp_path, key):
        # Near the limit, the parse may pass and the checksum's re-encoding,
        # called a frame deeper, meet it. Either way the profile is refused
        # with a profile error, never a RecursionError.
        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(9)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        doc[key] = "@"
        # The checksum's encoding, with the nested value spliced in as text.
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        limit = sys.getrecursionlimit()
        for depth in range(limit - 100, limit + 5):
            text = canonical.replace('"@"', "[" * depth + "]" * depth)
            crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
            path.write_text(f'{text[:-1]},"crc32":{crc}}}')
            with pytest.raises((CorruptProfile, UnsupportedVersion)):
                load_profile(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_profile(tmp_path / "nope.json")

    def test_profile_keeps_input_provenance(self, tmp_path):
        profile = fit_baseline({"L": [1.0 + 0.01 * i for i in range(40)]},
                               created_at=0.0, inputs=("a.jsonl", "b.jsonl"))
        path = tmp_path / "p.json"
        save_profile(profile, path)
        assert load_profile(path).inputs == ("a.jsonl", "b.jsonl")

    @pytest.mark.parametrize("change", [
        lambda doc: doc.update(inputs="abc"),
        lambda doc: doc.update(prior=True),
        lambda doc: doc.update(created_at="1.5"),
        lambda doc: doc.update(priors=0.5),
        lambda doc: doc["levels"][0].update(sample_count=4.9),
        lambda doc: doc["levels"][0].update(lo=True),
        lambda doc: doc["levels"][0].update(bins=[str(b) for b in doc["levels"][0]["bins"]]),
        lambda doc: doc["levels"][0].update(level_id=5),
        lambda doc: doc["levels"].append(dict(doc["levels"][0])),
        lambda doc: doc.update(levels=doc["levels"][0]),
        lambda doc: doc["levels"][0].update(weight=1.0),
        lambda doc: doc["levels"][0].update(bins=[1.0 / 32] * 32),
        lambda doc: doc["levels"][0].update(hi=4.0),
    ], ids=["inputs_string", "prior_bool", "created_at_string", "unknown_key",
            "sample_count_float", "lo_bool", "bins_strings", "level_id_not_string",
            "level_id_twice", "levels_not_list", "level_unknown_key", "bins_32", "hi_4"])
    def test_coerced_value_is_corrupt(self, tmp_path, change):
        from entwatch.baseline import _checksum

        path = tmp_path / "p.json"
        save_profile(random_profile(np.random.default_rng(5)), path)
        doc = json.loads(path.read_text())
        doc.pop("crc32")
        change(doc)
        # re-checksum so only the changed value is wrong
        doc["crc32"] = _checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptProfile):
            load_profile(path)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(profile_arguments())
    @example({"prior": 0.5, "created_at": float("nan"), "per_level": {}, "sample_counts": {}})
    @example({"prior": 0.5, "created_at": 0.0,
              "per_level": {"L": smoothed_distribution([1.0])}, "sample_counts": {}})
    def test_constructed_profile_reads_back_equal(self, tmp_path, args):
        try:
            profile = BaselineProfile(**args)
        except (TypeError, ValueError, InvalidPrior):
            return
        path = tmp_path / "p.json"
        save_profile(profile, path)
        assert load_profile(path) == profile

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_prior_survives_exactly(self, prior):
        profile = BaselineProfile(prior, 0.0, {"L": smoothed_distribution([1.0])}, {"L": 1})
        assert profile.prior == prior
