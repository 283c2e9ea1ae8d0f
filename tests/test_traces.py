import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entwatch.entropy import INT64_MAX, ByteHistogram, histogram_from_bytes, shannon_entropy
from entwatch.errors import IoFailure, MalformedRecord
from entwatch.hierarchy import LEVEL_KINDS
from entwatch.traces import (
    OPS,
    EventRecord,
    Trace,
    TraceMeta,
    format_seconds,
    iter_trace,
    read_trace,
    scan_directory,
    write_trace,
)


def rec(t, path="/home/user/documents/a.txt", payload=b"hello world", op="write"):
    hist = histogram_from_bytes(payload)
    return EventRecord(t, path, op, hist, len(payload))


def small_trace():
    meta = TraceMeta(scenario="benign_edit", seed=3, label="benign", duration=10.0)
    return Trace(meta, (rec(0.125), rec(1.25, payload=b"abcabc"), rec(2.5, op="net_tx")))


# (line, changes): a value that the constructor of the type it maps onto
# rejects as well, so the reader and the constructor agree on it.
MALFORMED_VALUES = [
    pytest.param(2, {"timestamp": float("nan")}, id="timestamp_nan"),
    pytest.param(3, {"timestamp": float("inf")}, id="timestamp_inf"),
    pytest.param(2, {"histogram": {"0": 100000000000000000000000}}, id="count_overflow"),
    pytest.param(3, {"histogram": [], "bytes": 0}, id="histogram_list"),
    pytest.param(2, {"source_path": 5}, id="path_not_string"),
    pytest.param(2, {"histogram": {"0": 10, "1": -5}, "bytes": 5}, id="count_negative"),
    pytest.param(3, {"histogram": {"0": 1.9}, "bytes": 1}, id="count_float"),
    pytest.param(2, {"histogram": {"0": True}, "bytes": 1}, id="count_bool"),
    pytest.param(1, {"onset_at": float("nan")}, id="onset_nan"),
    pytest.param(1, {"created_at": float("inf")}, id="created_at_inf"),
    pytest.param(1, {"duration": float("-inf")}, id="duration_inf"),
    pytest.param(3, [1, 2], id="record_not_object"),  # replaces the whole line
    pytest.param(2, {"histogram": {"0": 4}, "bytes": 4.9}, id="bytes_float"),
    pytest.param(2, {"histogram": {"0": 1}, "bytes": True}, id="bytes_bool"),
    pytest.param(3, {"histogram": {"0": 4}, "bytes": "4"}, id="bytes_string"),
    pytest.param(3, {"timestamp": "1.5"}, id="timestamp_string"),
    pytest.param(3, {"timestamp": True}, id="timestamp_bool"),
    pytest.param(3, {"timestamp": 10 ** 400}, id="timestamp_huge_int"),
    pytest.param(1, {"onset_at": 10 ** 400}, id="onset_huge_int"),
    # Each count fits int64, but the sum wraps to the negative "bytes" in int64.
    pytest.param(2, {"histogram": {"0": 6000000000000000000, "1": 6000000000000000000},
                     "bytes": -6446744073709551616}, id="count_sum_overflow"),
    pytest.param(1, {"seed": 4.9}, id="seed_float"),
    pytest.param(1, {"seed": True}, id="seed_bool"),
    pytest.param(1, {"created_at": "1.5"}, id="created_at_string"),
    pytest.param(1, {"duration": True}, id="duration_bool"),
    pytest.param(1, {"file_count": "7"}, id="file_count_string"),
    pytest.param(1, {"file_count": False}, id="file_count_bool"),
    pytest.param(1, {"scenario": 5}, id="scenario_not_string"),
    pytest.param(1, {"target_dirs": "/home/user"}, id="target_dirs_string"),
    pytest.param(1, {"target_dirs": ["/home/user", 5]}, id="target_dirs_not_strings"),
    pytest.param(1, {"ramp": ["2.1", 7.8]}, id="ramp_string"),
    pytest.param(1, [1, 2], id="meta_not_object"),  # replaces the whole line
    pytest.param(1, {"created_at": -1.0}, id="created_at_negative"),
    pytest.param(1, {"onset_at": -0.5}, id="onset_negative"),
]

# Bucket keys other than the canonical "0" to "255": the sparse-histogram
# codec alone rejects them, since a dense histogram has no keys.
MALFORMED_KEYS = [
    pytest.param(2, {"histogram": {"05": 11}}, id="key_zero_padded"),
    pytest.param(2, {"histogram": {" 5": 11}}, id="key_space"),
    pytest.param(3, {"histogram": {"+5": 6}}, id="key_plus_sign"),
    pytest.param(3, {"histogram": {"1_0": 6}}, id="key_underscore"),
    pytest.param(2, {"histogram": {"256": 11}}, id="key_past_255"),
    pytest.param(3, {"histogram": {"-1": 6}}, id="key_negative"),
]


class TestTimestampFormat:
    @pytest.mark.parametrize("value", [0.0, 0.1, 1.5, 10.0, 99.0625, 0.00001, 1e-7, 12345.678])
    def test_round_trips_exactly(self, value):
        assert float(format_seconds(value)) == value

    def test_at_least_three_fraction_digits(self):
        assert format_seconds(1.5) == "1.500"
        assert format_seconds(10.0) == "10.000"
        assert format_seconds(0.0625) == "0.0625"


class TestTraceRoundTrip:
    def test_three_record_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_empty_records(self, tmp_path):
        trace = Trace(TraceMeta(scenario="benign_edit", seed=1, label="benign"), ())
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.records == ()
        assert loaded.meta.scenario == "benign_edit"

    def test_write_is_deterministic(self, tmp_path):
        trace = small_trace()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(trace, a)
        write_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_ransomware_metadata_round_trip(self, tmp_path):
        meta = TraceMeta(scenario="ransomware", seed=9, label="ransomware",
                         duration=100.0, onset_at=10.0, ramp=(2.1, 7.8),
                         file_count=20, target_dirs=("/home/user/documents",))
        trace = Trace(meta, (rec(0.5),))
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        assert read_trace(path).meta == meta

    def test_histograms_survive_exactly(self, tmp_path):
        payload = bytes(range(256)) * 3 + b"skewed" * 11
        trace = Trace(TraceMeta(scenario="benign_edit", seed=1, label="benign"),
                      (rec(0.0, payload=payload),))
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.records[0].histogram == trace.records[0].histogram


class TestValidation:
    def test_missing_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[2])
        del obj["timestamp"]
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        assert err.value.line_number == 3

    def test_histogram_total_must_match_bytes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["bytes"] = obj["bytes"] + 1
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line, changes", MALFORMED_VALUES + MALFORMED_KEYS)
    def test_malformed_value_reports_line(self, tmp_path, line, changes):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        if isinstance(changes, dict):
            changes = {**json.loads(lines[line - 1]), **changes}
        lines[line - 1] = json.dumps(changes)  # writes NaN/Infinity, which json.loads accepts
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        assert err.value.line_number == line

    @pytest.mark.parametrize("line, changes", MALFORMED_VALUES)
    def test_malformed_value_rejected_at_construction(self, tmp_path, line, changes):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        obj = json.loads(path.read_text().splitlines()[line - 1])
        if isinstance(changes, dict):
            changes = {**obj, **changes}
        with pytest.raises((TypeError, ValueError)):
            if line == 1:
                TraceMeta(**changes)
            else:
                if isinstance(changes, dict) and isinstance(changes["histogram"], dict):
                    sparse = changes["histogram"]
                    dense = ByteHistogram([sparse.get(str(b), 0) for b in range(256)])
                    changes = {**changes, "histogram": dense}
                EventRecord(**changes)

    @pytest.mark.parametrize("line, key", [(1, "seeds"), (2, "payload")])
    def test_unknown_key_reports_line(self, tmp_path, line, key):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: 1})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        assert err.value.line_number == line

    def test_unsorted_records_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_text().splitlines()
        lines[1], lines[3] = lines[3], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(MalformedRecord):
            read_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_trace(tmp_path / "nope.jsonl")

    def test_records_invariants(self):
        with pytest.raises(ValueError):
            EventRecord(0.0, "p", "write", histogram_from_bytes(b"xy"), 3)
        with pytest.raises(ValueError):
            EventRecord(0.0, "p", "explode", ByteHistogram(), 0)
        with pytest.raises(ValueError):
            Trace(TraceMeta(scenario="s", seed=1, label="benign"), (rec(2.0), rec(1.0)))

    def test_ransomware_label_requires_onset(self):
        with pytest.raises(ValueError):
            TraceMeta(scenario="ransomware", seed=1, label="ransomware")


def reference_record_line(rec: EventRecord) -> str:
    """The record formatter before the whole-array writer: one generator step per bucket."""
    parts = [
        f'"timestamp":{format_seconds(rec.timestamp)}',
        f'"source_path":{json.dumps(rec.source_path)}',
    ]
    if rec.level_hint is not None:
        parts.append(f'"level_hint":{json.dumps(rec.level_hint)}')
    parts.append(f'"op":{json.dumps(rec.op)}')
    parts.append(f'"bytes":{rec.bytes}')
    counts = rec.histogram.counts
    items = ((int(b), int(counts[b])) for b in np.flatnonzero(counts))
    hist = ",".join(f'"{b}":{c}' for b, c in items)
    parts.append('"histogram":{' + hist + "}")
    return "{" + ",".join(parts) + "}"


@st.composite
def histograms(draw):
    shape = draw(st.sampled_from(["zeros", "single", "int64_max", "sparse", "dense"]))
    counts = [0] * 256
    if shape == "single":
        counts[draw(st.integers(0, 255))] = draw(st.integers(1, INT64_MAX))
    elif shape == "int64_max":
        # Cut points split exactly INT64_MAX bytes over some of the buckets.
        buckets = sorted(draw(st.sets(st.integers(0, 255), min_size=1)))
        cuts = sorted(draw(st.lists(st.integers(0, INT64_MAX),
                                    min_size=len(buckets) - 1, max_size=len(buckets) - 1)))
        for b, lo, hi in zip(buckets, [0, *cuts], [*cuts, INT64_MAX]):
            counts[b] = hi - lo
    elif shape == "sparse":
        for b, c in draw(st.dictionaries(st.integers(0, 255), st.integers(0, 2**40))).items():
            counts[b] = c
    elif shape == "dense":
        counts = draw(st.lists(st.integers(0, 2**40), min_size=256, max_size=256))
    return ByteHistogram(counts)


@st.composite
def traces(draw):
    hists = draw(st.lists(histograms(), max_size=4))
    times = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=len(hists), max_size=len(hists))))
    records = tuple(
        EventRecord(t, draw(st.sampled_from(["/home/user/a.txt", "/tmp/\u00e9 \"q\""])),
                    draw(st.sampled_from(OPS)), h, h.total,
                    draw(st.sampled_from([None, *LEVEL_KINDS])))
        for t, h in zip(times, hists)
    )
    return Trace(TraceMeta(scenario="benign_edit", seed=1, label="benign"), records)


class TestWriterBytes:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(traces())
    def test_round_trip_and_reference_lines(self, tmp_path, trace):
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        assert read_trace(path) == trace
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [reference_record_line(rec) for rec in trace.records]


# Values the readers reject, each put in place of one constructor argument.
ODD_META = {
    "scenario": [5, None],
    "seed": [True, 4.9, "4"],
    "created_at": [-1.0, True, "1.5", float("nan"), 10 ** 400],
    "duration": [False, float("inf"), "9", -2.0],
    "onset_at": [-0.5, True],
    "ramp": [(True, 7.8), ("2.1", 7.8), (1.0,), "ab", (float("nan"), 1.0)],
    "file_count": [2.5, True, "7"],
    "target_dirs": ["/home/u", ("/a", 5)],
}
ODD_RECORD = {
    "timestamp": [True, -1.0, "1.5", float("nan"), 10 ** 400],
    "source_path": [5, None],
    "bytes": [4.9, "4"],
    "level_hint": [5, "disk"],
}
times = st.floats(0.0, 1e12) | st.integers(0, 10 ** 12)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10 ** 6, 10 ** 6)


def with_one_odd(draw, args, odd):
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(odd)))
        args[name] = draw(st.sampled_from(odd[name]))
    return args


@st.composite
def meta_arguments(draw):
    label = draw(st.sampled_from(["benign", "ransomware"]))
    return with_one_odd(draw, {
        "scenario": draw(st.text(max_size=8)),
        "seed": draw(st.integers()),
        "label": label,
        "created_at": draw(times),
        "duration": draw(st.none() | times),
        "onset_at": draw(times if label == "ransomware" else st.none() | times),
        "ramp": draw(st.none() | st.tuples(finite, finite) | st.lists(finite, min_size=2, max_size=2)),
        "file_count": draw(st.none() | st.integers()),
        "target_dirs": draw(st.none() | st.lists(st.text(max_size=8), max_size=3)),
    }, ODD_META)


@st.composite
def record_arguments(draw):
    hist = draw(histograms())
    return with_one_odd(draw, {
        "timestamp": draw(times),
        "source_path": draw(st.text(max_size=12)),
        "op": draw(st.sampled_from(OPS)),
        "histogram": hist,
        "bytes": hist.total,
        "level_hint": draw(st.sampled_from([None, *LEVEL_KINDS])),
    }, ODD_RECORD)


class TestConstructedReadsBackEqual:
    """What the constructors accept writes and reads back equal; the rest they reject."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(meta_arguments(), st.lists(record_arguments(), max_size=3))
    @example({"scenario": "s", "seed": True, "label": "benign"}, [])
    @example({"scenario": "s", "seed": 1, "label": "benign", "created_at": -1.0}, [])
    @example({"scenario": "s", "seed": 1, "label": "benign"},
             [{"timestamp": 0.0, "source_path": "p", "op": "write",
               "histogram": ByteHistogram([1] + [0] * 255), "bytes": True}])
    def test_trace(self, tmp_path, meta_args, record_args):
        try:
            meta = TraceMeta(**meta_args)
            records = [EventRecord(**args) for args in record_args]
        except (TypeError, ValueError):
            return
        trace = Trace(meta, sorted(records, key=lambda r: r.timestamp))
        path = tmp_path / "t.jsonl"
        write_trace(trace, path)
        assert read_trace(path) == trace


class TestStreaming:
    def test_iter_trace_is_lazy(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        meta, records = iter_trace(path)
        assert meta.seed == 3
        first = next(records)
        assert first.timestamp == 0.125


class TestScanDirectory:
    def test_chunk_arithmetic(self, tmp_path):
        (tmp_path / "file.bin").write_bytes(b"x" * 100)
        result = scan_directory(tmp_path, chunk_bytes=64)
        assert [r.bytes for r in result.records] == [64, 36]
        assert [r.timestamp for r in result.records] == [0.0, 1.0]
        assert all(r.op == "read" for r in result.records)

    def test_zero_entropy_file(self, tmp_path):
        (tmp_path / "zeros.bin").write_bytes(bytes(128))
        result = scan_directory(tmp_path, chunk_bytes=256)
        assert shannon_entropy(result.records[0].histogram) == 0.0

    def test_deterministic_order(self, tmp_path):
        for name in ("b.txt", "a.txt", "c/d.txt"):
            p = tmp_path / name
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(name.encode() * 10)
        first = scan_directory(tmp_path, chunk_bytes=16)
        second = scan_directory(tmp_path, chunk_bytes=16)
        assert first.records == second.records

    def test_missing_root(self, tmp_path):
        with pytest.raises(IoFailure):
            scan_directory(tmp_path / "nope", chunk_bytes=16)

    def test_payload_bytes_never_serialized(self, tmp_path):
        secret = b"TOPSECRETPAYLOADCONTENT"
        (tmp_path / "doc.txt").write_bytes(secret * 4)
        result = scan_directory(tmp_path, chunk_bytes=32)
        trace = Trace(TraceMeta(scenario="scan", seed=0, label="benign"),
                      tuple(result.records))
        out = tmp_path / "out.jsonl"
        write_trace(trace, out)
        assert secret not in out.read_bytes()
