import gc
import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import entwatch.traces
from entwatch.entropy import (
    EXACT_SUM_COUNT,
    INT64_MAX,
    ByteHistogram,
    histogram_from_bytes,
    shannon_entropy,
)
from entwatch.errors import IoFailure, MalformedRecord, UnsupportedVersion, checked
from entwatch.hierarchy import LEVEL_KINDS
from entwatch.pipeline import TraceProcessor
from entwatch.simulate import ScenarioSpec, simulate_scenario
from entwatch.traces import (
    MAX_CHUNK_BYTES,
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

from test_entropy import block_passes


def rec(t, path="/home/user/documents/a.txt", payload=b"hello world", op="write"):
    hist = histogram_from_bytes(payload)
    return EventRecord(t, path, op, hist, len(payload))


def small_trace():
    meta = TraceMeta(scenario="benign_edit", seed=3, label="benign", duration=10.0)
    return Trace(meta, (rec(0.125), rec(1.25, payload=b"abcabc"), rec(2.5, op="net_tx")))


def dense(buckets):
    """The 256 counts of a histogram, zero except at the given buckets."""
    counts = [0] * 256
    for b, c in buckets.items():
        counts[b] = c
    return counts


# The histogram text of an empty payload.
ZEROS = b"[" + b",".join([b"0"] * 256) + b"]"

# (line, changes): a value that the constructor of the type it maps onto
# rejects as well, so the reader and the constructor agree on it. Bytes
# replace the whole line with a fault below the JSON values, which no
# constructor sees.
MALFORMED_VALUES = [
    pytest.param(2, {"timestamp": float("nan")}, id="timestamp_nan"),
    pytest.param(3, {"timestamp": float("inf")}, id="timestamp_inf"),
    pytest.param(2, {"histogram": dense({0: 100000000000000000000000})}, id="count_overflow"),
    pytest.param(3, {"histogram": [], "bytes": 0}, id="histogram_list"),  # a list of no counts
    pytest.param(2, {"histogram": {"0": 11}}, id="histogram_dict"),
    pytest.param(3, {"histogram": None, "bytes": 0}, id="histogram_null"),
    pytest.param(2, {"histogram": dense({0: 11})[:255]}, id="counts_255"),
    pytest.param(2, {"histogram": dense({0: 11}) + [0]}, id="counts_257"),
    pytest.param(2, {"histogram": [dense({0: 11})]}, id="counts_nested"),
    pytest.param(3, {"histogram": dense({0: [6]}), "bytes": 6}, id="count_list"),
    pytest.param(2, {"histogram": dense({0: "11"})}, id="count_string"),
    pytest.param(3, {"histogram": dense({0: None}), "bytes": 0}, id="count_null"),
    pytest.param(2, {"source_path": 5}, id="path_not_string"),
    pytest.param(2, {"histogram": dense({0: 10, 1: -5}), "bytes": 5}, id="count_negative"),
    pytest.param(3, {"histogram": dense({0: 1.9}), "bytes": 1}, id="count_float"),
    pytest.param(2, {"histogram": dense({0: True}), "bytes": 1}, id="count_bool"),
    pytest.param(1, {"onset_at": float("nan")}, id="onset_nan"),
    pytest.param(1, {"created_at": float("inf")}, id="created_at_inf"),
    pytest.param(1, {"duration": float("-inf")}, id="duration_inf"),
    pytest.param(3, [1, 2], id="record_not_object"),  # replaces the whole line
    pytest.param(2, {"histogram": dense({0: 4}), "bytes": 4.9}, id="bytes_float"),
    pytest.param(2, {"histogram": dense({0: 1}), "bytes": True}, id="bytes_bool"),
    pytest.param(3, {"histogram": dense({0: 4}), "bytes": "4"}, id="bytes_string"),
    pytest.param(3, {"timestamp": "1.5"}, id="timestamp_string"),
    pytest.param(3, {"timestamp": True}, id="timestamp_bool"),
    pytest.param(3, {"timestamp": 10 ** 400}, id="timestamp_huge_int"),
    pytest.param(1, {"onset_at": 10 ** 400}, id="onset_huge_int"),
    # Each count fits int64, but the sum wraps to the negative "bytes" in int64.
    pytest.param(2, {"histogram": dense({0: 6000000000000000000, 1: 6000000000000000000}),
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
    pytest.param(4, b'{"timestamp":2.5,"source_path":"/home/\xff","op":"read","bytes":0,'
                    b'"histogram":' + ZEROS + b'}', id="not_utf8"),
    pytest.param(3, b'{"timestamp":' + b"[" * 100000 + b"]" * 100000 + b"}", id="nesting_deep"),
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

    def test_metadata_line_names_format_2(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        assert json.loads(path.read_text().splitlines()[0])["format"] == 2

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

    @pytest.mark.parametrize("line, changes", MALFORMED_VALUES)
    def test_malformed_value_reports_line(self, tmp_path, line, changes):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        lines = path.read_bytes().splitlines()
        if isinstance(changes, dict):
            changes = {**json.loads(lines[line - 1]), **changes}
        if not isinstance(changes, bytes):
            changes = json.dumps(changes).encode()  # writes NaN/Infinity, which json.loads accepts
        lines[line - 1] = changes
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        assert err.value.line_number == line

    @pytest.mark.parametrize("line, changes", [p for p in MALFORMED_VALUES
                                               if not isinstance(p.values[1], bytes)])
    def test_malformed_value_rejected_at_construction(self, tmp_path, line, changes):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        obj = json.loads(path.read_text().splitlines()[line - 1])
        obj.pop("format", None)  # the file's, not the metadata's
        if isinstance(changes, dict):
            changes = {**obj, **changes}
        with pytest.raises((TypeError, ValueError)):
            if line == 1:
                TraceMeta(**changes)
            else:
                if isinstance(changes, dict) and isinstance(changes["histogram"], list):
                    changes = {**changes, "histogram": ByteHistogram(changes["histogram"])}
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

    @pytest.mark.parametrize("field, value, message", [
        ("timestamp", "1.5", "timestamp must be a number, got '1.5'"),
        ("timestamp", True, "timestamp must be a number, got True"),
        ("timestamp", float("nan"), "timestamp must be finite and non-negative, got nan"),
        ("timestamp", -1.0, "timestamp must be finite and non-negative, got -1.0"),
        ("timestamp", 10 ** 400, "timestamp is past the float range, got 1000"),
        ("source_path", None, "source_path must be a str, got None"),
        ("op", "explode", "unknown op 'explode', expected one of ('write', "),
        ("histogram", [1] * 256, "histogram must be a ByteHistogram, got [1, 1,"),
        ("bytes", 256.0, "bytes must be an integer, got 256.0"),
        ("bytes", True, "bytes must be an integer, got True"),
        ("bytes", 255, "histogram total 256 does not match payload length 255"),
        ("level_hint", "disk", "level hint must be one of ('filesystem', "),
    ])
    def test_record_check_messages(self, field, value, message):
        fields = dict(timestamp=1.5, source_path="/a", op="write",
                      histogram=histogram_from_bytes(bytes(range(256))), bytes=256)
        with pytest.raises(ValueError) as err:
            EventRecord(**{**fields, field: value})
        assert str(err.value).startswith(message)
        assert EventRecord(**{**fields, "timestamp": 2}).timestamp.hex() == (2.0).hex()

    def test_ransomware_label_requires_onset(self):
        with pytest.raises(ValueError):
            TraceMeta(scenario="ransomware", seed=1, label="ransomware")


def reference_record_line(rec: EventRecord) -> str:
    """The record formatter with json's list of the counts in place of orjson's array writer."""
    parts = [
        f'"timestamp":{format_seconds(rec.timestamp)}',
        f'"source_path":{json.dumps(rec.source_path)}',
    ]
    if rec.level_hint is not None:
        parts.append(f'"level_hint":{json.dumps(rec.level_hint)}')
    parts.append(f'"op":{json.dumps(rec.op)}')
    parts.append(f'"bytes":{rec.bytes}')
    parts.append('"histogram":' + json.dumps(rec.histogram.counts.tolist(), separators=(",", ":")))
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


def reference_record(obj, line_number):
    """The record parser over json's reading: the histogram list becomes a ByteHistogram."""
    try:
        checked(obj, "record", dict)
        if "histogram" in obj:
            obj["histogram"] = ByteHistogram(checked(obj["histogram"], "histogram", list))
        return EventRecord(**obj)
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(f"line {line_number}: invalid event record: {exc}", line_number) from exc


def reference_read(path):
    """The reader before orjson: a text-mode file, one ``json.loads`` per line
    and ``str.strip()`` deciding which lines are blank."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise MalformedRecord("line 1: trace file has no metadata line", 1)
        try:
            meta_obj = json.loads(first)
        except ValueError as exc:
            raise MalformedRecord(f"line 1: metadata is not valid JSON: {exc}", 1) from exc
        try:
            checked(meta_obj, "metadata", dict)
            version = meta_obj.pop("format", 1)
            if type(version) is not int or version != 2:
                raise UnsupportedVersion(f"trace format {version!r} is not supported "
                                         f"(expected 2); re-simulate the trace")
            meta = TraceMeta(**meta_obj)
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(f"line 1: invalid trace metadata: {exc}", 1) from exc
        records, last_ts = [], -1.0
        for line_number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise MalformedRecord(
                    f"line {line_number}: record is not valid JSON: {exc}", line_number
                ) from exc
            rec = reference_record(obj, line_number)
            if rec.timestamp < last_ts:
                raise MalformedRecord(
                    f"line {line_number}: timestamps regress ({rec.timestamp} after {last_ts})",
                    line_number,
                )
            last_ts = rec.timestamp
            records.append(rec)
    return meta, tuple(records)


def read_lazily(path):
    meta, records = iter_trace(path)
    return meta, tuple(records)


def assert_reads_as_reference(path):
    """Equal metadata and records, or the same error with the same line and message."""
    outcomes = []
    for read in (reference_read, read_lazily):
        try:
            outcomes.append(read(path))
        except (MalformedRecord, UnsupportedVersion) as exc:
            outcomes.append(exc)
    expected, got = outcomes
    if isinstance(expected, Exception):
        assert type(got) is type(expected), got
        assert (getattr(got, "line_number", None), str(got)) == \
            (getattr(expected, "line_number", None), str(expected))
    else:
        assert got == expected


META_LINE = b'{"format":2,"scenario":"benign_edit","seed":1,"label":"benign"}'


def record_bytes(first_tokens, total, timestamp=b"1.0"):
    """A record line whose count field starts with ``first_tokens`` and is
    padded with zero tokens to 256."""
    tokens = [*first_tokens, *[b"0"] * (256 - len(first_tokens))]
    return (b'{"timestamp":' + timestamp + b',"source_path":"/a","op":"write","bytes":'
            + str(total).encode() + b',"histogram":[' + b",".join(tokens) + b"]}")


def lines_with_fault(at, fault):
    """70 valid record lines, the one at record position ``at`` made faulty
    unless ``fault`` is "none"."""
    lines = [record_bytes([str(i).encode()], i, timestamp=f"{i}.0".encode()) for i in range(70)]
    if fault == "malformed":
        lines[at] = record_bytes([b"0" + str(at).encode()], at, timestamp=f"{at}.0".encode())
    elif fault == "regress":
        lines[at] = record_bytes([b"1"], 1, timestamp=b"0.5" if at else b"99.0")
    elif fault == "empty_token":
        lines[at] = record_bytes([b"0"] * 255 + [b""], 0, timestamp=f"{at}.0".encode())
    return lines


# Characters str.strip() removes and bytes.strip() keeps, so a line of them is
# blank to the text reader; text mode does not split lines at any of them.
STR_ONLY_BLANKS = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"

REFERENCE_FILES = [
    pytest.param([b'{ "op" : "write",\t"bytes":3 ,"histogram":[ ' + b" , ".join(
                      b"3" if b == 97 else b"0" for b in range(256)) + b' ],'
                  b' "source_path":"/a" , "timestamp":1.5}  '], id="reordered_keys_whitespace"),
    pytest.param([b'{"timestamp":0.5,"source_path":"/caf\\u00e9\\ud83d\\ude00","op":"write",'
                  b'"bytes":0,"histogram":' + ZEROS + b'}'], id="unicode_escapes"),
    pytest.param([b'{"timestamp":0.5,"source_path":"/x\\udcff\\ud800","op":"read",'
                  b'"bytes":0,"histogram":' + ZEROS + b'}'], id="lone_surrogate_escapes"),
    pytest.param([b'{"timestamp":18446744073709551616,"source_path":"/a","op":"write",'
                  b'"bytes":0,"histogram":' + ZEROS + b'}',
                  b'{"timestamp":' + str(10 ** 300 + 1).encode() + b',"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":' + ZEROS + b'}'],
                 id="timestamp_ints_past_64_bits"),
    pytest.param([b'{"timestamp":' + format_seconds(1e-7).encode() + b'123456789,'
                  b'"source_path":"/a","op":"write","bytes":0,"histogram":' + ZEROS + b'}',
                  b'{"timestamp":' + format_seconds(5e-324).encode() + b',"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":' + ZEROS + b'}'], id="timestamp_long_decimals"),
    pytest.param([STR_ONLY_BLANKS.encode(), b"\t\x0b\x0c ",
                  b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}',
                  "\xa0\x1c".encode()], id="str_strip_blank_lines"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}\r'
                  b'{"timestamp":2.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}\r',
                  b"\r\r{broken"], id="lone_cr_line_ends"),
    pytest.param([b'{"timestamp":NaN,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}'], id="nan_literal"),
    pytest.param([b'{"timestamp":1e400,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}'], id="float_literal_past_range"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":18446744073709551616,'
                  b'"histogram":[18446744073709551616' + b",0" * 255 + b']}'],
                 id="ints_past_64_bits_rejected"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":1,'
                  b'"histogram":[1' + b",0" * 255 + b']} {}'], id="extra_data"),
    pytest.param([b'{"timestamp":2.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}',
                  b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}'], id="timestamps_regress"),
    # A `true` or `false` in a line sends its counts to the exact check.
    pytest.param([b'{"timestamp":1.0,"source_path":"/home/true.txt","op":"write","bytes":3,'
                  b'"histogram":[3' + b",0" * 255 + b']}',
                  b'{"timestamp":2.0,"source_path":"/false/untrue","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'}',
                  b'{"timestamp":3.0,"source_path":"/\\u0074rue","level_hint":"network",'
                  b'"op":"net_tx","bytes":2,"histogram":' + ZEROS[:-2] + b'2]}'],
                 id="bool_literals_in_paths"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":2,'
                  b'"histogram":[1,true' + b",0" * 254 + b']}'], id="bool_among_counts"),
    pytest.param([b"null"], id="null_record"),
    pytest.param([b"[" * 500 + b"]" * 500], id="nested_500_deep"),
    # Count fields that np.fromstring reads and json does not, or reads otherwise.
    *[pytest.param([record_bytes(tokens, total)], id=name) for name, tokens, total in [
        ("leading_zero", [b"03"], 3), ("zero_zero", [b"00"], 0), ("minus_zero", [b"-0"], 0),
        ("plus_sign", [b"+1"], 1), ("trailing_space", [b"1 "], 1), ("leading_space", [b"0", b" 1"], 1),
        ("digits_19", [b"1000000000000000000"], 10 ** 18),
        ("int64_max_count", [str(INT64_MAX).encode()], INT64_MAX),
        ("int64_past", [b"9223372036854775808"], 2 ** 63),
        ("digits_20", [b"10000000000000000000"], 10 ** 19),
        ("digits_20_clamps", [b"99999999999999999999"], INT64_MAX),
        ("count_2_55", [str(2 ** 55).encode()], 2 ** 55),
        ("count_below_2_55", [str(2 ** 55 - 1).encode()], 2 ** 55 - 1),
        ("empty_first_token", [b""], 0), ("empty_inner_token", [b"0", b""], 0),
    ]],
    pytest.param([record_bytes([b"0"] * 255 + [b""], 0)], id="empty_last_token"),
    pytest.param([record_bytes([b"0"] * 255, 0)], id="counts_255_compact"),
    pytest.param([record_bytes([b"0"] * 257, 0)], id="counts_257_compact"),
    pytest.param([b'{"timestamp":1.0,"histogram":[5' + b",0" * 255 + b'],"source_path":"/a",'
                  b'"op":"write","bytes":5}'], id="histogram_not_last"),
    pytest.param([b'{"timestamp":1.0,"histogram":[5' + b",0" * 255 + b'],"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":' + ZEROS + b'}',
                  b'{"timestamp":2.0,"histogram":' + ZEROS + b',"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":[5' + b",0" * 255 + b']}'],
                 id="histogram_twice"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a,\\"histogram\\":[1' + b",0" * 255 + b']}",'
                  b'"op":"write","bytes":0,"histogram":' + ZEROS + b'}'], id="escaped_key_in_path"),
    pytest.param([b'{,"histogram":' + ZEROS + b'}'], id="head_of_brace"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b',"extra":[1]}'], id="list_key_after_histogram"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,'
                  b'"histogram":' + ZEROS + b'} '], id="space_after_record"),
    pytest.param([record_bytes([], 0)[:-2] + b"0}"], id="counts_unclosed"),
    pytest.param([record_bytes([], 0)[:-2] + b"}}"], id="counts_closed_by_brace"),
    pytest.param([record_bytes([], 0)[:-1]], id="record_unclosed"),
    # Faults at the first and last line of the first 64-line block, and at the
    # first two lines of the next.
    *[pytest.param(lines_with_fault(at, fault), id=f"{fault}_at_{at}")
      for at in (0, 63, 64, 65) for fault in ("malformed", "regress", "empty_token")],
]


class TestReferenceReader:
    """The reader gives the reference reader's records and errors, line for line."""

    @pytest.mark.parametrize("lines", REFERENCE_FILES)
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_cases(self, tmp_path, lines, ending):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(line + ending for line in [META_LINE, *lines]))
        assert_reads_as_reference(path)

    @pytest.mark.parametrize("lines", REFERENCE_FILES)
    def test_cases_without_a_last_line_end(self, tmp_path, lines):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\n".join([META_LINE, *lines]))
        assert_reads_as_reference(path)

    @pytest.mark.parametrize("lines", REFERENCE_FILES)
    def test_records_before_a_fault_are_the_reference_records(self, tmp_path, lines):
        # The records yielded before a fault raises, block path or not, are
        # the reference reader's records of the lines before the fault.
        path = tmp_path / "t.jsonl"
        data = b"".join(line + b"\n" for line in [META_LINE, *lines])
        path.write_bytes(data)
        meta, records = iter_trace(path)
        got = []
        try:
            got.extend(records)
            return
        except MalformedRecord as exc:
            line_number = exc.line_number
        path.write_bytes(b"".join(data.splitlines(keepends=True)[:line_number - 1]))
        assert (meta, tuple(got)) == reference_read(path)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_equal_records_and_errors(self, tmp_path, data):
        path = tmp_path / "t.jsonl"
        path.write_bytes(data.draw(trace_files()))
        assert_reads_as_reference(path)


class IntCount(IntEnum):
    ONE = 1


def line_path_reads(monkeypatch) -> list[int]:
    """The numbers of the lines that the line path reads from now on."""
    numbers = []
    original = entwatch.traces._line_record

    def counting(line, line_number):
        numbers.append(line_number)
        return original(line, line_number)

    monkeypatch.setattr(entwatch.traces, "_line_record", counting)
    return numbers


class TestCountChecks:
    """A line takes the block path only where the block reading equals the
    exact check's; the line path reads every other line."""

    def test_bool_literals_take_the_line_path_only_among_counts(self, tmp_path, monkeypatch):
        (lines,) = [p.values[0] for p in REFERENCE_FILES if p.id == "bool_literals_in_paths"]
        (bad,) = [p.values[0] for p in REFERENCE_FILES if p.id == "bool_among_counts"]
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in [META_LINE, *lines]))
        numbers = line_path_reads(monkeypatch)
        records = read_trace(path).records
        assert [r.source_path for r in records] == ["/home/true.txt", "/false/untrue", "/true"]
        assert [r.histogram.total for r in records] == [3, 0, 2]
        assert numbers == []  # a bool literal in a path or an escape does not matter
        path.write_bytes(b"".join(line + b"\n" for line in [META_LINE, *lines, *bad]))
        with pytest.raises(MalformedRecord, match="each item an integer"):
            read_trace(path)
        assert numbers == [5]
        assert_reads_as_reference(path)

    def test_bool_count_keeps_its_message(self, tmp_path):
        counts = "[1,true" + ",0" * 254 + "]"
        path = tmp_path / "t.jsonl"
        path.write_text(META_LINE.decode() + "\n" + '{"timestamp":1.0,"source_path":"/a",'
                        '"op":"write","bytes":2,"histogram":' + counts + "}\n")
        with pytest.raises(MalformedRecord) as err:
            read_trace(path)
        with pytest.raises(ValueError) as exact:
            ByteHistogram(json.loads(counts))
        assert str(err.value) == f"line 2: invalid event record: {exact.value}"
        assert str(exact.value).startswith("histogram counts must be a list, each item an integer")

    @pytest.mark.parametrize("item", [True, np.int64(1), IntCount.ONE],
                             ids=["bool", "numpy_int64", "int_enum"])
    def test_constructor_takes_exact_ints_only(self, item):
        with pytest.raises(ValueError, match="each item an integer"):
            ByteHistogram([0] * 100 + [item] + [0] * 155)

    @pytest.mark.parametrize("counts", [
        [0] * 255 + [INT64_MAX >> 8], [5] * 256, [0] * 255 + [(INT64_MAX >> 8) + 1],
        [INT64_MAX] + [0] * 255, [2 ** 63] + [0] * 255, [-1] + [0] * 255, [1.0] + [0] * 255,
        [[1]] * 256, [0] * 255, [None] + [0] * 255, ["1"] + [0] * 255,
    ], ids=["fast_max", "fives", "past_fast_max", "int64_max", "past_int64", "negative",
            "float", "nested", "count_255", "null", "string"])
    def test_fast_path_agrees_with_the_exact_check(self, tmp_path, monkeypatch, counts):
        try:
            expected = ByteHistogram(counts)
        except ValueError as exc:
            expected = f"line 2: invalid event record: {exc}"
        total = expected.total if isinstance(expected, ByteHistogram) else 0
        path = tmp_path / "t.jsonl"
        path.write_bytes(META_LINE + b'\n{"timestamp":1.0,"source_path":"/a","op":"write","bytes":'
                         + str(total).encode() + b',"histogram":'
                         + json.dumps(counts, separators=(",", ":")).encode() + b"}\n")
        numbers = line_path_reads(monkeypatch)
        try:
            (record,) = read_trace(path).records
            got = record.histogram
            assert type(got.total) is int and got.counts.dtype == np.int64
        except MalformedRecord as exc:
            got = str(exc)
        assert got == expected
        block = len(counts) == 256 and all(type(c) is int and 0 <= c <= EXACT_SUM_COUNT for c in counts)
        assert numbers == ([] if block else [2])


    def test_empty_token_sends_its_block_to_the_line_path(self, tmp_path, monkeypatch):
        # np.fromstring stops at an empty token, which only a malformed file
        # holds; then every candidate of the block is read by json, the 63
        # good lines before the faulty one included.
        lines = lines_with_fault(63, "empty_token")[:64]
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in [META_LINE, *lines]))
        numbers = line_path_reads(monkeypatch)
        meta, records = iter_trace(path)
        got = []
        with pytest.raises(MalformedRecord) as err:
            got.extend(records)
        assert err.value.line_number == 65
        assert numbers == list(range(2, 66))
        assert_reads_as_reference(path)
        path.write_bytes(b"".join(line + b"\n" for line in [META_LINE, *lines[:63]]))
        assert (meta, tuple(got)) == reference_read(path)
        assert len(got) == 63


def fresh_entropy(hist: ByteHistogram) -> float:
    """The entropy of the histogram's counts, computed afresh whatever it caches."""
    return shannon_entropy(ByteHistogram.unchecked(hist.counts.copy(), hist.total))


class TestBlockEntropies:
    """The block path gives the entropy of each row whose 256 counts are all
    non-zero, computed per block when one is first read; every other
    histogram carries None."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 2 * 64 + 3),
           high=st.sampled_from([1, 2, 255, 10 ** 6, EXACT_SUM_COUNT >> 8]),
           zero_share=st.sampled_from([0.0, 0.2, 1.0]))
    def test_full_rows_carry_their_entropy(self, tmp_path, seed, rows, high, zero_share):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, high, size=(rows, 256), endpoint=True)
        with_zero = rng.random(rows) < zero_share
        for row in np.flatnonzero(with_zero):
            counts[row, rng.choice(256, size=rng.integers(1, 257), replace=False)] = 0
        records = [EventRecord(float(i), "/a", "write", ByteHistogram(row.tolist()), int(row.sum()))
                   for i, row in enumerate(counts)]
        path = tmp_path / "t.jsonl"
        write_trace(Trace(TraceMeta("benign_edit", 1, "benign"), records), path)
        got = read_trace(path).records
        assert got == tuple(records)
        for rec, zero in zip(got, with_zero):
            if zero:
                assert rec.histogram.entropy is None
            else:
                assert rec.histogram.entropy.hex() == fresh_entropy(rec.histogram).hex()

    def test_line_path_records_carry_none(self, tmp_path, monkeypatch):
        counts = b",".join([b"1"] * 256)
        head = b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":256,"histogram":['
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\n".join([META_LINE, head + counts + b"]}",
                                     head + counts.replace(b",", b", ", 1) + b"]}", b""]))
        numbers = line_path_reads(monkeypatch)
        block, line = read_trace(path).records
        assert numbers == [3]
        assert block.histogram.entropy == 8.0
        assert line.histogram.entropy is None and shannon_entropy(line.histogram) == 8.0

    def test_scanned_histograms_carry_none(self, tmp_path):
        (tmp_path / "all.bin").write_bytes(bytes(range(256)) * 4)
        records, _ = scan_directory(tmp_path, chunk_bytes=256)
        assert [r.histogram.entropy for r in records] == [None] * 4

    def test_blocks_are_computed_once_and_only_when_read(self, tmp_path, monkeypatch):
        # 150 records: full blocks of 64 at records 0 and 64, and 22 after.
        # Every row of the second block has a zero count, so it computes nothing.
        counts = np.arange(1, 151)[:, None] + np.arange(256)
        counts[64:128, 7] = 0
        records = [EventRecord(float(i), "/a", "write", ByteHistogram(row.tolist()), int(row.sum()))
                   for i, row in enumerate(counts)]
        path = tmp_path / "t.jsonl"
        write_trace(Trace(TraceMeta("benign_edit", 1, "benign"), records), path)
        passes = block_passes(monkeypatch)
        got = read_trace(path).records
        assert got == tuple(records) and passes == []
        assert got[130].histogram.entropy is not None and passes == [22]
        assert got[100].histogram.entropy is None and passes == [22]
        values = [r.histogram.entropy for r in got]
        assert passes == [22, 64]
        assert [r.histogram.entropy for r in got] == values and passes == [22, 64]
        assert [v.hex() for v in values[:64] + values[128:]] == [
            fresh_entropy(r.histogram).hex() for r in got[:64] + got[128:]]

    def test_rows_are_views_of_one_block_array(self, tmp_path):
        records = [EventRecord(float(i), "/a", "write", ByteHistogram([i + 1] * 256), 256 * (i + 1))
                   for i in range(64)]
        path = tmp_path / "t.jsonl"
        write_trace(Trace(TraceMeta("benign_edit", 1, "benign"), records), path)
        bases = {id(r.histogram.counts.base) for r in read_trace(path).records}
        assert len(bases) == 1

    @pytest.mark.parametrize("kind", ["compressor", "benign_edit", "ransomware"])
    def test_window_closes_compute_only_the_blocks_they_read(self, tmp_path, monkeypatch,
                                                              benign_profile, kind):
        # A compressor window merges four records, so no close reads a block entropy.
        path = tmp_path / "t.jsonl"
        write_trace(simulate_scenario(ScenarioSpec(kind, 5100)), path)
        passes = block_passes(monkeypatch)
        meta, records = iter_trace(path)
        proc = TraceProcessor(profile=benign_profile, label=meta.label, onset_at=meta.onset_at)
        count = 0
        for rec in records:
            proc.process_record(rec)
            count += 1
        proc.finish()
        blocks = -(-count // 64)
        if kind == "compressor":
            assert passes == []
        else:
            assert 0 < len(passes) <= blocks


def spaces(draw):
    return draw(st.text(alphabet=" \t", max_size=2))


@st.composite
def timestamp_texts(draw):
    """A number as json reads it, in the ways a writer may spell it."""
    style = draw(st.sampled_from(["seconds", "repr", "int", "big_int", "long_decimal"]))
    if style == "int":
        return str(draw(st.integers(0, 2 ** 64)))
    if style == "big_int":
        return str(draw(st.integers(2 ** 64, 2 ** 1030)))
    if style == "long_decimal":
        text = format(Decimal(draw(st.floats(0.0, 1e-3))), "f")
        digits = draw(st.text(alphabet="0123456789", max_size=30))
        return text + ("" if "." in text or not digits else ".") + digits
    value = draw(st.floats(0.0, 1e9))
    return format_seconds(value) if style == "seconds" else repr(value)


def number_of(text):
    value = json.loads(text)
    return float(value) if value <= 1e308 else math.inf


path_chars = st.characters(blacklist_categories=("Cs",)) | st.integers(0xD800, 0xDFFF).map(chr)


# Spellings of a count that np.fromstring reads and json rejects or reads
# otherwise; "-" + "0" is json's zero.
ODD_TOKENS = [lambda t: "0" + t, lambda t: "-" + t, lambda t: "+" + t, lambda t: t + " ",
              lambda t: " " + t, lambda t: "", lambda t: "99999999999999999999",
              lambda t: str(2 ** 63), lambda t: str(2 ** 55), lambda t: t + t]


@st.composite
def count_tokens(draw, counts):
    """The decimal tokens of ``counts``, in some files one of them spelled oddly."""
    tokens = list(map(str, counts))
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, 255))
        tokens[at] = draw(st.sampled_from(ODD_TOKENS))(tokens[at])
    return tokens


@st.composite
def record_texts(draw, timestamp):
    """One record line: keys in any order, optional spaces, any escapes."""
    hist = draw(histograms())
    # A path holding `true` or `false` sends the line to the exact count check.
    path = draw(st.text(path_chars, max_size=6)) + draw(st.sampled_from(["", "", "true", "false"]))
    lone = any(0xD800 <= ord(c) <= 0xDFFF for c in path)
    comma = spaces(draw) + "," + spaces(draw)
    pairs = [
        ('"timestamp"', timestamp),
        ('"source_path"', json.dumps(path, ensure_ascii=lone or draw(st.booleans()))),
        ('"op"', json.dumps(draw(st.sampled_from(OPS)))),
        ('"bytes"', str(hist.total)),
        ('"histogram"', "[" + comma.join(draw(count_tokens(hist.counts.tolist()))) + "]"),
    ]
    if draw(st.booleans()):
        pairs.append(('"level_hint"', json.dumps(draw(st.sampled_from(LEVEL_KINDS)))))
    if not draw(st.integers(0, 7)):  # json keeps the last of two keys
        pairs.append(('"histogram"', "[" + ",".join(draw(count_tokens([0] * 256))) + "]"))
    pairs = draw(st.permutations(pairs))
    body = ",".join(f"{spaces(draw)}{k}{spaces(draw)}:{spaces(draw)}{v}{spaces(draw)}"
                    for k, v in pairs)
    return "{" + body + "}"


@st.composite
def trace_files(draw):
    """A trace file of valid record lines and blank lines; some files get one fault."""
    stamps = sorted(draw(st.lists(timestamp_texts(), max_size=4)), key=number_of)
    lines = [f'{{"format":2,"scenario":"benign_edit","seed":{draw(st.integers())},"label":"benign"}}']
    # Records at time 0 put the drawn lines at the edge of the first 64-line block.
    lines += [record_bytes([], 0, timestamp=b"0.0").decode()] * draw(st.sampled_from([0, 0, 61, 63]))
    for stamp in stamps:
        if draw(st.booleans()):
            lines.append(draw(st.text(alphabet=" \t\x0b\x0c" + STR_ONLY_BLANKS, max_size=3)))
        lines.append(draw(record_texts(stamp)))
    fault = draw(st.sampled_from([None, None, "cut", "insert", "swap"]))
    at = draw(st.integers(0, len(lines) - 1))
    if fault == "cut":
        lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
    elif fault == "insert":
        cut = draw(st.integers(0, len(lines[at])))
        junk = draw(st.sampled_from(["NaN", "-Infinity", "1e400", "-1", "2.5", '"', ",", "}", "[",
                                     "x", "\r", "\xa0", "true", "18446744073709551616",
                                     "9223372036854775808", "0", "+", " "]))
        lines[at] = lines[at][:cut] + junk + lines[at][cut:]
    elif fault == "swap" and len(lines) > 2:
        other = draw(st.integers(1, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def resource_warnings(action):
    """The ResourceWarnings (files never closed) from ``action`` and its garbage."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        action()
        gc.collect()
    return [w.message for w in caught if issubclass(w.category, ResourceWarning)]


class TestStreaming:
    def test_iter_trace_is_lazy(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        meta, records = iter_trace(path)
        assert meta.seed == 3
        first = next(records)
        assert first.timestamp == 0.125

    def test_reader_holds_at_most_one_block_ahead(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in [META_LINE, *lines_with_fault(0, "none")]))
        taken = []
        original = entwatch.traces._lines

        def counting(fh):
            for line in original(fh):
                taken.append(line)
                yield line

        monkeypatch.setattr(entwatch.traces, "_lines", counting)
        meta, records = iter_trace(path)
        assert len(taken) == 1
        assert next(records).timestamp == 0.0
        assert len(taken) == 1 + 64
        assert [r.timestamp for r in records] == [float(i) for i in range(1, 70)]
        assert len(taken) == 1 + 70

    def test_unread_records_close_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        assert resource_warnings(lambda: iter_trace(path)) == []

    def test_bad_metadata_closes_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": 2, "scenario": 5}\n')

        def open_bad():
            try:
                iter_trace(path)
            except MalformedRecord:
                return
            pytest.fail("bad metadata accepted")

        assert resource_warnings(open_bad) == []

    @pytest.mark.parametrize("meta", ['{"scenario": "benign_edit", "seed": 1, "label": "benign"}',
                                      '{"format": 1, "scenario": "benign_edit", "seed": 1, '
                                      '"label": "benign"}'], ids=["no_format", "format_1"])
    def test_format_1_file_is_unsupported_and_closed(self, tmp_path, meta):
        path = tmp_path / "t.jsonl"
        record = '{"timestamp": 0.5, "source_path": "/a", "op": "write", "bytes": 3, "histogram": {"97": 3}}'
        path.write_text(meta + "\n" + record + "\n")

        def open_v1():
            with pytest.raises(UnsupportedVersion, match="trace format 1 is not supported"):
                iter_trace(path)

        assert resource_warnings(open_v1) == []


class TestScanDirectory:
    def test_chunk_arithmetic(self, tmp_path):
        (tmp_path / "file.bin").write_bytes(b"x" * 100)
        records, faults = scan_directory(tmp_path, chunk_bytes=64)
        records = list(records)
        assert [r.bytes for r in records] == [64, 36]
        assert [r.timestamp for r in records] == [0.0, 1.0]
        assert all(r.op == "read" for r in records)
        assert (faults.unreadable, faults.partial) == ([], [])

    def test_zero_entropy_file(self, tmp_path):
        (tmp_path / "zeros.bin").write_bytes(bytes(128))
        records, _ = scan_directory(tmp_path, chunk_bytes=256)
        assert shannon_entropy(next(records).histogram) == 0.0

    def test_deterministic_order(self, tmp_path):
        for name in ("b.txt", "a.txt", "c/d.txt"):
            p = tmp_path / name
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_bytes(name.encode() * 10)
        first, _ = scan_directory(tmp_path, chunk_bytes=16)
        second, _ = scan_directory(tmp_path, chunk_bytes=16)
        assert list(first) == list(second)

    def test_missing_root(self, tmp_path):
        with pytest.raises(IoFailure):
            scan_directory(tmp_path / "nope", chunk_bytes=16)

    @pytest.mark.parametrize("chunk_bytes", [0, -1])
    def test_non_positive_chunk_is_refused_at_the_call(self, tmp_path, chunk_bytes):
        with pytest.raises(ValueError, match="chunk_bytes"):
            scan_directory(tmp_path, chunk_bytes=chunk_bytes)

    @pytest.mark.parametrize("chunk_bytes", [MAX_CHUNK_BYTES + 1, 10 ** 18, 10 ** 20])
    def test_chunk_past_the_maximum_is_refused_at_the_call(self, tmp_path, chunk_bytes):
        (tmp_path / "a.txt").write_bytes(b"abc")
        with pytest.raises(ValueError, match=f"chunk_bytes must be from 1 to {MAX_CHUNK_BYTES}"):
            scan_directory(tmp_path, chunk_bytes=chunk_bytes)

    def test_maximum_chunk_is_accepted(self, tmp_path):
        # Not iterated: each read would ask for MAX_CHUNK_BYTES.
        scan_directory(tmp_path, chunk_bytes=MAX_CHUNK_BYTES)

    def test_payload_bytes_never_serialized(self, tmp_path):
        secret = b"TOPSECRETPAYLOADCONTENT"
        (tmp_path / "doc.txt").write_bytes(secret * 4)
        records, _ = scan_directory(tmp_path, chunk_bytes=32)
        trace = Trace(TraceMeta(scenario="scan", seed=0, label="benign"), tuple(records))
        out = tmp_path / "out.jsonl"
        write_trace(trace, out)
        assert secret not in out.read_bytes()

    def test_records_stream_in_bounded_memory(self, tmp_path):
        # 4 MiB in 4 KiB chunks is 1024 records of about 2.4 KiB each; read
        # one at a time, the scan holds one record and one chunk, not them all.
        tree = tmp_path / "tree"
        rng = np.random.default_rng(21)
        for i in range(16):
            (tree / f"d{i % 4}").mkdir(parents=True, exist_ok=True)
            (tree / f"d{i % 4}" / f"f{i:02d}.bin").write_bytes(rng.bytes(256 * 1024))
        tracemalloc.start()
        try:
            records, faults = scan_directory(tree, chunk_bytes=4096)
            count = total = 0
            for record in records:
                count += 1
                total += record.bytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (count, total) == (1024, 4 * 1024 * 1024)
        assert (faults.unreadable, faults.partial) == ([], [])
        assert peak < 1024 * 1024

    def test_dropped_scan_closes_its_file(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"a" * 100)

        def read_one():
            records, _ = scan_directory(tmp_path, chunk_bytes=32)
            next(records)

        assert resource_warnings(read_one) == []

    def test_file_removed_before_its_turn_is_skipped(self, tmp_path):
        for name in ("a.txt", "b.txt", "c.txt"):
            (tmp_path / name).write_bytes(name.encode() * 40)
        full, _ = scan_directory(tmp_path, chunk_bytes=32)
        full = list(full)
        records, faults = scan_directory(tmp_path, chunk_bytes=32)
        first = next(records)
        (tmp_path / "b.txt").unlink()
        rest = list(records)
        assert (faults.unreadable, faults.partial) == ([str(tmp_path / "b.txt")], [])
        without_b, _ = scan_directory(tmp_path, chunk_bytes=32)
        assert [first, *rest] == list(without_b)
        # Only the timestamps, the scan index, move up past the skipped file.
        assert [(r.source_path, r.histogram, r.bytes) for r in [first, *rest]] == [
            (r.source_path, r.histogram, r.bytes) for r in full
            if r.source_path != faults.unreadable[0]]
