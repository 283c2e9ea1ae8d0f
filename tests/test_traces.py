import gc
import json
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entwatch.entropy import INT64_MAX, ByteHistogram, histogram_from_bytes, shannon_entropy
from entwatch.errors import IoFailure, MalformedRecord, checked
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
# rejects as well, so the reader and the constructor agree on it. Bytes
# replace the whole line with a fault below the JSON values, which no
# constructor sees.
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
    pytest.param(4, b'{"timestamp":2.5,"source_path":"/home/\xff","op":"read","bytes":0,'
                    b'"histogram":{}}', id="not_utf8"),
    pytest.param(3, b'{"timestamp":' + b"[" * 100000 + b"]" * 100000 + b"}", id="nesting_deep"),
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


REFERENCE_BUCKETS = {str(b): b for b in range(256)}


def reference_record(obj, line_number):
    """The record parser before the cached bucket index: one ``fromiter`` per histogram."""
    try:
        checked(obj, "record", dict)
        sparse = checked(obj.get("histogram", {}), "histogram", dict)
        size = len(sparse)
        try:
            buckets = np.fromiter(map(REFERENCE_BUCKETS.__getitem__, sparse), np.intp, size)
        except KeyError as exc:
            raise ValueError(f"byte bucket key must be one of '0' to '255', "
                             f"got {exc.args[0]!r}") from None
        values = checked(tuple(sparse.values()), "histogram counts", (int,))
        counts = np.zeros(256, dtype=np.int64)
        counts[buckets] = np.fromiter(values, np.int64, size)
        obj["histogram"] = ByteHistogram(counts)
        return EventRecord(**obj)
    except (TypeError, ValueError, OverflowError) as exc:
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
            meta = TraceMeta(**checked(meta_obj, "metadata", dict))
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
    """Equal metadata and records, or a MalformedRecord with the same line and message."""
    outcomes = []
    for read in (reference_read, read_lazily):
        try:
            outcomes.append(read(path))
        except MalformedRecord as exc:
            outcomes.append(exc)
    expected, got = outcomes
    if isinstance(expected, MalformedRecord):
        assert isinstance(got, MalformedRecord), got
        assert (got.line_number, str(got)) == (expected.line_number, str(expected))
    else:
        assert got == expected


META_LINE = b'{"scenario":"benign_edit","seed":1,"label":"benign"}'
# Characters str.strip() removes and bytes.strip() keeps, so a line of them is
# blank to the text reader; text mode does not split lines at any of them.
STR_ONLY_BLANKS = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"

REFERENCE_FILES = [
    pytest.param([b'{ "op" : "write",\t"bytes":3 ,"histogram":{ "97" : 3 },'
                  b' "source_path":"/a" , "timestamp":1.5}  '], id="reordered_keys_whitespace"),
    pytest.param([b'{"timestamp":0.5,"source_path":"/caf\\u00e9\\ud83d\\ude00","op":"write",'
                  b'"bytes":0,"histogram":{}}'], id="unicode_escapes"),
    pytest.param([b'{"timestamp":0.5,"source_path":"/x\\udcff\\ud800","op":"read",'
                  b'"bytes":0,"histogram":{}}'], id="lone_surrogate_escapes"),
    pytest.param([b'{"timestamp":18446744073709551616,"source_path":"/a","op":"write",'
                  b'"bytes":0,"histogram":{}}',
                  b'{"timestamp":' + str(10 ** 300 + 1).encode() + b',"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":{}}'], id="timestamp_ints_past_64_bits"),
    pytest.param([b'{"timestamp":' + format_seconds(1e-7).encode() + b'123456789,'
                  b'"source_path":"/a","op":"write","bytes":0,"histogram":{}}',
                  b'{"timestamp":' + format_seconds(5e-324).encode() + b',"source_path":"/a",'
                  b'"op":"write","bytes":0,"histogram":{}}'], id="timestamp_long_decimals"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":5,'
                  b'"histogram":{"7":9,"8":2,"7":3}}'], id="duplicate_bucket_keys"),
    pytest.param([STR_ONLY_BLANKS.encode(), b"\t\x0b\x0c ",
                  b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,"histogram":{}}',
                  "\xa0\x1c".encode()], id="str_strip_blank_lines"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,"histogram":{}}\r'
                  b'{"timestamp":2.0,"source_path":"/a","op":"write","bytes":0,"histogram":{}}\r',
                  b"\r\r{broken"], id="lone_cr_line_ends"),
    pytest.param([b'{"timestamp":NaN,"source_path":"/a","op":"write","bytes":0,"histogram":{}}'],
                 id="nan_literal"),
    pytest.param([b'{"timestamp":1e400,"source_path":"/a","op":"write","bytes":0,"histogram":{}}'],
                 id="float_literal_past_range"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":18446744073709551616,'
                  b'"histogram":{"0":18446744073709551616}}'], id="ints_past_64_bits_rejected"),
    pytest.param([b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":1,'
                  b'"histogram":{"0":1}} {}'], id="extra_data"),
    pytest.param([b'{"timestamp":2.0,"source_path":"/a","op":"write","bytes":0,"histogram":{}}',
                  b'{"timestamp":1.0,"source_path":"/a","op":"write","bytes":0,"histogram":{}}'],
                 id="timestamps_regress"),
    pytest.param([b"null"], id="null_record"),
    pytest.param([b"[" * 500 + b"]" * 500], id="nested_500_deep"),
]


class TestReferenceReader:
    """The reader gives the reference reader's records and errors, line for line."""

    @pytest.mark.parametrize("lines", REFERENCE_FILES)
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    def test_cases(self, tmp_path, lines, ending):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(line + ending for line in [META_LINE, *lines]))
        assert_reads_as_reference(path)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_equal_records_and_errors(self, tmp_path, data):
        path = tmp_path / "t.jsonl"
        path.write_bytes(data.draw(trace_files()))
        assert_reads_as_reference(path)


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


@st.composite
def record_texts(draw, timestamp):
    """One record line: keys in any order, optional spaces, any escapes, repeated bucket keys."""
    hist = draw(histograms())
    path = draw(st.text(path_chars, max_size=6))
    lone = any(0xD800 <= ord(c) <= 0xDFFF for c in path)
    entries = [(f'"{b}"', str(c)) for b, c in enumerate(hist.counts.tolist()) if c]
    if entries and draw(st.booleans()):
        # An earlier entry with the same key is overwritten by the later one.
        key, _ = draw(st.sampled_from(entries))
        entries.insert(0, (key, str(draw(st.integers(0, 10)))))
    sep = spaces(draw)
    pairs = [
        ('"timestamp"', timestamp),
        ('"source_path"', json.dumps(path, ensure_ascii=lone or draw(st.booleans()))),
        ('"op"', json.dumps(draw(st.sampled_from(OPS)))),
        ('"bytes"', str(hist.total)),
        ('"histogram"', "{" + ",".join(f"{k}{sep}:{v}" for k, v in entries) + "}"),
    ]
    if draw(st.booleans()):
        pairs.append(('"level_hint"', json.dumps(draw(st.sampled_from(LEVEL_KINDS)))))
    pairs = draw(st.permutations(pairs))
    body = ",".join(f"{spaces(draw)}{k}{spaces(draw)}:{spaces(draw)}{v}{spaces(draw)}"
                    for k, v in pairs)
    return "{" + body + "}"


@st.composite
def trace_files(draw):
    """A trace file of valid record lines and blank lines; some files get one fault."""
    stamps = sorted(draw(st.lists(timestamp_texts(), max_size=4)), key=number_of)
    lines = [f'{{"scenario":"benign_edit","seed":{draw(st.integers())},"label":"benign"}}']
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
                                     "x", "\r", "\xa0", "18446744073709551616",
                                     "9223372036854775808"]))
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

    def test_unread_records_close_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(small_trace(), path)
        assert resource_warnings(lambda: iter_trace(path)) == []

    def test_bad_metadata_closes_the_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"scenario": 5}\n')

        def open_bad():
            try:
                iter_trace(path)
            except MalformedRecord:
                return
            pytest.fail("bad metadata accepted")

        assert resource_warnings(open_bad) == []


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
