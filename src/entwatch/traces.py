"""Replayable event traces: line-delimited JSON records plus directory scanning.

File layout (trace format 2): line 1 is the metadata object, which carries
``"format": 2``, and every following line is one event record. A record's
``"histogram"`` is a JSON list of exactly 256 non-negative integer counts, one
per byte value and zeros included, whose sum fits int64; raw payload bytes are
never stored. All integers are decimal; timestamps are decimal seconds written
with at least three fractional digits and exactly enough precision to
round-trip the float. A file whose metadata names another format, or none (the
sparse ``{"byte": count}`` histograms of format 1), raises
``UnsupportedVersion``; a trace is a pure function of its spec, so re-simulate
it.

The grammar is ``json``'s, read from UTF-8 text split into lines at ``\\n``,
``\\r\\n`` or a lone ``\\r``; a line that ``str.strip()`` empties is blank and
skipped. The metadata line is read by ``json``.

Record lines, the bulk of a trace, are read in blocks of 64 on two paths. A
line that ends as ``write_trace`` ends it, in a count field after the last
``,"histogram":[`` that holds only digits and exactly 255 commas, then
``]}``, is a block-path candidate: one ``np.fromstring`` reads the count
fields of all candidates in the block, and ``orjson`` decodes each head (the
line up to that key, closed by ``}``). ``np.fromstring`` is more lenient
than JSON: it reads leading zeros, signs and spaces, stops at an empty token
and clamps a token past int64 to 2**63 - 1. The byte tests rule out signs
and spaces, and a block where it meets an empty token, which only a
malformed file holds, sends every candidate to the line path. A row is
otherwise taken only if no token of its field is a ``0`` with a digit after
it, and every count is at most 2**55 - 1, which no clamped token is and
which keeps the int64 total exact; and only if ``EventRecord`` accepts the
head's fields with all its checks. Such a line is valid JSON that ``json``
reads as the same record.

The histogram of a taken row whose 256 counts are all non-zero reads its
entropy (``ByteHistogram.entropy``) from its block's
``entropy.BlockEntropies``. Nothing is computed while the block is read:
the first read of any of the block's entropies, at a window close, computes
all of them by one ``entropy.full_row_entropies`` pass, so a block is
computed at most once, and a block none of whose entropies is read, such as
a compressor's, whose windows each merge four records, never. Every other
histogram, line-path and scanned ones included, carries None.

Every other line takes the line path: ``json`` decodes it whole and
``ByteHistogram`` checks its counts item by item, and that reading alone
decides the record or its error. The block path never raises, so every
error has the line path's message and line number. The reader holds at
most one block of lines ahead of its records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson

from .entropy import EXACT_SUM_COUNT, BlockEntropies, ByteHistogram, histogram_from_bytes
from .errors import IoFailure, MalformedRecord, UnsupportedVersion, checked, opened, shown
from .hierarchy import LEVEL_KINDS

OPS = ("write", "read", "rename", "delete", "net_tx")

# The two labels, of a trace's ground truth and of a verdict alike.
BENIGN = "benign"
RANSOMWARE = "ransomware"

# The trace format this build writes and reads; a file without one is format 1.
TRACE_FORMAT = 2

# The largest chunk a directory scan reads as one record (1 GiB).
MAX_CHUNK_BYTES = 2 ** 30


def format_seconds(ts: float) -> str:
    """Shortest decimal that round-trips ``ts`` (non-negative), padded to >= 3 fraction digits."""
    text = repr(float(ts))
    if "e" in text or "E" in text:
        # repr falls back to scientific notation below 1e-4; expand exactly.
        text = format(Decimal(float(ts)), "f")
    if "." not in text:
        return text + ".000"
    fraction = len(text) - text.index(".") - 1
    return text + "0" * max(0, 3 - fraction)


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One observed operation; carries the payload's byte histogram, not bytes."""

    timestamp: float
    source_path: str
    op: str
    histogram: ByteHistogram
    bytes: int
    level_hint: str | None = None

    def __post_init__(self):
        # Each field's usual exact type is tested inline; ``checked`` converts
        # an int timestamp and builds the message for any other type.
        timestamp = self.timestamp
        if type(timestamp) is not float:
            timestamp = checked(timestamp, "timestamp", float)
            object.__setattr__(self, "timestamp", timestamp)
        if not (math.isfinite(timestamp) and timestamp >= 0):
            raise ValueError(f"timestamp must be finite and non-negative, got {timestamp}")
        if type(self.source_path) is not str:
            checked(self.source_path, "source_path", str)
        if self.op not in OPS:
            raise ValueError(f"unknown op {shown(self.op)}, expected one of {OPS}")
        histogram = self.histogram
        if type(histogram) is not ByteHistogram:
            checked(histogram, "histogram", ByteHistogram)
        if type(self.bytes) is not int:
            checked(self.bytes, "bytes", int)
        if histogram.total != self.bytes:
            raise ValueError(
                f"histogram total {histogram.total} does not match payload length {self.bytes}"
            )
        if self.level_hint is not None and self.level_hint not in LEVEL_KINDS:
            raise ValueError(f"level hint must be one of {LEVEL_KINDS}, got {shown(self.level_hint)}")


@dataclass(frozen=True)
class TraceMeta:
    """Trace metadata: its time fields are finite non-negative floats, ``ramp`` two finite floats."""

    scenario: str
    seed: int
    label: str
    created_at: float = 0.0
    duration: float | None = None
    onset_at: float | None = None
    ramp: tuple[float, float] | None = None
    file_count: int | None = None
    target_dirs: tuple[str, ...] | None = None

    def __post_init__(self):
        checked(self.scenario, "scenario", str)
        checked(self.seed, "seed", int)
        if self.label not in (BENIGN, RANSOMWARE):
            raise ValueError(f"label must be benign or ransomware, got {shown(self.label)}")
        if self.label == RANSOMWARE and self.onset_at is None:
            raise ValueError("ransomware traces must carry onset_at")
        for name in ("created_at", "duration", "onset_at"):
            value = checked(getattr(self, name), name, float, optional=name != "created_at")
            if value is not None and not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)
        ramp = checked(self.ramp, "ramp", (float,), optional=True)
        if ramp is not None and not (len(ramp) == 2 and all(map(math.isfinite, ramp))):
            raise ValueError(f"ramp must be two finite numbers, got {shown(self.ramp)}")
        object.__setattr__(self, "ramp", ramp)
        checked(self.file_count, "file_count", int, optional=True)
        object.__setattr__(self, "target_dirs", checked(self.target_dirs, "target_dirs", (str,), optional=True))


@dataclass(frozen=True)
class Trace:
    meta: TraceMeta
    records: tuple[EventRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.timestamp < prev.timestamp:
                raise ValueError("trace records must be sorted by timestamp")


def _meta_line(meta: TraceMeta) -> str:
    parts = [
        f'"format":{TRACE_FORMAT}',
        f'"scenario":{json.dumps(meta.scenario)}',
        f'"seed":{meta.seed}',
        f'"label":{json.dumps(meta.label)}',
        f'"created_at":{format_seconds(meta.created_at)}',
    ]
    if meta.duration is not None:
        parts.append(f'"duration":{json.dumps(meta.duration)}')
    if meta.onset_at is not None:
        parts.append(f'"onset_at":{format_seconds(meta.onset_at)}')
    if meta.ramp is not None:
        parts.append(f'"ramp":[{json.dumps(meta.ramp[0])},{json.dumps(meta.ramp[1])}]')
    if meta.file_count is not None:
        parts.append(f'"file_count":{meta.file_count}')
    if meta.target_dirs is not None:
        parts.append(f'"target_dirs":{json.dumps(list(meta.target_dirs))}')
    return "{" + ",".join(parts) + "}"


# The op and level hint come from fixed vocabularies of plain ASCII words, so
# their JSON fields are written once here, not quoted per record.
_OP_FIELDS = {op: f'"op":"{op}"' for op in OPS}
_LEVEL_HINT_FIELDS = {None: "", **{kind: f'"level_hint":"{kind}",' for kind in LEVEL_KINDS}}


def _record_line(rec: EventRecord, source_path_json: str) -> str:
    """The record's line, its ``source_path`` already JSON-quoted as ``source_path_json``."""
    return (f'{{"timestamp":{format_seconds(rec.timestamp)},"source_path":{source_path_json},'
            f'{_LEVEL_HINT_FIELDS[rec.level_hint]}{_OP_FIELDS[rec.op]},"bytes":{rec.bytes},'
            '"histogram":' + orjson.dumps(rec.histogram.counts, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            + "}\n")


def write_trace(trace: Trace, path) -> None:
    """Stream the trace to disk one line per record."""
    quoted = {}  # each distinct source path is JSON-quoted once
    with opened(path, "w", f"cannot write trace to {path}", encoding="utf-8") as fh:
        fh.write(_meta_line(trace.meta) + "\n")
        for rec in trace.records:
            path_json = quoted.get(rec.source_path)
            if path_json is None:
                path_json = quoted[rec.source_path] = json.dumps(rec.source_path)
            fh.write(_record_line(rec, path_json))


def _parse_meta(obj, number: int) -> TraceMeta:
    try:
        checked(obj, "metadata", dict)
        version = obj.pop("format", 1)
        if type(version) is not int or version != TRACE_FORMAT:
            raise UnsupportedVersion(f"trace format {shown(version)} is not supported (expected "
                                     f"{TRACE_FORMAT}); re-simulate the trace")
        return TraceMeta(**obj)
    except (TypeError, ValueError) as exc:  # TypeError: a key TraceMeta does not have
        raise MalformedRecord(f"line {number}: invalid trace metadata: {exc}") from exc


def _parse_record(obj, number: int) -> EventRecord:
    """The record of a decoded line, its counts checked item by item."""
    try:
        checked(obj, "record", dict)
        if "histogram" in obj:  # ByteHistogram(None) is empty; a null histogram is not
            obj["histogram"] = ByteHistogram(checked(obj["histogram"], "histogram", list))
        return EventRecord(**obj)
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(f"line {number}: invalid event record: {exc}") from exc


def _lines(fh) -> Iterator[bytes]:
    """The lines of a binary file, split where text mode splits them: at
    ``\\n``, ``\\r\\n`` and a lone ``\\r``, each line ending read as ``\\n``."""
    for line in fh:
        if b"\r" in line:
            for piece in line.splitlines(keepends=True):
                body = piece.rstrip(b"\r\n")
                yield body + b"\n" if len(body) < len(piece) else body
        else:
            yield line


def _decoded(line: bytes, number: int, what: str) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"line {number}: {what} is not valid UTF-8: {exc}") from exc


def _loads(text: str, number: int, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the recursion limit
        raise MalformedRecord(f"line {number}: {what} is not valid JSON: {exc}") from exc


def _line_record(line: bytes, number: int) -> EventRecord | None:
    """The record of one line, json's reading of it, or None for a blank line."""
    text = _decoded(line, number, "record")
    if not text.strip():
        return None
    return _parse_record(_loads(text, number, "record"), number)


# The count field as write_trace writes it, the record's last key.
_COUNTS_KEY = b',"histogram":['
_COMMAS = b"," * 255
_BLOCK_LINES = 64


def _counts_field(line: bytes) -> tuple[int, bytes] | None:
    """Where the head of a line ends, and its count field, if the line ends in
    a field of only digits and 255 commas; None sends it to ``_line_record``."""
    end = len(line) - 1 if line[-1:] == b"\n" else len(line)
    if line[end - 2:end] != b"]}":
        return None
    k = line.rfind(_COUNTS_KEY, 0, end)
    if k < 0:
        return None
    body = line[k + len(_COUNTS_KEY):end - 2]
    return (k, body) if body.translate(None, b"0123456789") == _COMMAS else None


def _block_counts(bodies: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rows, 256) counts of the count fields ``bodies``, read by one
    ``np.fromstring``, whether json reads each field as that row, and which
    of those rows have no zero count."""
    joined = b",".join(bodies)
    try:
        counts = np.fromstring(joined, dtype=np.int64, sep=",")
    except ValueError:  # an empty token
        counts = None
    if counts is None or counts.size != 256 * len(bodies):  # or a trailing one, dropped
        # Only a malformed file has an empty token; the line path reads every row.
        none = np.zeros(len(bodies), dtype=bool)
        return np.zeros((len(bodies), 256), dtype=np.int64), none, none
    counts = counts.reshape(-1, 256)
    # np.fromstring also reads leading zeros, which json rejects, and clamps a
    # token past int64. So a row is taken only if each of its counts is at
    # most EXACT_SUM_COUNT, which no clamped token is and which keeps the int64
    # total exact, and no token of its field is a 0 with a digit after it.
    good = counts.max(axis=1, initial=0) <= EXACT_SUM_COUNT
    text = np.frombuffer(b"," + joined, dtype=np.uint8)
    zero_led = np.flatnonzero((text[1:-1] == ord("0")) & (text[:-2] == ord(","))
                              & (text[2:] != ord(",")))
    if zero_led.size:
        starts = np.cumsum([0] + [len(body) + 1 for body in bodies[:-1]])
        good[np.searchsorted(starts, zero_led, side="right") - 1] = False
    return counts, good, good & (counts.min(axis=1) > 0)


def _block_record(head: bytes, histogram: ByteHistogram) -> EventRecord | None:
    """The record of a head and the histogram of its checked counts, or None
    for ``_line_record`` to decide."""
    try:
        obj = orjson.loads(head)  # a JSON text that ends in "}" is an object
        # This replaces a "histogram" key of the head, as json keeps the last of two.
        obj["histogram"] = histogram
        return EventRecord(**obj)
    except (TypeError, ValueError):  # orjson.JSONDecodeError is a ValueError
        return None


def _block_records(block: list[bytes], number: int) -> Iterator[tuple[int, EventRecord]]:
    """The line numbers and records of consecutive lines, the first numbered
    ``number``; blank lines yield nothing."""
    fields = [_counts_field(line) for line in block]
    counts, good, full = _block_counts([field[1] for field in fields if field is not None])
    totals = counts.sum(axis=1)
    # The taken rows whose counts are all non-zero read their entropies from
    # the block, which computes them all when the first is read.
    entropies = BlockEntropies(counts, totals)
    good, full, totals = good.tolist(), full.tolist(), totals.tolist()
    row = 0
    for line, field in zip(block, fields):
        rec = None
        if field is not None:
            if good[row]:
                if full[row]:
                    histogram = entropies.histogram(row, totals[row])
                else:
                    histogram = ByteHistogram.unchecked(counts[row], totals[row])
                rec = _block_record(line[:field[0]] + b"}", histogram)
            row += 1
        if rec is None:
            rec = _line_record(line, number)
        if rec is not None:
            yield number, rec
        number += 1


def _read(path) -> Iterator[TraceMeta | EventRecord]:
    """The trace's metadata, then its records; the file is open only while this runs."""
    with opened(path, "rb", f"cannot read trace from {path}") as fh:
        lines = _lines(fh)
        first = _decoded(next(lines, b""), 1, "metadata")
        if not first.strip():
            raise MalformedRecord("line 1: trace file has no metadata line")
        yield _parse_meta(_loads(first, 1, "metadata"), 1)

        last_ts = -1.0
        start = 2
        while block := list(islice(lines, _BLOCK_LINES)):
            for number, rec in _block_records(block, start):
                if rec.timestamp < last_ts:
                    raise MalformedRecord(
                        f"line {number}: timestamps regress ({rec.timestamp} after {last_ts})")
                last_ts = rec.timestamp
                yield rec
            start += len(block)


def iter_trace(path) -> tuple[TraceMeta, Iterator[EventRecord]]:
    """Metadata plus a lazy record iterator; the file is never fully buffered.

    The file closes when the iterator is exhausted, closed or dropped, and
    before this returns if the metadata line is bad.
    """
    records = _read(path)
    return next(records), records


def read_trace(path) -> Trace:
    """Materialize a whole trace; inverse of write_trace."""
    meta, records = iter_trace(path)
    return Trace(meta, tuple(records))


class ScanFaults:
    """The files of a directory scan that were not read whole, listed as its
    iterator reaches them, each once: ``unreadable`` those of which no chunk
    was read, ``partial`` those whose read failed after some chunks, which
    are already among the records."""

    __slots__ = ("unreadable", "partial")

    def __init__(self):
        self.unreadable: list[str] = []
        self.partial: list[str] = []


def scan_directory(root, chunk_bytes: int) -> tuple[Iterator[EventRecord], ScanFaults]:
    """A lazy iterator of one read record per fixed-size chunk of every regular
    file under ``root``, plus the files it could not read whole.

    Files are visited in lexicographic path order, chunks in offset order, and
    the record timestamp is the global scan index in seconds, so repeated
    scans of an unchanged tree produce identical sequences. The listing is
    taken here; each file is opened only when its first chunk is due, and a
    file whose open or read fails is listed in the ``ScanFaults``, not fatal,
    when the iterator reaches it. ``chunk_bytes`` is from 1 to
    ``MAX_CHUNK_BYTES``.
    """
    if not 0 < chunk_bytes <= MAX_CHUNK_BYTES:
        raise ValueError(f"chunk_bytes must be from 1 to {MAX_CHUNK_BYTES}, got {shown(chunk_bytes)}")
    root = Path(root)
    if not root.is_dir():
        raise IoFailure(f"scan root {root} is not a readable directory")
    files = sorted(p for p in root.rglob("*") if p.is_file() and not p.is_symlink())
    faults = ScanFaults()
    return _scan(files, chunk_bytes, faults), faults


def _scan(files: list[Path], chunk_bytes: int, faults: ScanFaults) -> Iterator[EventRecord]:
    index = 0
    for path in files:
        first = index
        try:
            with opened(path, "rb", f"cannot read {path}") as fh:
                while chunk := fh.read(chunk_bytes):
                    yield EventRecord(
                        timestamp=float(index),
                        source_path=str(path),
                        op="read",
                        histogram=histogram_from_bytes(chunk),
                        bytes=len(chunk),
                    )
                    index += 1
        except IoFailure:
            (faults.partial if index > first else faults.unreadable).append(str(path))
