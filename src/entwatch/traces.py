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
skipped. The metadata line is read by ``json``: its ``seed`` is an unbounded
integer, which ``orjson`` would read as a float past 64 bits. Record lines, the
bulk of a trace, are read by ``orjson``, about six times faster on a full
256-count record. ``orjson`` rejects some lines that ``json`` reads
(lone-surrogate escapes, which traces of non-UTF-8 file names hold, and
``NaN``) and reads integers past 64 bits as floats. So a line that ``orjson``
rejects, or whose record is invalid, is read again by ``json``, and only that
reading decides the record or its error. A decoded line can hold a bool only
if its bytes hold a ``true`` or ``false`` literal; the counts of a line that
holds neither go to ``ByteHistogram.from_json``, the rest to the exact check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterator

import orjson

from .entropy import ByteHistogram, histogram_from_bytes
from .errors import IoFailure, MalformedRecord, UnsupportedVersion, checked
from .hierarchy import LEVEL_KINDS

OPS = ("write", "read", "rename", "delete", "net_tx")

LABEL_BENIGN = "benign"
LABEL_RANSOMWARE = "ransomware"

# The trace format this build writes and reads; a file without one is format 1.
TRACE_FORMAT = 2


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


@dataclass(frozen=True)
class EventRecord:
    """One observed operation; carries the payload's byte histogram, not bytes."""

    timestamp: float
    source_path: str
    op: str
    histogram: ByteHistogram
    bytes: int
    level_hint: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamp", checked(self.timestamp, "timestamp", float))
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValueError(f"timestamp must be finite and non-negative, got {self.timestamp}")
        checked(self.source_path, "source_path", str)
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}, expected one of {OPS}")
        checked(self.histogram, "histogram", ByteHistogram)
        checked(self.bytes, "bytes", int)
        if self.histogram.total != self.bytes:
            raise ValueError(
                f"histogram total {self.histogram.total} does not match payload length {self.bytes}"
            )
        if self.level_hint is not None and self.level_hint not in LEVEL_KINDS:
            raise ValueError(f"level hint must be one of {LEVEL_KINDS}, got {self.level_hint!r}")


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
        if self.label not in (LABEL_BENIGN, LABEL_RANSOMWARE):
            raise ValueError(f"label must be benign or ransomware, got {self.label!r}")
        if self.label == LABEL_RANSOMWARE and self.onset_at is None:
            raise ValueError("ransomware traces must carry onset_at")
        for name in ("created_at", "duration", "onset_at"):
            value = checked(getattr(self, name), name, float, optional=name != "created_at")
            if value is not None and not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)
        ramp = checked(self.ramp, "ramp", (float,), optional=True)
        if ramp is not None and not (len(ramp) == 2 and all(map(math.isfinite, ramp))):
            raise ValueError(f"ramp must be two finite numbers, got {self.ramp!r}")
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(trace.meta) + "\n")
            for rec in trace.records:
                path_json = quoted.get(rec.source_path)
                if path_json is None:
                    path_json = quoted[rec.source_path] = json.dumps(rec.source_path)
                fh.write(_record_line(rec, path_json))
    except OSError as exc:
        raise IoFailure(f"cannot write trace to {path}: {exc}") from exc


def _parse_meta(obj, line_number: int) -> TraceMeta:
    try:
        checked(obj, "metadata", dict)
        version = obj.pop("format", 1)
        if type(version) is not int or version != TRACE_FORMAT:
            raise UnsupportedVersion(f"trace format {version!r} is not supported (expected "
                                     f"{TRACE_FORMAT}); re-simulate the trace")
        return TraceMeta(**obj)
    except (TypeError, ValueError, RecursionError) as exc:
        # TypeError: a key TraceMeta does not have; RecursionError: the repr
        # of a deeply nested value in a message
        raise MalformedRecord(f"line {line_number}: invalid trace metadata: {exc}", line_number) from exc


def _parse_record(obj, line_number: int, bools: bool) -> EventRecord:
    """The record of a decoded line; ``bools`` is False only if the line cannot hold a bool."""
    try:
        checked(obj, "record", dict)
        if "histogram" in obj:  # ByteHistogram(None) is empty; a null histogram is not
            counts = checked(obj["histogram"], "histogram", list)
            obj["histogram"] = ByteHistogram(counts) if bools else ByteHistogram.from_json(counts)
        return EventRecord(**obj)
    except (TypeError, ValueError, RecursionError) as exc:
        # RecursionError: the repr of a deeply nested value in a message
        raise MalformedRecord(f"line {line_number}: invalid event record: {exc}", line_number) from exc


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


def _decoded(line: bytes, line_number: int, what: str) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"line {line_number}: {what} is not valid UTF-8: {exc}", line_number) from exc


def _loads(text: str, line_number: int, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the recursion limit
        raise MalformedRecord(f"line {line_number}: {what} is not valid JSON: {exc}", line_number) from exc


def _read(path) -> Iterator[TraceMeta | EventRecord]:
    """The trace's metadata, then its records; the file is open only while this runs."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read trace from {path}: {exc}") from exc
    with fh:
        lines = _lines(fh)
        first = _decoded(next(lines, b""), 1, "metadata")
        if not first.strip():
            raise MalformedRecord("line 1: trace file has no metadata line", 1)
        yield _parse_meta(_loads(first, 1, "metadata"), 1)

        last_ts = -1.0
        for line_number, line in enumerate(lines, start=2):
            # JSON spells a bool only as a literal, which the bytes then hold.
            bools = b"true" in line or b"false" in line
            try:
                rec = _parse_record(orjson.loads(line), line_number, bools)
            except (orjson.JSONDecodeError, MalformedRecord):
                # Blank, or json may read it otherwise: json's reading decides.
                text = _decoded(line, line_number, "record")
                if not text.strip():
                    continue
                rec = _parse_record(_loads(text, line_number, "record"), line_number, bools)
            if rec.timestamp < last_ts:
                raise MalformedRecord(
                    f"line {line_number}: timestamps regress ({rec.timestamp} after {last_ts})",
                    line_number,
                )
            last_ts = rec.timestamp
            yield rec


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


@dataclass
class ScanResult:
    """Records produced by a directory scan plus the files that could not be read."""

    records: list[EventRecord] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def scan_directory(root, chunk_bytes: int) -> ScanResult:
    """One read record per fixed-size chunk of every regular file under ``root``.

    Files are visited in lexicographic path order, chunks in offset order, and
    the record timestamp is the global scan index in seconds, so repeated
    scans of an unchanged tree produce identical sequences. Unreadable files
    are skipped and reported, not fatal.
    """
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    root = Path(root)
    if not root.is_dir():
        raise IoFailure(f"scan root {root} is not a readable directory")

    files = sorted(p for p in root.rglob("*") if p.is_file() and not p.is_symlink())
    result = ScanResult()
    index = 0
    for path in files:
        try:
            with open(path, "rb") as fh:
                while True:
                    chunk = fh.read(chunk_bytes)
                    if not chunk:
                        break
                    result.records.append(EventRecord(
                        timestamp=float(index),
                        source_path=str(path),
                        op="read",
                        histogram=histogram_from_bytes(chunk),
                        bytes=len(chunk),
                    ))
                    index += 1
        except OSError:
            result.skipped.append(str(path))
    return result
