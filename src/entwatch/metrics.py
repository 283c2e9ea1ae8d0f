"""Run metrics and report files: report.csv, metrics.json, heatmap.csv."""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import asdict, dataclass

from .errors import EmptyInput, IoFailure, MalformedRecord, checked, shown
from .traces import BENIGN, RANSOMWARE

VERDICT_ERROR = "error"

REPORT_COLUMNS = ("trace", "label", "verdict", "confidence", "latency_ms")


@dataclass(frozen=True)
class PerTraceRow:
    trace: str
    label: str | None
    verdict: str
    confidence: float
    latency_ms: float | None

    def __post_init__(self):
        checked(self.trace, "trace", str)
        if self.label not in (BENIGN, RANSOMWARE, None):
            raise ValueError(f"label must be benign, ransomware or None, got {shown(self.label)}")
        if self.verdict not in (BENIGN, RANSOMWARE, VERDICT_ERROR):
            raise ValueError(f"verdict must be benign, ransomware or error, got {shown(self.verdict)}")
        confidence = checked(self.confidence, "confidence", float)
        if not 0.0 <= confidence <= 1.0:  # NaN fails too
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        latency = checked(self.latency_ms, "latency_ms", float, optional=True)
        if latency is not None and not 0.0 <= latency < math.inf:
            raise ValueError(f"latency_ms must be finite and non-negative, got {latency}")
        object.__setattr__(self, "confidence", confidence)
        object.__setattr__(self, "latency_ms", latency)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    fpr: float
    fnr: float
    mean_latency_ms: float | None
    wall_time_ms: float
    peak_rss_estimate: int
    per_trace: tuple[PerTraceRow, ...]


def compute_metrics(rows, wall_time_ms: float = 0.0, peak_rss_estimate: int = 0) -> MetricsReport:
    """Confusion-matrix aggregates over labeled rows.

    Rows with an unknown label or an error verdict stay in the report but are
    excluded from the confusion counts. Degenerate 0/0 rates are defined as 0.
    Mean latency runs over true positives that carry one; input order does
    not matter.
    """
    rows = tuple(rows)
    if not rows:
        raise EmptyInput("metrics need at least one per-trace row")

    tp = tn = fp = fn = 0
    latencies = []
    for row in rows:
        if row.label not in (BENIGN, RANSOMWARE) or row.verdict == VERDICT_ERROR:
            continue
        positive_truth = row.label == RANSOMWARE
        positive_pred = row.verdict == RANSOMWARE
        if positive_truth and positive_pred:
            tp += 1
            if row.latency_ms is not None:
                latencies.append(row.latency_ms)
        elif positive_truth:
            fn += 1
        elif positive_pred:
            fp += 1
        else:
            tn += 1

    total = tp + tn + fp + fn
    accuracy = (tp + tn) / total if total else 0.0
    fpr = fp / (fp + tn) if (fp + tn) else 0.0
    fnr = fn / (fn + tp) if (fn + tp) else 0.0
    mean_latency = sum(latencies) / len(latencies) if latencies else None
    return MetricsReport(
        accuracy=accuracy,
        fpr=fpr,
        fnr=fnr,
        mean_latency_ms=mean_latency,
        wall_time_ms=wall_time_ms,
        peak_rss_estimate=peak_rss_estimate,
        per_trace=rows,
    )


@contextlib.contextmanager
def _writing(path, **open_args):
    """``path`` opened for writing; any OSError, on open or while writing, is an IoFailure."""
    try:
        with open(path, "w", encoding="utf-8", **open_args) as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_report_csv(path, rows) -> None:
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([
                row.trace,
                row.label if row.label is not None else "unknown",
                row.verdict,
                f"{row.confidence:.6f}",
                "" if row.latency_ms is None else f"{row.latency_ms:.3f}",
            ])


def _report_row(fields: list[str]) -> PerTraceRow:
    if len(fields) != len(REPORT_COLUMNS):
        raise ValueError(f"expected {len(REPORT_COLUMNS)} fields, got {len(fields)}")
    trace, label, verdict, confidence, latency = fields
    return PerTraceRow(trace, None if label == "unknown" else label, verdict,
                       float(confidence), float(latency) if latency else None)


def read_report_csv(path) -> list[PerTraceRow]:
    """Rows of a report.csv laid out as write_report_csv writes it, header
    included. A trace has one row: a repeated trace is malformed, as the
    metrics would count it twice."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoFailure(f"cannot read report {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(REPORT_COLUMNS):
                raise ValueError(f"the header must be {','.join(REPORT_COLUMNS)}")
            rows: dict[str, PerTraceRow] = {}
            for fields in reader:
                row = _report_row(fields)
                if row.trace in rows:
                    raise ValueError(f"trace {shown(row.trace)} already has a row")
                rows[row.trace] = row
            return list(rows.values())
        except (csv.Error, ValueError) as exc:
            raise MalformedRecord(f"report {path} line {reader.line_num}: {exc}",
                                  reader.line_num) from exc


def write_metrics_json(path, report: MetricsReport) -> None:
    with _writing(path) as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_heatmap_csv(path, level_samples) -> None:
    """Level x 1-second-bucket matrix of mean level entropy.

    ``level_samples`` are (level_id, window_start_seconds, entropy) triples,
    typically pooled across every trace of a run. The columns are the buckets
    that hold at least one sample, in ascending order; a bucket no level
    sampled has no column. Cells with no samples stay blank.
    """
    cells: dict[tuple[str, int], list[float]] = {}
    for level_id, window_start, value in level_samples:
        cells.setdefault((level_id, int(window_start // 1.0)), []).append(value)

    levels = sorted({key[0] for key in cells})
    buckets = sorted({key[1] for key in cells})
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level"] + [str(b) for b in buckets])
        for level_id in levels:
            row = [level_id]
            for bucket in buckets:
                values = cells.get((level_id, bucket))
                row.append(f"{sum(values) / len(values):.6f}" if values else "")
            writer.writerow(row)
