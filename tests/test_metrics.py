import random
import re

import pytest

from entwatch.errors import IoFailure, MalformedRecord
from entwatch.metrics import (
    MetricsReport,
    PerTraceRow,
    compute_metrics,
    read_report_csv,
    write_heatmap_csv,
    write_metrics_json,
    write_report_csv,
)


def row(label, verdict, latency=None, trace="t", confidence=0.5):
    return PerTraceRow(trace, label, verdict, confidence, latency)


class TestComputeMetrics:
    def test_all_benign_correct(self):
        rows = [row("benign", "benign") for _ in range(5)]
        report = compute_metrics(rows)
        assert report.accuracy == 1.0
        assert report.fpr == 0.0
        assert report.fnr == 0.0
        assert report.mean_latency_ms is None

    def test_confusion_arithmetic(self):
        rows = (
            [row("ransomware", "ransomware", latency=100.0)] * 9
            + [row("ransomware", "benign")]
            + [row("benign", "ransomware")]
            + [row("benign", "benign")] * 9
        )
        report = compute_metrics(rows)
        assert report.accuracy == pytest.approx(0.90)
        assert report.fpr == pytest.approx(0.10)
        assert report.fnr == pytest.approx(0.10)

    def test_single_true_positive_latency(self):
        report = compute_metrics([row("ransomware", "ransomware", latency=390.0)])
        assert report.mean_latency_ms == pytest.approx(390.0)

    def test_order_invariance(self):
        rows = (
            [row("ransomware", "ransomware", latency=100.0)] * 4
            + [row("ransomware", "benign")] * 2
            + [row("benign", "benign")] * 6
            + [row("benign", "ransomware")] * 1
        )
        shuffled = rows[:]
        random.Random(7).shuffle(shuffled)
        a, b = compute_metrics(rows), compute_metrics(shuffled)
        assert (a.accuracy, a.fpr, a.fnr, a.mean_latency_ms) == (b.accuracy, b.fpr, b.fnr, b.mean_latency_ms)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="metrics need at least one per-trace row"):
            compute_metrics([])

    def test_unknown_labels_and_errors_excluded(self):
        rows = [
            row("benign", "benign"),
            row(None, "ransomware"),
            row("ransomware", "error"),
        ]
        report = compute_metrics(rows)
        assert report.accuracy == 1.0
        assert len(report.per_trace) == 3

    def test_latency_only_over_true_positives(self):
        rows = [
            row("ransomware", "ransomware", latency=100.0),
            row("benign", "ransomware", latency=999.0),  # FP latencies ignored
        ]
        assert compute_metrics(rows).mean_latency_ms == pytest.approx(100.0)


class TestReportFiles:
    def test_report_csv_round_trip(self, tmp_path):
        rows = [
            PerTraceRow("a.jsonl", "ransomware", "ransomware", 0.987654, 1000.0),
            PerTraceRow("b.jsonl", "benign", "benign", 0.125, None),
            PerTraceRow("c", None, "error", 0.0, None),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        loaded = read_report_csv(path)
        assert [r.trace for r in loaded] == ["a.jsonl", "b.jsonl", "c"]
        assert loaded[0].latency_ms == pytest.approx(1000.0)
        assert loaded[1].label == "benign"
        assert loaded[2].label is None
        assert all(r.top_outlier is None for r in loaded)  # no column holds it
        header = path.read_text().splitlines()[0]
        assert header == "trace,label,verdict,confidence,latency_ms"

    def test_metrics_json_mirrors_report(self, tmp_path):
        import json

        report = compute_metrics([row("benign", "benign", trace="x"),
                                  PerTraceRow("y", "benign", "benign", 0.5, None, 0.25)],
                                 wall_time_ms=12.5, peak_rss_estimate=1024)
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report)
        doc = json.loads(path.read_text())
        assert doc["accuracy"] == 1.0
        assert doc["fpr"] == 0.0
        assert doc["wall_time_ms"] == 12.5
        assert doc["peak_rss_estimate"] == 1024
        assert doc["per_trace"][0]["trace"] == "x"
        assert [r["top_outlier"] for r in doc["per_trace"]] == [None, 0.25]

    def test_metric_identities_recomputable_from_rows(self, tmp_path):
        rows = (
            [row("ransomware", "ransomware", latency=50.0, trace=f"r{i}") for i in range(3)]
            + [row("benign", "benign", trace=f"b{i}") for i in range(5)]
            + [row("benign", "ransomware", trace="fp")]
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, rows)
        recomputed = compute_metrics(read_report_csv(path))
        original = compute_metrics(rows)
        assert recomputed.accuracy == pytest.approx(original.accuracy)
        assert recomputed.fpr == pytest.approx(original.fpr)
        assert recomputed.fnr == pytest.approx(original.fnr)

    def test_heatmap_matrix(self, tmp_path):
        samples = [
            ("fs-user", 0.0, 4.0),
            ("fs-user", 0.5, 5.0),
            ("fs-user", 2.0, 6.0),
            ("net", 1.0, 1.5),
        ]
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, samples)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,0,1,2"
        assert lines[1] == "fs-user,4.500000,,6.000000"
        assert lines[2] == "net,,1.500000,"

    def test_heatmap_skips_seconds_without_samples(self, tmp_path):
        samples = [("net", 1e5, 2.0), ("fs-user", 3.25, 4.0), ("fs-user", 1e5 + 0.5, 6.0)]
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, samples)
        assert path.read_text().splitlines() == [
            "level,3,100000",
            "fs-user,4.000000,6.000000",
            "net,,2.000000",
        ]


@pytest.mark.parametrize("field, value", [
    ("trace", 5),
    ("label", "unknown"),
    ("label", "maybe"),
    ("verdict", "maybe"),
    ("verdict", None),
    ("confidence", float("nan")),
    ("confidence", 1.5),
    ("confidence", -0.1),
    ("confidence", True),
    ("confidence", "0.5"),
    ("latency_ms", -1.0),
    ("latency_ms", float("inf")),
    ("latency_ms", float("nan")),
    ("latency_ms", True),
    ("top_outlier", 1.5),
    ("top_outlier", float("nan")),
    ("top_outlier", True),
])
def test_row_rejects_bad_field(field, value):
    fields = {"trace": "t", "label": "benign", "verdict": "benign", "confidence": 0.5,
              "latency_ms": None, "top_outlier": None}
    with pytest.raises(ValueError, match=field):
        PerTraceRow(**{**fields, field: value})


@pytest.mark.parametrize("line", [
    "b,benign,benign,abc,",
    "b,benign,benign,nan,",
    "b,benign,maybe,0.5,",
    "b,benign,benign,0.5,-3",
    "b,benign,benign,0.5",
    "a,benign,ransomware,0.95,",
], ids=["confidence_text", "confidence_nan", "verdict", "latency_negative", "field_count",
        "repeated_trace"])
def test_bad_report_row_names_its_line(tmp_path, line):
    path = tmp_path / "report.csv"
    write_report_csv(path, [row("benign", "benign", trace="a")])
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(MalformedRecord, match="^report .* line 3: "):
        read_report_csv(path)


def test_report_header_must_match(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("trace,label,verdict,confidence\nb,benign,benign,0.5\n")
    with pytest.raises(MalformedRecord, match="line 1"):
        read_report_csv(path)


def test_report_of_no_row_names_the_file(tmp_path):
    # No metrics can be computed from it; the error is the file's, not compute_metrics'.
    path = tmp_path / "report.csv"
    write_report_csv(path, [])
    with pytest.raises(MalformedRecord, match=f"report {re.escape(str(path))} line 1: "
                                              "metrics need at least one per-trace row"):
        read_report_csv(path)


def test_missing_report_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_report_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("write", [
    lambda path: write_report_csv(path, [row("benign", "benign")]),
    lambda path: write_metrics_json(path, compute_metrics([row("benign", "benign")])),
    lambda path: write_heatmap_csv(path, [("fs-user", 0.0, 4.0)]),
], ids=["report_csv", "metrics_json", "heatmap_csv"])
def test_unwritable_report_path_is_io_failure(tmp_path, write):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(IoFailure):
        write(blocker / "out")
