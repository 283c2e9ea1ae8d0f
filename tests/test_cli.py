import argparse
import ast
import gc
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entwatch
from entwatch.baseline import _checksum
from entwatch.cli import _chunk_bytes, main
from entwatch.config import load_run_config
from entwatch.detector import DetectorConfig
from entwatch.entropy import histogram_from_bytes
from entwatch.errors import ConfigError, shown
from entwatch.traces import EventRecord, Trace, TraceMeta, write_trace

CLI = [sys.executable, "-m", "entwatch"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def assert_one_error_line(res):
    """Exit status 1 with a single ``error:`` line on stderr, not a traceback."""
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


def write_far_trace(path, timestamp):
    """A benign format-2 trace of one write at ``timestamp``."""
    meta = {"format": 2, "scenario": "benign_edit", "seed": 0, "label": "benign"}
    record = {"timestamp": timestamp, "source_path": "/home/u/x", "op": "write", "bytes": 3,
              "histogram": [3] + [0] * 255}
    path.write_text(json.dumps(meta) + "\n" + json.dumps(record) + "\n")


# A one-symbol, a sparse, a full and an uneven histogram, each summing to 8 or more.
CYCLED_HISTOGRAMS = ([8] + [0] * 255, [1] * 8 + [0] * 248, [1] * 256, [2] + [1] * 200 + [0] * 55)


def spaced_records(gap, rounds=8):
    """Record lines for two sources, ``gap`` seconds apart in each, the second
    a quarter gap after the first, their histograms cycling so that their
    entropies and second differences change."""
    records = []
    for i in range(rounds):
        for shift, source in enumerate(("/home/u/a", "/home/u/b")):
            hist = CYCLED_HISTOGRAMS[i * (1 + 2 * shift) % 4]
            records.append({"timestamp": i * gap + shift * gap / 4, "source_path": source,
                            "op": "write", "bytes": sum(hist), "histogram": hist})
    return records


def write_records(path, records):
    meta = {"format": 2, "scenario": "benign_edit", "seed": 0, "label": "benign"}
    path.write_text("".join(json.dumps(line) + "\n" for line in [meta, *records]))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small simulated corpus plus a fitted profile, all via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    for i in range(4):
        res = run_cli("simulate", "--kind", "benign_edit", "--seed", str(6000 + i),
                      "--duration", "40", "--out", str(root / f"ben{i}.jsonl"))
        assert res.returncode == 0, res.stderr
    for name, kind, seed in (("rw", "ransomware", 6100), ("comp", "compressor", 6200)):
        res = run_cli("simulate", "--kind", kind, "--seed", str(seed),
                      "--duration", "40", "--out", str(root / f"{name}.jsonl"))
        assert res.returncode == 0, res.stderr
    res = run_cli("profile", *(str(root / f"ben{i}.jsonl") for i in range(4)),
                  "--out", str(root / "base.json"), "--frozen-clock")
    assert res.returncode == 0, res.stderr
    return root


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            res = run_cli("simulate", "--kind", "ransomware", "--seed", "7",
                          "--duration", "100", "--out", str(out))
            assert res.returncode == 0
            assert "onset_at=10.000s" in res.stdout
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        res = run_cli("simulate", "--kind", "nosuch", "--seed", "1",
                      "--out", str(tmp_path / "x.jsonl"))
        assert res.returncode == 2

    def test_default_ramp_in_metadata(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run_cli("simulate", "--kind", "ransomware", "--seed", "3", "--out", str(out))
        meta = json.loads(out.read_text().splitlines()[0])
        assert meta["ramp"] == [2.1, 7.8]

    def test_invalid_ramp_is_usage_error(self, tmp_path):
        res = run_cli("simulate", "--kind", "ransomware", "--seed", "3",
                      "--ramp-start", "9.0", "--out", str(tmp_path / "x.jsonl"))
        assert res.returncode == 2


class TestProfile:
    def test_zero_inputs_is_usage_error(self, tmp_path):
        res = run_cli("profile", "--out", str(tmp_path / "p.json"))
        assert res.returncode == 2

    def test_missing_input_is_usage_error_before_any_is_read(self, workspace, tmp_path):
        out = tmp_path / "p.json"
        res = run_cli("profile", str(workspace / "ben0.jsonl"), str(tmp_path / "nope.jsonl"),
                      str(tmp_path / "gone"), "--out", str(out))
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("profile: inputs do not exist:"), res.stderr
        assert "nope.jsonl" in lines[0] and "gone" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("timestamp, window_seconds", [(1e308, 0.5), (1.0, 1e-310)],
                             ids=["timestamp_1e308", "window_1e-310"])
    def test_window_index_past_float_range_is_one_error_line(self, tmp_path, timestamp,
                                                               window_seconds):
        trace = tmp_path / "far.jsonl"
        write_far_trace(trace, timestamp)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detector": {"window_seconds": window_seconds}}))
        out = tmp_path / "p.json"
        res = run_cli("profile", str(trace), "--config", str(cfg_path), "--out", str(out))
        assert_one_error_line(res)
        assert f"/home/u/x at {timestamp}s" in res.stderr
        assert "past the float range" in res.stderr
        assert not out.exists()

    def test_window_index_of_2_51_or_more_is_one_error_line(self, tmp_path):
        # 1.0 / 1e-171 is finite, but past 2**51 its window would end before the record.
        trace = tmp_path / "far.jsonl"
        write_far_trace(trace, 1.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detector": {"window_seconds": 1e-171}}))
        out = tmp_path / "p.json"
        res = run_cli("profile", str(trace), "--config", str(cfg_path), "--out", str(out))
        assert_one_error_line(res)
        assert "/home/u/x at 1.0s" in res.stderr and "2**51" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("fault, words", [
        ("record", "line 2: invalid event record"),
        ("version", "trace format 99 is not supported"),
    ])
    def test_malformed_input_is_named_in_its_error_line(self, workspace, tmp_path, fault, words):
        lines = (workspace / "ben0.jsonl").read_text().splitlines()
        if fault == "record":
            lines[1] = '{"timestamp": "x"}'
        else:
            lines[0] = lines[0].replace('"format":2', '"format":99')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.json"
        res = run_cli("profile", str(workspace / "ben1.jsonl"), str(bad), "--out", str(out))
        assert_one_error_line(res)
        assert f"input {bad}: {words}" in res.stderr
        assert not out.exists()

    def test_prints_per_level_counts(self, workspace, tmp_path):
        res = run_cli("profile", str(workspace / "ben0.jsonl"),
                      "--out", str(tmp_path / "p.json"), "--frozen-clock")
        assert res.returncode == 0
        assert "fs-user" in res.stdout and "deviation samples" in res.stdout

    def test_ransomware_input_rejected(self, workspace, tmp_path):
        res = run_cli("profile", str(workspace / "rw.jsonl"),
                      "--out", str(tmp_path / "p.json"))
        assert res.returncode == 2

    def test_input_without_deviations_writes_no_profile(self, workspace, tmp_path):
        from entwatch.baseline import _checksum

        meta_only = tmp_path / "meta_only.jsonl"
        write_trace(Trace(TraceMeta(scenario="benign_edit", seed=0, label="benign"), ()),
                    meta_only)
        out = tmp_path / "p.json"
        res = run_cli("profile", str(meta_only), "--out", str(out))
        assert_one_error_line(res)
        assert "no level has deviation samples" in res.stderr
        assert not out.exists()

        # A stored profile without levels is refused by detect as well.
        doc = json.loads((workspace / "base.json").read_text())
        doc.pop("crc32")
        doc["levels"] = []
        doc["crc32"] = _checksum(doc)
        out.write_text(json.dumps(doc))
        res = run_cli("detect", str(workspace / "rw.jsonl"), "--baseline", str(out),
                      "--out", str(tmp_path / "run"))
        assert_one_error_line(res)
        assert "at least one level" in res.stderr

    def test_deterministic_modulo_created_at(self, workspace, tmp_path):
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for p in paths:
            res = run_cli("profile", str(workspace / "ben0.jsonl"), str(workspace / "ben1.jsonl"),
                          "--out", str(p))
            assert res.returncode == 0
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("created_at")
            doc.pop("crc32")
        assert docs[0] == docs[1]

    def test_frozen_clock_byte_identical(self, workspace, tmp_path):
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for p in paths:
            run_cli("profile", str(workspace / "ben0.jsonl"), "--out", str(p), "--frozen-clock")
        assert paths[0].read_bytes() == paths[1].read_bytes()


# A config file that sets a key the config no longer has, one per removed key.
REMOVED_KEY_CONFIGS = {
    "normalize": {"hierarchy": {"levels": [{"level_id": "fs-user", "kind": "filesystem",
                                            "weight": 1.0}], "normalize": True}},
    "outlier_weight": {"detector": {"outlier_weight": 0.2}},
    "baseline_path": {"baseline_path": "base.json"},
    "inputs": {"inputs": ["rw.jsonl"]},
    "report_dir": {"report_dir": "run"},
}


class TestDetect:
    def test_end_to_end(self, workspace, tmp_path):
        out = tmp_path / "run"
        res = run_cli("detect", str(workspace / "rw.jsonl"), str(workspace / "ben0.jsonl"),
                      str(workspace / "comp.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "ALERT" in res.stdout
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "trace,label,verdict,confidence,latency_ms"
        rows = {line.split(",")[0].rsplit("/", 1)[-1]: line.split(",") for line in lines[1:]}
        assert rows["rw.jsonl"][2] == "ransomware"
        assert rows["ben0.jsonl"][2] == "benign"
        assert rows["comp.jsonl"][2] == "benign"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] == 1.0
        assert metrics["fpr"] == 0.0
        assert (out / "heatmap.csv").read_text().startswith("level,")

    def test_frozen_clock_reports_are_byte_identical(self, workspace, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            res = run_cli("detect", str(workspace / "rw.jsonl"), str(workspace / "ben1.jsonl"),
                          "--baseline", str(workspace / "base.json"),
                          "--out", str(out), "--frozen-clock")
            assert res.returncode == 0
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
        assert (outs[0] / "metrics.json").read_bytes() == (outs[1] / "metrics.json").read_bytes()

    def test_missing_baseline_is_config_error(self, workspace, tmp_path):
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--out", str(tmp_path / "r"))
        assert res.returncode == 2

    def test_nonexistent_input_is_config_error(self, workspace, tmp_path):
        res = run_cli("detect", str(workspace / "nope.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "r"))
        assert res.returncode == 2

    def test_corrupt_input_gives_exit_one_and_error_row(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        good_lines = (workspace / "ben0.jsonl").read_text().splitlines()
        bad.write_text("\n".join(good_lines[:3]) + "\n{broken json\n")
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), str(workspace / "ben1.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        report = (out / "report.csv").read_text()
        assert "error" in report
        # The error row has no outlier score; the benign trace's many sources have one.
        rows = {row["trace"]: row for row in
                json.loads((out / "metrics.json").read_text())["per_trace"]}
        assert rows[str(bad)]["top_outlier"] is None
        assert 0.0 <= rows[str(workspace / "ben1.jsonl")]["top_outlier"] <= 1.0

    def test_directory_input_scans(self, workspace, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.txt").write_bytes(b"plain text content " * 50)
        out = tmp_path / "run"
        res = run_cli("detect", str(docs), "--baseline", str(workspace / "base.json"),
                      "--out", str(out), "--chunk-bytes", "256")
        assert res.returncode == 0
        assert "unknown" in (out / "report.csv").read_text()

    def test_config_file_drives_run(self, workspace, tmp_path):
        # The posterior is clamped at 1 - 1e-6, so no posterior reaches
        # this threshold: nothing is flagged only if the config was applied.
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detector": {"posterior_threshold": 0.9999999,
                                                     "kl_threshold": 0.5}}))
        res = run_cli("detect", str(workspace / "rw.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(out),
                      "--frozen-clock")
        assert res.returncode == 0, res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["benign"]

    @pytest.mark.parametrize("key", list(REMOVED_KEY_CONFIGS))
    def test_removed_key_is_usage_error(self, workspace, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(REMOVED_KEY_CONFIGS[key]))
        out = tmp_path / "run"
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 2, res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert repr(key) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"detector": {"kl_threshold": float("nan")}},
        {"detector": {"window_seconds": float("nan")}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem",
                                   "weight": float("nan")}]}},
        {"detector": {"convexity_run": 3.0}},
        {"detector": {"convexity_run": True}},
        {"detector": {"kl_threshold": True}},
        {"detector": {"posterior_threshold": True}},
        {"detector": {"window_seconds": True}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": True}]}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0,
                                   "path_patterns": "/etc/**"}]}},
        {"detector": {"kl_treshold": 9.0}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0}],
                       "normalise": False}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0,
                                   "path_pattern": ["/etc/**"]}]}},
        {"detectors": {"kl_threshold": 9.0}},
        {"hierarchy": {"levels": [{"level_id": 5, "kind": "filesystem", "weight": 1.0}]}},
    ], ids=["kl_threshold", "window_seconds", "level_weight", "convexity_run_float",
            "convexity_run_bool", "kl_threshold_bool", "posterior_threshold_bool",
            "window_seconds_bool", "level_weight_bool", "path_patterns_string",
            "detector_unknown_key", "hierarchy_unknown_key", "level_unknown_key",
            "top_level_unknown_key", "level_id_not_string"])
    def test_non_finite_config_is_usage_error(self, workspace, tmp_path, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))  # writes NaN, which json.load accepts
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "run"))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    def test_malformed_value_gives_error_row_not_traceback(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = (workspace / "ben0.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        record["timestamp"] = float("nan")
        lines[2] = json.dumps(record)
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), str(workspace / "ben1.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert [row.split(",")[2] for row in rows].count("error") == 1

    def test_non_utf8_record_gives_error_row_naming_its_line(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = (workspace / "ben0.jsonl").read_bytes().splitlines()
        lines[3] = lines[3].replace(b'"source_path":"', b'"source_path":"\xff', 1)
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), str(workspace / "ben1.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "line 4: record is not valid UTF-8" in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        verdicts = {row.split(",")[0].rsplit("/", 1)[-1]: row.split(",")[2] for row in rows}
        assert verdicts == {"bad.jsonl": "error", "ben1.jsonl": "benign"}

    def test_window_byte_overflow_gives_error_row_not_traceback(self, workspace, tmp_path):
        # Each record is valid alone; the source's window total passes 2^63.
        big = [6_000_000_000_000_000_000, 1] + [0] * 254
        records = [{"timestamp": t, "source_path": "/home/u/x", "op": "write",
                    "bytes": 6_000_000_000_000_000_001, "histogram": big} for t in (0.1, 0.2)]
        bad = tmp_path / "overflow.jsonl"
        meta = json.dumps({"format": 2, "scenario": "benign_edit", "seed": 0, "label": "benign"})
        bad.write_text("\n".join([meta] + [json.dumps(r) for r in records]) + "\n")
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), str(workspace / "ben1.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "/home/u/x" in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert [row.split(",")[2] for row in rows].count("error") == 1

    def test_zero_byte_first_record_keeps_every_row(self, workspace, tmp_path):
        # /home/u/never joins fs-user with no entropy sample; the window close
        # that samples /home/u/x must still compute the level mean.
        records = [
            EventRecord(0.5, "/home/u/never", "delete", histogram_from_bytes(b""), 0),
            EventRecord(1.5, "/home/u/x", "write", histogram_from_bytes(b"abc" * 20), 60),
            EventRecord(2.5, "/home/u/x", "write", histogram_from_bytes(b"abcd" * 20), 80),
        ]
        trace = tmp_path / "zero.jsonl"
        write_trace(Trace(TraceMeta("benign_edit", 0, "benign"), records), trace)
        out = tmp_path / "run"
        res = run_cli("detect", str(trace), str(workspace / "ben0.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[2] == "benign" for row in rows)

    def test_format_1_trace_gives_error_row_not_traceback(self, workspace, tmp_path):
        old = tmp_path / "v1.jsonl"
        old.write_text('{"scenario":"benign_edit","seed":0,"label":"benign"}\n'
                       '{"timestamp":0.500,"source_path":"/a","op":"write","bytes":3,'
                       '"histogram":{"97":3}}\n')
        out = tmp_path / "run"
        res = run_cli("detect", str(old), str(workspace / "ben1.jsonl"),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "trace format 1 is not supported" in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        verdicts = {row.split(",")[0].rsplit("/", 1)[-1]: row.split(",")[2] for row in rows}
        assert verdicts == {"v1.jsonl": "error", "ben1.jsonl": "benign"}

    def test_heatmap_has_columns_only_for_sampled_seconds(self, workspace, tmp_path):
        # Without a column per second up to the last window, a record at 1e6 s
        # cannot make the heatmap a million columns wide.
        records = [EventRecord(t, "/home/u/x", "write", histogram_from_bytes(b"abc" * 20), 60)
                   for t in (0.5, 1.5, 1e6)]
        trace = tmp_path / "late.jsonl"
        write_trace(Trace(TraceMeta("benign_edit", 0, "benign"), records), trace)
        out = tmp_path / "run"
        res = run_cli("detect", str(trace), "--baseline", str(workspace / "base.json"),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        header = (out / "heatmap.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "level" and 1 <= len(header) - 1 <= 3

    def test_unwritable_report_dir_is_one_error_line(self, workspace, tmp_path):
        blocker = tmp_path / "x.jsonl"
        blocker.write_text("")
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--baseline",
                      str(workspace / "base.json"), "--out", str(blocker / "sub"))
        assert_one_error_line(res)

    def test_bad_config_is_usage_error(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and "is not valid JSON" in lines[0], res.stderr

    @pytest.mark.parametrize("text", ["[" * 100000, '{"hierarchy": {"levels": ' + "[" * 100000],
                             ids=["top", "in_object"])
    def test_deeply_nested_config_is_usage_error(self, workspace, tmp_path, text):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text(text)
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "r"))
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr

    def test_profile_not_utf8_is_one_error_line(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--baseline", str(bad),
                      "--out", str(tmp_path / "r"))
        assert_one_error_line(res)
        assert "is not valid JSON: 'utf-8' codec can't decode" in res.stderr

    def test_deeply_nested_profile_is_one_error_line(self, workspace, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--baseline", str(deep),
                      "--out", str(tmp_path / "r"))
        assert_one_error_line(res)

    def test_level_weight_sum_past_float_range_is_usage_error(self, workspace, tmp_path):
        levels = [{"level_id": level_id, "kind": "filesystem", "weight": 1e308}
                  for level_id in ("a", "b")]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hierarchy": {"levels": levels}}))
        out = tmp_path / "run"
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 2, res.stderr
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert "finite sum, got inf" in lines[0]
        assert not out.exists()

    def test_window_index_past_float_range_gives_error_row(self, workspace, tmp_path):
        # 1e308 / 0.5 is past the float range, so the record has no window index.
        bad = tmp_path / "far.jsonl"
        write_far_trace(bad, 1e308)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detector": {"window_seconds": 0.5}}))
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), str(workspace / "ben1.jsonl"), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "/home/u/x at 1e+308s" in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        verdicts = {row.split(",")[0].rsplit("/", 1)[-1]: row.split(",")[2] for row in rows}
        assert verdicts == {"far.jsonl": "error", "ben1.jsonl": "benign"}

    def test_window_index_of_2_51_or_more_gives_error_row(self, workspace, tmp_path):
        bad = tmp_path / "far.jsonl"
        write_far_trace(bad, 1.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"detector": {"window_seconds": 1e-171}}))
        out = tmp_path / "run"
        res = run_cli("detect", str(bad), "--config", str(cfg_path),
                      "--baseline", str(workspace / "base.json"), "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "/home/u/x at 1.0s" in res.stderr
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["error"]


@pytest.mark.parametrize("command", ["profile", "detect"])
def test_unreadable_files_are_reported_after_their_input(workspace, tmp_path, monkeypatch,
                                                         capsys, command):
    import entwatch.errors
    from entwatch.cli import main

    docs = tmp_path / "docs"
    docs.mkdir()
    for name in ("a.txt", "b.txt", "c.txt"):
        (docs / name).write_bytes(name.encode() * 2000)
    unreadable = str(docs / "b.txt")

    def guarded_open(path, *args, **kwargs):
        if str(path) == unreadable:
            raise PermissionError(13, "Permission denied", unreadable)
        return open(path, *args, **kwargs)

    # A mode of 000 does not stop a root process from reading, so the open fails here.
    monkeypatch.setattr(entwatch.errors, "open", guarded_open, raising=False)
    args = ["--out", str(tmp_path / "out"), "--chunk-bytes", "64"]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    assert main([command, str(docs), *args]) == 0
    # The skipped list fills as the records are read: a line printed before
    # them would count no file.
    assert capsys.readouterr().err == f"{command}: skipped 1 unreadable files under {docs}\n"


@pytest.mark.parametrize("command", ["profile", "detect"])
@pytest.mark.parametrize("chunk_bytes", ["0", "-4096"])
def test_non_positive_chunk_bytes_is_usage_error(workspace, tmp_path, command, chunk_bytes):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_bytes(b"plain text content " * 50)
    args = ["--out", str(tmp_path / "out")]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, str(docs), *args, "--chunk-bytes", chunk_bytes)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--chunk-bytes" in res.stderr


@pytest.mark.parametrize("command", ["profile", "detect"])
@pytest.mark.parametrize("chunk_bytes", ["1073741825", "1000000000000000000",
                                         "100000000000000000000"])
def test_chunk_bytes_past_the_maximum_is_usage_error(workspace, tmp_path, command, chunk_bytes):
    # Read as one chunk, such a size ended in MemoryError or OverflowError
    # from the file read, with a traceback and exit 1.
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_bytes(b"plain text content " * 50)
    args = ["--out", str(tmp_path / "out")]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, str(docs), *args, "--chunk-bytes", chunk_bytes)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1] == (f"entwatch {command}: error: argument --chunk-bytes: "
                                           f"must be at most {2 ** 30}, got {chunk_bytes}")
    assert not (tmp_path / "out").exists()


def assert_one_short_usage_error(res, option):
    """Exit status 2 with one ``error:`` line, naming ``option``, under 300 characters."""
    assert res.returncode == 2
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}: " in errors[0], res.stderr[:1000]
    assert len(errors[0]) < 300, len(errors[0])


@pytest.mark.parametrize("command, option, text", [
    ("profile", "--chunk-bytes", "9" * 5000),
    ("detect", "--chunk-bytes", "9" * 5000),
    ("profile", "--prior", "x" * 5000),
    ("profile", "--prior", "1" * 5000),  # parses to inf
], ids=["profile_chunk_nines", "detect_chunk_nines", "prior_letters", "prior_ones"])
def test_long_rejected_argument_is_shown_cut(workspace, tmp_path, command, option, text):
    # The message once held the rejected text whole: about 5,250 characters.
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_bytes(b"plain text content " * 50)
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, str(docs), *args, option, text)
    assert_one_short_usage_error(res, option)
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "detect"])
def test_chunk_bytes_past_the_digit_limit_is_past_the_maximum(workspace, tmp_path, command):
    # int() refuses integer text of more than 4300 digits, and the text was
    # then called "not an integer".
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_bytes(b"plain text content " * 50)
    args = ["--out", str(tmp_path / "out")]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, str(docs), *args, "--chunk-bytes", "9" * 5000)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1] == (f"entwatch {command}: error: argument --chunk-bytes: "
                                           f"must be at most {2 ** 30}, got {shown('9' * 5000)}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, expected", [
    ("0" * 5000 + "64", 64),
    (" +" + "0" * 5000 + "1_024 ", 1024),
    ("9_" * 4400 + "9", f"must be at most {2 ** 30}, got "),
    ("-" + "9" * 5000, "must be at least 1, got "),
    ("0" * 5000, "must be at least 1, got "),
    ("9" * 5000 + "x", "not an integer: "),
    ("--" + "9" * 5000, "not an integer: "),
], ids=["leading_zeros", "sign_zeros_underscore", "underscores", "negative", "zeros",
        "trailing_letter", "two_signs"])
def test_chunk_bytes_reads_integer_text_of_any_length(text, expected):
    if isinstance(expected, int):
        assert _chunk_bytes(text) == expected
    else:
        with pytest.raises(argparse.ArgumentTypeError) as err:
            _chunk_bytes(text)
        assert str(err.value).startswith(expected) and len(str(err.value)) < 300


@pytest.mark.parametrize("command", ["profile", "detect"])
@pytest.mark.parametrize("spelling", ["same", "dot_dot", "symlink"])
def test_repeated_input_is_usage_error_and_writes_nothing(workspace, tmp_path, command,
                                                          spelling):
    # Read twice, the trace would be fitted on twice (and listed twice in the
    # profile's inputs) or reported in two rows and counted twice in the metrics.
    first = str(workspace / "ben0.jsonl")
    if spelling == "same":
        again = first
    elif spelling == "dot_dot":
        again = str(workspace / ".." / workspace.name / "ben0.jsonl")
    else:
        link = tmp_path / "link.jsonl"
        link.symlink_to(first)
        again = str(link)
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, first, str(workspace / "ben1.jsonl"), again, *args)
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"{command}: inputs given more than once: {first}"]
    assert res.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile", "detect"])
def test_empty_hierarchy_is_usage_error(workspace, tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hierarchy": {"levels": []}}))
    args = ["--out", str(tmp_path / "out"), "--config", str(cfg_path)]
    if command == "detect":
        args += ["--baseline", str(workspace / "base.json")]
    res = run_cli(command, str(workspace / "ben0.jsonl"), *args)
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert "at least one level" in res.stderr


def test_hierarchy_sharing_no_level_with_profile_is_usage_error(workspace, tmp_path):
    # The profile was fit under the default hierarchy, so its one level is
    # fs-user: under this config no source would have a baseline to score on.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hierarchy": {"levels": [
        {"level_id": "docs", "kind": "filesystem", "weight": 1.0, "path_patterns": ["/home/**"]},
    ]}}))
    out = tmp_path / "run"
    res = run_cli("detect", str(workspace / "rw.jsonl"), "--config", str(cfg_path),
                  "--baseline", str(workspace / "base.json"), "--out", str(out))
    assert res.returncode == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("detect:"), res.stderr
    assert "(docs)" in lines[0] and "(fs-user)" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("prior", ["2", "nan", "-0.5", "x"])
def test_prior_outside_unit_interval_is_usage_error(tmp_path, prior):
    # The input is not a trace: the prior is rejected before any input is read.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    out = tmp_path / "p.json"
    res = run_cli("profile", str(bad), "--out", str(out), "--prior", prior)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "--prior" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("gap", [1e-160, 1e-170])
def test_extreme_spacing_is_a_clean_run(workspace, tmp_path, gap):
    # Windows a tenth of the gap: every record closes one, and each source's
    # second differences divide by a squared gap that passes the float range
    # once inverted (1e-160) or underflows to 0 (1e-170).
    trace, cfg = tmp_path / "t.jsonl", tmp_path / "cfg.json"
    write_records(trace, spaced_records(gap))
    cfg.write_text(json.dumps({"detector": {"window_seconds": gap / 10}}))
    res = run_cli("detect", str(trace), "--config", str(cfg),
                  "--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def changed_profile(workspace, path, change):
    """The workspace profile with ``change`` made to its document, re-checksummed."""
    doc = json.loads((workspace / "base.json").read_text())
    del doc["crc32"]
    change(doc)
    doc["crc32"] = _checksum(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", ["profile_prior", "profile_sample_count", "empty_report",
                                  "config_value"])
def test_rejected_value_names_its_file(workspace, tmp_path, case):
    detect = ["detect", str(workspace / "ben0.jsonl"), "--out", str(tmp_path / "r")]
    if case == "profile_prior":
        path = changed_profile(workspace, tmp_path / "p.json", lambda doc: doc.update(prior=2.0))
        args, code = [*detect, "--baseline", str(path)], 1
        text = f"profile {path} has an invalid structure: prior must be in [0, 1], got 2.0"
    elif case == "profile_sample_count":
        path = changed_profile(workspace, tmp_path / "p.json",
                               lambda doc: doc["levels"][0].update(sample_count=-5))
        args, code = [*detect, "--baseline", str(path)], 1
        text = (f"profile {path} has an invalid structure: "
                "sample counts must be non-negative, got {'fs-user': -5}")
    elif case == "empty_report":
        path = tmp_path / "report.csv"
        path.write_text("trace,label,verdict,confidence,latency_ms\n")
        args, code = ["report", str(path)], 1
        text = f"report {path} line 1: metrics need at least one per-trace row"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"detector": {"window_seconds": -1.0}}))
        args, code = [*detect, "--baseline", str(workspace / "base.json"), "--config", str(path)], 2
        text = (f"config {path}: invalid detector config: "
                "window_seconds must be finite and positive, got -1.0")
    res = run_cli(*args)
    assert res.returncode == code
    assert res.stderr.splitlines() == [f"error: {text}"]
    assert not (tmp_path / "r").exists()


def powers_of_ten(low, high):
    """Floats m * 10**e, m in [1, 10) and e in [low, high]: spread over every magnitude."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(low, high))


HISTOGRAMS = st.one_of(
    st.integers(0, 255).map(lambda b: [0] * b + [5] + [0] * (255 - b)),
    st.lists(st.integers(1, 9), min_size=256, max_size=256),
    st.dictionaries(st.integers(0, 255), st.integers(1, 9), min_size=2, max_size=8)
    .map(lambda counts: [counts.get(b, 0) for b in range(256)]),
)


@st.composite
def traces(draw):
    """1 to 30 records over three sources, at a gap from 1e-170 s to 100 s, each
    gap that or twice it."""
    gap = draw(powers_of_ten(-170, 1).filter(lambda g: g <= 100.0))
    records, t = [], 0.0
    for _ in range(draw(st.integers(1, 30))):
        hist = draw(HISTOGRAMS)
        source = draw(st.sampled_from(["/home/u/a", "/home/u/b", "/home/u/c"]))
        records.append({"timestamp": t, "source_path": source, "op": "write",
                        "bytes": sum(hist), "histogram": hist})
        t += gap * draw(st.sampled_from([1.0, 1.0, 2.0]))
    return records


@settings(max_examples=50, deadline=None)
@given(records=traces(), window_seconds=powers_of_ten(-171, 2).filter(lambda w: w <= 1e3))
@example(records=spaced_records(1e-160), window_seconds=1e-161)
@example(records=spaced_records(1e-170), window_seconds=1e-171)
def test_detect_ends_in_an_exit_status(workspace, records, window_seconds):
    # Whatever the spacing and window, detect returns a status and raises nothing.
    with tempfile.TemporaryDirectory() as tmp:
        trace, cfg = Path(tmp) / "t.jsonl", Path(tmp) / "cfg.json"
        write_records(trace, records)
        cfg.write_text(json.dumps({"detector": {"window_seconds": window_seconds}}))
        status = main(["detect", str(trace), "--config", str(cfg), "--frozen-clock",
                       "--baseline", str(workspace / "base.json"), "--out", str(Path(tmp) / "r")])
    assert status in (0, 1, 2)


GOOD_REPORT = "trace,label,verdict,confidence,latency_ms\na.jsonl,ransomware,ransomware,0.9,12.5\n"
BAD_REPORTS = {
    "confidence_not_number": GOOD_REPORT + "b.jsonl,benign,benign,abc,\n",
    "confidence_nan": GOOD_REPORT + "b.jsonl,benign,benign,nan,\n",
    "verdict_unknown": GOOD_REPORT + "b.jsonl,benign,maybe,0.5,\n",
    "latency_column_missing": "trace,label,verdict,confidence\nb.jsonl,benign,benign,0.5\n",
    # One trace in two rows would be counted twice in the metrics.
    "repeated_trace": GOOD_REPORT + "a.jsonl,ransomware,benign,0.1,\n",
    "missing_file": None,
}


class TestReport:
    @pytest.mark.parametrize("name", sorted(BAD_REPORTS))
    def test_bad_report_is_one_error_line(self, tmp_path, name):
        path = tmp_path / "report.csv"
        if BAD_REPORTS[name] is not None:
            path.write_text(BAD_REPORTS[name])
        assert_one_error_line(run_cli("report", str(path)))

    def test_unwritable_out_dir_is_one_error_line(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(GOOD_REPORT)
        assert_one_error_line(run_cli("report", str(path), "--out", str(path / "sub")))

    def test_recompute_from_report_csv(self, workspace, tmp_path):
        out = tmp_path / "run"
        run_cli("detect", str(workspace / "rw.jsonl"), str(workspace / "ben0.jsonl"),
                "--baseline", str(workspace / "base.json"), "--out", str(out), "--frozen-clock")
        res = run_cli("report", str(out / "report.csv"), "--out", str(tmp_path / "re"))
        assert res.returncode == 0
        assert "accuracy=1.000" in res.stdout
        recomputed = json.loads((tmp_path / "re" / "metrics.json").read_text())
        original = json.loads((out / "metrics.json").read_text())
        assert recomputed["accuracy"] == original["accuracy"]
        assert recomputed["fpr"] == original["fpr"]
        # report.csv has no outlier column, so the recomputed rows carry none.
        assert all(row["top_outlier"] is not None for row in original["per_trace"])
        assert all(row["top_outlier"] is None for row in recomputed["per_trace"])


@pytest.mark.parametrize("template", ['{"detector": {"kl_threshold": @}}',
                                      '{"hierarchy": {"levels": [{"level_id": @}]}}'],
                         ids=["detector", "level"])
def test_config_nested_near_the_recursion_limit_is_config_error(tmp_path, template):
    # Whether the parse or a later step (the repr in an error message) meets
    # the limit, the config is refused with a ConfigError.
    cfg_path = tmp_path / "cfg.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 5):
        cfg_path.write_text(template.replace("@", "[" * depth + "]" * depth))
        with pytest.raises(ConfigError):
            load_run_config(cfg_path)


def test_detect_and_profile_load_no_random_generator(workspace, tmp_path):
    # Detection scores against the stored attack model, so neither command
    # simulates, and numpy.random (with what it imports) is never loaded.
    argv_detect = ["detect", str(workspace / "rw.jsonl"), "--baseline",
                   str(workspace / "base.json"), "--out", str(tmp_path / "run"), "--frozen-clock"]
    argv_profile = ["profile", str(workspace / "ben0.jsonl"), "--out", str(tmp_path / "p.json"),
                    "--frozen-clock"]
    code = ("import contextlib, io, sys\n"
            "from entwatch.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main({argv_detect!r}), main({argv_profile!r})]\n"
            "print(codes, sorted(m for m in ('numpy.random', 'secrets', 'hmac') "
            "if m in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[0, 0] []"


def test_readme_config_example_loads(tmp_path):
    # The README's --config example is a config file that loads as it stands,
    # so a key the config no longer has cannot stay in the docs.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(example)
    hierarchy, detector = load_run_config(cfg_path)
    assert detector == DetectorConfig()
    assert [lvl.level_id for lvl in hierarchy.levels] == ["fs-user", "fs-system", "net"]


def test_error_lines_show_bounded_values(workspace, tmp_path):
    # A huge value in a config, a profile or a trace line is shown cut short:
    # each message stays one short line.
    from entwatch.baseline import _checksum

    huge = list(range(200000))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"detector": {"kl_threshold": huge}}))
    doc = json.loads((workspace / "base.json").read_text())
    del doc["crc32"]
    doc["version"] = huge
    doc["crc32"] = _checksum(doc)
    profile = tmp_path / "huge_version.json"
    profile.write_text(json.dumps(doc))
    trace = tmp_path / "huge_op.jsonl"
    write_far_trace(trace, 1.0)
    meta, record = trace.read_text().splitlines()
    trace.write_text(meta + "\n" + record.replace('"write"', json.dumps("w" * 2 ** 20)) + "\n")
    base = ["--baseline", str(workspace / "base.json"), "--out", str(tmp_path / "r")]
    for args, code, text in [
        ([str(workspace / "ben0.jsonl"), "--config", str(cfg_path), *base], 2,
         "kl_threshold must be a number, got [0, 1, 2, 3, 4, 5, ...]"),
        ([str(workspace / "ben0.jsonl"), "--baseline", str(profile), "--out",
          str(tmp_path / "r")], 1, "profile version [0, 1, 2, 3, 4, 5, ...] is not supported"),
        ([str(trace), *base], 1, "unknown op 'wwwwwwwwww"),
    ]:
        res = run_cli("detect", *args)
        assert res.returncode == code, res.stderr
        (line,) = res.stderr.splitlines()
        assert text in line
        assert len(line.encode()) < 1024


@pytest.mark.parametrize("platform, scale", [("darwin", 1), ("linux", 1024), ("freebsd14", 1024)])
def test_peak_rss_is_bytes_on_every_platform(monkeypatch, platform, scale):
    # macOS reports ru_maxrss in bytes; Linux and the BSDs in kilobytes.
    resource = pytest.importorskip("resource")
    from entwatch import cli

    usage = type("Usage", (), {"ru_maxrss": 40_000})()
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: usage)
    assert cli._peak_rss_bytes() == 40_000 * scale


def test_run_freezes_before_main_and_main_freezes_nothing(monkeypatch, tmp_path):
    # The process entry freezes the import-time heap before main runs; main,
    # which tests and the benchmark call in a process that lives on, freezes nothing.
    from entwatch import cli

    before = gc.get_freeze_count()
    assert cli.main(["simulate", "--kind", "benign_edit", "--seed", "1", "--duration", "5",
                     "--out", str(tmp_path / "t.jsonl")]) == 0
    assert gc.get_freeze_count() == before

    seen = []

    def fake_main():
        seen.append(gc.get_freeze_count())
        return 3

    monkeypatch.setattr(cli, "main", fake_main)
    try:
        assert cli.run() == 3
    finally:
        gc.unfreeze()  # the test process gets its heap back
    assert len(seen) == 1 and seen[0] > before


def test_console_script_is_the_entry_that_dunder_main_calls():
    # pyproject.toml is read as text: tomllib is missing on Python 3.10.
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^entwatch = "(.+)"$', scripts, re.M)
    launcher = ast.parse(Path(entwatch.__file__).with_name("__main__.py").read_text(
        encoding="utf-8"))
    (exit_call,) = [node for node in ast.walk(launcher) if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "sys.exit"]
    called = exit_call.args[0].func.id
    (source,) = [f"{'entwatch.' * node.level}{node.module}:{alias.name}"
                 for node in ast.walk(launcher) if isinstance(node, ast.ImportFrom)
                 for alias in node.names if (alias.asname or alias.name) == called]
    assert target == source == "entwatch.cli:run"
