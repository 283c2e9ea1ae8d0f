import json
import subprocess
import sys

import pytest

from entwatch.entropy import histogram_from_bytes
from entwatch.traces import EventRecord, Trace, TraceMeta, write_trace

CLI = [sys.executable, "-m", "entwatch"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def assert_one_error_line(res):
    """Exit status 1 with a single ``error:`` line on stderr, not a traceback."""
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


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

    def test_prints_per_level_counts(self, workspace, tmp_path):
        res = run_cli("profile", str(workspace / "ben0.jsonl"),
                      "--out", str(tmp_path / "p.json"), "--frozen-clock")
        assert res.returncode == 0
        assert "fs-user" in res.stdout and "deviation samples" in res.stdout

    def test_ransomware_input_rejected(self, workspace, tmp_path):
        res = run_cli("profile", str(workspace / "rw.jsonl"),
                      "--out", str(tmp_path / "p.json"))
        assert res.returncode == 2

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
        out = tmp_path / "run"
        cfg = {
            "detector": {"posterior_threshold": 0.9, "kl_threshold": 1.0},
            "baseline_path": str(workspace / "base.json"),
            "inputs": [str(workspace / "rw.jsonl")],
            "report_dir": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_cli("detect", "--config", str(cfg_path), "--frozen-clock")
        assert res.returncode == 0, res.stderr
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("config", [
        {"detector": {"kl_threshold": float("nan")}},
        {"detector": {"window_seconds": float("nan")}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem",
                                   "weight": float("nan")}]}},
        {"detector": {"convexity_run": 3.0}},
        {"detector": {"convexity_run": True}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0}],
                       "normalize": "false"}},
        {"detector": {"kl_threshold": True}},
        {"detector": {"posterior_threshold": True}},
        {"detector": {"window_seconds": True}},
        {"detector": {"outlier_weight": True}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": True}]}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0,
                                   "path_patterns": "/etc/**"}]}},
        {"detector": {"kl_treshold": 9.0}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0}],
                       "normalise": False}},
        {"hierarchy": {"levels": [{"level_id": "fs", "kind": "filesystem", "weight": 1.0,
                                   "path_pattern": ["/etc/**"]}]}},
        {"detectors": {"kl_threshold": 9.0}},
        {"inputs": "b.jsonl"},
        {"hierarchy": {"levels": [{"level_id": 5, "kind": "filesystem", "weight": 1.0}]}},
        {"baseline_path": 5},
    ], ids=["kl_threshold", "window_seconds", "level_weight", "convexity_run_float",
            "convexity_run_bool", "normalize_string", "kl_threshold_bool",
            "posterior_threshold_bool", "window_seconds_bool", "outlier_weight_bool",
            "level_weight_bool", "path_patterns_string", "detector_unknown_key",
            "hierarchy_unknown_key", "level_unknown_key", "top_level_unknown_key",
            "inputs_string", "level_id_not_string", "baseline_path_not_string"])
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
        big = {"0": 6_000_000_000_000_000_000, "1": 1}
        records = [{"timestamp": t, "source_path": "/home/u/x", "op": "write",
                    "bytes": 6_000_000_000_000_000_001, "histogram": big} for t in (0.1, 0.2)]
        bad = tmp_path / "overflow.jsonl"
        meta = json.dumps({"scenario": "benign_edit", "seed": 0, "label": "benign"})
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

    def test_unwritable_report_dir_is_one_error_line(self, workspace, tmp_path):
        blocker = tmp_path / "x.jsonl"
        blocker.write_text("")
        res = run_cli("detect", str(workspace / "ben0.jsonl"), "--baseline",
                      str(workspace / "base.json"), "--out", str(blocker / "sub"))
        assert_one_error_line(res)

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        res = run_cli("detect", "--config", str(cfg_path))
        assert res.returncode == 2


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


GOOD_REPORT = "trace,label,verdict,confidence,latency_ms\na.jsonl,ransomware,ransomware,0.9,12.5\n"
BAD_REPORTS = {
    "confidence_not_number": GOOD_REPORT + "b.jsonl,benign,benign,abc,\n",
    "confidence_nan": GOOD_REPORT + "b.jsonl,benign,benign,nan,\n",
    "verdict_unknown": GOOD_REPORT + "b.jsonl,benign,maybe,0.5,\n",
    "latency_column_missing": "trace,label,verdict,confidence\nb.jsonl,benign,benign,0.5\n",
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
