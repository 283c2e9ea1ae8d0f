"""Golden outputs: a fixed simulate/profile/detect run must reproduce byte for byte.

The hashes below pin the frozen-clock outputs of the CLI on a small seeded
corpus, the trace files it simulates, and the fitted attack model. A second
detect over one wide trace (120 files, so clustering batches of up to 120
sources) pins the large-batch path of average linkage. The edge specs pin
the simulator's schedules away from the defaults: empty schedules, a single
file, custom directories and ramps, and durations off the 0.25 s event grid.
A refactor must leave all of them unchanged. A
deliberate behaviour change updates the hashes in the same change and says
so, with the old and new values, in a CHANGES.md line.
"""

import contextlib
import hashlib
import io

import pytest

from entwatch.cli import main
from entwatch.pipeline import fit_attack_model

SIMULATED = (
    ("benign_edit", 7000, "ben_7000.jsonl"),
    ("benign_edit", 7001, "ben_7001.jsonl"),
    ("benign_edit", 7002, "ben_7002.jsonl"),
    ("ransomware", 7010, "rw_7010.jsonl"),
    ("ransomware", 7011, "rw_7011.jsonl"),
    ("benign_edit", 7012, "ben_7012.jsonl"),
    ("compressor", 7013, "zip_7013.jsonl"),
)
WIDE_TRACE = ("--kind", "ransomware", "--seed", "7020", "--duration", "300",
              "--file-count", "120", "--out", "rw_wide_7020.jsonl")

GOLDEN = {
    "profile.json": "2d6861bd16c7a565fcaf001b46edefc12d43de62ed30e9527fdaf821aa34c1ea",
    "run/report.csv": "77ef33aaf16cc7637672c1232811f67d3a2ddfd84b6a1f52123bc91441ed946e",
    "run/metrics.json": "fd0ca11d2ff85d5d7925130dad0a108e885ffb020d98e4ad400eedaba3ad3b4f",
    "run/heatmap.csv": "eab42644230e2d0f3c862154d1d2c3d2985bc8a151dff039062abbe77ed84019",
    "wide/report.csv": "ff184b232b14a01287618cb06ffa981e4ec8de88b3c1be15f8322c015c7bbafb",
    "wide/metrics.json": "0d5d8709e0894e801ff612544968e9acd581d267ecc7e9a4e0da172c56df2672",
}
GOLDEN_TRACES = {
    "ben_7000.jsonl": "8f3827a0d71782e320438705aeab5da1489ebce399ba1695036288e1c73e5e50",
    "ben_7001.jsonl": "1d80f46144f1418bf1014f0ebfc590e571f2c1b9c90b5be7d717ce3b9d48342a",
    "ben_7002.jsonl": "d55b67cb0f0cd54bbc61a1c86c48b2962b3d0839ff887eb259c35af74ea77ba5",
    "rw_7010.jsonl": "4b6faa5572104ef7c9d27d957fd102c81cfea0acb51085e777aa17613ee9fba6",
    "rw_7011.jsonl": "1bb445776077f0ef4414c07d02c6cfeee970c0c42375abc4f650a4ec212bc475",
    "ben_7012.jsonl": "f64e25f30e8b81fa26476c4512727ff529a29ae0e2489e98ac9a1537fb161515",
    "zip_7013.jsonl": "9bb9ec61ad0f61853076e2b7c281ae30b5fa09cae82cecbcfbc458b8039c1ff5",
    "rw_wide_7020.jsonl": "3d4841b0eb2d27aa5f7e92c25619c21709bde78895c36e5f8114e8fd80b2fb19",
}
EDGE_DIRS = ("--target-dir", "/srv/a", "--target-dir", "/srv/b", "--target-dir", "/srv/c")
EDGE_SPECS = {  # name: (simulate arguments, sha256 of the trace file)
    "zip_header_only": (("--kind", "compressor", "--seed", "7101", "--duration", "0.5"),
                        "b28e21a6d4513ea1e7bd0b512f7a5fa9b33fad6ecad6a42eb9047b9ca5c63002"),
    "zip_off_grid": (("--kind", "compressor", "--seed", "7102", "--duration", "37.3"),
                     "fce6c6b2674b2defbd7e93761fcb852f0bf7de7fcb0f99cfacd03afaaf4ada19"),
    "ben_empty": (("--kind", "benign_edit", "--seed", "7103", "--duration", "0.05"),
                  "c95996340957a5ea107e7f8da7c17970a4c99cf4f597ade614948c0cde8d21e1"),
    "ben_one_file_dirs": (("--kind", "benign_edit", "--seed", "7104", "--duration", "13.7",
                           "--file-count", "1", *EDGE_DIRS),
                          "6613e0d6ee4a5f116e1100f072bdcf2626867df78b8579b7b1fca7aea57f0ce2"),
    "rw_empty": (("--kind", "ransomware", "--seed", "7105", "--duration", "0.2"),
                 "e7c3d03faf3f5afc9815905da2408b7a9876a190159be6ff878fb25d98e7a81f"),
    "rw_one_file": (("--kind", "ransomware", "--seed", "7106", "--duration", "0.3",
                     "--file-count", "1"),
                    "f0c0aeb9668386c303aed80ac3b3d668c9627249279a4bab69191a741fe4de6c"),
    "rw_dirs_ramp": (("--kind", "ransomware", "--seed", "7107", "--duration", "77.7",
                      "--file-count", "7", *EDGE_DIRS, "--ramp-start", "3.5", "--ramp-end", "6.0"),
                     "0ed0f510fded19d4f276f214016b8281b79f1d1ead3584b922e43be3a23bd6d3"),
    "rw_instant": (("--kind", "ransomware", "--seed", "7108", "--duration", "400",
                    "--file-count", "3", "--ramp-start", "7.8", "--ramp-end", "7.9"),
                   "be9def01640c93547d6df1d2c55a4cea751ac1b3bc2f4ddd415ce0e84cc74636"),
}
GOLDEN_DETECT_STDOUT = "2706cdeb63a6400c5d400937842a37f51d207574853f8d40dcbb52cafd854832"
GOLDEN_ATTACK_MODEL = "cf6b64df1c0bbe7401e1a749d80c4cafa9f9b554fc80ff0f980815b2e75134fe"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run the CLI in a fresh directory with relative names; returns (dir, detect stdout)."""
    root = tmp_path_factory.mktemp("golden")
    mp = pytest.MonkeyPatch()
    mp.chdir(root)
    try:
        for kind, seed, name in SIMULATED:
            assert main(["simulate", "--kind", kind, "--seed", str(seed), "--out", name]) == 0
        assert main(["profile", "ben_7000.jsonl", "ben_7001.jsonl", "ben_7002.jsonl",
                     "--out", "profile.json", "--frozen-clock"]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["detect", "rw_7010.jsonl", "rw_7011.jsonl", "ben_7012.jsonl",
                         "zip_7013.jsonl", "--baseline", "profile.json", "--out", "run",
                         "--frozen-clock"])
        assert code == 0
        assert main(["simulate", *WIDE_TRACE]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["detect", "rw_wide_7020.jsonl", "--baseline", "profile.json",
                         "--out", "wide", "--frozen-clock"]) == 0
    finally:
        mp.undo()
    return root, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frozen_clock_outputs_match_golden(golden_run, name):
    root, _ = golden_run
    assert sha256((root / name).read_bytes()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_simulated_trace_matches_golden(golden_run, name):
    root, _ = golden_run
    assert sha256((root / name).read_bytes()) == GOLDEN_TRACES[name]


def test_detect_stdout_matches_golden(golden_run):
    _, stdout = golden_run
    assert sha256(stdout.encode("utf-8")) == GOLDEN_DETECT_STDOUT


def test_attack_model_bins_match_golden():
    assert sha256(fit_attack_model().bins.tobytes()) == GOLDEN_ATTACK_MODEL


@pytest.mark.parametrize("name", sorted(EDGE_SPECS))
def test_edge_spec_trace_matches_golden(tmp_path, name):
    args, digest = EDGE_SPECS[name]
    out = tmp_path / f"{name}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *args, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest
