"""Golden outputs: a fixed simulate/profile/detect run must reproduce byte for byte.

The hashes below pin the frozen-clock outputs of the CLI on a small seeded
corpus, the trace files it simulates, and the attack model, both as fitted
and as stored. A second detect over one wide trace (120 files, so clustering
batches of up to 120 sources) pins the large-batch path of average linkage. The edge specs pin
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

from entwatch import cli, pipeline, simulate
from entwatch.baseline import load_profile
from entwatch.cli import main
from entwatch.entropy import ByteHistogram, shannon_entropy
from entwatch.pipeline import ATTACK_MODEL, fit_attack_model
from entwatch.traces import read_trace

from test_pipeline import assert_term_rows_are_kl_divergence_terms
from test_traces import line_path_reads

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
    "ben_7000.jsonl": "6fbd06ff7b5d7873a4045c127a1426dfcadeb1beede5028184865a97320b03c1",
    "ben_7001.jsonl": "0b8a3934116f638479a1b10e5f0eea1c7b13b6155ce3374d6fdce05403348f22",
    "ben_7002.jsonl": "b1f8f195617490de40a37d8dff2cb7c6a5caff23f415a73ca5515aa6b1cca577",
    "rw_7010.jsonl": "d2ab8fdafbe2476d2624db6650c5c0576a492e101f8d67cbe223501cd99ba557",
    "rw_7011.jsonl": "cf366166ce9454dcaf296118b1ca557e14641dbc556f8e64d65e5db1f6b202ec",
    "ben_7012.jsonl": "5bcbe131555c7b57d89fafba7c7d42f4a3218de50720a46215d233d6955ab83c",
    "zip_7013.jsonl": "b8e9c9d6d193c82a571b53fbc9632dd5bbff30d6258b35d8b851eb380a2759f6",
    "rw_wide_7020.jsonl": "402e28fb0f2f7f3978c9a481cdd9651c4d9727aa507c4553e1d66087042e6cb3",
}
EDGE_DIRS = ("--target-dir", "/srv/a", "--target-dir", "/srv/b", "--target-dir", "/srv/c")
EDGE_SPECS = {  # name: (simulate arguments, sha256 of the trace file)
    "zip_header_only": (("--kind", "compressor", "--seed", "7101", "--duration", "0.5"),
                        "c3da13e204ec829e19ed1b162edc6c19c7edabce925c8f08263d396da946942f"),
    "zip_off_grid": (("--kind", "compressor", "--seed", "7102", "--duration", "37.3"),
                     "aea8cb59d452188c7658ec129924a9bc0659fd746df2a68b3f4880e0b9523163"),
    "ben_empty": (("--kind", "benign_edit", "--seed", "7103", "--duration", "0.05"),
                  "3326c0c29d116848f09d257a6d2a37853bca5534c3aa25ba7635d366abf73e6e"),
    "ben_one_file_dirs": (("--kind", "benign_edit", "--seed", "7104", "--duration", "13.7",
                           "--file-count", "1", *EDGE_DIRS),
                          "d3c518aff1406c0f0ebbc6110a8eb52719a3edbedffceeb9b5c08be6a549fd16"),
    "rw_empty": (("--kind", "ransomware", "--seed", "7105", "--duration", "0.2"),
                 "64c79247f3bb9929744930df823a9ec5dc211299f9f9444fdb1058f8d86eaf69"),
    "rw_one_file": (("--kind", "ransomware", "--seed", "7106", "--duration", "0.3",
                     "--file-count", "1"),
                    "7e51803a5295348b04ab7f172402c37825d2b06a4e289f00b9ecfe22a7da9e90"),
    "rw_dirs_ramp": (("--kind", "ransomware", "--seed", "7107", "--duration", "77.7",
                      "--file-count", "7", *EDGE_DIRS, "--ramp-start", "3.5", "--ramp-end", "6.0"),
                     "07a3e037243120a97576cce1073156f37f52026dd8d234e42445e6b39a37fdda"),
    "rw_instant": (("--kind", "ransomware", "--seed", "7108", "--duration", "400",
                    "--file-count", "3", "--ramp-start", "7.8", "--ramp-end", "7.9"),
                   "a5b1bbcc5a6f769cbd0a7e84a26056f6cda178173bbebd1120adcf424288731c"),
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


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_simulated_trace_lines_take_the_block_path(golden_run, monkeypatch, name):
    # The writer's lines never need the per-line reading.
    root, _ = golden_run
    line_path = line_path_reads(monkeypatch)
    records = read_trace(root / name).records
    assert line_path == []
    assert len(records) == (root / name).read_bytes().count(b"\n") - 1


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_cached_entropies_are_the_computed_ones(golden_run, name):
    root, _ = golden_run
    records = read_trace(root / name).records
    cached = [r.histogram for r in records if r.histogram.entropy is not None]
    assert cached  # every golden trace has rows whose 256 counts are all non-zero
    for hist in cached:
        fresh = shannon_entropy(ByteHistogram.unchecked(hist.counts.copy(), hist.total))
        assert hist.entropy.hex() == fresh.hex()


def test_detect_stdout_matches_golden(golden_run):
    _, stdout = golden_run
    assert sha256(stdout.encode("utf-8")) == GOLDEN_DETECT_STDOUT


def test_detect_runs_no_simulator(golden_run, monkeypatch):
    # Detect scores against the stored attack model: with every binding of
    # the simulator refusing, it still reproduces the golden outputs.
    def refuse(spec):
        raise AssertionError(f"detect simulated {spec}")

    for module in (simulate, pipeline, cli):
        monkeypatch.setattr(module, "simulate_scenario", refuse)
    fit_attack_model.cache_clear()  # a cached fit would hide a call to the simulator
    root, _ = golden_run
    monkeypatch.chdir(root)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["detect", "rw_7010.jsonl", "rw_7011.jsonl", "ben_7012.jsonl",
                     "zip_7013.jsonl", "--baseline", "profile.json", "--out", "nosim",
                     "--frozen-clock"]) == 0
    assert sha256(buf.getvalue().encode("utf-8")) == GOLDEN_DETECT_STDOUT
    for name in ("report.csv", "metrics.json", "heatmap.csv"):
        assert sha256((root / "nosim" / name).read_bytes()) == GOLDEN[f"run/{name}"]


def test_golden_profile_term_rows_are_kl_divergence_terms(golden_run):
    root, _ = golden_run
    for q in load_profile(root / "profile.json").per_level.values():
        assert_term_rows_are_kl_divergence_terms(q)


def test_attack_model_bins_match_golden():
    assert sha256(fit_attack_model().bins.tobytes()) == GOLDEN_ATTACK_MODEL


def test_stored_attack_model_bins_match_golden():
    assert sha256(ATTACK_MODEL.bins.tobytes()) == GOLDEN_ATTACK_MODEL


@pytest.mark.parametrize("name", sorted(EDGE_SPECS))
def test_edge_spec_trace_matches_golden(tmp_path, name):
    args, digest = EDGE_SPECS[name]
    out = tmp_path / f"{name}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", *args, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest
