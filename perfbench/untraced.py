"""End-to-end run: `entwatch detect`/`profile` subprocesses plus a library pass, no tracing.

One client, closed loop, on one CPU. On a machine whose CPUs switch
speed under other tenants' load (see speed.py), no metric comes from one
contiguous stretch: a cycle has SLOTS slots; every slot runs a set-up probe,
its share of the workload's library passes and of the re-simulation and a
`profile`, and evenly spaced slots the workload's `detect` runs. Cycles repeat until the cycle boundary nearest ``seconds``.
A window's close time is its median over the run's library passes. Every
detect and profile runs with ``--frozen-clock`` so that their outputs
compare byte for byte.

Reported timings are expressed at a nominal CPU speed (speed.py); the
record keeps the raw ones.
"""

from __future__ import annotations

import filecmp
import json
import time
from pathlib import Path

from common import (
    generate_inputs, median, read_report, run_cli, tail_percentile, write_meta_only_trace,
)
from speed import Sampler, corrected, probe

SLOTS = 4


class LibraryPass:
    """Feeds every trace to TraceProcessor.process_record, one chunk of records per call.

    A call whose record lands in a later window than the previous record
    closes at least one window; it and finish() are timed, each right after
    a speed probe, as samples of that window close. After the last chunk,
    ``verdicts`` holds one verdict per trace and a new pass may start.
    """

    def __init__(self, traces, profile, attack_model, chunks: int):
        self.traces, self.profile, self.attack_model = traces, profile, attack_model
        self.chunks = chunks
        self.samples: dict[tuple[int, int], list[tuple[int, float]]] = {}  # -> (ns, probe s)
        self.per_trace_s: dict[str, list[float]] = {}
        self.verdicts: dict[str, str] = {}
        self._state = []

    def run_chunk(self, chunk: int) -> None:
        from entwatch.pipeline import TraceProcessor

        clock = time.perf_counter_ns
        if chunk == 0:
            self._state = [
                [TraceProcessor(profile=self.profile, attack_model=self.attack_model,
                                trace_name=name, label=trace.meta.label,
                                onset_at=trace.meta.onset_at), None, 0, 0]
                for name, trace in self.traces
            ]
        for t, ((name, trace), state) in enumerate(zip(self.traces, self._state)):
            proc, last, busy, closes = state
            records = trace.records
            window = proc.detector.window_seconds
            lo = len(records) * chunk // self.chunks
            hi = len(records) * (chunk + 1) // self.chunks
            for rec in records[lo:hi]:
                idx = int(rec.timestamp // window)
                closing = last is not None and idx > last
                speed = probe() if closing else 0.0
                start = clock()
                proc.process_record(rec)
                elapsed = clock() - start
                busy += elapsed
                if closing:
                    self.samples.setdefault((t, closes), []).append((elapsed, speed))
                    closes += 1
                last = idx
            if chunk == self.chunks - 1:
                speed = probe()
                start = clock()
                result = proc.finish()
                elapsed = clock() - start
                busy += elapsed
                self.samples.setdefault((t, closes), []).append((elapsed, speed))
                self.verdicts[name] = result.verdict
                key = f"{trace.meta.scenario}_{int(trace.meta.duration)}s"
                self.per_trace_s.setdefault(key, []).append(busy / 1e9)
            state[1:] = [last, busy, closes]

    def window_ms(self, at_nominal_speed: bool) -> list[float]:
        """Each window close's median time over the passes, in ms."""
        return [median(corrected(ns, p) if at_nominal_speed else ns for ns, p in v) / 1e6
                for v in self.samples.values()]


def run(workload, seed: int, seconds: float, work: Path) -> tuple[dict, bool, int, int, dict]:
    from entwatch.baseline import load_profile
    from entwatch.pipeline import fit_attack_model
    from entwatch.traces import read_trace

    problems: list[str] = []
    failed = attempted = 0
    detect_specs, heldout_specs = workload.inputs(seed)
    sampler = Sampler()

    # -- set-up (not part of the measured window) ---------------------------
    inputs, n_records, gen_s = generate_inputs(detect_specs, work / "inputs")
    heldout, n_heldout, _ = generate_inputs(heldout_specs, work / "heldout")
    baseline = work / "baseline.json"
    meta_only = work / "meta_only.jsonl"
    write_meta_only_trace(meta_only)
    setup_runs, detect_runs, profile_runs, sim_runs = [], [], [], []

    def cli(args):
        with sampler.running():
            return run_cli(args, work)

    def profile(out: Path):
        res = cli(["profile", *heldout, "--out", str(out), "--frozen-clock"])
        if res.returncode != 0:
            problems.append(f"profile exited {res.returncode}: {res.stderr.strip()[-300:]}")
        elif out != baseline and not filecmp.cmp(baseline, out, shallow=False):
            problems.append("frozen-clock profile output differs between runs")
        return res

    profile(baseline)
    traces = [(path, read_trace(path)) for path in inputs]
    library = LibraryPass(traces, load_profile(baseline), fit_attack_model(),
                          SLOTS // workload.library_passes)
    lib_verdicts = None

    def setup_probe():
        res = cli(["detect", str(meta_only), "--baseline", str(baseline),
                   "--out", str(work / "setup"), "--frozen-clock"])
        if res.returncode != 0:
            problems.append(f"set-up detect exited {res.returncode}: {res.stderr.strip()[-300:]}")
        setup_runs.append(res)

    def detect():
        nonlocal attempted, failed
        out = work / f"detect{len(detect_runs)}"
        res = cli(["detect", *inputs, "--baseline", str(baseline), "--out", str(out),
                   "--frozen-clock"])
        detect_runs.append((res, out))
        attempted += len(inputs)
        bad = _check_detect(res, out, inputs, detect_runs[0][1], problems)
        failed += len(inputs) if bad is None else len(bad)

    def simulate(slot: int):
        # Every SLOTS-th input, so each slot's share has the workload's mix of kinds.
        picked = list(range(slot % len(detect_specs), len(detect_specs), SLOTS))
        with sampler.running():
            start = time.perf_counter()
            paths, records, _ = generate_inputs([detect_specs[i] for i in picked], work / "resim")
            sim_runs.append((records, start, time.perf_counter()))
        if any(not filecmp.cmp(inputs[i], p, shallow=False) for i, p in zip(picked, paths)):
            problems.append("simulate output differs between runs of the same spec")

    # -- measured cycles -----------------------------------------------------
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for slot in range(SLOTS):
            setup_probe()
            library.run_chunk(slot % library.chunks)
            simulate(slot)
            if slot % (SLOTS // workload.detect_runs) == 0:
                detect()
            profile_runs.append(profile(work / "profile.json"))
        if lib_verdicts is None:
            lib_verdicts = dict(library.verdicts)
        elif library.verdicts != lib_verdicts:
            problems.append("library pass verdicts differ between cycles")
        cycles += 1
        # Stop at the cycle boundary nearest the deadline.
        now = time.perf_counter()
        if now + (now - cycle_start) / 2 >= deadline:
            break

    # detect verdicts must equal the library pass's verdicts
    first_report = {row["trace"]: row for row in read_report(detect_runs[0][1] / "report.csv")}
    mismatched = [name for name, v in lib_verdicts.items()
                  if first_report.get(name, {}).get("verdict") != v]
    if mismatched:
        problems.append(f"detect and library verdicts differ on {len(mismatched)} inputs")
        failed += len(mismatched)

    def timings(at_nominal_speed: bool) -> dict:
        def seconds_of(start, end):
            return sampler.corrected(start, end) if at_nominal_speed else end - start

        p50, p99, _ = tail_percentile(library.window_ms(at_nominal_speed))
        return {
            "detect_records_per_s":
                median(n_records / seconds_of(r.start, r.end) for r, _ in detect_runs),
            "window_close_ms_p50": p50,
            "window_close_ms_p99": p99,
            "profile_records_per_s":
                median(n_heldout / seconds_of(r.start, r.end) for r in profile_runs),
            "simulate_records_per_s": sum(n for n, _, _ in sim_runs)
                / sum(seconds_of(start, end) for _, start, end in sim_runs),
            "setup_s": median(seconds_of(r.start, r.end) for r in setup_runs),
        }

    quality = json.loads((detect_runs[0][1] / "metrics.json").read_text(encoding="utf-8"))
    units = {"detect_records_per_s": "records/s", "window_close_ms_p50": "ms",
             "window_close_ms_p99": "ms", "profile_records_per_s": "records/s",
             "simulate_records_per_s": "records/s", "setup_s": "s"}
    nominal = timings(at_nominal_speed=True)
    metrics = {name: {"value": nominal[name], "unit": units[name]} for name in units}
    metrics["detect_peak_rss_mb"] = {
        "value": median(r.peak_rss_mb for r, _ in detect_runs), "unit": "MB"}
    metrics["accuracy"] = {"value": quality["accuracy"], "unit": "ratio"}
    # Figures without a bound in BENCHMARK.json (see README.md for why).
    unbounded = {
        "fpr": {"value": quality["fpr"], "unit": "ratio"},
        "mean_alert_latency_ms": {"value": quality["mean_latency_ms"], "unit": "ms"},
        "failed_inputs_ratio": {"value": failed / attempted, "unit": "ratio"},
    }
    _, _, beyond = tail_percentile(library.window_ms(at_nominal_speed=False))
    record = {
        "inputs": len(inputs), "records": n_records, "heldout_records": n_heldout,
        "cycles": cycles, "detect_runs": len(detect_runs),
        "window_close_samples": len(library.samples), "window_close_beyond_p99": beyond,
        "unbounded": unbounded,
        "raw": timings(at_nominal_speed=False),
        "speed_probes": len(sampler.durations),
        "speed_probe_mean_us": sum(sampler.durations) / len(sampler.durations) * 1e6,
        "library_detect_s_per_trace": {k: median(v) for k, v in sorted(library.per_trace_s.items())},
        "setup_generate_s": gen_s,
        "problems": problems,
    }
    return record, not problems, attempted, failed, metrics


def _check_detect(res, out: Path, inputs, reference_dir: Path, problems) -> list[str] | None:
    """Inputs whose report row is missing or an error; None when the whole run failed."""
    if res.returncode != 0:
        problems.append(f"detect exited {res.returncode}: {res.stderr.strip()[-300:]}")
        return None
    for name in ("report.csv", "metrics.json"):
        if not filecmp.cmp(reference_dir / name, out / name, shallow=False):
            problems.append(f"frozen-clock {name} differs between detect runs")
            return None
    rows = {row["trace"]: row for row in read_report(out / "report.csv")}
    if len(rows) != len(inputs):
        problems.append(f"report.csv has {len(rows)} rows for {len(inputs)} inputs")
    bad = [p for p in inputs if p not in rows or rows[p]["verdict"] == "error"]
    if bad:
        problems.append(f"{len(bad)} inputs have no report row or an error row")
    return bad
