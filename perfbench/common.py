"""Helpers shared by the untraced and traced runs: paths, inputs, CLI runs, stats."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Generous per-command limit; a run as a whole must end within 180 s.
CLI_TIMEOUT_S = 150.0


def cli_env() -> dict:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    return env


@dataclass(frozen=True)
class CliRun:
    returncode: int
    start: float  # perf_counter at launch and at exit
    end: float
    peak_rss_mb: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_cli(args: list[str], workdir: Path) -> CliRun:
    """Run `python -m entwatch ARGS` to completion; wall time and the child's own peak RSS.

    The child is reaped with wait4 so its resource usage is its own, not the
    maximum over every child this process ever had.
    """
    out_path, err_path = workdir / "cli.stdout", workdir / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "entwatch", *args],
                                stdout=out, stderr=err, env=cli_env(), cwd=workdir)
        reaped = {}

        def reap():
            reaped["wait4"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        reaper = threading.Thread(target=reap)
        reaper.start()
        try:
            reaper.join(CLI_TIMEOUT_S)
        finally:  # on timeout or interrupt, the child does not outlive this call
            if reaper.is_alive():
                proc.kill()
                reaper.join()
        _, status, usage = reaped["wait4"]
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        returncode=proc.returncode,
        start=start,
        end=reaped["end"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def generate_inputs(specs, directory: Path) -> tuple[list[str], int, float]:
    """Simulate and write each trace; (paths, record count, simulate+write seconds)."""
    from entwatch.simulate import ScenarioSpec, simulate_scenario
    from entwatch.traces import write_trace

    directory.mkdir(parents=True, exist_ok=True)
    paths, records, busy = [], 0, 0.0
    for spec in specs:
        path = directory / spec.filename
        start = time.perf_counter()
        trace = simulate_scenario(ScenarioSpec(spec.kind, spec.seed, duration=spec.duration))
        write_trace(trace, path)
        busy += time.perf_counter() - start
        paths.append(str(path))
        records += len(trace.records)
    return paths, records, busy


def write_meta_only_trace(path: Path) -> None:
    """A trace holding only its metadata line: detect on it costs set-up alone."""
    from entwatch.traces import Trace, TraceMeta, write_trace

    write_trace(Trace(TraceMeta(scenario="benign_edit", seed=0, label="benign"), ()), path)


def read_report(path: Path) -> list[dict]:
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples) -> tuple[float, float, int]:
    """(p50, p99, samples beyond p99) by nearest rank over the sorted samples."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, -(-99 * n // 100))  # ceil(0.99 n)
    return median(ordered), float(ordered[rank - 1]), n - rank


def machine() -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    return info


def emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Human-readable lines, the run record, then the result object as the last line."""
    for name, entry in {**metrics, **record.get("unbounded", {})}.items():
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:40s} {value} {entry['unit']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
