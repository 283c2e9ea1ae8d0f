"""Command-line surface: profile, detect, simulate, report.

Exit status contract: 0 for a clean run, 1 when the run completed but some
inputs failed, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from .baseline import DEFAULT_PRIOR, fit_baseline, load_profile, save_profile
from .config import load_run_config
from .detector import DetectorConfig
from .errors import (EntwatchError, ConfigError, InvalidSpec, IoFailure, MalformedRecord,
                     UnsupportedVersion, shown)
from .hierarchy import HierarchyConfig, default_hierarchy
from .metrics import (
    MetricsReport,
    PerTraceRow,
    VERDICT_ERROR,
    compute_metrics,
    read_report_csv,
    write_heatmap_csv,
    write_metrics_json,
    write_report_csv,
)
# Detection scores against the stored ``pipeline.ATTACK_MODEL`` and calls no
# fit; ``fit_attack_model`` stays bound here because perfbench wraps and calls
# it by this module's name.
from .pipeline import TraceProcessor, collect_trace_deviations, fit_attack_model
from .simulate import (DEFAULT_DURATION, DEFAULT_RAMP, DEFAULT_TARGET_DIRS, SCENARIO_KINDS,
                       ScenarioSpec, simulate_scenario)
from .traces import BENIGN, MAX_CHUNK_BYTES, ScanFaults, iter_trace, scan_directory, write_trace

DEFAULT_CHUNK_BYTES = 4096


def _peak_rss_bytes() -> int:
    try:
        import resource
    except ImportError:
        return 0
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # ru_maxrss is bytes on macOS and kilobytes elsewhere (Linux, the BSDs).
    return peak if sys.platform == "darwin" else peak * 1024


def _chunk_bytes(text: str) -> int:
    """argparse type for a chunk size: an integer from 1 to ``MAX_CHUNK_BYTES``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_CHUNK_BYTES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CHUNK_BYTES}, got {shown(value)}")
    return value


def _probability(text: str) -> float:
    """argparse type for a probability: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create report directory {path}: {exc}") from exc


def _unusable_inputs(args) -> bool:
    """True, with one line on stderr naming them, when some of the inputs do
    not exist, or else when some path is given twice: after ``realpath``, so a
    file is not read, fitted or reported twice under two spellings."""
    missing = [p for p in args.inputs if not os.path.exists(p)]
    if missing:
        print(f"{args.command}: inputs do not exist: {', '.join(missing)}", file=sys.stderr)
        return True
    seen: dict[str, str] = {}  # real path -> the input's first spelling
    repeated: dict[str, None] = {}  # first spellings, in order
    for p in args.inputs:
        real = os.path.realpath(p)
        if real in seen:
            repeated[seen[real]] = None
        else:
            seen[real] = p
    if repeated:
        print(f"{args.command}: inputs given more than once: {', '.join(repeated)}",
              file=sys.stderr)
    return bool(repeated)


def _load_config(args) -> tuple[HierarchyConfig, DetectorConfig]:
    """The run's hierarchy and detector: from ``--config``, else the defaults."""
    if args.config:
        return load_run_config(args.config)
    return default_hierarchy(), DetectorConfig()


def _input_records(path: str, chunk_bytes: int):
    """(label, onset_at, lazy record iterator, ScanFaults or None) for one input.

    A directory's faults are listed as its records are read; a trace file has none.
    """
    if os.path.isdir(path):
        records, faults = scan_directory(path, chunk_bytes)
        return None, None, records, faults
    meta, records = iter_trace(path)
    return meta.label, meta.onset_at, records, None


def _report_scan_faults(command: str, path: str, faults: ScanFaults | None) -> None:
    """One stderr line each for the unreadable files under a directory input,
    counted, and for those read only in part, named; printed once its records are read."""
    if faults is None:
        return
    if faults.unreadable:
        print(f"{command}: skipped {len(faults.unreadable)} unreadable files under {path}",
              file=sys.stderr)
    if faults.partial:
        print(f"{command}: read in part under {path}: {', '.join(faults.partial)}",
              file=sys.stderr)


def _summary(report: MetricsReport) -> str:
    """The run's rates and mean latency, as ``detect`` and ``report`` print them."""
    latency = "n/a" if report.mean_latency_ms is None else f"{report.mean_latency_ms:.0f}ms"
    return (f"accuracy={report.accuracy:.3f} fpr={report.fpr:.3f} fnr={report.fnr:.3f} "
            f"mean_latency={latency}")


def cmd_profile(args) -> int:
    if _unusable_inputs(args):
        return 2
    hierarchy, detector = _load_config(args)

    pooled: dict[str, list[float]] = {}
    for path in sorted(args.inputs):
        try:
            label, onset, records, faults = _input_records(path, args.chunk_bytes)
            if label is not None and label != BENIGN:
                print(f"profile: input {path} is labeled {label}, profiling needs benign inputs",
                      file=sys.stderr)
                return 2
            per_level = collect_trace_deviations(records, hierarchy, detector)
        # These name a line or a source of the input, not the input itself.
        except MalformedRecord as exc:
            raise MalformedRecord(f"input {path}: {exc}", exc.line_number) from exc
        except UnsupportedVersion as exc:
            raise UnsupportedVersion(f"input {path}: {exc}") from exc
        _report_scan_faults("profile", path, faults)
        for level_id, devs in per_level.items():
            pooled.setdefault(level_id, []).extend(devs)

    profile = fit_baseline(
        pooled,
        prior=args.prior,
        created_at=0.0 if args.frozen_clock else None,
        inputs=tuple(sorted(args.inputs)),
    )
    save_profile(profile, args.out)
    for level_id in sorted(profile.sample_counts):
        print(f"level {level_id}: {profile.sample_counts[level_id]} deviation samples")
    print(f"profile written to {args.out}")
    return 0


def cmd_detect(args) -> int:
    if _unusable_inputs(args):
        return 2
    hierarchy, detector = _load_config(args)
    profile = load_profile(args.baseline)
    level_ids = [lvl.level_id for lvl in hierarchy.levels]
    if profile.per_level.keys().isdisjoint(level_ids):
        # No source would have a baseline, so none would ever be scored.
        print(f"detect: the hierarchy's levels ({', '.join(level_ids)}) share none with "
              f"the profile's ({', '.join(sorted(profile.per_level))})", file=sys.stderr)
        return 2
    _make_out_dir(args.out)

    started = time.perf_counter()
    rows: list[PerTraceRow] = []
    level_samples: list[tuple[str, float, float]] = []
    failures = 0
    for path in sorted(args.inputs):
        try:
            label, onset, records, faults = _input_records(path, args.chunk_bytes)
            proc = TraceProcessor(
                hierarchy, detector, profile=profile,
                trace_name=path, label=label, onset_at=onset,
            )
            proc.process(records)
            _report_scan_faults("detect", path, faults)
            result = proc.finish()
            for alert in result.alerts:
                latency = "" if alert.latency_ms is None else f" latency_ms={alert.latency_ms:.0f}"
                print(
                    f"ALERT trace={path} source={alert.source_id} "
                    f"raised_at={alert.raised_at:.3f}s kl={alert.kl:.3f} "
                    f"posterior={alert.posterior:.4f}{latency}"
                )
            rows.append(PerTraceRow(path, result.label, result.verdict,
                                    result.confidence, result.latency_ms))
            level_samples.extend(result.level_samples)
        except EntwatchError as exc:
            print(f"detect: input {path} failed: {exc}", file=sys.stderr)
            rows.append(PerTraceRow(path, None, VERDICT_ERROR, 0.0, None))
            failures += 1

    wall_ms = 0.0 if args.frozen_clock else (time.perf_counter() - started) * 1000.0
    rss = 0 if args.frozen_clock else _peak_rss_bytes()
    report = compute_metrics(rows, wall_time_ms=wall_ms, peak_rss_estimate=rss)

    write_report_csv(os.path.join(args.out, "report.csv"), report.per_trace)
    write_metrics_json(os.path.join(args.out, "metrics.json"), report)
    write_heatmap_csv(os.path.join(args.out, "heatmap.csv"), level_samples)

    print(f"processed {len(rows)} inputs: {_summary(report)}")
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        kind=args.kind,
        seed=args.seed,
        duration=args.duration,
        file_count=args.file_count,
        target_dirs=args.target_dir or DEFAULT_TARGET_DIRS,
        ramp=(args.ramp_start, args.ramp_end),
    )
    trace = simulate_scenario(spec)
    write_trace(trace, args.out)
    onset = "none" if trace.meta.onset_at is None else f"{trace.meta.onset_at:.3f}s"
    print(f"wrote {len(trace.records)} records to {args.out} (onset_at={onset})")
    return 0


def cmd_report(args) -> int:
    rows = read_report_csv(args.report_csv)
    report = compute_metrics(rows)
    print(f"{_summary(report)} traces={len(rows)}")
    if args.out:
        _make_out_dir(args.out)
        write_metrics_json(os.path.join(args.out, "metrics.json"), report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwatch",
        description="Entropy-disruption detector for ransomware-like encryption behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="fit a baseline profile from benign traces or directories")
    p.add_argument("inputs", nargs="+", help="benign trace files or directories")
    p.add_argument("--out", required=True, help="profile output path")
    p.add_argument("--prior", type=_probability, default=DEFAULT_PRIOR,
                   help="prior attack probability, in [0, 1]")
    p.add_argument("--config", help="JSON file of hierarchy and detector settings")
    p.add_argument("--chunk-bytes", type=_chunk_bytes, default=DEFAULT_CHUNK_BYTES)
    p.add_argument("--frozen-clock", action="store_true", help="deterministic timestamps")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("detect", help="run detection over traces or directories")
    p.add_argument("inputs", nargs="+", help="trace files or directories")
    p.add_argument("--baseline", required=True, help="baseline profile path")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--config", help="JSON file of hierarchy and detector settings")
    p.add_argument("--chunk-bytes", type=_chunk_bytes, default=DEFAULT_CHUNK_BYTES)
    p.add_argument("--frozen-clock", action="store_true",
                   help="zero out wall time and RSS for byte-stable reports")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="generate a synthetic workload trace")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--duration", type=float, default=DEFAULT_DURATION)
    p.add_argument("--file-count", type=int, default=None)
    p.add_argument("--target-dir", action="append", default=None)
    p.add_argument("--ramp-start", type=float, default=DEFAULT_RAMP[0])
    p.add_argument("--ramp-end", type=float, default=DEFAULT_RAMP[1])
    p.add_argument("--out", required=True, help="trace output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="recompute metrics from an existing report.csv")
    p.add_argument("report_csv")
    p.add_argument("--out", help="directory for a recomputed metrics.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EntwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry of ``python -m entwatch`` and the ``entwatch``
    console script: ``main`` on ``sys.argv``, after ``gc.freeze()``.

    Freezing moves every object alive at this point, the import-time graphs
    of the interpreter, numpy and entwatch, into the collector's permanent
    generation, which no collection examines, the final ones at interpreter
    exit included. So the process neither walks those graphs in the full
    collections during ``main`` nor frees them one object at a time as it
    exits; their memory goes back with the process. The freeze comes before
    ``main``, not after it: what ``main`` creates stays in the young
    generations, so its cyclic garbage is still collected and finalized,
    and the exit still flushes streams and runs ``atexit`` handlers, which
    ``os._exit`` would skip. ``main`` freezes nothing itself, because tests
    and the benchmark call it in a process that lives on after it returns.
    """
    gc.freeze()
    return main()
