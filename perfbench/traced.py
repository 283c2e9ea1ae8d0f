"""Traced run: per-layer spans from wrappers installed around entwatch's public functions.

Nothing under src/ changes. ``pipeline`` and ``cli`` bind their imports by
name, so each wrapper is set on the defining module and on every module that
imported the name, and the originals are put back afterwards. Each call
records a span (name, phase, start, end, parent) in memory; the spans are
written out when the run ends and every layer's self time is derived from
them. The same run checks agglomerate's merge heights against scipy and
records agglomerate's cost at n = 20, 200 and 1000.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from common import cli_env, generate_inputs, median, read_report

# (span name, defining module, attribute, modules that bound the name by import)
FUNCTIONS = (
    ("clustering.agglomerate", "clustering", "agglomerate", ("pipeline",)),
    ("clustering.outliers", "clustering", "outliers", ("pipeline",)),
    ("entropy.shannon_entropy", "entropy", "shannon_entropy", ("pipeline",)),
    ("entropy.kl_divergence", "entropy", "kl_divergence", ("pipeline",)),
    ("baseline.empirical_distribution", "baseline", "empirical_distribution", ("pipeline",)),
    ("detector.likelihood_ratio", "detector", "likelihood_ratio", ("pipeline",)),
    ("detector.posterior", "detector", "posterior", ("pipeline",)),
    ("detector.fuse_and_decide", "detector", "fuse_and_decide", ("pipeline",)),
    ("detector.convexity_signal", "detector", "convexity_signal", ("pipeline",)),
    ("simulate.simulate_scenario", "simulate", "simulate_scenario", ("pipeline", "cli")),
    ("traces.write_trace", "traces", "write_trace", ("cli",)),
    ("traces.iter_trace", "traces", "iter_trace", ("cli",)),
    ("pipeline.collect_trace_deviations", "pipeline", "collect_trace_deviations", ("cli",)),
    ("pipeline.fit_attack_model", "pipeline", "fit_attack_model", ("cli",)),
    ("baseline.fit_baseline", "baseline", "fit_baseline", ("cli",)),
    ("baseline.load_profile", "baseline", "load_profile", ("cli",)),
    ("metrics.write_report_csv", "metrics", "write_report_csv", ("cli",)),
    ("metrics.write_metrics_json", "metrics", "write_metrics_json", ("cli",)),
    ("metrics.write_heatmap_csv", "metrics", "write_heatmap_csv", ("cli",)),
)
REPORT_WRITERS = ("metrics.write_report_csv", "metrics.write_metrics_json",
                  "metrics.write_heatmap_csv")
SCALING_SIZES = ((20, 21), (200, 5), (1000, 1))  # (vectors, timed repetitions)
IMPORT_REPEATS = 3
SCIPY_TOLERANCE = 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, phase, start_ns, end_ns, parent index)
        self.phase = ""
        self.counts: Counter = Counter()  # (phase, counter) -> count
        self.batches: list[tuple[str, np.ndarray, np.ndarray]] = []  # (phase, features, heights)
        self._stack: list[int] = []
        self._owner = None
        self._last_scores: dict = {}
        self._last_window: dict = {}
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self.phase, start, end, parent)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def run_phase(self, phase, fn, *args):
        self.phase = phase
        return self.wrap(f"bench.{phase}", fn)(*args)

    # -- hooks ---------------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[(self.phase, key)] += n

    def _after_agglomerate(self, args, dendrogram):
        features = np.asarray([v.features for v in args[0]], dtype=np.float64)
        heights = np.asarray([m.height for m in dendrogram.merges], dtype=np.float64)
        self.batches.append((self.phase, features, heights))

    def _after_outliers(self, args, report):
        self._count("outlier_runs")
        if self._last_scores.get(self._owner) != report.scores:
            self._count("outlier_useful")
        self._last_scores[self._owner] = report.scores

    def _after_simulate(self, args, trace):
        self._count("simulated_records", len(trace.records))

    def _after_write(self, args, result):
        self._count("written_records", len(args[0].records))

    def _traced_records(self, records):
        step = self.wrap("traces.iter_trace.next", iter(records).__next__)
        while True:
            try:
                rec = step()
            except StopIteration:
                return
            self._count("parsed_records")
            yield rec

    # -- install / remove ----------------------------------------------------

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mod = {name: importlib.import_module(f"entwatch.{name}")
               for name in ("baseline", "cli", "clustering", "detector", "entropy",
                            "metrics", "pipeline", "simulate", "traces")}
        hooks = {"clustering.agglomerate": self._after_agglomerate,
                 "clustering.outliers": self._after_outliers,
                 "simulate.simulate_scenario": self._after_simulate,
                 "traces.write_trace": self._after_write}
        for span, home, attr, importers in FUNCTIONS:
            original = getattr(mod[home], attr)
            wrapped = self.wrap(span, original, hooks.get(span))
            if span == "traces.iter_trace":
                opened = wrapped

                def wrapped(path, _opened=opened):
                    meta, records = _opened(path)
                    return meta, self._traced_records(records)
            for module in (home, *importers):
                self._set(mod[module], attr, wrapped)

        cls = mod["pipeline"].TraceProcessor
        plain = self.wrap("pipeline.process_record", cls.process_record)
        closing = self.wrap("pipeline.process_record.close", cls.process_record)
        finish = self.wrap("pipeline.finish", cls.finish)

        def process_record(proc, rec):
            self._owner = proc
            idx = int(rec.timestamp // proc.detector.window_seconds)
            last = self._last_window.get(proc)
            self._last_window[proc] = idx
            return (closing if last is not None and idx > last else plain)(proc, rec)

        def finish_record(proc):
            self._owner = proc
            return finish(proc)

        self._set(cls, "process_record", process_record)
        self._set(cls, "finish", finish_record)

    def remove(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)
        self._last_scores.clear()
        self._last_window.clear()
        self._owner = None

    # -- analysis ------------------------------------------------------------

    def layer_times(self, phase):
        """Per span name in ``phase``: (calls, total s, self s).

        Spans under fit_attack_model (the simulator runs that fit the attack
        model) are left out; the fit's own total is kept under its name.
        """
        child = defaultdict(int)
        skip = [False] * len(self.spans)
        for i, (name, ph, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                skip[i] = skip[parent] or self.spans[parent][0] == "pipeline.fit_attack_model"
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, ph, start, end, parent) in enumerate(self.spans):
            if ph != phase or skip[i]:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) / 1e9
            entry[2] += (end - start - child[i]) / 1e9
        return out

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, phase, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "phase": phase, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def _import_seconds() -> float:
    """Median wall time of `import entwatch.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import entwatch.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return median(times)


def _min_max_scaled(features: np.ndarray) -> np.ndarray:
    """The batch scaling agglomerate documents: per feature to [0, 1], constant -> 0."""
    lo, span = features.min(axis=0), np.ptp(features, axis=0)
    scaled = np.zeros_like(features)
    active = span > 0
    scaled[:, active] = (features[:, active] - lo[active]) / span[active]
    return scaled


def _scipy_check(batches) -> dict:
    """Compare each captured batch's merge heights with scipy's average linkage."""
    try:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import pdist
    except ImportError:
        return {"available": False}
    worst, bad = 0.0, 0
    for _, features, heights in batches:
        reference = linkage(pdist(_min_max_scaled(features)), method="average")[:, 2]
        diff = float(np.max(np.abs(np.sort(heights) - np.sort(reference))))
        worst = max(worst, diff)
        bad += diff > SCIPY_TOLERANCE
    return {"available": True, "batches": len(batches), "mismatched": bad,
            "max_abs_diff": worst}


def _scaling(tracer: Tracer, profile, attack_model) -> dict:
    """agglomerate (and scipy linkage) time at fixed batch sizes.

    The batch for size n is the one finish() clusters on a benign_edit trace
    over n files, long enough for every file to be written twice; the outlier
    gate stays shut on benign traces, so that is the trace's only clustering.
    """
    from entwatch.clustering import FeatureVector, agglomerate
    from entwatch.pipeline import TraceProcessor
    from entwatch.simulate import ScenarioSpec, simulate_scenario

    try:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import pdist
    except ImportError:
        linkage = None
    out = {}
    for n, reps in SCALING_SIZES:
        trace = simulate_scenario(ScenarioSpec("benign_edit", 7000 + n, duration=n / 2.0,
                                               file_count=n))
        proc = TraceProcessor(profile=profile, attack_model=attack_model)
        tracer.install()
        try:
            tracer.phase = f"scaling_n{n}"
            proc.process(trace.records)
            proc.finish()
        finally:
            tracer.remove()
        features = tracer.batches[-1][1]
        vectors = [FeatureVector(str(i), tuple(row)) for i, row in enumerate(features)]
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            agglomerate(vectors)
            times.append(time.perf_counter() - start)
        entry = {"n": len(vectors), "agglomerate_ms": median(times) * 1e3}
        if linkage is not None:
            start = time.perf_counter()
            linkage(pdist(_min_max_scaled(features)), method="average")
            entry["scipy_linkage_ms"] = (time.perf_counter() - start) * 1e3
        out[n] = entry
    return out


def run(workload, seed: int, work: Path, spans_path: Path):
    cli_import_s = _import_seconds()
    import entwatch.cli as cli
    from entwatch.baseline import load_profile

    def cli_main(argv):
        """entwatch's CLI in this process, its stdout kept out of the benchmark's."""
        with open(work / "cli.stdout", "a", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            return cli.main(argv)

    problems: list[str] = []
    detect_specs, heldout_specs = workload.inputs(seed)
    tracer = Tracer()

    tracer.install()
    try:
        (inputs, n_records, _), (heldout, n_heldout, _) = tracer.run_phase(
            "simulate", lambda: (generate_inputs(detect_specs, work / "inputs"),
                                 generate_inputs(heldout_specs, work / "heldout")))
        baseline = str(work / "baseline.json")
        rc_profile = tracer.run_phase(
            "profile", cli_main, ["profile", *heldout, "--out", baseline, "--frozen-clock"])
        rc_traced = tracer.run_phase(
            "detect", cli_main, ["detect", *inputs, "--baseline", baseline,
                                 "--out", str(work / "traced"), "--frozen-clock"])
    finally:
        tracer.remove()

    start = time.perf_counter()
    rc_plain = cli_main(["detect", *inputs, "--baseline", baseline,
                         "--out", str(work / "untraced"), "--frozen-clock"])
    untraced_s = time.perf_counter() - start
    for what, rc in (("profile", rc_profile), ("traced detect", rc_traced),
                     ("untraced detect", rc_plain)):
        if rc != 0:
            problems.append(f"{what} returned {rc}")

    failed = 0
    rows = read_report(work / "traced" / "report.csv")
    if len(rows) != len(inputs) or any(r["verdict"] == "error" for r in rows):
        problems.append("traced report.csv is missing rows or has error rows")
        failed = len(inputs)
    for name in ("report.csv", "metrics.json"):
        if (work / "traced" / name).read_bytes() != (work / "untraced" / name).read_bytes():
            problems.append(f"tracing changed {name}")
            failed = len(inputs)

    detect_batches = [b for b in tracer.batches if b[0] == "detect"]
    profile = load_profile(baseline)
    attack_model = cli.fit_attack_model()
    scaling = _scaling(tracer, profile, attack_model)
    scipy = _scipy_check(detect_batches + [b for b in tracer.batches if b[0] != "detect"])
    if scipy.get("mismatched"):
        problems.append(f"{scipy['mismatched']} agglomerate batches disagree with scipy")

    det = tracer.layer_times("detect")
    sim = tracer.layer_times("simulate")
    prof = tracer.layer_times("profile")
    counts = tracer.counts

    def self_s(*names):
        return sum(det[n][2] for n in names if n in det)

    def total_s(table, *names):
        return sum(table[n][1] for n in names if n in table)

    detect_wall = det["bench.detect"][1]
    fit_s = total_s(det, "pipeline.fit_attack_model")
    closes = det["pipeline.process_record.close"][0] + det["pipeline.finish"][0]
    parse_s = self_s("traces.iter_trace", "traces.iter_trace.next")
    parsed = counts[("detect", "parsed_records")]
    agg_calls = det["clustering.agglomerate"][0]
    outlier_runs = counts[("detect", "outlier_runs")]
    metrics = {
        "traces.parse_us_per_record": (parse_s / parsed * 1e6, "us"),
        "traces.parse_records": (parsed, "count"),
        "traces.parse_share": (parse_s / detect_wall, "ratio"),
        "traces.write_us_per_record":
            (total_s(sim, "traces.write_trace") / counts[("simulate", "written_records")] * 1e6,
             "us"),
        "simulate.us_per_record":
            (total_s(sim, "simulate.simulate_scenario")
             / counts[("simulate", "simulated_records")] * 1e6, "us"),
        "entropy.shannon_entropy_calls": (det["entropy.shannon_entropy"][0], "count"),
        "entropy.shannon_entropy_s": (self_s("entropy.shannon_entropy"), "s"),
        "entropy.kl_divergence_s": (self_s("entropy.kl_divergence"), "s"),
        "baseline.empirical_distribution_s": (self_s("baseline.empirical_distribution"), "s"),
        "detector.likelihood_ratio_s": (self_s("detector.likelihood_ratio"), "s"),
        "detector.posterior_s": (self_s("detector.posterior"), "s"),
        "detector.convexity_signal_s": (self_s("detector.convexity_signal"), "s"),
        "detector.fuse_and_decide_calls": (det["detector.fuse_and_decide"][0], "count"),
        "detector.fuse_and_decide_s": (self_s("detector.fuse_and_decide"), "s"),
        "clustering.agglomerate_calls": (agg_calls, "count"),
        "clustering.agglomerate_s": (self_s("clustering.agglomerate"), "s"),
        "clustering.agglomerate_share": (self_s("clustering.agglomerate") / detect_wall, "ratio"),
        "clustering.outliers_s": (self_s("clustering.outliers"), "s"),
        "clustering.mean_vectors":
            (float(np.mean([len(f) for _, f, _ in detect_batches])) if detect_batches else 0.0,
             "count"),
        "clustering.runs_per_window": (agg_calls / closes, "ratio"),
        "clustering.useful_ratio":
            (counts[("detect", "outlier_useful")] / outlier_runs if outlier_runs else 0.0,
             "ratio"),
        "clustering.agglomerate_ms_n20": (scaling[20]["agglomerate_ms"], "ms"),
        "clustering.agglomerate_ms_n200": (scaling[200]["agglomerate_ms"], "ms"),
        "clustering.agglomerate_ms_n1000": (scaling[1000]["agglomerate_ms"], "ms"),
        "pipeline.window_closes": (closes, "count"),
        "pipeline.process_record_self_s":
            (self_s("pipeline.process_record", "pipeline.process_record.close"), "s"),
        "pipeline.finish_s": (total_s(det, "pipeline.finish"), "s"),
        "pipeline.collect_trace_deviations_s":
            (total_s(prof, "pipeline.collect_trace_deviations"), "s"),
        "baseline.fit_baseline_s": (total_s(prof, "baseline.fit_baseline"), "s"),
        "pipeline.fit_attack_model_s": (fit_s, "s"),
        "baseline.load_profile_s": (total_s(det, "baseline.load_profile"), "s"),
        "cli.import_s": (cli_import_s, "s"),
        "metrics.write_reports_s": (total_s(det, *REPORT_WRITERS), "s"),
        # The traced detect pays the attack-model fit; the untraced one, in the
        # same process, finds it cached.
        "trace_overhead_ratio": ((detect_wall - fit_s) / untraced_s, "ratio"),
    }
    tracer.write_spans(spans_path)
    top = sorted(((v[2], k) for k, v in det.items() if not k.startswith("bench.")), reverse=True)
    record = {
        "inputs": len(inputs), "records": n_records, "heldout_records": n_heldout,
        "traced_detect_s": detect_wall, "untraced_detect_s": untraced_s,
        "top_self_s": {k: s for s, k in top[:6]},
        "scipy_check": scipy, "scaling": scaling, "spans": str(spans_path),
        "spans_recorded": len(tracer.spans), "problems": problems,
    }
    return record, not problems, len(inputs), failed, {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
