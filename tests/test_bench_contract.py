"""The names the benchmark's traced run wraps must exist in entwatch.

``perfbench/traced.py`` replaces functions on entwatch's modules by name and
reads what some of them return, and ``perfbench/untraced.py`` drives
``TraceProcessor`` directly. A renamed or deleted name would otherwise show
up only as a broken benchmark run, which these tests do not start.
"""

import importlib
import sys
from pathlib import Path

import pytest

from entwatch import cli, pipeline
from entwatch.baseline import fit_baseline
from entwatch.clustering import FeatureVector, agglomerate, outliers
from entwatch.detector import BENIGN, RANSOMWARE
from entwatch.simulate import ScenarioSpec, simulate_scenario
from entwatch.traces import read_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def wrapped_functions():
    return perfbench_module("traced").FUNCTIONS


def test_every_wrapped_name_exists(wrapped_functions):
    assert wrapped_functions
    for _, home, attr, importers in wrapped_functions:
        for module in (home, *importers):
            mod = importlib.import_module(f"entwatch.{module}")
            assert callable(getattr(mod, attr, None)), f"entwatch.{module}.{attr}"


def test_every_name_wrapped_on_pipeline_is_called(wrapped_functions, monkeypatch):
    # A wrapper on a name that detection no longer calls through ``pipeline``
    # would time nothing, and its layer would read 0. ``simulate_scenario``
    # is bound there only for ``fit_attack_model``, which detection does not call.
    names = [attr for _, _, attr, importers in wrapped_functions
             if "pipeline" in importers and attr != "simulate_scenario"]
    assert "kl_divergence" in names and "empirical_distribution" in names
    counts = dict.fromkeys(names, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in names:
        monkeypatch.setattr(pipeline, attr, counted(attr, getattr(pipeline, attr)))
    pooled = {}
    for seed in (953, 954):
        benign = simulate_scenario(ScenarioSpec("benign_edit", seed=seed))
        for level_id, devs in pipeline.collect_trace_deviations(benign.records).items():
            pooled.setdefault(level_id, []).extend(devs)
    # Fitted here, so its ratio tables and KL memos start empty.
    profile = fit_baseline(pooled, created_at=0.0)
    trace = simulate_scenario(ScenarioSpec("ransomware", seed=955))
    pipeline.TraceProcessor(profile=profile, onset_at=trace.meta.onset_at) \
        .process(trace.records).finish()
    assert {attr for attr, n in counts.items() if n == 0} == set()


def test_outliers_report_has_scores():
    vectors = [FeatureVector("a", (1.0, 0.0, 0.0, 0.0)), FeatureVector("b", (2.0, 0.0, 0.0, 0.0))]
    report = outliers(agglomerate(vectors))
    assert len(report.scores) == 2
    # The traced hook compares a report's scores with the last ones, or None, by `!=`.
    assert not report.scores != outliers(agglomerate(vectors)).scores
    assert report.scores != None  # noqa: E711


def test_agglomerate_batches_give_features_and_heights(benign_profile, attack_model,
                                                       monkeypatch):
    # The traced hook reads `features` off each item the pipeline hands
    # agglomerate and `height` off each merge of the dendrogram it returns.
    calls = []
    original = pipeline.agglomerate

    def capturing(items):
        dendrogram = original(items)
        calls.append(((items,), dendrogram))
        return dendrogram

    monkeypatch.setattr(pipeline, "agglomerate", capturing)
    trace = simulate_scenario(ScenarioSpec("ransomware", seed=952, duration=20.0))
    pipeline.TraceProcessor(profile=benign_profile, attack_model=attack_model) \
        .process(trace.records).finish()
    assert calls
    tracer = perfbench_module("traced").Tracer()
    for args, dendrogram in calls:
        tracer._after_agglomerate(args, dendrogram)
    assert len(tracer.batches) == len(calls)
    for (args, _), (_, features, heights) in zip(calls, tracer.batches):
        n = len(args[0])
        assert features.shape == (n, 4)
        assert heights.shape == (n - 1,)


def test_library_pass_yields_a_verdict(benign_profile, attack_model):
    # The untraced run's library pass: TraceProcessor's keywords,
    # proc.detector.window_seconds and finish().verdict.
    trace = simulate_scenario(ScenarioSpec("ransomware", seed=950, duration=20.0))
    library = perfbench_module("untraced").LibraryPass(
        [("rw.jsonl", trace)], benign_profile, attack_model, chunks=1)
    library.run_chunk(0)
    assert library.verdicts["rw.jsonl"] in (BENIGN, RANSOMWARE)
    assert library.window_ms(at_nominal_speed=False)


def test_benchmark_traces_read_back(tmp_path):
    # The set-up probe's meta-only trace and the generated inputs must pass the reader.
    common = perfbench_module("common")
    spec = perfbench_module("workloads").InputSpec("ransomware", 951, 20.0)
    paths, records, _ = common.generate_inputs([spec], tmp_path)
    assert len(read_trace(paths[0]).records) == records
    common.write_meta_only_trace(tmp_path / "meta.jsonl")
    assert read_trace(tmp_path / "meta.jsonl").records == ()


@pytest.mark.parametrize("argv, func, expected", [
    (["profile", "a.jsonl", "b.jsonl", "--out", "base.json", "--frozen-clock"],
     cli.cmd_profile, {"inputs": ["a.jsonl", "b.jsonl"], "out": "base.json"}),
    (["detect", "a.jsonl", "b.jsonl", "--baseline", "base.json", "--out", "run",
      "--frozen-clock"],
     cli.cmd_detect, {"inputs": ["a.jsonl", "b.jsonl"], "baseline": "base.json", "out": "run"}),
], ids=["profile", "detect"])
def test_cli_parses_the_benchmark_argv(argv, func, expected):
    # The argv shapes that perfbench/untraced.py and traced.py pass to the CLI.
    args = cli.build_parser().parse_args(argv)
    assert args.func is func and args.frozen_clock and args.config is None
    assert {key: getattr(args, key) for key in expected} == expected
