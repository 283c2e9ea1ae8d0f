"""The names the benchmark's traced run wraps must exist in entwatch.

``perfbench/traced.py`` replaces functions on entwatch's modules by name and
reads what some of them return. A renamed or deleted name would otherwise
show up only as a broken traced benchmark run, which these tests do not
start.
"""

import importlib
import sys
from pathlib import Path

import pytest

from entwatch.clustering import FeatureVector, agglomerate, outliers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def wrapped_functions():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("traced").FUNCTIONS
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_exists(wrapped_functions):
    assert wrapped_functions
    for _, home, attr, importers in wrapped_functions:
        for module in (home, *importers):
            mod = importlib.import_module(f"entwatch.{module}")
            assert callable(getattr(mod, attr, None)), f"entwatch.{module}.{attr}"


def test_outliers_report_has_scores():
    vectors = [FeatureVector("a", (1.0, 0.0, 0.0, 0.0)), FeatureVector("b", (2.0, 0.0, 0.0, 0.0))]
    report = outliers(agglomerate(vectors), vectors)
    assert set(report.scores) == {"a", "b"}
