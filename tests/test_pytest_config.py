"""The repository's pytest configuration keeps a session whole when a
Hypothesis test fails."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis imports libcst to write a failing test's patch, and libcst's
    # import warns; under the repository's warning filters the session must
    # still report the failure and run the test after it.
    (tmp_path / "test_case.py").write_text(FAILING_AND_PASSING)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_case.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert "1 failed, 1 passed" in res.stdout
