"""The repository's pytest configuration reports every test.

Warnings are errors here (``filterwarnings`` in ``pyproject.toml``). A
failing hypothesis test's report imports libcst, which warns on import;
unless that warning is ignored, pytest stops with an internal error and
the tests after the failure go unreported.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
