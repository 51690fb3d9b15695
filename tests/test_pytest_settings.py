"""The repo's pytest settings report a failing hypothesis test as a failure.

`pyproject.toml` turns every DeprecationWarning into an error.  When a `@given`
test fails, hypothesis's pytest plugin may import libcst to suggest a patch,
and that import warns; as an error the warning would escape the plugin and end
the whole session with INTERNALERROR (exit 3) before the remaining tests run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
