"""The repository's own pytest configuration reports failures in full."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 10
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # pyproject.toml turns warnings into errors; one that hypothesis's
    # plugin raises while it builds a failure report must not end the
    # session with INTERNALERROR (exit code 3) before the example shows
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
