"""The suite's own gate, run on a throwaway test file in a fresh pytest.

A failing ``hypothesis`` property must be reported with its falsifying
example, and every test collected after it must still run, under the
warning filters of ``pyproject.toml``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_failing_property(x):
    assert x < 5


def test_collected_after_it():
    pass
"""


def test_failing_property_does_not_end_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
