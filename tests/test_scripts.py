"""The scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_hardy_landscape_meets_closed_form():
    proc = run_script("hardy_landscape.py", "--points", "5", "--oracle-a0", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == "theta yield oracle closed_form"
    assert len(proc.stdout.splitlines()) == 1 + 5 + 3


def test_monotonicity_sweep_finds_no_violation():
    proc = run_script("monotonicity_sweep.py", "--channels", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("channels 2, worst excess ")
    assert last.endswith(", violations 0")
