"""Byte-identical stdout of the scripts under ``demos/`` against goldens.

Each golden under ``tests/golden/demos/`` is the exact stdout of one
``python3 demos/<name>.py`` run.  Regenerate one only when its output is
meant to change, by running the script and redirecting stdout to the file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "demos"
DEMOS = HERE.parent / "demos"
SRC = HERE.parent / "src"

NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / (name + ".py"))],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / (name + ".out")).read_bytes()
