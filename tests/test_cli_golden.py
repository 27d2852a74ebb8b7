"""Byte-identical stdout of fixed CLI invocations against stored goldens.

Each golden under ``tests/golden/`` is the exact stdout of one
``python -m qbruhat.cli`` run, and ``DIGESTS`` pins larger outputs by
the sha256 of their stdout.  Regenerate one only when its output is
meant to change, by running the listed arguments and redirecting stdout
to the file (or taking its sha256).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbruhat.verify import SUITES

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

CASES = {
    "verify-scalars": ["verify", "--suite", "scalars"],
    "verify-example-sl3": ["verify", "--suite", "example-sl3"],
    "verify-eigen-qpowers": ["verify", "--suite", "eigen-qpowers"],
    "verify-ideals": ["verify", "--suite", "ideals"],
    "verify-modules": ["verify", "--suite", "modules"],
    "verify-weyl": ["verify", "--suite", "weyl"],
    "verify-characters": ["verify", "--suite", "characters"],
    "verify-strata": ["verify", "--suite", "strata"],
    "verify-centre": ["verify", "--suite", "centre"],
    "verify-commutation-A2": ["verify", "--suite", "commutation-A2"],
    "ideal-demazure-A2": ["ideal", "demazure", "--type", "A2",
                          "--lambda", "2,1", "--y", "s1 s2", "--sign", "+"],
    "ideal-demazure-A2-32": ["ideal", "demazure", "--type", "A2",
                             "--lambda", "3,2", "--y", "s2", "--sign", "-"],
    "ideal-stratum-A2": ["ideal", "stratum", "--type", "A2", "--y", "s1",
                         "--z", "s1 s2", "--nu", "1,1", "--bound", "2"],
    "char-sw-A2": ["char", "sw", "--type", "A2", "--w", "s1 s2",
                   "--depth", "6", "--format", "json"],
    "centre-dim-B2": ["centre", "dim", "--type", "B2"],
    "strata-build-A3": ["strata", "build", "--type", "A3"],
    "strata-build-B2-anchor-dot": ["strata", "build", "--type", "B2",
                                   "--anchor", "s1", "--format", "dot"],
}


DIGESTS = {
    "char-sw-D5": (["char", "sw", "--type", "D5", "--w",
                    "s1 s3 s2 s1 s4 s3 s2 s1 s5 s3 s4", "--depth", "4"],
                   "a0a3be4eada10079c2bc80e50828745c"
                   "02d75beadaa4c91caab8f0b5986fba49"),
    "char-sw-A5": (["char", "sw", "--type", "A5", "--w",
                    "s1 s2 s1 s4 s3 s2 s1 s5 s4 s3", "--depth", "6"],
                   "b6c9e21e67ecc9b4f4bb6c855fa3e4ac"
                   "8a94d7ea9a20d947fcff2c2edbaa350f"),
}


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "qbruhat.cli"] + args,
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    stdout = run_cli(CASES[name])
    assert stdout == (GOLDEN / (name + ".out")).read_bytes()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stdout_matches_digest(name):
    args, digest = DIGESTS[name]
    assert hashlib.sha256(run_cli(args)).hexdigest() == digest


def test_ratfun_golden_prints_a_rational_function():
    # the demazure golden pins the printed form of a non-Laurent scalar
    text = (GOLDEN / "ideal-demazure-A2.out").read_text()
    assert '"(q)/(1 + q^2)"' in text


def test_ratfun_golden_has_several_denominators():
    # (3,2) at y = s2 pins sums and products of rational functions
    values = [line.strip().strip('",') for line in
              (GOLDEN / "ideal-demazure-A2-32.out").read_text().splitlines()
              if ")/(" in line]
    assert len(values) == 9
    assert len({v.split(")/(")[1] for v in values}) == 4
    assert "(2 + 3*q^2 + 2*q^4)/(1 + q^2 + q^4)" in values


def test_every_suite_has_a_golden():
    covered = {args[2] for args in CASES.values()
               if args[:2] == ["verify", "--suite"]}
    assert sorted(set(SUITES) - covered) == []
