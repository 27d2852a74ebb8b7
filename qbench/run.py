"""Benchmark of qbruhat's exact computations.

    python3 qbench/run.py --workload eigen-A2 --seed 1 --seconds 40 --trace 0

Run it from the repository root.  Every sweep of a workload runs in a
fresh single-threaded interpreter (``sweep.py``), so all library caches
start cold as they do for one ``qbruhat`` command; sweeps run one after
another, a closed loop with one client.

With ``--trace 0`` the run repeats sweeps while the next one is expected
to end within ``--seconds`` (at least one sweep), samples set-up time at
least SETUP_SAMPLES times, and reports the medians of ``wall_s`` (the
timed item loop, outputs checked), ``setup_s`` (interpreter start to
groups and models built) and ``peak_rss_mb`` (the sweep process's
``ru_maxrss``).  With ``--trace 1``
it runs one plain and one traced sweep and reports the per-layer metrics
of ``tracer.py`` plus the tracing overhead, traced minus plain
``wall_s``; the slowest call paths go to stderr.

A human-readable summary, including ``failed_frac`` (failed over
attempted items), precedes the last stdout line, which is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import OVERHEAD, TARGETS, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("eigen-A2", "saturate-A2", "poset-A4")
# a run must end within 180 s; sweeps are cut off before that
LIMIT_S = 170.0
# set-up times per timed run; set-up-only processes make up the number
# when fewer sweeps fit
SETUP_SAMPLES = 5


class SweepFailed(Exception):
    pass


def run_sweep(name, seed, mode, timeout):
    # fixed string hashing: every sweep iterates its sets in the same order
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "sweep.py"), name, str(seed), mode,
           repr(start)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SweepFailed("sweep did not finish within %.0f s" % timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SweepFailed("sweep exited with code %d" % proc.returncode)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed"] = time.monotonic() - start
    for err in res["errors"]:
        print("FAILED " + err, file=sys.stderr)
    return res


def timed_run(name, seed, seconds, begin):
    """Plain sweeps while the next one is expected to end within
    ``seconds`` (at least one), then set-up-only processes until there
    are SETUP_SAMPLES set-up times.  Returns (set-ups, sweeps, failure)."""
    setups, sweeps = [], []
    try:
        while True:
            sweeps.append(run_sweep(name, seed, "plain",
                                    LIMIT_S - (time.monotonic() - begin)))
            longest = max(s["elapsed"] for s in sweeps)
            if time.monotonic() - begin + longest > min(seconds, LIMIT_S):
                break
        while len(setups) + len(sweeps) < SETUP_SAMPLES:
            setups.append(run_sweep(name, seed, "setup",
                                    LIMIT_S - (time.monotonic() - begin)))
    except SweepFailed as err:
        return setups, sweeps, str(err)
    return setups, sweeps, None


def traced_run(name, seed, begin):
    """One plain and one traced sweep; returns ([], sweeps, failure)."""
    sweeps = []
    try:
        for mode in ("plain", "trace"):
            sweeps.append(run_sweep(name, seed, mode,
                                    LIMIT_S - (time.monotonic() - begin)))
    except SweepFailed as err:
        return [], sweeps, str(err)
    return [], sweeps, None


def end_to_end(setups, sweeps):
    return {
        "wall_s": (statistics.median(s["wall_s"] for s in sweeps), "s"),
        "setup_s": (statistics.median(s["setup_s"]
                                      for s in setups + sweeps), "s"),
        "peak_rss_mb": (statistics.median(s["maxrss_kb"] for s in sweeps)
                        / 1024.0, "MB"),
    }


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values[OVERHEAD] = traced["wall_s"] - plain["wall_s"]
    return {name: (values[name], unit) for name, unit in metric_units()}


def print_layers(metrics):
    print("  %-44s %10s %12s %10s" % ("layer.function", "calls", "self_s",
                                      "repeats"))
    for layer, name, _ in TARGETS:
        prefix = "%s.%s" % (layer, name)
        print("  %-44s %10d %12.4f %10d" % (
            prefix, metrics[prefix + ".calls"][0],
            metrics[prefix + ".self_s"][0], metrics[prefix + ".repeats"][0]))
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s", ".repeats")):
            print("  %-44s %s %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    begin = time.monotonic()

    if not (ROOT / "src" / "qbruhat" / "__init__.py").is_file():
        print("qbench: no qbruhat sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        n_items = len(json.load(fh)[args.workload])

    if args.trace:
        setups, sweeps, failure = traced_run(args.workload, args.seed, begin)
    else:
        setups, sweeps, failure = timed_run(args.workload, args.seed,
                                            args.seconds, begin)
    if failure is not None:
        print("qbench: %s" % failure, file=sys.stderr)
    if not sweeps or (args.trace and len(sweeps) < 2):
        return 1
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    if failure is not None:
        attempted += n_items
        failed += n_items

    print("%s seed %d: %d sweep(s) in %.1f s, trace %s" % (
        args.workload, args.seed, len(sweeps), time.monotonic() - begin,
        "on" if args.trace else "off"))
    if args.trace:
        plain, traced = sweeps
        print("  wall_s plain %.4f s, traced %.4f s" % (plain["wall_s"],
                                                        traced["wall_s"]))
        metrics = per_layer(plain, traced)
        print_layers(metrics)
        print("slowest call paths by self time (%s, seed %d):"
              % (args.workload, args.seed), file=sys.stderr)
        for p in traced["paths"]:
            print("  %10.4f s self %10.4f s total %10d calls  %s"
                  % (p["self_s"], p["total_s"], p["calls"], p["path"]),
                  file=sys.stderr)
    else:
        metrics = end_to_end(setups, sweeps)
        samples = {
            "wall_s": [s["wall_s"] for s in sweeps],
            "setup_s": [s["setup_s"] for s in setups + sweeps],
            "peak_rss_mb": [s["maxrss_kb"] / 1024.0 for s in sweeps],
        }
        for name, (value, unit) in metrics.items():
            print("  %-12s %12.4f %-3s (median of: %s)" % (
                name, value, unit,
                ", ".join("%.4f" % v for v in samples[name])))
    print("  %-12s %12.4f     (%d of %d items)" % (
        "failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
