"""One sweep of one workload, in a fresh interpreter.

    python3 qbench/sweep.py WORKLOAD SEED MODE START

MODE is ``plain``, ``trace`` (per-layer tracing on) or ``setup`` (stop
after the set-up, to sample set-up time alone).  START is the
``time.monotonic()`` reading the parent took just before starting this
process (the clock is system-wide on Linux), so set-up time counts
interpreter start, the ``qbruhat`` import and building the workload's
groups and models.  Prints one JSON object on stdout.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    name, seed, mode, start = argv[1], int(argv[2]), argv[3], float(argv[4])
    sys.path.insert(0, str(SRC))
    import qbruhat
    if Path(qbruhat.__file__).resolve().parent != SRC / "qbruhat":
        raise SystemExit("qbruhat imported from %s, not from %s"
                         % (qbruhat.__file__, SRC))
    import workloads
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    items = workloads.ordered_items(workloads.load_expected()[name], seed)
    ctx = workloads.setup(name)
    setup_s = time.monotonic() - start
    if mode == "setup":
        items = []

    errors = []
    t0 = time.perf_counter()
    for item in items:
        err = workloads.run_item(ctx, item)
        if err is not None:
            errors.append(err)
    wall_s = time.perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": len(items),
        "failed": len(errors),
        "errors": errors[:5],
    }
    if tracer is not None:
        out["layers"], out["paths"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
