"""One benchmark process: import doublemarkov, warm up, then run timed ops.

Started by run.py in a fresh interpreter per sample.  It prints one
``ready {...}`` line once set-up is done, stamped with the system-wide
monotonic clock so the parent can time set-up from process start, and,
unless --mode setup, a final JSON line with its measurements and check
results.

    --mode setup   set up and exit
    --mode run     closed loop, one client: ops back to back for --seconds
    --mode trace   the first --max-ops ops under span tracing

Right after set-up, and after every op, the worker times a reference
block: fixed work that never touches doublemarkov.  The shared machine
changes speed by up to 2x within minutes; reference times taken next to
each measurement let run.py scale set-up and op times to one nominal
machine speed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import sys
import traceback
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_BLOCKS = 21  # reference blocks timed right after set-up


def reference_block():
    """Fixed work in the program's own mix: tuples, sets and dicts, plus small numpy calls.

    The garbage collector is off meanwhile, so the block's time does not
    depend on how many objects the program keeps alive.
    """
    import numpy
    gc.disable()
    try:
        seen, index = set(), {}
        for a, b in itertools.combinations(range(60), 2):
            key = (a, b, frozenset((a % 5, b % 7)))
            seen.add(key)
            index[key] = len(seen)
        m = numpy.eye(6) + 0.1
        return len(index) + sum(numpy.linalg.det(m) for _ in range(150))
    finally:
        gc.enable()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for op outputs")
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-ops", type=int, default=sys.maxsize)
    args = p.parse_args(argv)

    t0 = perf_counter()
    import doublemarkov.cli
    import_s = perf_counter() - t0
    if Path(doublemarkov.__file__).resolve().parent != ROOT / "src" / "doublemarkov":
        print(f"doublemarkov imported from {doublemarkov.__file__}, not from src/",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = json.loads(Path(args.manifest).read_text())
    wl = workloads.WORKLOADS[args.workload](doublemarkov, manifest, out, ROOT)
    t0 = perf_counter()
    wl.warm_up()
    warmup_s = perf_counter() - t0
    print("ready " + json.dumps({
        "at": clock_gettime(CLOCK_MONOTONIC), "import_s": import_s, "warmup_s": warmup_s,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__}), flush=True)
    calibration = []
    for _ in range(CALIBRATION_BLOCKS):
        t0 = perf_counter()
        reference_block()
        calibration.append(perf_counter() - t0)
    if args.mode == "setup":
        print(json.dumps({"calibration_s": calibration}))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install(doublemarkov)
    records, latencies, references, raised = [], [], [], 0
    begin = perf_counter()
    while len(latencies) < args.max_ops and (
            not latencies or perf_counter() - begin < args.seconds):
        i = len(latencies)
        t0 = perf_counter()
        try:
            records.append(tracer.op(wl.run, i) if tracer else wl.run(i))
        except Exception:
            traceback.print_exc()
            raised += 1
        t1 = perf_counter()
        reference_block()
        latencies.append(t1 - t0)
        references.append(perf_counter() - t1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_layer = None
    if tracer:
        tracer.uninstall()
        per_layer = tracer.per_layer(len(latencies))
        tracer.save(out / "spans.npz")

    try:
        problems = wl.check(records)
    except Exception:
        traceback.print_exc()
        problems = [["check raised"]] * max(1, len(records))
    for t, found in enumerate(problems):
        for msg in found:
            print(f"check {t}: {msg}", file=sys.stderr)
    print(json.dumps({
        "ops": len(latencies), "latencies_s": latencies,
        "references_s": references, "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
        "attempted": raised + len(problems),
        "failed": raised + sum(1 for found in problems if found),
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
