"""Benchmark entry point.

    python3 perfbench/run.py --workload analyze|enumerate|matrix_ci \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed under
.perfbench/<workload>/, and every sample runs in a fresh worker process
with BLAS/OpenMP threads pinned to 1 and doublemarkov imported from src/.
The last line of standard output is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json; the line before it records the environment.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, monotonic

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
# About the median time of worker.reference_block on a quiet stretch of
# the machine the baseline was measured on (README.md, Noise): times are
# reported as if the machine always ran at that speed.
REF_NOMINAL_S = 0.0015
REF_WINDOW = 7


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed worker)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Runner:
    """Starts workers one at a time and makes sure each has ended."""

    def __init__(self, workload: str, work: Path, deadline: float):
        self.workload, self.work, self.deadline = workload, work, deadline
        self.count = 0

    def _remaining(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left

    def worker(self, mode: str, seconds: float = 0.0, max_ops: int | None = None):
        """Returns (set-up seconds at nominal speed, ready record, result).

        Set-up runs from just before the process starts to the moment the
        worker reports ready, both read from the system-wide monotonic clock.
        """
        self.count += 1
        log = self.work / f"worker{self.count}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--manifest", str(self.work / "in" / "manifest.json"),
               "--out", str(self.work / f"out{self.count}"), "--mode", mode,
               "--seconds", repr(seconds)]
        if max_ops is not None:
            cmd += ["--max-ops", str(max_ops)]
        with open(log, "w") as err:
            t0 = clock_gettime(CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                    env=worker_env(), cwd=ROOT)
            try:
                out, _ = proc.communicate(timeout=self._remaining())
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        lines = out.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
            tail = log.read_text()[-2000:]
            raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
        ready = json.loads(lines[0][len("ready "):])
        result = json.loads(lines[-1])
        setup_s = scaled([ready["at"] - t0], result["calibration_s"])[0]
        return setup_s, ready, result

    def importtime_scipy_ms(self) -> float:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import doublemarkov.cli"],
                              capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        return scipy_import_ms(proc.stderr)


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in -X importtime output.

    Children are printed before their parent and indented two spaces deeper,
    so walking the lines backwards meets every parent before its children.
    """
    total_us = 0
    ancestors = []  # (depth, is scipy) of the entries enclosing the current line
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in ancestors):
            total_us += int(cumulative)
        ancestors.append((depth, is_scipy))
    return total_us / 1e3


def scaled(times, references):
    """Times scaled to the speed at which a reference block takes REF_NOMINAL_S.

    With one reference per time, each time is divided by the median of
    the references within REF_WINDOW places of its own, so the scale
    follows the machine's speed through the run while one disturbed
    reference moves nothing.  With one time, the median of all references
    scales it.
    """
    if len(times) == 1:
        return [times[0] * REF_NOMINAL_S / statistics.median(references)]
    n = len(references)
    return [t * REF_NOMINAL_S / statistics.median(
                references[max(0, i - REF_WINDOW):min(n, i + REF_WINDOW + 1)])
            for i, t in enumerate(times)]


def p90(values) -> float:
    """The 90th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": cpu or os.uname().machine, "nproc": len(os.sched_getaffinity(0))}


def end_to_end(runner: Runner, seconds: float):
    # Set-up samples before and after the timed run, so their median spans
    # the run's whole stretch of time.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [runner.worker("setup")[0] for _ in range(before)]
    setup_s, ready, res = runner.worker("run", seconds=seconds)
    setups.append(setup_s)
    setups += [runner.worker("setup")[0] for _ in range(SETUP_SAMPLES - 1 - before)]
    raw = res["latencies_s"]
    lat = scaled(raw, res["references_s"])
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * p90(lat),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_ok_ratio": (attempted - failed) / attempted,
    }
    info = {"ops": res["ops"], "setup_samples_s": setups,
            "reference_median_ms": 1e3 * statistics.median(res["references_s"]),
            "unscaled": {"ops_per_s": len(raw) / sum(raw),
                         "op_p50_ms": 1e3 * statistics.median(raw),
                         "op_p90_ms": 1e3 * p90(raw)}}
    return metrics, attempted, failed, ready, info


def per_layer(runner: Runner, seconds: float):
    """Untraced ops for half the time, then the same ops traced."""
    s_plain, ready_plain, plain = runner.worker("run", seconds=seconds / 2)
    s_traced, ready_traced, traced = runner.worker(
        "trace", seconds=3 * seconds, max_ops=plain["ops"])
    metrics = dict(traced["per_layer"])
    plain_rate = plain["ops"] / sum(scaled(plain["latencies_s"], plain["references_s"]))
    traced_rate = traced["ops"] / sum(scaled(traced["latencies_s"], traced["references_s"]))
    metrics.update({
        "trace.untraced_ops_per_s": plain_rate,
        "trace.ops_per_s": traced_rate,
        "trace.overhead_ratio": plain_rate / traced_rate,
        "setup.import_ms": 1e3 * statistics.median(
            r["import_s"] for r in (ready_plain, ready_traced)),
        "setup.import.scipy_ms": runner.importtime_scipy_ms(),
        "setup.tables_ms": 1e3 * statistics.median(
            r["warmup_s"] for r in (ready_plain, ready_traced)),
    })
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    info = {"ops": traced["ops"], "setup_samples_s": [s_plain, s_traced]}
    return metrics, attempted, failed, ready_traced, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("analyze", "enumerate", "matrix_ci"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S
    # A terminated run still stops its worker (see Runner.worker).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "doublemarkov" / "__init__.py").is_file():
        print("error: src/doublemarkov not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs.write_inputs(args.workload, args.seed, work / "in")
    runner = Runner(args.workload, work, deadline)
    try:
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed, ready, info = measure(runner, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 3
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           **{k: ready[k] for k in ("python", "numpy", "scipy")}, **environment(), **info}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    (work / "result.json").write_text(json.dumps({"env": env, **result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
