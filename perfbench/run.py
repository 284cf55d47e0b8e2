"""chemobound benchmark.

    python3 perfbench/run.py --workload {blowup,sweep,bound_search}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: it imports chemobound from ./src
and drives it only through ``chemobound.cli.main``, one operation at a time
(a closed loop with one client), for S seconds.  Every operation's outputs
are checked against reference.json; an operation that raises, exits
non-zero or writes a wrong result counts as failed.

Operation times are scaled to a reference machine speed that calibrate()
measures between operations (see README.md).  --trace 0 measures the end-to-end
metrics with no tracing.  --trace 1 measures S/2 seconds untraced, then S/2
seconds with spans around the package's public functions (tracing.py), and
reports per-layer metrics.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.linalg import solve_banded

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# calibrate() on the machine that defined the benchmark, at its faster speed
CAL_REF_S = 0.0045
_CAL_X = np.linspace(0.0, 1.0, 48)
_CAL_AB = np.array([[0.0] + [-0.1] * 47, [1.2] * 48, [-0.1] * 47 + [0.0]])


def machine_facts() -> dict:
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {k: info.get(k) for k in ("name", "version",
                                          "openblas configuration")}

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def setup_seconds(workload: workloads.Workload, out_dir: Path) -> float:
    """Wall seconds from a fresh interpreter to the warm-up query's result."""
    argv = json.dumps(workload.argv(workload.warmup, out_dir))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                           argv], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def run_op(cli, workload, ref, op_dir: Path, tracer=None):
    """One operation: every query, then the output checks.

    Returns (wall seconds of the queries, failure reason or None)."""
    sink = io.StringIO()
    statuses = []
    start = time.perf_counter()
    for i, query in enumerate(workload.queries):
        argv = workload.argv(query, op_dir / f"q{i:02d}")
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                if tracer is None:
                    status = cli.main(argv)
                else:
                    status = tracer.call("bench.op", cli.main, (argv,))
        except (Exception, SystemExit) as exc:
            status = f"{type(exc).__name__}: {exc}"
        statuses.append(status)
    elapsed = time.perf_counter() - start
    for i, (query, status) in enumerate(zip(workload.queries, statuses)):
        if status != 0:
            return elapsed, f"{' '.join(query)}: exit {status}"
        try:
            reason = workloads.check(workload, ref, query, op_dir / f"q{i:02d}")
        except (OSError, ValueError, KeyError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            return elapsed, reason
    return elapsed, None


def calibrate() -> float:
    """Seconds the fastest of three runs of a fixed kernel takes now.

    The kernel mimics a few implicit steps on a 48-cell grid with numpy and
    scipy calls, but uses no chemobound code, so only the machine's speed
    moves it.  The shared virtual cores this benchmark was defined on
    switch, for seconds to minutes at a time, between speeds ~1.85x apart;
    the kernel tracks the switch."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        u = _CAL_X.copy()
        for _ in range(120):
            g = np.zeros(49)
            g[1:-1] = np.diff(u) * 48.0
            up = np.where(g[1:-1] >= 0.0, u[:-1], u[1:])
            u = solve_banded((1, 1), _CAL_AB, u + 1e-3 * max(up.sum(), 0.0))
            [float(v) for v in u[:8]]
        integrate.quad(lambda s: 1.0 / (1.0 + s * s), 0.0, 10.0)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds at the reference machine speed."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure(cli, workload, ref, seconds: float, tag: str, tracer=None):
    """Operations back to back until `seconds` have passed (at least one),
    with a calibration between each two.

    Returns (wall seconds, scaled seconds, calibrations, failure reasons)."""
    times, cals, failures = [], [calibrate()], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        op_dir = workload.work_dir / f"{tag}{len(times)}"
        elapsed, reason = run_op(cli, workload, ref, op_dir, tracer)
        shutil.rmtree(op_dir, ignore_errors=True)
        times.append(elapsed)
        failures.append(reason)
        cals.append(calibrate())
    scaled_times = [scaled(t, cals[i], cals[i + 1]) for i, t in enumerate(times)]
    return times, scaled_times, cals, failures


def summary(times: list[float]) -> dict:
    q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"n": len(times), "median": statistics.median(times),
            "q1": q[0], "q3": q[2], "min": min(times), "max": max(times),
            "all": times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chemobound" / "cli.py").is_file():
        print(f"error: no chemobound sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from chemobound import cli, config, exponents, odi, pde, verify
    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"error: chemobound imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    modules = {"cli": cli, "config": config, "exponents": exponents,
               "odi": odi, "pde": pde, "verify": verify}

    ref = workloads.load_reference()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, run_dir)
        metrics: dict[str, tuple[float, str]] = {}
        detail: dict = {}
        if not args.trace:
            setups = [setup_seconds(workload, run_dir / f"probe{i}")
                      for i in range(SETUP_PROBES)]
            metrics["setup_s"] = (statistics.median(setups), "s")
            detail["setup_s"] = setups

        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(workload.argv(workload.warmup, run_dir / "warmup"))
        except (Exception, SystemExit):
            pass  # a failing query fails the timed operations too

        if not args.trace:
            times, times_scaled, cals, failures = measure(
                cli, workload, ref, args.seconds, "op")
            ok = failures.count(None)
            busy = sum(times_scaled)
            metrics["op_s"] = (statistics.median(times_scaled), "s")
            metrics["cells_per_s"] = (ok * workload.cells / busy, "1/s")
            metrics["queries_per_s"] = (ok * len(workload.queries) / busy,
                                        "1/s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
            detail["op_s"] = {"wall": summary(times),
                              "scaled": summary(times_scaled),
                              "calibration": cals}
        else:
            half = args.seconds / 2.0
            _, plain, _, plain_fail = measure(cli, workload, ref, half,
                                              "plain")
            tracer = tracing.Tracer()
            saved = tracing.install(tracer, modules)
            try:
                _, traced, _, traced_fail = measure(cli, workload, ref, half,
                                                    "traced", tracer)
            finally:
                tracing.restore(saved)
            failures = plain_fail + traced_fail
            metrics = tracing.layer_metrics(tracer, len(traced))
            metrics["trace.overhead_s"] = (
                statistics.median(traced) - statistics.median(plain), "s")
            metrics["fail_frac"] = (
                (len(failures) - failures.count(None)) / len(failures), "frac")
            detail["op_s"] = {"scaled": summary(plain)}
            detail["traced_op_s"] = {"scaled": summary(traced)}
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" /
                         f"{args.workload}-s{args.seed}-{time.time_ns()}.json")

        failed = len(failures) - failures.count(None)
        detail["failures"] = sorted({f for f in failures if f is not None})[:5]
        result = {
            "correct": failed == 0,
            "attempted": len(failures),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "queries_per_op": len(workload.queries),
                  "cells_per_op": workload.cells,
                  "machine": machine_facts(), "detail": detail,
                  "result": result}
        (WORK / "results").mkdir(exist_ok=True)
        (WORK / "results" /
         f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
         ).write_text(json.dumps(record, indent=1))
        print(json.dumps({k: record[k] for k in ("machine", "detail")}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
