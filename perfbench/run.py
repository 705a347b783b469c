"""Benchmark for the finito solvers and their theory lab.

    python3 perfbench/run.py --workload inner-loop --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; finito is imported from its `src/`.  A run
repeats passes of the workload (set-up, then its job) until `--seconds` have
gone by, and at least MIN_PASSES times.  With `--trace 0` it prints the
end-to-end metrics, each the median over its passes, with times in nominal
seconds (see harness).  With `--trace 1` it makes a traced pass between two
untraced ones, prints the per-layer metrics of the traced one (span times in
wall seconds, counts exact) and writes its spans to `perfbench/out/`.  Either
way it checks the outputs, counts failed operations, writes a result file
with the environment fingerprint to `perfbench/out/`, and prints as its last
line one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread for every run (at most nproc), set before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 3
# no new pass starts once one more would end past this many seconds
PASS_BUDGET_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "steps_per_s": "1/s",
    "time_to_tol_s": "s",
    "peak_rss_mb": "MB",
}


def fingerprint(fi) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "finito": fi.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
    }


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports."""
    counts = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return counts
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import harness
    import tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    fi = harness.load_finito(ROOT)
    if fi is None:
        print(f"error: no finito sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = fingerprint(fi)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = harness.Session(fi, WORKLOADS[args.workload], args.seed,
                              OUT / f"work-{tag}-{os.getpid()}",
                              harness.load_fstar())
    session.workdir.mkdir(parents=True, exist_ok=True)
    ledger = session.ledger
    patches = tracer.Patches()
    patches.function(fi.solvers.run_with_state, session.probe)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "env": env}
    try:
        if args.trace == 0:
            passes = []
            started = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                passes.append(harness.run_pass(session))
                now = time.perf_counter()
                if len(passes) >= MIN_PASSES and now - started >= args.seconds:
                    break
                if now - started + (now - pass_start) > PASS_BUDGET_S:
                    break
            last = passes[-1]
            metrics = {name: statistics.median(getattr(p, name) for p in passes)
                       for name in ("setup_s", "total_s", "steps_per_s",
                                    "time_to_tol_s")}
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = END_TO_END
            report["passes"] = [
                {"parts": p.parts, "raw_parts": p.raw_parts, "pace": p.pace,
                 "steps": p.steps,
                 "run_s": p.run_s, "run_ttt": p.run_ttt} for p in passes]
        else:
            # the traced pass sits between two untraced ones; the overhead is
            # its total_s minus theirs on average
            before = harness.run_pass(session)
            spans = tracer.Tracer()
            span_patches = tracer.Patches()
            report["untraced_functions"] = spans.install(span_patches)
            session.pace.sample = False  # no readings inside spans
            try:
                traced = harness.run_pass(session)
            finally:
                span_patches.undo()
                session.pace.sample = True
            last = harness.run_pass(session)
            table = spans.table()
            metrics = tracer.layer_metrics(
                table, traced.checkpoint_bytes, traced.checks,
                traced.checks_unsatisfied,
                traced.total_s - (before.total_s + last.total_s) / 2)
            units = {name: spec[0] for name, spec in tracer.PER_LAYER.items()}
            report["layer_map"] = {name: spec[2]
                                   for name, spec in tracer.PER_LAYER.items()}
            report["spans"] = table.summary()
            table.write_csv(OUT / f"spans-{tag}.csv")
        harness.check_resume(session, last)
    finally:
        patches.undo()
        shutil.rmtree(session.workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for failure in ledger.failures:
        print(f"failure {failure}")
    failed = len(ledger.failures)
    print(f"error_rate {failed / ledger.attempted!r} "
          f"({failed} failed of {ledger.attempted} attempted)")
    report.update(metrics=metrics, attempted=ledger.attempted,
                  failures=ledger.failures, tracebacks=ledger.tracebacks)
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1),
                                            encoding="ascii")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
