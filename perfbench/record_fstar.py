"""Record the reference value f_star of every problem the workloads generate.

    python3 perfbench/record_fstar.py

Writes perfbench/fstar.json: for each problem recipe, the hex f_star of its
problem at each seed 0 .. PROBLEM_SEEDS-1, as `synth_problem` computes it
with one BLAS thread.  The benchmark checks every reference solve against
these values.  Rerun only when a change is meant to alter the problems.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from workloads import PROBLEM_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    fi = harness.load_finito(Path(__file__).resolve().parent.parent)
    if fi is None:
        print("error: no finito sources", file=sys.stderr)
        return 2
    specs = {spec.signature: spec
             for workload in WORKLOADS.values() for spec in workload.problems}
    table = {}
    for signature, spec in sorted(specs.items()):
        table[signature] = [
            harness.synth(fi, spec, seed)[1].f_star.hex()
            for seed in range(PROBLEM_SEEDS)]
        print(signature, flush=True)
    harness.FSTAR_PATH.write_text(json.dumps(table, indent=1) + "\n",
                                  encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
