"""Golden digests: solver runs must reproduce recorded results bit for bit.

Each case runs one solver configuration for two passes, checkpoints, reloads
and resumes to four passes.  The digest file stores, per case, sha256 prefixes
of the trace (every field but wall_ms, floats as hex), the final state's
vectors and tables, both checkpoint files, and the sampler's draw count.
Divergence cases store the DivergenceError message, j and k themselves.

The digests depend on the platform's floating-point kernels (BLAS dot
products, numpy's tanh, the Gram product and LAPACK's eigvalsh behind
f_star), so the file also carries a digest of those primitives; on a
platform where they differ the comparison is skipped.

Re-record (only at a commit whose numbers are known good):

    PYTHONPATH=src python tests/test_bit_exact.py --record
"""

import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from finito import (DivergenceError, QuadraticProblem, SamplingScheme,
                    SolverConfig, SynthSpec, checkpoint_load, checkpoint_save,
                    finito_init, finito_step, reference_solve, run_with_state,
                    synth_problem)
from finito.samplers import SAMPLING_NAMES
from finito.solvers import MONITORS

from conftest import arithmetic_digest, sha_prefix as _sha, skip_unless_same_arithmetic

DIGESTS = Path(__file__).with_name("bit_exact_digests.json")
SOLVERS = ("finito", "miso", "prox-finito", "sag")


def _problems():
    quad_rng = np.random.default_rng([11])
    quad = QuadraticProblem(centers=quad_rng.standard_normal((12, 3)),
                            weights=quad_rng.uniform(1.0, 2.0, 12))
    return {
        "logistic": synth_problem(SynthSpec(n=12, d=3, seed=5)),
        "squared": synth_problem(SynthSpec(n=12, d=3, loss="squared",
                                           noise=0.1, seed=6)),
        "l1": synth_problem(SynthSpec(n=12, d=3, l1_weight=0.05, seed=7)),
        "quadratic": (quad, reference_solve(quad)),
    }


def _trace_bytes(records) -> bytes:
    return "\n".join(
        f"{r.epoch.hex()},{float(r.objective).hex()},{float(r.suboptimality).hex()},"
        f"{float(r.grad_norm).hex()},{r.solver},{r.sampling},{r.seed}"
        for r in records).encode()


def _state_bytes(state) -> bytes:
    names = ("w", "p_table", "p_sum", "phi_table", "grad_table", "grad_sum")
    return b"".join(getattr(state, name).tobytes() for name in names
                    if getattr(state, name, None) is not None)


def _checkpoint(state, sampler) -> str:
    buf = io.StringIO()
    checkpoint_save(state, buf, sampler)
    return buf.getvalue()


def _configs():
    # sag has no table mean to monitor
    for solver in SOLVERS:
        for sampling in SAMPLING_NAMES:
            for first_pass in (False, True):
                for monitor in (("iterate",) if solver == "sag" else MONITORS):
                    yield solver, sampling, first_pass, monitor


def _run_case(problem, reference, solver, sampling, first_pass, monitor):
    config = SolverConfig(solver=solver, first_pass=first_pass,
                          monitor=monitor, w0=np.zeros(problem.d))
    scheme = SamplingScheme.from_name(sampling, seed=3)
    head, state, sampler = run_with_state(problem, config, scheme, 2,
                                          reference=reference, record_every=0.5)
    mid = _checkpoint(state, sampler)
    resume = checkpoint_load(io.StringIO(mid), problem)
    tail, state, sampler = run_with_state(problem, config, scheme, 4,
                                          reference=reference, record_every=0.5,
                                          resume=resume)
    return {"trace": _sha(_trace_bytes(head + tail)),
            "state": _sha(_state_bytes(state)),
            "checkpoint": _sha(mid.encode(), _checkpoint(state, sampler).encode()),
            "draws": sampler.draws}


def _divergence(blow_up):
    """Message, j, k and partial trace of a call that must blow up."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            blow_up()
        except DivergenceError as err:
            return {"message": str(err), "j": err.j, "k": err.k,
                    "trace": _sha(_trace_bytes(err.records))}
    raise AssertionError("the call did not diverge")


def _diverging_run(problem, config):
    return lambda: run_with_state(problem, config,
                                  SamplingScheme.from_name("permuted", 3), 400)


def _divergence_cases(problems):
    squared, _ = problems["squared"]
    quad, _ = problems["quadratic"]
    d = squared.d
    stale = finito_init(squared, 2.0, w0=np.zeros(d))
    finito_step(stale, squared, 0)
    stale.w = np.full(d, np.nan)
    return {
        "squared-finito-small-alpha": _divergence(_diverging_run(
            squared, SolverConfig(alpha=0.01, w0=np.zeros(d)))),
        "squared-sag-large-step": _divergence(_diverging_run(
            squared, SolverConfig(solver="sag", step=1e4, w0=np.zeros(d)))),
        "quadratic-finito-overflowing-gradient": _divergence(_diverging_run(
            quad, SolverConfig(w0=np.full(quad.d, 1.5e308)))),
        "finito-non-finite-iterate": _divergence(
            lambda: finito_step(stale, squared, 1)),
    }


def compute_digests() -> dict:
    problems = _problems()
    cases = {}
    for name, (problem, reference) in problems.items():
        for solver, sampling, first_pass, monitor in _configs():
            if name == "l1" and solver != "prox-finito":
                continue  # the other table solvers refuse an l1 term
            # the table-mean monitor is what keeps the audit tables
            key = (f"{name} {solver} {sampling} first_pass={int(first_pass)} "
                   f"audit={int(monitor == 'table-mean')} {monitor}")
            cases[key] = _run_case(problem, reference, solver, sampling,
                                   first_pass, monitor)
    return {"arithmetic": arithmetic_digest(), "cases": cases,
            "divergence": _divergence_cases(problems)}


@pytest.fixture(scope="module")
def golden():
    return skip_unless_same_arithmetic(json.loads(DIGESTS.read_text()))


@pytest.fixture(scope="module")
def current():
    return compute_digests()


def test_runs_and_checkpoints_match_golden(golden, current):
    assert current["cases"].keys() == golden["cases"].keys()
    changed = {key: sorted(part for part in value
                           if value[part] != golden["cases"][key][part])
               for key, value in current["cases"].items()
               if value != golden["cases"][key]}
    assert changed == {}


def test_divergence_errors_match_golden(golden, current):
    assert current["divergence"] == golden["divergence"]


def test_the_platform_guard_covers_the_gram_eigenvalues(monkeypatch):
    # f_star steps at the largest Gram eigenvalue, so a platform whose
    # eigvalsh rounds one ulp apart records other digests and must skip
    recorded = {"arithmetic": arithmetic_digest()}
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.nextafter(eigvalsh(a), np.inf))
    with pytest.raises(pytest.skip.Exception):
        skip_unless_same_arithmetic(recorded)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_bit_exact.py --record")
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
