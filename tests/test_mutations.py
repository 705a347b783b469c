"""Each seeded solver defect fails a named cheap check, which passes on the
code as it is (mutation analysis, DeMillo, Lipton & Sayward, IEEE Computer
1978).  The mutations come from the method definitions in the Finito paper
(arXiv 1407.2710) and in SAG's (arXiv 1309.2388):

- M2: w divides by 1.1 alpha s seen, not alpha s seen;
- M3: the periodic recompute of the running sum never runs;
- M4: phi row j stores w + 1e-3 g, not w;
- M5: SAG's first pass drops its n/seen step scaling;
- M6: the permuted sampler draws uniformly;
- M7: SAG's step is doubled once the first pass is over;

and from the run driver's exit and resume paths:

- M8: the ratio guard fires at 10 x DIVERGENCE_RATIO;
- M9: a resumed run has a nan divergence baseline;
- M10: a loaded sampler restarts at draw 0;

and from the analysis lab:

- M11: `rate_bound`'s constant is c = 1 - 1/(4 alpha), not 1 - 1/(2 alpha);
- M12: the unseen-count radius of `suite_lowerbound` is ten times as wide;

and from the one proximal map that prox-finito, the full-gradient step and
the reference solve share:

- M13: `_prox` thresholds at 2 l1 step, not l1 step.

Each is applied in-process: a module function or method is patched, or a
module function (`_fold`, `run_with_state`, `rate_bound`, `suite_lowerbound`,
`_prox`) is rebuilt from its source with one replacement that must match
exactly once.
"""

import dataclasses
import inspect
import io
import math
import sys

import numpy as np
import pytest

import finito.cli as cli
import finito.lower_bounds as lower_bounds
import finito.problems as problems
import finito.solvers as solvers
import finito.theory as theory
from finito import (LOGISTIC, PERMUTED, UNIFORM, DivergenceError, FiniteSumProblem,
                    IndexSampler, QuadraticProblem, SamplingScheme, SolverConfig,
                    SynthSpec, checkpoint_load, checkpoint_save, sag_init, sag_step,
                    synth_problem)
import test_problems
# the diverging run of the exit-2 tests: finito at alpha = 0.05 on a
# beta = 0.01 problem, whose suboptimality stays finite until the ratio
# guard ends it
from test_solvers import DIVERGING, RUNAWAY


def rebuild(monkeypatch, function, old: str, new: str) -> None:
    """Patch a module function with its source edited once, compiled in its
    module's globals, so its callers there (the step functions, `run`) call
    the edited one."""
    module = sys.modules[function.__module__]
    source = inspect.getsource(function)
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         vars(module), namespace)
    monkeypatch.setattr(module, function.__name__, namespace[function.__name__])


def lyapunov_passes() -> bool:
    """verify's lyapunov suite at a small size: exit 0, or 3 on a false row."""
    code = cli.main(["verify", "--suite", "lyapunov", "--n", "12", "--d", "3",
                     "--draws", "4"])
    assert code in (0, 3)
    return code == 0


def oracle_passes(tag: str) -> bool:
    """One fixed case of the kernel oracle: three passes from the first pass."""
    pytest.importorskip("hypothesis")
    from test_kernel_oracle import follow_the_oracle
    rng = np.random.default_rng(8)
    problem = FiniteSumProblem(rng.standard_normal((8, 3)),
                               np.sign(rng.standard_normal(8)), LOGISTIC, s=0.5)
    try:
        follow_the_oracle(problem, rng, tag, audit=False, first_pass=True,
                          kind=PERMUTED, alpha=2.0, epochs=3)
    except AssertionError:
        return False
    return True


def permuted_passes_are_permutations() -> bool:
    sampler = IndexSampler(SamplingScheme(PERMUTED, 1), 10)
    return all(sorted(sampler.next_index() for _ in range(10)) == list(range(10))
               for _ in range(3))


def sag_step_hand_value_holds() -> bool:
    # test_sag_step_hand_value on the n=2 desk quadratic of conftest
    desk = QuadraticProblem(centers=[[1.0], [-1.0]])
    state = sag_init(desk, w0=np.ones(1))
    sag_step(state, desk, 0)
    return state.w[0] == 15.0 / 16.0


def reloaded(problem, state, sampler):
    """(state, sampler) through a checkpoint save and load."""
    buf = io.StringIO()
    checkpoint_save(state, buf, sampler)
    buf.seek(0)
    return checkpoint_load(buf, problem)


def ratio_guard_fires_at_the_first_record_past_it() -> bool:
    """Recorded every step, the run raises at the first record whose
    suboptimality exceeds DIVERGENCE_RATIO times the first."""
    problem, ref = synth_problem(DIVERGING)
    try:
        solvers.run(problem, SolverConfig(alpha=0.05), SamplingScheme(UNIFORM), 3,
                    reference=ref, record_every=1 / problem.n)
    except DivergenceError as err:
        subs = [r.suboptimality for r in err.records]
        return max(subs[:-1]) <= solvers.DIVERGENCE_RATIO * subs[0] < subs[-1]
    return False


def resumed_runaway_raises() -> bool:
    """Resumed from its epoch-1 checkpoint, the run raises at step 100."""
    problem, ref = synth_problem(DIVERGING)
    config, scheme = SolverConfig(alpha=0.05), SamplingScheme(UNIFORM)
    _, state, sampler = solvers.run_with_state(problem, config, scheme, 1,
                                               reference=ref)
    try:
        solvers.run(problem, config, scheme, 3, reference=ref,
                    resume=reloaded(problem, state, sampler))
    except DivergenceError as err:
        return (str(err), err.k) == (RUNAWAY, 100)
    return False


def resume_is_bit_exact() -> bool:
    """Checkpointed after its first sampled pass, a run resumes to the
    uninterrupted trace (a resume whose sampler is not at the draw its step
    implies is refused)."""
    problem, ref = synth_problem(SynthSpec(n=20, d=3, seed=1))
    config, scheme = SolverConfig(), SamplingScheme(UNIFORM, 3)
    whole = solvers.run(problem, config, scheme, 3, reference=ref)
    head, state, sampler = solvers.run_with_state(problem, config, scheme, 2,
                                                  reference=ref)
    try:
        tail = solvers.run(problem, config, scheme, 3, reference=ref,
                           resume=reloaded(problem, state, sampler))
    except ValueError:
        return False
    return ([(r.epoch, r.objective) for r in head + tail]
            == [(r.epoch, r.objective) for r in whole])


def rate_bound_starts_at_alpha_times_the_potential() -> bool:
    """At k = 0 the certified bound is alpha times the initial potential,
    (1 - 1/(2 alpha)) ||f'(w0)||^2 / s, at each alpha."""
    problem, _ = synth_problem(SynthSpec(n=200, d=10))
    w0 = np.zeros(problem.d)
    return all(math.isclose(theory.rate_bound(problem, alpha, w0, 0),
                            alpha * theory.initial_lyapunov(problem, w0, alpha),
                            rel_tol=1e-12)
               for alpha in (2.0, 3.0, 8.0))


def unseen_row_refuses_a_law_one_percent_high() -> bool:
    """With every law value 1% high, the k = 5 unseen-count row is false:
    at n = 10 the gap reads about 0.06 against a radius of about 0.01."""
    simulate = lower_bounds.simulate_unseen

    def one_percent_high(*args, **kwargs):
        return [dataclasses.replace(point, expected=1.01 * point.expected)
                for point in simulate(*args, **kwargs)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lower_bounds, "simulate_unseen", one_percent_high)
        rows = {r.name: r.satisfied for r in lower_bounds.suite_lowerbound()}
    return not rows["unseen-mean-k5"]


def prox_values_hold() -> bool:
    """test_prox_soft_threshold_values: its values are worked out by hand."""
    try:
        test_problems.test_prox_soft_threshold_values()
    except AssertionError:
        return False
    return True


def m2(monkeypatch):
    monkeypatch.setattr(solvers, "_next_w", lambda state, problem, seen, total:
                        total / -(1.1 * state.alpha * problem.s * seen))


def m3(monkeypatch):
    rebuild(monkeypatch, solvers._fold, "recompute = (k + 1) % n == 0",
            "recompute = False")


def m4(monkeypatch):
    rebuild(monkeypatch, solvers._fold, "state.phi_table[j] = w",
            "state.phi_table[j] = w + 1e-3 * g")


SAG_STEP = "step = state.step * n / seen if first_pass else state.step"


def m5(monkeypatch):
    rebuild(monkeypatch, solvers._fold, SAG_STEP, "step = state.step")


def m6(monkeypatch):
    def uniform_block(scheme, n, pass_index):
        rng = np.random.default_rng([scheme.seed, pass_index])
        return rng.integers(0, n, size=n).tolist()
    monkeypatch.setattr(IndexSampler, "_make_block", staticmethod(uniform_block))


def m7(monkeypatch):
    rebuild(monkeypatch, solvers._fold, SAG_STEP,
            SAG_STEP.replace("else state.step", "else 2 * state.step"))


def m8(monkeypatch):
    rebuild(monkeypatch, solvers.run_with_state, "sub > DIVERGENCE_RATIO * baseline",
            "sub > 10 * DIVERGENCE_RATIO * baseline")


def m9(monkeypatch):
    rebuild(monkeypatch, solvers.run_with_state, "if f_star is not None else math.nan)",
            "if f_star is None else math.nan)")


def m10(monkeypatch):
    skip_to = IndexSampler.skip_to
    monkeypatch.setattr(IndexSampler, "skip_to", lambda self, draws: skip_to(self, 0))


def m11(monkeypatch):
    rebuild(monkeypatch, theory.rate_bound, "c = 1.0 - 0.5 / alpha",
            "c = 1.0 - 0.25 / alpha")


def m12(monkeypatch):
    rebuild(monkeypatch, lower_bounds.suite_lowerbound,
            "abs(p.mc_mean - p.expected), radius,",
            "abs(p.mc_mean - p.expected), 10 * radius,")


def m13(monkeypatch):
    rebuild(monkeypatch, problems._prox, "l1_weight * step", "2.0 * l1_weight * step")
    # solvers binds the map by name at import, so it is patched there too
    monkeypatch.setattr(solvers, "_prox", problems._prox)


# mutation -> the check that catches it
CAUGHT_BY = {
    m2: lyapunov_passes,
    m3: lambda: oracle_passes("finito"),
    m4: lyapunov_passes,
    m5: lambda: oracle_passes("sag"),
    m6: permuted_passes_are_permutations,
    m7: sag_step_hand_value_holds,
    m8: ratio_guard_fires_at_the_first_record_past_it,
    m9: resumed_runaway_raises,
    m10: resume_is_bit_exact,
    m11: rate_bound_starts_at_alpha_times_the_potential,
    m12: unseen_row_refuses_a_law_one_percent_high,
    m13: prox_values_hold,
}


@pytest.mark.parametrize("mutate", CAUGHT_BY, ids=lambda m: m.__name__.upper())
def test_each_mutation_fails_its_check(monkeypatch, mutate):
    check = CAUGHT_BY[mutate]
    assert check()
    mutate(monkeypatch)
    assert not check()
