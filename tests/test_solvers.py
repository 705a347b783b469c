"""Solver updates against exact hand values, state invariants, and run() behavior.

Hand values all live on the n=2 desk quadratic (see conftest): components
(1/2)(w-1)^2 and (1/2)(w+1)^2, so s = L = 1 and every update is a dyadic
rational that floats represent exactly.
"""

import dataclasses
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import finito.solvers
from finito import (
    PERMUTED,
    UNIFORM,
    DivergenceError,
    FiniteSumProblem,
    FullGradientState,
    QuadraticProblem,
    SamplingScheme,
    SolverConfig,
    SQUARED,
    SagState,
    checkpoint_load,
    checkpoint_save,
    finito_first_pass_step,
    finito_init,
    finito_step,
    prox_operator,
    reference_solve,
    run,
    run_with_state,
    sag_default_step,
    sag_first_pass_step,
    sag_init,
    sag_step,
    synth_data,
    synth_problem,
    SynthSpec,
)
from finito.samplers import SAMPLING_NAMES
from finito.solvers import FINITO_TAGS, check_run


# -- exact hand values ---------------------------------------------------------


def test_finito_init_hand_value(desk):
    st = finito_init(desk, alpha=2.0, w0=np.ones(1))
    assert np.array_equal(st.p_table, [[-2.0], [0.0]])
    assert st.w[0] == 0.5


def test_finito_step_hand_value_second_component(desk):
    st = finito_init(desk, alpha=2.0, w0=np.ones(1))
    finito_step(st, desk, 1)
    assert st.w[0] == 0.375


def test_finito_step_hand_value_first_component(desk):
    st = finito_init(desk, alpha=2.0, w0=np.ones(1))
    finito_step(st, desk, 0)
    assert st.w[0] == 0.375


def test_first_pass_hand_value(desk):
    st = finito_init(desk, alpha=2.0, w0=np.ones(1), first_pass=True)
    assert st.seen == 0 and st.w[0] == 1.0
    finito_first_pass_step(st, desk, 0)
    # only the first component is admitted; its gradient at 1 is zero
    assert st.seen == 1 and st.w[0] == 1.0
    finito_first_pass_step(st, desk, 1)
    assert st.seen == 2
    assert st.w[0] == 0.5  # both rows at 1 now, same as the eager init


def test_sag_step_hand_value(desk):
    step = sag_default_step(desk)
    assert step == 1.0 / 32.0
    st = sag_init(desk, w0=np.ones(1))
    assert np.array_equal(st.grad_table, [[0.0], [2.0]])
    sag_step(st, desk, 0)
    assert st.w[0] == 15.0 / 16.0


def test_sag_default_steps(desk):
    assert sag_default_step(desk) == 1.0 / 32.0
    assert sag_default_step(desk, practical=True) == 0.5


def test_constants_derived_from_a_huge_lipschitz_constant_name_the_data():
    # L = 1e308 + 0.5 is finite; 16 L n and L/s are not
    p = FiniteSumProblem([[0.0], [1e154]], [0.0, 0.0], SQUARED, s=0.5)
    with pytest.raises(ValueError, match="default sag step underflows to 0 "
                                         "at L = 1e\\+308, n = 2"):
        sag_default_step(p)
    with pytest.raises(ValueError, match="miso's alpha = L/s overflows"):
        run(p, SolverConfig(solver="miso", w0=np.zeros(1)),
            SamplingScheme(UNIFORM, 0), 1)


@pytest.mark.parametrize("solver", ["finito", "miso", "sag"])
def test_solvers_that_ignore_an_l1_term_refuse_it(solver):
    # the init and run refuse; so does a resume, whatever state it carries
    problem, _ = synth_problem(SynthSpec(n=12, d=3, l1_weight=0.05, seed=7))
    smooth, _ = synth_problem(SynthSpec(n=12, d=3, seed=7))
    message = (f"^{solver} ignores the l1 term \\(l1 = 0.05\\); "
               "use prox-finito or full-gradient$")
    config = SolverConfig(solver=solver, w0=np.zeros(problem.d))
    with pytest.raises(ValueError, match=message):
        sag_init(problem) if solver == "sag" else finito_init(problem, 2.0, solver_tag=solver)
    with pytest.raises(ValueError, match=message):
        run(problem, config, SamplingScheme(UNIFORM), 1)
    _, state, sampler = run_with_state(smooth, config, SamplingScheme(UNIFORM), 1)
    with pytest.raises(ValueError, match=message):
        run(problem, config, SamplingScheme(UNIFORM), 2, resume=(state, sampler))
    for tag in ("prox-finito", "full-gradient"):
        run(problem, SolverConfig(solver=tag, w0=np.zeros(problem.d)),
            SamplingScheme(UNIFORM), 1)


def miso_state(problem, w0):
    """The state run() builds for solver="miso" (eager init, no steps)."""
    config = SolverConfig(solver="miso", alpha=5.0, first_pass=False, w0=w0)
    _, state, _ = run_with_state(problem, config, SamplingScheme(UNIFORM),
                                 epochs=0)
    return state


def test_miso_init_hand_value(desk):
    # L = s here, so the effective alpha is 1 and the init lands on the mean
    st = miso_state(desk, np.ones(1))
    assert st.alpha == 1.0 and st.solver_tag == "miso"
    assert st.w[0] == 0.0


def test_miso_matches_finito_at_matching_alpha(synth_tiny):
    problem, _ = synth_tiny
    alpha = problem.lipschitz_constant() / problem.s
    a = miso_state(problem, np.zeros(problem.d))
    assert a.alpha == alpha and a.solver_tag == "miso"
    b = finito_init(problem, alpha=alpha, w0=np.zeros(problem.d))
    for j in [3, 0, 7, 3, 11]:
        finito_step(a, problem, j)
        finito_step(b, problem, j)
    assert np.array_equal(a.w, b.w)


# -- state invariants ------------------------------------------------------------


def test_audit_rows_decompose_compact_rows(synth_tiny, rng):
    # the two storages step through the same rows: p_i = f_i'(phi_i) - alpha*s*phi_i
    problem, _ = synth_tiny
    compact = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d))
    audit = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True)
    assert compact.phi_table is None
    for j in rng.integers(problem.n, size=60):
        finito_step(compact, problem, int(j))
        finito_step(audit, problem, int(j))
    assert np.array_equal(audit.p_table, compact.p_table)
    want = (problem.table_gradients(audit.phi_table)
            - audit.alpha * problem.s * audit.phi_table)
    assert np.max(np.abs(compact.p_table - want)) <= 1e-12


def test_compact_w_identity(synth_tiny, rng):
    problem, _ = synth_tiny
    st = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d))
    denom = st.alpha * problem.s * problem.n
    for j in rng.integers(problem.n, size=60):
        finito_step(st, problem, int(j))
        assert np.allclose(st.w, -st.p_sum / denom, atol=1e-13)


def test_audit_and_compact_agree(synth_tiny, rng):
    problem, _ = synth_tiny
    a = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True)
    b = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d))
    for j in rng.integers(problem.n, size=100):
        finito_step(a, problem, int(j))
        finito_step(b, problem, int(j))
        assert np.array_equal(a.w, b.w)


def test_audit_and_compact_prox_finito_agree(rng):
    # both soft-threshold the same point, -p_bar/(alpha*s); the phi table of
    # audit storage never feeds back into w
    problem, _ = synth_problem(SynthSpec(n=20, d=3, seed=1, l1_weight=0.01))
    a = finito_init(problem, alpha=2.0, audit=True, solver_tag="prox-finito")
    b = finito_init(problem, alpha=2.0, solver_tag="prox-finito")
    assert a.audit and not b.audit
    for j in rng.integers(problem.n, size=100):
        finito_step(a, problem, int(j))
        finito_step(b, problem, int(j))
        assert np.array_equal(a.w, b.w)
    assert 0 < np.count_nonzero(b.w) < problem.d  # the prox zeroes a coordinate


def test_sag_sum_tracks_table(synth_tiny, rng):
    problem, _ = synth_tiny
    st = sag_init(problem, w0=np.zeros(problem.d),
                  step=sag_default_step(problem, practical=True))
    for j in rng.integers(problem.n, size=150):
        sag_step(st, problem, int(j))
    assert np.linalg.norm(st.grad_sum - st.grad_table.sum(axis=0)) <= 1e-10


def test_fixed_point_no_drift(desk):
    # start every row at the minimizer; a hundred steps must not move w
    st = finito_init(desk, alpha=2.0, w0=np.zeros(1))
    for j in [0, 1] * 50:
        finito_step(st, desk, j)
        assert abs(st.w[0]) <= 1e-12


def test_first_pass_requires_completion(desk):
    st = finito_init(desk, alpha=2.0, w0=np.ones(1), first_pass=True)
    with pytest.raises(ValueError):
        finito_step(st, desk, 0)
    st2 = sag_init(desk, w0=np.ones(1), first_pass=True)
    with pytest.raises(ValueError):
        sag_step(st2, desk, 0)


@pytest.mark.parametrize("solver", ["finito", "sag"])
def test_first_pass_admits_each_row_once_in_index_order(synth_tiny, solver):
    problem, _ = synth_tiny
    w0 = np.zeros(problem.d)
    if solver == "finito":
        state, step = finito_init(problem, 2.0, w0=w0, first_pass=True), finito_first_pass_step
    else:
        state, step = sag_init(problem, w0=w0, first_pass=True), sag_first_pass_step
    with pytest.raises(ValueError, match="^first pass visits components in index "
                                         "order; expected k=0, got 3$"):
        step(state, problem, 3)
    for j in range(problem.n):
        step(state, problem, j)
    with pytest.raises(ValueError, match=r"^first pass is over \(k >= n = 20\)$"):
        step(state, problem, 0)


def test_prox_step_with_zero_weight_is_plain_finito(synth_tiny, rng):
    problem, _ = synth_tiny
    a = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True,
                    solver_tag="prox-finito")
    assert a.proximal
    b = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True)
    for j in rng.integers(problem.n, size=40):
        finito_step(a, problem, int(j))
        finito_step(b, problem, int(j))
    assert np.array_equal(a.w, b.w)


# -- convergence ------------------------------------------------------------------


def test_desk_problem_converges_tightly(desk):
    config = SolverConfig(solver="finito", alpha=2.0, w0=np.ones(1))
    records = run(desk, config, SamplingScheme(UNIFORM, seed=0), epochs=50,
                  reference=reference_solve(desk))
    assert records[-1].suboptimality <= 1e-10


def test_lasso_toy_collapses_to_zero(rng):
    feats = rng.normal(size=(4, 2))
    targets = rng.normal(size=4) * 0.1
    lam = 2.0 * np.max(np.abs(feats.T @ targets)) / 4 + 1.0
    problem = FiniteSumProblem(feats, targets, SQUARED, s=0.5, l1_weight=lam)
    ref = reference_solve(problem)
    assert ref.method_tag == "accelerated-proximal-gradient"
    assert np.allclose(ref.w_star, 0.0, atol=1e-10)
    config = SolverConfig(solver="prox-finito", alpha=2.0, w0=np.ones(2))
    _, state, _ = run_with_state(problem, config,
                                 SamplingScheme(UNIFORM, seed=0), epochs=60,
                                 reference=ref)
    assert np.allclose(state.w, 0.0, atol=1e-10)


def test_suboptimality_contracts_on_synth(synth_small):
    problem, ref = synth_small
    config = SolverConfig(solver="finito", alpha=2.0, w0=np.zeros(problem.d))
    records = run(problem, config, SamplingScheme(PERMUTED, seed=0), epochs=10,
                  reference=ref)
    assert records[-1].suboptimality <= records[0].suboptimality / 100
    assert all(r.suboptimality >= -1e-9 for r in records)


# -- run() mechanics ---------------------------------------------------------------


def test_run_record_grid(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="sag", w0=np.zeros(problem.d))
    records = run(problem, config, SamplingScheme(UNIFORM, seed=0), epochs=4,
                  reference=ref)
    assert [r.epoch for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
    half = run(problem, config, SamplingScheme(UNIFORM, seed=0), epochs=2,
               reference=ref, record_every=0.5)
    assert [r.epoch for r in half] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_run_trace_fields(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="miso", w0=np.zeros(problem.d))
    records = run(problem, config, SamplingScheme(PERMUTED, seed=3), epochs=2,
                  reference=ref)
    assert all(r.solver == "miso" and r.sampling == "permuted" and r.seed == 3
               for r in records)
    assert all(b.wall_ms >= a.wall_ms for a, b in zip(records, records[1:]))


def test_full_gradient_reference_solver(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="full-gradient", w0=np.zeros(problem.d))
    records = run(problem, config, SamplingScheme(UNIFORM), epochs=200,
                  reference=ref)
    # one gradient evaluation per epoch; linear rate at step 1/L
    assert records[-1].suboptimality <= 1e-8


def test_divergence_attaches_partial_records(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="full-gradient", step=1e9,
                          w0=np.zeros(problem.d))
    with pytest.raises(DivergenceError) as info:
        run(problem, config, SamplingScheme(UNIFORM), epochs=10, reference=ref)
    assert len(info.value.records) >= 1
    assert info.value.records[0].epoch == 0.0


def test_diverging_full_gradient_step_leaves_its_state(synth_tiny):
    # the step once wrote a non-finite w and counted itself before its check
    problem, _ = synth_tiny
    step, w0 = 1e300, np.zeros(problem.d)
    state = FullGradientState(step=step, w=w0.copy())
    config = SolverConfig("full-gradient", step=step)
    with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
        run_with_state(problem, config, SamplingScheme(UNIFORM), 5,
                       resume=(state, None))
    # the first step stays finite, so the second is the one refused
    first = prox_operator(problem.l1_weight, w0 - step * problem.full_gradient(w0), step)
    assert (str(info.value), info.value.k) == ("iterate diverged at step 2", 2)
    assert state.k == 1 and np.array_equal(state.w, first)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_full_gradient_state_refuses_a_step_that_is_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match=f"^step must be finite and > 0, got {bad}$"):
        FullGradientState(step=bad, w=np.zeros(2))


@pytest.mark.parametrize("config,name,value", [
    pytest.param(SolverConfig("finito"), "alpha", lambda p: 2.0, id="finito"),
    pytest.param(SolverConfig("prox-finito", alpha=3.0), "alpha", lambda p: 3.0,
                 id="prox-finito"),
    pytest.param(SolverConfig("miso", alpha=5.0), "alpha",
                 lambda p: p.lipschitz_constant() / p.s, id="miso"),
    pytest.param(SolverConfig("sag"), "step",
                 lambda p: 1.0 / (16.0 * p.lipschitz_constant() * p.n), id="sag"),
    pytest.param(SolverConfig("sag", step=0.25), "step", lambda p: 0.25, id="sag-step"),
    pytest.param(SolverConfig("full-gradient"), "step",
                 lambda p: 1.0 / p.lipschitz_constant(), id="full-gradient"),
    pytest.param(SolverConfig("full-gradient", step=0.25), "step", lambda p: 0.25,
                 id="full-gradient-step"),
])
def test_check_run_resolves_the_constant_each_state_holds(synth_tiny, config, name,
                                                         value):
    # L is neither s nor 1 here, so each value is its own formula; the state a
    # fresh run builds holds the same value under the same name
    problem, _ = synth_tiny
    assert problem.lipschitz_constant() not in (1.0, problem.s)
    assert check_run(problem, config, SamplingScheme(UNIFORM), 0) == (name, value(problem))
    _, state, _ = run_with_state(problem, config, SamplingScheme(UNIFORM), 0)
    assert getattr(state, name) == value(problem)


@pytest.mark.parametrize("solver,name", [("finito", "alpha"), ("prox-finito", "alpha"),
                                         ("sag", "step"), ("full-gradient", "step")])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_check_run_refuses_a_constant_that_is_not_finite_and_positive(
        synth_tiny, solver, name, bad):
    problem, _ = synth_tiny
    config = SolverConfig(solver, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad}$"):
        check_run(problem, config, SamplingScheme(UNIFORM), 1)


THREE_ROWS = ([[0.5, 1.0], [-0.3, 0.2], [0.1, -0.4]], [1.0, -1.0, 1.0])


def _resume(solver, scheme=SamplingScheme(UNIFORM)):
    """(state, sampler) of a compact two-epoch `solver` run on the three rows
    at s = 0.1."""
    problem = FiniteSumProblem(*THREE_ROWS, loss="logistic", s=0.1)
    _, state, sampler = run_with_state(problem, SolverConfig(solver), scheme, 2)
    return state, sampler


def _mid_first_pass():
    """(state, None) of a finito state one first-pass step into the three rows
    at s = 0.1: it has drawn no index, so it needs no sampler."""
    problem = FiniteSumProblem(*THREE_ROWS, loss="logistic", s=0.1)
    state = finito_init(problem, 2.0, first_pass=True)
    return finito_first_pass_step(state, problem, 0), None


# (problem keywords, config, run keywords, message): each refusal check_run makes
START_REFUSALS = [
    pytest.param({}, SolverConfig("bogus"), {}, "unknown solver 'bogus'", id="solver"),
    pytest.param({}, SolverConfig(monitor="bogus"), {}, "unknown monitor 'bogus'",
                 id="monitor"),
    pytest.param({"l1_weight": 0.1}, SolverConfig("sag"), {},
                 "sag ignores the l1 term (l1 = 0.1); use prox-finito or full-gradient",
                 id="l1"),
    pytest.param({}, SolverConfig("miso", step=0.5), {},
                 "miso ignores step (step = 0.5); only sag and full-gradient take one",
                 id="miso-step"),
    pytest.param({"s": 0.0}, SolverConfig("finito"), {},
                 "the table update divides by alpha*s*n", id="s-0"),
    pytest.param({"s": 5e-324}, SolverConfig("miso"), {},
                 "miso's alpha = L/s overflows at L = 0.3125, s = 4.94066e-324; "
                 "rescale the data", id="miso-alpha-overflow"),
    pytest.param({}, SolverConfig("finito", alpha=-1.0), {},
                 "alpha must be finite and > 0, got -1.0", id="alpha"),
    pytest.param({}, SolverConfig("sag"), {"epochs": -1}, "epochs must be >= 0, got -1",
                 id="epochs"),
    pytest.param({}, SolverConfig("sag"), {"record_every": 0.0},
                 "record_every must be finite and > 0, got 0.0", id="record-every"),
    pytest.param({}, SolverConfig("sag"), {"resume": lambda: _resume("finito")},
                 "resume state is for 'finito', config says 'sag'", id="resume-solver"),
    pytest.param({}, SolverConfig("finito", alpha=3.0), {"resume": lambda: _resume("finito")},
                 "finito resumes at alpha 2.0 from its checkpoint, not 3.0; resume with "
                 "the settings it started with", id="resume-alpha"),
    pytest.param({}, SolverConfig("sag"),
                 {"resume": lambda: _resume("sag", scheme=SamplingScheme(UNIFORM, 1))},
                 "sag resumes at sampling SamplingScheme(kind='uniform', seed=1) from its "
                 "checkpoint, not SamplingScheme(kind='uniform', seed=0); resume with the "
                 "settings it started with", id="resume-sampling"),
    # without the first pass every row is seen at k = 0
    pytest.param({}, SolverConfig("finito", first_pass=False), {"resume": _mid_first_pass},
                 "finito resumes at seen 1 from its checkpoint, not 3; resume with the "
                 "settings it started with", id="resume-seen"),
    pytest.param({}, SolverConfig("full-gradient"),
                 {"epochs": 1, "resume": lambda: _resume("full-gradient")},
                 "full-gradient resumes at step 2 from its checkpoint, past the run's end "
                 "at step 1 (epochs = 1)", id="resume-past-the-end"),
    pytest.param({}, SolverConfig("sag", monitor="table-mean"), {},
                 "table-mean monitoring needs finito audit storage", id="table-mean-sag"),
    pytest.param({}, SolverConfig("finito", monitor="table-mean"),
                 {"resume": lambda: _resume("finito")},
                 "table-mean monitoring needs finito audit storage", id="table-mean-compact"),
]


@pytest.mark.parametrize("problem_keywords,config,keywords,message", START_REFUSALS)
def test_run_with_state_refuses_what_check_run_refuses_before_it_builds_a_state(
        monkeypatch, problem_keywords, config, keywords, message):
    # one start check: the same refusal from either, and no state is built
    # nor a sampler made, nor a resumed state stepped, before it
    problem = FiniteSumProblem(*THREE_ROWS, loss="logistic",
                               **{"s": 0.1, **problem_keywords})
    keywords = {"epochs": 2, **keywords}
    if "resume" in keywords:
        keywords["resume"] = keywords["resume"]()
        k = keywords["resume"][0].k
    scheme = SamplingScheme(UNIFORM)
    with pytest.raises(ValueError) as checked:
        check_run(problem, config, scheme, **keywords)
    assert str(checked.value) == message

    def refuse(*args, **kwargs):
        pytest.fail("run_with_state built a state or a sampler before refusing")

    for name in ("_build_state", "finito_init", "sag_init", "FullGradientState",
                 "IndexSampler"):
        monkeypatch.setattr(finito.solvers, name, refuse)
    with pytest.raises(ValueError) as ran:
        run_with_state(problem, config, scheme, **keywords)
    assert (type(ran.value), str(ran.value)) == (type(checked.value), message)
    if "resume" in keywords:
        assert keywords["resume"][0].k == k


@pytest.mark.parametrize("f_star", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_reference_f_star_rejected(synth_tiny, f_star):
    # inf once gave -inf in every suboptimality cell, nan a silent NaN column
    problem, ref = synth_tiny
    config = SolverConfig(solver="finito", w0=np.zeros(problem.d))
    with pytest.raises(ValueError, match="reference f_star must be finite"):
        run_with_state(problem, config, SamplingScheme(UNIFORM), 1,
                       reference=dataclasses.replace(ref, f_star=f_star))


def test_unknown_solver_rejected(synth_tiny):
    problem, _ = synth_tiny
    with pytest.raises(ValueError):
        run(problem, SolverConfig(solver="sparkle", w0=np.zeros(problem.d)),
            SamplingScheme(UNIFORM), epochs=1)


def test_unknown_monitor_rejected(synth_tiny):
    problem, _ = synth_tiny
    config = SolverConfig(solver="finito", monitor="table_mean",
                          w0=np.zeros(problem.d))
    with pytest.raises(ValueError, match="unknown monitor 'table_mean'"):
        run(problem, config, SamplingScheme(UNIFORM), epochs=1)


def test_finito_init_takes_only_finito_tags(synth_tiny):
    problem, _ = synth_tiny
    for tag in ("sag", "full-gradient", "prox_finito"):
        with pytest.raises(ValueError, match="finito_init builds"):
            finito_init(problem, 2.0, solver_tag=tag)
    # proximal follows the tag and cannot be set on its own; the storage is
    # compact for every tag unless audit is asked for
    for tag in FINITO_TAGS:
        state = finito_init(problem, 2.0, solver_tag=tag)
        assert state.proximal is (tag == "prox-finito")
        assert state.audit is False
        assert finito_init(problem, 2.0, audit=True, solver_tag=tag).audit is True
    with pytest.raises(TypeError):
        finito_init(problem, 2.0, proximal=True)


@pytest.mark.parametrize("first_pass", [False, True])
def test_fresh_run_keeps_audit_storage_exactly_when_monitoring_the_table_mean(
        synth_tiny, first_pass):
    problem, _ = synth_tiny
    for tag in FINITO_TAGS:
        for monitor in ("iterate", "table-mean"):
            config = SolverConfig(solver=tag, monitor=monitor, first_pass=first_pass,
                                  w0=np.zeros(problem.d))
            _, state, _ = run_with_state(problem, config, SamplingScheme(UNIFORM), 1)
            assert state.audit is (monitor == "table-mean")
            assert (state.phi_table is None) is (monitor == "iterate")
            assert state.p_table is not None and state.p_sum is not None
    assert not any(f.name == "audit" for f in dataclasses.fields(SolverConfig))


@pytest.mark.parametrize("tag", FINITO_TAGS)
def test_the_monitor_never_changes_the_trajectory(tag):
    # the table-mean monitor keeps the phi table beside the p table, and w
    # is read from p_sum in either storage; only prox-finito steps on an l1 term
    l1 = 0.05 if tag == "prox-finito" else 0.0
    problem, _ = synth_problem(SynthSpec(n=12, d=3, l1_weight=l1, seed=7))
    for sampling in SAMPLING_NAMES:
        for first_pass in (False, True):
            ends = []
            for monitor in ("iterate", "table-mean"):
                config = SolverConfig(solver=tag, first_pass=first_pass,
                                      monitor=monitor, w0=np.zeros(problem.d))
                _, state, _ = run_with_state(
                    problem, config, SamplingScheme.from_name(sampling, 3), 4)
                ends.append(state)
            iterate, table_mean = ends
            assert table_mean.audit and not iterate.audit
            for name in ("w", "p_table", "p_sum"):
                assert np.array_equal(getattr(iterate, name),
                                      getattr(table_mean, name)), \
                    (sampling, first_pass, name)


def test_table_mean_monitor_reports_phi_mean(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="finito", alpha=2.0, monitor="table-mean",
                          w0=np.zeros(problem.d))
    records, state, _ = run_with_state(problem, config,
                                       SamplingScheme(UNIFORM, seed=1),
                                       epochs=3, reference=ref)
    want = problem.full_objective(state.phi_table.mean(axis=0))
    assert records[-1].objective == want


@pytest.mark.parametrize("first_pass", [False, True])
@pytest.mark.parametrize("tag", FINITO_TAGS)
def test_every_table_mean_record_sums_the_table_over_seen(synth_tiny, tag, first_pass):
    # a record every step, mid-epoch and mid first pass included, is the
    # objective at the phi table's sum over the rows seen, bit for bit
    problem, ref = synth_tiny
    n = problem.n
    config = SolverConfig(solver=tag, monitor="table-mean", first_pass=first_pass,
                          w0=np.zeros(problem.d))
    scheme = SamplingScheme(UNIFORM, seed=4)
    records, _, _ = run_with_state(problem, config, scheme, 3, reference=ref,
                                   record_every=1 / n)
    _, state, sampler = run_with_state(problem, config, scheme, 0)
    want = [problem.full_objective(state.w if state.seen == 0 else
                                   state.phi_table.sum(axis=0) / state.seen)]
    while state.k < 3 * n:
        if state.seen < n:
            finito_first_pass_step(state, problem, state.seen)
        else:
            finito_step(state, problem, sampler.next_index())
        want.append(problem.full_objective(state.phi_table.sum(axis=0) / state.seen))
    assert [r.objective for r in records] == want


def test_resume_matches_uninterrupted(synth_tiny):
    problem, ref = synth_tiny
    config = SolverConfig(solver="finito", alpha=2.0, w0=np.zeros(problem.d))
    scheme = SamplingScheme(PERMUTED, seed=6)
    full = run(problem, config, scheme, epochs=6, reference=ref)
    head, state, sampler = run_with_state(problem, config, scheme, epochs=3,
                                          reference=ref)
    tail = run(problem, config, scheme, epochs=6, reference=ref,
               resume=(state, sampler))
    stitched = [(r.epoch, r.objective, r.suboptimality, r.grad_norm)
                for r in head + tail]
    want = [(r.epoch, r.objective, r.suboptimality, r.grad_norm) for r in full]
    assert stitched == want


@pytest.mark.parametrize("solver", ["finito", "prox-finito", "miso", "sag"])
def test_a_table_resume_without_its_sampler_is_refused(synth_tiny, solver):
    # a state saved with no sampler once resumed with the index stream
    # restarted at draw 0, so its w was not the uninterrupted run's
    problem, _ = synth_tiny
    config = SolverConfig(solver=solver, w0=np.zeros(problem.d))
    scheme = SamplingScheme(UNIFORM, seed=3)
    _, state, sampler = run_with_state(problem, config, scheme, 2)
    buf = io.StringIO()
    checkpoint_save(state, buf)
    buf.seek(0)
    resume = checkpoint_load(buf, problem)
    assert resume[1] is None
    with pytest.raises(ValueError, match=f"^{solver} resumes at step 40 without "
                                         "the index stream it drew from"):
        run(problem, config, scheme, 4, resume=resume)
    # nor with its draws line edited: of its 40 steps, the 20 after the first
    # pass drew one index each
    buf = io.StringIO()
    checkpoint_save(state, buf, sampler)
    edited = io.StringIO(buf.getvalue().replace("\ndraws 20\n", "\ndraws 7\n"))
    with pytest.raises(ValueError, match=f"^{solver} resumes at draw 7 from its "
                                         "checkpoint, not 20; resume with the settings"):
        run(problem, config, scheme, 4, resume=checkpoint_load(edited, problem))
    # full-gradient draws no index, so its state alone resumes
    config = SolverConfig(solver="full-gradient", w0=np.zeros(problem.d))
    _, state, sampler = run_with_state(problem, config, scheme, 2)
    assert sampler is None
    assert len(run(problem, config, scheme, 4, resume=(state, None))) == 2


@pytest.mark.parametrize("solver", ["finito", "sag"])
@pytest.mark.parametrize("first_pass,k", [(False, 0), (True, 0), (True, 7), (True, 20)])
def test_a_state_that_drew_no_index_resumes_without_a_sampler(
        synth_tiny, solver, first_pass, k):
    # at k = 0, or until the first pass is over (seen == k <= n), the stream
    # is still at draw 0
    problem, _ = synth_tiny
    w0 = np.zeros(problem.d)
    config = SolverConfig(solver=solver, w0=w0, first_pass=first_pass)
    scheme = SamplingScheme(PERMUTED, seed=3)
    records, whole, _ = run_with_state(problem, config, scheme, 3)
    state = (sag_init(problem, w0, first_pass=first_pass) if solver == "sag"
             else finito_init(problem, 2.0, w0, first_pass=first_pass))
    first = sag_first_pass_step if solver == "sag" else finito_first_pass_step
    for j in range(k):
        first(state, problem, j)
    buf = io.StringIO()
    checkpoint_save(state, buf)
    buf.seek(0)
    tail, resumed, _ = run_with_state(problem, config, scheme, 3,
                                      resume=checkpoint_load(buf, problem))
    assert np.array_equal(resumed.w, whole.w)
    # the rows past epoch k // n, the last whole epoch the state holds
    assert ([(r.epoch, r.objective) for r in tail]
            == [(r.epoch, r.objective) for r in records[1 + k // problem.n:]])


def test_a_fresh_run_evaluates_its_start_point_once(synth_tiny, monkeypatch):
    problem, ref = synth_tiny
    calls = []
    objective = type(problem).full_objective
    monkeypatch.setattr(type(problem), "full_objective",
                        lambda self, w: calls.append(1) or objective(self, w))
    config = SolverConfig(solver="finito", alpha=2.0, w0=np.zeros(problem.d))
    scheme = SamplingScheme(UNIFORM, seed=0)
    records, state, sampler = run_with_state(problem, config, scheme, 0,
                                             reference=ref)
    assert len(records) == 1 and len(calls) == 1
    # a resumed run reads its baseline without recording the row again
    assert run(problem, config, scheme, 0, reference=ref,
               resume=(state, sampler)) == []
    assert len(calls) == 2
    assert run(problem, config, scheme, 0, resume=(state, sampler)) == []
    assert len(calls) == 2


# beta = 0.01 is far below the big-data condition, and alpha = 0.05 far below
# the admissible region: finito's suboptimality grows 1.6e3-fold in the
# first pass and 4e7-fold in the second and stays finite, so the ratio guard
# and no non-finite value ends the run
DIVERGING = SynthSpec(n=50, d=5, target_beta=0.01)
RUNAWAY = "suboptimality exceeded 1e+06 times its starting value at step 100"


def test_runaway_suboptimality_raises_at_the_first_record_past_the_ratio():
    problem, ref = synth_problem(DIVERGING)
    with pytest.raises(DivergenceError) as info:
        run(problem, SolverConfig(alpha=0.05), SamplingScheme(UNIFORM, seed=0), 3,
            reference=ref)
    err = info.value
    assert (str(err), err.k) == (RUNAWAY, 100)
    assert [r.epoch for r in err.records] == [0.0, 1.0, 2.0]
    subs = [r.suboptimality for r in err.records]
    limit = finito.solvers.DIVERGENCE_RATIO * subs[0]
    assert max(subs[:-1]) <= limit < subs[-1]


# a resumed run's baseline is the suboptimality of the state the run started
# from, rebuilt from its config, not that of its resume point: sag's resumed
# run once went on to step 1600, recording rows up to suboptimality 3.2e9 that
# the uninterrupted run, stopped at step 500, never reaches
@pytest.mark.parametrize("config,scheme,epochs,k", [
    pytest.param(SolverConfig(alpha=0.05), SamplingScheme(UNIFORM, seed=0), 3, 100,
                 id="finito"),
    pytest.param(SolverConfig(solver="sag", step=4.0), SamplingScheme(PERMUTED, seed=1),
                 60, 500, id="sag"),
])
def test_resumed_runaway_raises_at_the_same_step(config, scheme, epochs, k):
    problem, ref = synth_problem(DIVERGING)
    with pytest.raises(DivergenceError) as whole:
        run(problem, config, scheme, epochs, reference=ref)
    _, state, sampler = run_with_state(problem, config, scheme, 1, reference=ref)
    buf = io.StringIO()
    checkpoint_save(state, buf, sampler)
    buf.seek(0)
    with pytest.raises(DivergenceError) as info:
        run(problem, config, scheme, epochs, reference=ref,
            resume=checkpoint_load(buf, problem))
    assert (str(info.value), info.value.k) == (RUNAWAY.replace("100", str(k)), k)
    assert ([r.epoch for r in info.value.records]
            == [float(e) for e in range(2, k // problem.n + 1)])
    # the rows after the resume point are the uninterrupted run's, wall_ms aside
    assert str(whole.value) == str(info.value)
    rows = [[(r.epoch, r.objective, r.suboptimality, r.grad_norm) for r in err.records]
            for err in (whole.value, info.value)]
    assert rows[1] == rows[0][2:]


# -- reference solver ----------------------------------------------------------------


def test_reference_solve_desk(desk):
    ref = reference_solve(desk)
    assert ref.method_tag == "accelerated-proximal-gradient"
    assert abs(ref.w_star[0]) <= 1e-9
    assert ref.f_star == pytest.approx(0.5, abs=1e-12)
    assert ref.grad_norm_at_solution <= 1e-12


def test_reference_solve_synth_tolerance(synth_small):
    problem, ref = synth_small
    assert ref.grad_norm_at_solution <= 1e-12
    assert np.linalg.norm(problem.full_gradient(ref.w_star)) <= 1e-11


def test_reference_solve_l1_certificate_holds_at_w_star():
    problem, ref = synth_problem(SynthSpec(n=40, d=5, seed=0, l1_weight=0.01))
    step = 1.0 / problem.smoothness_constant()
    w = ref.w_star
    resid = np.linalg.norm(
        prox_operator(problem.l1_weight, w - step * problem.full_gradient(w), step)
        - w)
    assert resid <= 1e-12
    assert ref.f_star == problem.full_objective(w)


def test_reference_solve_raises_when_iterations_run_out(synth_small, monkeypatch):
    problem, _ = synth_small
    monkeypatch.setattr(finito.solvers, "REFERENCE_MAX_ITER", 3)
    with pytest.raises(ValueError, match="after 3 iterations"):
        reference_solve(problem)


def test_reference_solve_needs_no_declared_curvature():
    # s = 0 declares no strong convexity, but these components supply it
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((4, 3))
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    ref = reference_solve(QuadraticProblem(centers, weights, s=0.0))
    np.testing.assert_allclose(ref.w_star, weights @ centers / weights.sum(),
                               atol=1e-12)
    features = rng.standard_normal((6, 3))  # full column rank
    targets = rng.standard_normal(6)
    ref = reference_solve(FiniteSumProblem(features, targets, SQUARED, s=0.0))
    np.testing.assert_allclose(
        ref.w_star, np.linalg.lstsq(features, targets, rcond=None)[0],
        atol=1e-10)


def test_reference_solve_stops_where_the_iterate_stops_moving():
    # the gradient floors near 1e-9 once the step rounds away; the loop used
    # to run all 500 000 iterations before it gave up
    problem = FiniteSumProblem(np.array([[1e8], [7e7]]), np.array([1.0, -1.0]),
                               SQUARED, s=0.0)
    with pytest.raises(ValueError, match="stopped moving in floating point"):
        reference_solve(problem)


def test_reference_solve_stops_where_the_iterate_stops_moving_in_two_dimensions():
    # least squares at feature scale 1e8: the residual's rounding keeps the
    # gradient near 1e-8 while the iterate wanders over its last bits
    features = np.array([[1e8, 3e7], [7e7, -2e7], [5e7, 1e7]])
    problem = FiniteSumProblem(features, np.array([1.0, -1.0, 1.0]), SQUARED, s=0.0)
    with pytest.raises(ValueError, match="stopped moving in floating point"):
        reference_solve(problem)


def test_reference_solve_steps_at_the_quadratic_smoothness():
    # the mean weight is this average's smoothness exactly
    rng = np.random.default_rng(3)
    weights = rng.uniform(1.0, 9.0, 30)
    quad = QuadraticProblem(rng.standard_normal((30, 4)), weights)
    assert quad.smoothness_constant() == float(weights.mean())
    ref = reference_solve(quad)
    np.testing.assert_allclose(ref.w_star, quad.minimizer(), rtol=0, atol=1e-12)


FSTAR = Path(__file__).resolve().parent.parent / "perfbench" / "fstar.json"


def test_reference_solve_reproduces_the_recorded_benchmark_references():
    # every problem the benchmark generates, at the benchmark's own 1e-12
    # tolerance, so a drift in f_star fails here first
    recorded = json.loads(FSTAR.read_text(encoding="ascii"))
    for signature, values in recorded.items():
        loss, *fields = signature.split()
        spec = dict(field.split("=") for field in fields)
        for seed, value in enumerate(values):
            _, ref = synth_problem(SynthSpec(
                n=int(spec["n"]), d=int(spec["d"]), loss=loss,
                target_beta=float(spec["beta"]), seed=seed,
                l1_weight=float(spec["l1"])))
            want = float.fromhex(value)
            assert abs(ref.f_star - want) <= 1e-12 * abs(want), (signature, seed)


def test_reference_solve_steps_at_the_gram_smoothness():
    # at the trace bound mean_i L_i this solve takes 277 full gradients
    problem = synth_data(SynthSpec(n=2000, d=20, seed=0))
    full_gradient, calls = problem.full_gradient, []

    def counted(w):
        calls.append(None)
        return full_gradient(w)

    problem.full_gradient = counted
    reference_solve(problem)
    assert len(calls) <= 100


# -- the step kernel's finiteness guard -----------------------------------------

_TABLES = ("w", "p_table", "p_sum", "phi_table", "grad_table", "grad_sum")


def _snapshot(state):
    arrays = {name: getattr(state, name, None) for name in _TABLES}
    return ({name: a.tobytes() for name, a in arrays.items() if a is not None},
            state.k, state.seen)


@pytest.mark.parametrize("kind,message", [
    ("finito", "iterate diverged at step 0"),
    ("sag", "gradient sum diverged at step 0"),
])
def test_a_state_whose_sums_overflow_at_w0_is_refused(kind, message):
    # each row's gradient at w0 is -1e308, but three of them sum past the
    # largest double
    problem = QuadraticProblem(centers=np.full((3, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match=message) as info:
            finito_init(problem, 2.0) if kind == "finito" else sag_init(problem)
    assert (info.value.j, info.value.k) == (None, 0)


@pytest.mark.parametrize("first_pass", [False, True])
@pytest.mark.parametrize("kind", ["finito", "finito-audit", "sag"])
@pytest.mark.parametrize("loss", ["quadratic", "squared", "overflowing-iterate",
                                  "overflowing-iterate-at-recompute"])
def test_non_finite_gradient_leaves_state_untouched(loss, kind, first_pass):
    overflow = loss.startswith("overflowing-iterate")
    # k = n - 1 = 3 makes the step a recompute of the table sums
    at = 3 if loss.endswith("at-recompute") else 0
    if loss == "quadratic":
        # weight 2 doubles w - c = 1.5e308 past the largest double
        problem = QuadraticProblem(centers=np.zeros((4, 3)), weights=np.full(4, 2.0))
    elif loss == "squared":
        # a finite point whose margin overflows, and the loss keeps it infinite
        problem = FiniteSumProblem(np.ones((4, 3)), np.zeros(4), SQUARED, s=0.5)
    else:
        # the gradient w = 1e308 is finite, but the next iterate is not:
        # finito divides p_sum by alpha*s*seen <= 0.4, and sag moves 3 times
        # the gradient sum (n/seen times that in the first pass)
        problem = QuadraticProblem(centers=np.zeros((4, 3)))
    if kind == "sag":
        state = sag_init(problem, step=3.0 if overflow else 0.1, first_pass=first_pass)
        step = sag_first_pass_step if first_pass else sag_step
    else:
        state = finito_init(problem, 0.1 if overflow else 2.0,
                            audit=kind == "finito-audit", first_pass=first_pass)
        step = finito_first_pass_step if first_pass else finito_step
    for j in range(at):
        step(state, problem, j)  # at w = 0 every row and sum stays 0
    state.w = np.full(problem.d, 1e308 if overflow else 1.5e308)
    before = _snapshot(state)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            step(state, problem, at)
    if overflow:
        assert str(info.value) == f"iterate diverged at step {at + 1}"
        assert (info.value.j, info.value.k) == (at, at + 1)
    else:
        assert str(info.value) == "non-finite gradient for component 0 at step 0"
        assert (info.value.j, info.value.k) == (0, 0)
    assert _snapshot(state) == before


def _scaled_desk(exponent):
    # every step on this problem is exact when all data scale by 2**exponent
    centers = np.ldexp(np.array([[0.75] * 16, [1.0] * 16]), exponent)
    return QuadraticProblem(centers=centers)


@pytest.mark.parametrize("exponent", [530, 1021])
@pytest.mark.parametrize("solver", ["finito", "sag"])
def test_huge_finite_iterate_is_no_divergence(exponent, solver):
    # entries near 2**530 (~3.5e159), or near 2**1021 where the sum of 16 of
    # them passes the largest double: neither is a divergence, and every
    # step, the recompute at k = n included, stays exact
    runs = []
    for e in (0, exponent):
        problem = _scaled_desk(e)
        w0 = np.ldexp(np.ones(16), e)
        if solver == "sag":
            state = sag_init(problem, w0=w0, step=0.125)
        else:
            state = finito_init(problem, 0.5, w0=w0)
        step = sag_step if solver == "sag" else finito_step
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the sum overflows
            for j in (1, 0, 1):
                step(state, problem, j)
        runs.append(state)
    unit, big = runs
    assert np.all(np.isfinite(big.w))
    if exponent == 1021:
        with np.errstate(over="ignore"):
            assert np.isinf(big.w.sum())
    assert np.array_equal(big.w, np.ldexp(unit.w, exponent))
    assert big.k == 3


# -- component indices ---------------------------------------------------------

NON_INTEGRAL = [0.0, 2.0, 2.7, np.float64(0.0), "0", "5", True, False, np.True_,
                None]


def _index_case(problem, solver, first_pass):
    if solver == "sag":
        state = sag_init(problem, first_pass=first_pass)
        return state, sag_first_pass_step if first_pass else sag_step
    state = finito_init(problem, 2.0, audit=solver == "finito-audit",
                        first_pass=first_pass)
    return state, finito_first_pass_step if first_pass else finito_step


def _saved(state) -> str:
    sink = io.StringIO()
    checkpoint_save(state, sink)
    return sink.getvalue()


@pytest.mark.parametrize("j", NON_INTEGRAL, ids=repr)
@pytest.mark.parametrize("first_pass", [False, True])
@pytest.mark.parametrize("solver", ["finito", "finito-audit", "sag"])
def test_non_integral_index_is_type_error(synth_tiny, solver, first_pass, j):
    problem, _ = synth_tiny
    state, step = _index_case(problem, solver, first_pass)
    before = _saved(state)
    with pytest.raises(TypeError):
        step(state, problem, j)
    assert _saved(state) == before


@pytest.mark.parametrize("first_pass", [False, True])
@pytest.mark.parametrize("solver", ["finito", "finito-audit", "sag"])
def test_numpy_integer_index_steps_like_int(synth_tiny, solver, first_pass):
    problem, _ = synth_tiny
    for j in (np.int64(0), np.int32(0), np.uint8(0)):
        a, step = _index_case(problem, solver, first_pass)
        b, _ = _index_case(problem, solver, first_pass)
        step(a, problem, j)
        step(b, problem, 0)
        assert _saved(a) == _saved(b)
