"""Acceptance gate: every shipping criterion, one verdict line each.

Run with -s to see the verdict lines inline; each test also asserts, so the
suite fails loudly if any criterion regresses.  Numbered comments give the
check in one sentence; tolerances and sizes are part of the contract and must
not be loosened.
"""

import io
import time

import numpy as np
import pytest

from finito import (
    Audit,
    LibsvmFormatError,
    SQUARED,
    SamplingScheme,
    SolverConfig,
    SynthSpec,
    checkpoint_load,
    checkpoint_save,
    convexity_suite,
    expected_decrease_check,
    expected_unseen,
    finito_init,
    finito_map,
    finito_step,
    floor_check,
    initial_lyapunov,
    lyapunov_evaluate,
    make_worst_case,
    parse_libsvm,
    rate_curve,
    read_trace,
    reference_solve,
    run,
    run_with_state,
    simulate_unseen,
    strong_lb_check,
    synth_problem,
    write_trace,
    QuadraticProblem,
)
from finito.theory import BALL_RADIUS, random_ball_points

_cache: dict = {}


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def rate_problem():
    if "rate" not in _cache:
        _cache["rate"] = synth_problem(SynthSpec(n=200, d=10, seed=0))
    return _cache["rate"]


def rate_traces():
    if "traces" not in _cache:
        problem, ref = rate_problem()
        config = SolverConfig(solver="finito", alpha=2.0, first_pass=False,
                              monitor="table-mean", w0=np.zeros(problem.d))
        _cache["traces"] = [
            run(problem, config, SamplingScheme("uniform", seed=s), 10,
                reference=ref)
            for s in range(20)
        ]
    return _cache["traces"]


def test_criterion_1_rate_bound_holds_at_every_checkpoint():
    # mean suboptimality over 20 seeds stays below the closed-form curve at
    # every epoch multiple of n, within 1e-9 absolute, in under 10 seconds
    t0 = time.monotonic()
    problem, _ = rate_problem()
    curve = rate_curve(rate_traces(), problem, 2.0, np.zeros(problem.d))
    elapsed = time.monotonic() - t0
    checked = [(k, mean, bound) for k, mean, bound in curve if k >= problem.n]
    ok = (len(checked) == 10
          and all(mean <= bound + 1e-9 for _, mean, bound in checked)
          and elapsed < 10.0)
    worst = max(mean / bound for _, mean, bound in checked)
    verdict(1, ok, f"10 checkpoints, worst mean/bound ratio "
                   f"{worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_per_epoch_factor_and_total_reduction():
    # the bound contracts by (1 - 1/(2n))^n in [0.60, 0.61] per epoch and the
    # measured 10-epoch reduction is at least the 148x the bound guarantees
    problem, _ = rate_problem()
    curve = rate_curve(rate_traces(), problem, 2.0, np.zeros(problem.d))
    bounds = [b for _, _, b in curve]
    means = [m for _, m, _ in curve]
    factors = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
    reduction = means[0] / means[-1]
    ok = (all(0.60 <= f <= 0.61 for f in factors) and reduction >= 148.0)
    verdict(2, ok, f"epoch factor {factors[0]:.6f}, measured reduction "
                   f"{reduction:,.0f}x")


def test_criterion_3_expected_decrease_along_trajectory():
    # exact n-branch expectation of the potential contracts at every one of
    # 200 consecutive states, tolerance 1e-10 scaled, in under 30 seconds
    t0 = time.monotonic()
    problem, _ = synth_problem(SynthSpec(n=40, d=5, seed=0))
    st = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True)
    rng = np.random.default_rng(0)
    hits = 0
    for j in rng.integers(problem.n, size=200):
        rep = expected_decrease_check(problem, st.phi_table, st.w, 2.0, 2.0)
        hits += rep.satisfied
        finito_step(st, problem, int(j))
    elapsed = time.monotonic() - t0
    ok = hits == 200 and elapsed < 30.0
    verdict(3, ok, f"{hits}/200 states contract, {elapsed:.2f}s")


def test_criterion_4_step_identities_exact():
    # expected-step, displacement, and variance decompositions are identities
    # to 1e-12 (scaled) on 100 random audit states each
    problem, ref = synth_problem(SynthSpec(n=40, d=5, seed=0))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
        w = finito_map(problem, phi, 2.0)
        scale = 1.0 + abs(lyapunov_evaluate(problem, phi, w).total)
        audit = Audit(problem, phi, w, 2.0)
        gaps = (abs(audit.step_gap()), abs(audit.displacement_gap()),
                abs(audit.variance_gap()))
        worst = max(worst, max(gaps) / scale)
    ok = worst <= 1e-12
    verdict(4, ok, f"worst scaled identity gap {worst:.3g}")


def test_criterion_5_inequality_suites_clean():
    # seven pairwise/table inequality families plus the two lower-bound
    # constructions: 1000 draws each, zero violations at 1e-9
    problem, ref = synth_problem(SynthSpec(n=40, d=5, seed=0))
    reports = convexity_suite(problem, draws=1000, seed=0, reference=ref)
    rng = np.random.default_rng(50)
    for _ in range(1000):
        reports.append(strong_lb_check(
            problem, int(rng.integers(problem.n)),
            rng.normal(size=problem.d), rng.normal(size=problem.d)))
    rng2 = np.random.default_rng(51)
    for _ in range(1000):
        phi = random_ball_points(rng2, ref.w_star, BALL_RADIUS, problem.n)
        audit = Audit(problem, phi, rng2.normal(size=problem.d), 2.0)
        reports.append(audit.lower_bound_report(2.0))
    bad = [r for r in reports if not r.satisfied]
    ok = len(reports) == 9000 and not bad
    verdict(5, ok, f"{len(reports)} reports, {len(bad)} violations")


def test_criterion_6_certified_gap_and_initial_potential():
    # f(phi-mean) - f* <= alpha * T on 100 trajectory states, and the closed
    # initial potential matches direct evaluation to 1e-12, 0.375 desk value
    # included
    problem, ref = synth_problem(SynthSpec(n=40, d=5, seed=0))
    st = finito_init(problem, alpha=2.0, w0=np.zeros(problem.d), audit=True)
    rng = np.random.default_rng(6)
    hits = 0
    for j in rng.integers(problem.n, size=100):
        hits += Audit(problem, st.phi_table, st.w, 2.0).bound_report(
            ref).satisfied
        finito_step(st, problem, int(j))
    desk = QuadraticProblem([[1.0], [-1.0]])
    hand = initial_lyapunov(desk, np.ones(1), 2.0)
    direct = lyapunov_evaluate(desk, np.ones((2, 1)), np.array([0.5])).total
    closed_ok = hand == 0.375 and abs(hand - direct) <= 1e-12
    ok = hits == 100 and closed_ok
    verdict(6, ok, f"{hits}/100 gap checks, initial potential {hand}")


def test_criterion_7_unseen_statistics_and_oracle_floor():
    # 1e6-trial Monte Carlo matches n(1-1/n)^k within 4 stderr at each k, the
    # martingale mean stays at n, and no first-pass iterate beats the
    # information floor, all in under 60 seconds
    t0 = time.monotonic()
    points = simulate_unseen(10, [1, 5, 10, 20], trials=10**6, seed=0)
    mc_ok = all(abs(p.mc_mean - expected_unseen(10, p.k)) <= 4 * p.mc_stderr
                for p in points)
    # the martingale lift (1 - 1/n)^(-k) v_k keeps mean n at every k
    mart_ok = all(abs(p.mc_mean * lift - 10.0) <= 4 * p.mc_stderr * lift
                  for p in points
                  for lift in [(1 - 1 / 10) ** -p.k])
    floors = [floor_check(10, solver=s) for s in ("finito", "sag")]
    elapsed = time.monotonic() - t0
    ok = (mc_ok and mart_ok and all(f.satisfied for f in floors)
          and elapsed < 60.0)
    verdict(7, ok, f"mc within 4se: {mc_ok}, martingale flat: {mart_ok}, "
                   f"floors hold: {all(f.satisfied for f in floors)}, "
                   f"{elapsed:.2f}s")


def test_criterion_8_permuted_no_worse_than_uniform():
    # median suboptimality after 10 epochs over 11 seeds: without-replacement
    # sampling at least matches uniform sampling
    problem, ref = rate_problem()
    medians = {}
    for name in ("uniform", "permuted"):
        finals = []
        for seed in range(11):
            config = SolverConfig(solver="finito", alpha=2.0,
                                  w0=np.zeros(problem.d))
            records = run(problem, config,
                          SamplingScheme.from_name(name, seed), 10,
                          reference=ref)
            finals.append(records[-1].suboptimality)
        medians[name] = float(np.median(finals))
    ok = medians["permuted"] <= medians["uniform"]
    verdict(8, ok, f"epoch-10 medians: permuted {medians['permuted']:.3g} "
                   f"vs uniform {medians['uniform']:.3g}")


def test_criterion_9_proximal_variant():
    # the soft-threshold variant zeroes half the coordinates, lands within
    # 1e-8 of the proximal-gradient reference objective, and with the penalty
    # off reproduces the smooth solver bit for bit, in both storage modes
    spec = SynthSpec(n=50, d=10, loss=SQUARED, s=0.1, noise=0.5, seed=7,
                     l1_weight=0.15)
    problem, ref = synth_problem(spec)
    config = SolverConfig(solver="prox-finito", alpha=2.0,
                          w0=np.zeros(problem.d))
    _, state, _ = run_with_state(problem, config,
                                 SamplingScheme("uniform", seed=0), 40,
                                 reference=ref)
    zeros = int(np.sum(state.w == 0.0))
    gap = problem.full_objective(state.w) - ref.f_star
    smooth, _ = synth_problem(SynthSpec(n=50, d=10, loss=SQUARED, s=0.1,
                                        noise=0.5, seed=7))
    scheme = SamplingScheme("permuted", seed=1)
    identical = True
    for monitor, audit in (("iterate", False), ("table-mean", True)):
        cfg_prox = SolverConfig(solver="prox-finito", alpha=2.0, monitor=monitor,
                                w0=np.zeros(smooth.d))
        cfg_plain = SolverConfig(solver="finito", alpha=2.0, monitor=monitor,
                                 w0=np.zeros(smooth.d))
        _, sa, _ = run_with_state(smooth, cfg_prox, scheme, epochs=5)
        _, sb, _ = run_with_state(smooth, cfg_plain, scheme, epochs=5)
        identical = identical and sa.audit is sb.audit is audit
        identical = identical and np.array_equal(sa.w, sb.w)
    ok = zeros == 5 and abs(gap) <= 1e-8 and identical
    verdict(9, ok, f"{zeros}/10 coordinates zeroed, reference gap {gap:.2g}, "
                   f"penalty-off bit-identity {identical}")


def test_criterion_10_infrastructure_round_trips():
    # resume continues a run bit-exactly for every solver and scheme, file
    # round-trips are lossless, and the parser reports malformed input by
    # line and column
    problem, ref = synth_problem(SynthSpec(n=20, d=3, seed=1))
    resume_ok = True
    for solver in ("finito", "prox-finito", "sag", "miso", "full-gradient"):
        for name in ("uniform", "permuted", "permuted-frozen", "cyclic"):
            config = SolverConfig(solver=solver, alpha=2.0,
                                  w0=np.zeros(problem.d))
            scheme = SamplingScheme.from_name(name, seed=3)
            full = run(problem, config, scheme, 6, reference=ref)
            _, st, sm = run_with_state(problem, config, scheme, 3,
                                       reference=ref)
            sink = io.StringIO()
            checkpoint_save(st, sink, sm)
            st2, sm2 = checkpoint_load(io.StringIO(sink.getvalue()), problem)
            tail = run(problem, config, scheme, 6, reference=ref,
                       resume=(st2, sm2))
            a = [(r.epoch, r.objective, r.suboptimality, r.grad_norm)
                 for r in full[4:]]
            b = [(r.epoch, r.objective, r.suboptimality, r.grad_norm)
                 for r in tail]
            resume_ok = resume_ok and a == b

    records = run(problem, SolverConfig(solver="sag", w0=np.zeros(problem.d)),
                  SamplingScheme("uniform", seed=0), 2, reference=ref)
    sink = io.StringIO()
    write_trace(records, sink)
    back = read_trace(io.StringIO(sink.getvalue()))
    trace_ok = [(r.epoch, r.objective) for r in records] == \
               [(r.epoch, r.objective) for r in back]

    try:
        parse_libsvm(io.StringIO("1 0:2\n"))
        parser_ok = False
    except LibsvmFormatError as err:
        parser_ok = "line 1, column 3" in str(err)

    ok = resume_ok and trace_ok and parser_ok
    verdict(10, ok, f"resume exact: {resume_ok}, trace round-trip: "
                    f"{trace_ok}, parser positions: {parser_ok}")
