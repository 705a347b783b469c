"""Potential-function machinery: hand values, exact enumeration, inequality suites."""

import tracemalloc

import numpy as np
import pytest

import finito
import finito.theory as theory
from finito import (
    Audit,
    CheckReport,
    IndexSampler,
    QuadraticProblem,
    StrongConvexityRequired,
    SamplingScheme,
    SolverConfig,
    SynthSpec,
    UNIFORM,
    admissible_parameters,
    convexity_suite,
    expected_decrease_check,
    finito_init,
    finito_map,
    finito_step,
    initial_lyapunov,
    lyapunov_evaluate,
    pair_checks,
    rate_bound,
    rate_certificate,
    rate_curve,
    reference_solve,
    run,
    strong_lb_check,
    synth_problem,
    TraceRecord,
)
from finito.theory import BALL_RADIUS, random_ball_points, suite_lyapunov


def trajectory_states(problem, steps, alpha=2.0, seed=0):
    """Audit states (phi_table, w) sampled along an actual solver path."""
    st = finito_init(problem, alpha=alpha, w0=np.zeros(problem.d), audit=True)
    rng = np.random.default_rng(seed)
    out = [(st.phi_table.copy(), st.w.copy())]
    for j in rng.integers(problem.n, size=steps):
        finito_step(st, problem, int(j))
        out.append((st.phi_table.copy(), st.w.copy()))
    return out


def test_package_exports_resolve_once():
    # a name deleted from a module must leave finito.__all__ with it
    assert len(finito.__all__) == len(set(finito.__all__))
    for name in finito.__all__:
        assert hasattr(finito, name), name
    assert "Audit" in finito.__all__ and finito.Audit is theory.Audit


# -- hand values -----------------------------------------------------------------


def test_lyapunov_terms_hand_value(desk):
    terms = lyapunov_evaluate(desk, np.ones((2, 1)), np.array([0.5]))
    assert (terms.t1, terms.t2, terms.t3, terms.t4) == (1.0, -0.5, -0.125, 0.0)
    assert terms.total == 0.375


def test_initial_potential_hand_value(desk):
    assert initial_lyapunov(desk, np.ones(1), alpha=2.0) == 0.375


def test_initial_potential_matches_evaluation(synth_tiny):
    problem, _ = synth_tiny
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi0 = rng.normal(size=problem.d)
        table = np.broadcast_to(phi0, (problem.n, problem.d))
        w = finito_map(problem, table, 2.0)
        direct = lyapunov_evaluate(problem, table, w).total
        closed = initial_lyapunov(problem, phi0, 2.0)
        assert abs(direct - closed) <= 1e-12 * (1 + abs(direct))


def test_finito_map_hand_value(desk):
    w = finito_map(desk, np.ones((2, 1)), alpha=2.0)
    assert w[0] == 0.5


def test_admissible_region():
    assert admissible_parameters(2.0, 2.0)
    assert admissible_parameters(3.0, 2.0)
    assert not admissible_parameters(2.0, 1.0)
    assert not admissible_parameters(1.5, 2.0)


def _margin_verdict(alpha, beta):
    # the region as first written, margin evaluated
    if not (0 < alpha < float("inf") and 0 < beta < float("inf")):
        return False
    margin = 2.0 / alpha - 1.0 / alpha**2 - beta + beta / alpha
    return bool(margin <= 0.0 and alpha >= 2.0 and beta >= 2.0)


def test_admissible_region_keeps_its_verdict_without_the_margin():
    # every alpha and beta the tests and suites use, and a grid around the
    # corner of the region
    values = [-3.0, -1.0, 0.0, 0.01, 0.5, 1.0, 1.5, 1.9, 1.999999, 2.0,
              2.000001, 2.1, 3.0, 4.0, 5.0, 10.0, 50.0, 1e3, 1e6, 1e150]
    for alpha in values:
        for beta in values + [1e300, 1e308]:
            assert admissible_parameters(alpha, beta) == _margin_verdict(alpha, beta)


def test_admissible_region_decides_extreme_values():
    # alpha**2 overflowed (OverflowError) for any alpha above about 1.34e154,
    # and underflowed to 0 (ZeroDivisionError) for a tiny alpha
    assert not admissible_parameters(1e-308, 2.0)
    assert admissible_parameters(1e308, 2.0)
    assert admissible_parameters(1e308, 1e308)
    assert not admissible_parameters(1e308, 1.0)
    assert not admissible_parameters(1.0, 1e308)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_admissible_region_is_finite(value):
    # with alpha = inf the margin is -beta <= 0, so only the guard refuses it
    assert not admissible_parameters(value, 2.0)
    assert not admissible_parameters(2.0, value)
    assert not admissible_parameters(value, value)


def test_bound_gap_hand_value(desk):
    ref = reference_solve(desk)
    rep = Audit(desk, np.ones((2, 1)), np.array([0.5]), 2.0).bound_report(ref)
    assert rep.satisfied
    assert rep.lhs == pytest.approx(0.5, abs=1e-10)
    assert rep.rhs == pytest.approx(0.75, abs=1e-12)


def test_rate_bound_hand_values(desk):
    # factor (1 - 1/(alpha n)) = 3/4 and constant (1 - 1/(2 alpha))/s = 3/4
    assert rate_bound(desk, 2.0, np.ones(1), 0) == 0.75
    assert rate_bound(desk, 2.0, np.ones(1), 2) == 0.421875


# -- exact expectation -------------------------------------------------------------


def test_expected_decrease_along_trajectory(synth_tiny):
    problem, _ = synth_tiny
    for phi, w in trajectory_states(problem, 30):
        assert expected_decrease_check(problem, phi, w, 2.0, 2.0).satisfied


def test_expected_decrease_preconditions(synth_tiny, desk):
    problem, _ = synth_tiny
    phi = np.zeros((problem.n, problem.d))
    w = finito_map(problem, phi, 2.0)
    with pytest.raises(ValueError):
        expected_decrease_check(problem, phi, w, 1.5, 2.0)
    with pytest.raises(ValueError):
        expected_decrease_check(problem, phi, w, 2.0, 1.0)
    # n=2 cannot satisfy the size condition at beta=2 with L=s
    with pytest.raises(ValueError):
        expected_decrease_check(desk, np.ones((2, 1)), np.array([0.5]), 2.0, 3.0)


def test_requires_strong_convexity():
    flat = QuadraticProblem([[1.0], [-1.0]], s=0.0)
    with pytest.raises(StrongConvexityRequired):
        lyapunov_evaluate(flat, np.ones((2, 1)), np.zeros(1))


def test_term_shifts_match_closed_forms(synth_tiny):
    problem, ref = synth_tiny
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
        w = finito_map(problem, phi, 2.0)
        audit = Audit(problem, phi, w, 2.0)
        shifts = audit.term_shifts()
        base = lyapunov_evaluate(problem, phi, w)
        scale = 1 + abs(base.total)
        assert abs(shifts.t3 - audit.t3_shift()) <= 1e-12 * scale
        assert abs(shifts.t4 - audit.t4_shift()) <= 1e-12 * scale


def test_identity_gaps_vanish(synth_tiny):
    problem, ref = synth_tiny
    rng = np.random.default_rng(11)
    for _ in range(25):
        phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
        w = finito_map(problem, phi, 2.0)
        audit = Audit(problem, phi, w, 2.0)
        assert abs(audit.step_gap()) <= 1e-12
        assert abs(audit.displacement_gap()) <= 1e-12
        assert abs(audit.variance_gap()) <= 1e-12


def test_bound_gap_rejects_non_map(synth_tiny):
    # the bound holds only at the table map; map_report says whether w is it
    problem, _ = synth_tiny
    phi = np.zeros((problem.n, problem.d))
    w = finito_map(problem, phi, 2.0)
    assert Audit(problem, phi, w, 2.0).map_report().satisfied
    report = Audit(problem, phi, w + 0.5, 2.0).map_report()
    assert report.name == "map-consistency" and not report.satisfied
    assert report.lhs == pytest.approx(0.5 * np.sqrt(problem.d), rel=1e-12)


# NaN passes an `alpha <= 0` guard; every entry point that takes alpha
# refuses it, and inf, before computing anything
@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_alpha_must_be_finite_and_positive(synth_tiny, alpha):
    problem, ref = synth_tiny
    phi = np.zeros((problem.n, problem.d))
    w = finito_map(problem, phi, 2.0)
    w0 = np.zeros(problem.d)
    traces = [[TraceRecord(0.0, 1.0, 1.0, 1.0, 0.0, "finito", "uniform", 0)]]
    calls = {
        "finito_map": lambda: finito_map(problem, phi, alpha),
        "initial_lyapunov": lambda: initial_lyapunov(problem, w0, alpha),
        "rate_bound": lambda: rate_bound(problem, alpha, w0, 3),
        "rate_curve": lambda: rate_curve(traces, problem, alpha, w0),
        "rate_certificate": lambda: rate_certificate(traces, problem, alpha, w0),
        "expected_decrease_check":
            lambda: expected_decrease_check(problem, phi, w, alpha, 2.0),
        "Audit": lambda: Audit(problem, phi, w, alpha),
        "Audit.map_report": lambda: Audit(problem, phi, w, alpha).map_report(),
        "Audit.bound_report":
            lambda: Audit(problem, phi, w, alpha).bound_report(ref),
        "Audit.term_shifts": lambda: Audit(problem, phi, w, alpha).term_shifts(),
        "Audit.step_gap": lambda: Audit(problem, phi, w, alpha).step_gap(),
        "Audit.displacement_gap":
            lambda: Audit(problem, phi, w, alpha).displacement_gap(),
        "Audit.t3_shift": lambda: Audit(problem, phi, w, alpha).t3_shift(),
        "random_ball_points then finito_map": lambda: finito_map(
            problem, random_ball_points(np.random.default_rng(0), ref.w_star,
                                        BALL_RADIUS, problem.n), alpha),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            call()
            pytest.fail(f"{name} accepted alpha={alpha}")


def test_table_mean_descent_along_trajectory(synth_tiny):
    problem, _ = synth_tiny
    for phi, w in trajectory_states(problem, 20, seed=5):
        assert Audit(problem, phi, w, 2.0).mean_descent_report().satisfied


# -- one audit per state -----------------------------------------------------------

# suite_lyapunov reports one initial-potential row, then these rows per state
SUITE_ROWS = ("expected-decrease", "map-consistency", "suboptimality-bound",
              "table-mean-descent",
              "expected-step-identity", "update-displacement-identity",
              "variance-decomposition", "t3-shift-closed-form",
              "t4-shift-closed-form")


def suite_states(n, d, beta, states, seed, alpha):
    """The problem, reference and (phi, w) states suite_lyapunov audits."""
    problem, reference = synth_problem(
        SynthSpec(n=n, d=d, loss="logistic", target_beta=beta, seed=seed))
    st = finito_init(problem, alpha, w0=np.zeros(d), audit=True)
    sampler = IndexSampler(SamplingScheme(UNIFORM, seed), problem.n)
    pairs = []
    for _ in range(states):
        pairs.append((st.phi_table.copy(), st.w.copy()))
        finito_step(st, problem, sampler.next_index())
    return problem, reference, pairs


def test_public_checks_equal_suite_rows():
    # every row the suite reads off its one audit per state equals the same
    # check on a fresh Audit, bit for bit
    n, d, beta, alpha, seed, states = 12, 3, 2.0, 2.0, 4, 4
    rows = suite_lyapunov(n, d, beta, states, seed, alpha)
    problem, reference, pairs = suite_states(n, d, beta, states, seed, alpha)
    for t, (phi, w) in enumerate(pairs):
        block = rows[1 + len(SUITE_ROWS) * t:1 + len(SUITE_ROWS) * (t + 1)]
        assert tuple(r.name for r in block) == SUITE_ROWS
        row = {r.name: r for r in block}

        def fresh():
            return Audit(problem, phi, w, alpha)

        for report in (expected_decrease_check(problem, phi, w, alpha, beta),
                       fresh().map_report(), fresh().bound_report(reference),
                       fresh().mean_descent_report()):
            got = row[report.name]
            assert (got.lhs.hex(), got.rhs.hex(), got.slack.hex(),
                    got.satisfied, got.context) == (
                report.lhs.hex(), report.rhs.hex(), report.slack.hex(),
                report.satisfied, f"step={t} {report.context}")
        shifts = fresh().term_shifts()
        gaps = {
            "expected-step-identity": fresh().step_gap(),
            "update-displacement-identity": fresh().displacement_gap(),
            "variance-decomposition": fresh().variance_gap(),
            "t3-shift-closed-form": shifts.t3,
            "t4-shift-closed-form": shifts.t4,
        }
        for name, value in gaps.items():
            assert row[name].lhs.hex() == value.hex(), name
        assert row["t3-shift-closed-form"].rhs.hex() == fresh().t3_shift().hex()
        assert row["t4-shift-closed-form"].rhs.hex() == fresh().t4_shift().hex()


def test_public_checks_leave_inputs_unchanged(synth_tiny):
    problem, ref = synth_tiny
    phi, w = trajectory_states(problem, 7)[-1]
    off_map = w + 0.5
    calls = [
        lambda: expected_decrease_check(problem, phi, w, 2.0, 2.0),
        lambda: Audit(problem, phi, w, 2.0).bound_report(ref),
        lambda: Audit(problem, phi, w, 2.0).term_shifts(),
        lambda: Audit(problem, phi, w, 2.0).step_gap(),
        lambda: Audit(problem, phi, w, 2.0).displacement_gap(),
        lambda: Audit(problem, phi, w, 2.0).mean_descent_report(),
        lambda: Audit(problem, phi, w, 2.0).t3_shift(),
        lambda: Audit(problem, phi, w, 2.0).t4_shift(),
        lambda: Audit(problem, phi, w, 2.0).variance_gap(),
        lambda: Audit(problem, phi, w, 2.0).table_reports(),
        lambda: Audit(problem, phi, off_map, 2.0).lower_bound_report(2.0),
        lambda: Audit(problem, phi, off_map, 2.0).bound_report(ref),
        lambda: Audit(problem, phi, off_map, 2.0).map_report(),
    ]
    failing = [
        lambda: expected_decrease_check(problem, phi, w, 1.5, 2.0),
        lambda: expected_decrease_check(problem, phi, w, 2.0, 50.0),
        lambda: Audit(problem, phi, w, 2.0).lower_bound_report(50.0),
    ]
    before = [a.copy() for a in (phi, w, off_map)]
    for call in calls:
        call()
    for call in failing:
        with pytest.raises(ValueError):
            call()
    for a, b in zip((phi, w, off_map), before):
        assert np.array_equal(a, b)


def reference_potential(problem, phi, w):
    """The four terms of one (n, d) state, written out unstacked."""
    values, grads = problem.table_values(phi), problem.table_gradients(phi)
    phi_bar = phi.mean(axis=0)
    gaps = w[np.newaxis, :] - phi
    spread = phi_bar[np.newaxis, :] - phi
    return theory.LyapunovTerms(
        float(problem.objective_batch(phi_bar[np.newaxis, :])[0]),
        -float(values.mean()) - float(np.einsum("ij,ij->i", grads, gaps).mean()),
        -0.5 * problem.s * float(np.einsum("ij,ij->i", gaps, gaps).mean()),
        0.5 * problem.s * float(np.einsum("ij,ij->i", spread, spread).mean()))


def reference_branches(problem, phi, w, alpha):
    """The enumeration the audit replaced: per branch, a fresh table copy and
    a full unstacked potential evaluation."""
    grads = problem.table_gradients(phi)
    grads_at_w = problem.table_gradients(np.broadcast_to(w, phi.shape))
    phi_sum, grad_sum = phi.sum(axis=0), grads.sum(axis=0)
    denom = alpha * problem.s * problem.n
    out = []
    for j in range(problem.n):
        phi_j = phi.copy()
        phi_j[j] = w
        w_j = ((phi_sum + (w - phi[j])) / problem.n
               - (grad_sum + (grads_at_w[j] - grads[j])) / denom)
        out.append((w_j, reference_potential(problem, phi_j, w_j)))
    return out


def test_audit_branches_equal_full_reevaluation(synth_tiny, monkeypatch):
    # reusing the base rows and stacking the branches in chunks must not move
    # a bit of any branch, for either loss, for the quadratic family, for
    # one branch per chunk and for a last chunk shorter than the others
    rng = np.random.default_rng(7)
    squared, _ = synth_problem(
        SynthSpec(n=16, d=3, loss="squared", target_beta=2.0, seed=2))
    problems = [synth_tiny[0], squared, QuadraticProblem(centers=[[1.0], [-1.0]]),
                QuadraticProblem(centers=rng.normal(size=(15, 4)),
                                 weights=rng.uniform(0.5, 2.0, size=15))]
    for problem in problems:
        n, d = problem.n, problem.d
        for size in (n, 3, 1):
            monkeypatch.setattr(theory, "BRANCH_FLOATS", size * 3 * n * d)
            states = trajectory_states(problem, 12, seed=3)[::3]
            stacked = []
            for phi, w in states:
                audit = Audit(problem, phi, w, 2.0)
                assert audit.base.rows() == [reference_potential(problem, phi, w)]
                expected = reference_branches(problem, phi, w, 2.0)
                assert np.array_equal(audit.next_w[0],
                                      np.stack([w_j for w_j, _ in expected]))
                assert audit.branches.rows() == [terms for _, terms in expected]
                stacked += [terms for _, terms in expected]
            # the same states as one stack, whose chunks also span states
            audit = Audit(problem, np.stack([phi for phi, _ in states]),
                          np.stack([w for _, w in states]), 2.0)
            assert audit.branches.rows() == stacked


def test_audit_branches_span_chunks_at_the_real_cap():
    problem, _ = synth_problem(SynthSpec(n=300, d=5, target_beta=2.0, seed=3))
    size = theory.BRANCH_FLOATS // (3 * problem.n * problem.d)
    assert problem.n > size and problem.n % size
    phi, w = trajectory_states(problem, 5, seed=1)[-1]
    audit = Audit(problem, phi, w, 2.0)
    assert audit.branches.rows() == [terms for _, terms in
                                     reference_branches(problem, phi, w, 2.0)]


def test_branch_stacks_stay_within_the_cap():
    # unchunked, the stacked tables, gradients and gaps of all n branches
    # would hold 3 n^2 d floats, more than twice the cap
    problem, _ = synth_problem(SynthSpec(n=500, d=5, target_beta=2.0, seed=0))
    assert 3 * problem.n**2 * problem.d > 2 * theory.BRANCH_FLOATS
    phi, w = trajectory_states(problem, 3)[-1]
    audit = Audit(problem, phi, w, 2.0)
    tracemalloc.start()
    try:
        audit.branches
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * theory.BRANCH_FLOATS * 8


def test_suite_evaluates_each_branch_potential_once(monkeypatch):
    calls = []
    potentials, audit = theory._potentials, theory.Audit

    def counted_potentials(problem, tables, *rest):
        calls.append(len(tables))
        return potentials(problem, tables, *rest)

    def counted_audit(*args):
        calls.append("audit")
        return audit(*args)

    monkeypatch.setattr(theory, "_potentials", counted_potentials)
    monkeypatch.setattr(theory, "Audit", counted_audit)
    n, states = 40, 3
    assert theory.audit_block(n, 5) >= states
    assert theory.BRANCH_FLOATS // (3 * n * 5) >= states * n
    suite_lyapunov(n, 5, 2.0, states, 0, 2.0)
    # the initial potential (a stack of one state), then one audit of the
    # block of states, its base potentials (one stack of all states) and
    # all states * n branches in one stack
    assert calls == [1, "audit", states, states * n]


def test_suite_lyapunov_memory_stays_within_the_budget():
    # at n=120, d=5 the branches of one state are 3 n^2 d = 216000 floats:
    # the suite needs several branch chunks and several blocks of states.
    # A chunk and a block each hold at most BRANCH_FLOATS floats
    n, d, states = 120, 5, 12
    assert 3 * n * n * d * states > 4 * theory.BRANCH_FLOATS
    assert theory.audit_block(n, d) < states
    tracemalloc.start()
    try:
        suite_lyapunov(n, d, 2.0, states, 0, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * theory.BRANCH_FLOATS * 8


def audit_bits(result):
    """Every float of an audit result as hex, recursively."""
    if isinstance(result, list):
        return [audit_bits(r) for r in result]
    if isinstance(result, CheckReport):
        return report_bits(result)
    if isinstance(result, theory.LyapunovTerms):
        return tuple(t.hex() for t in result.fields())
    return result.hex()


@pytest.mark.parametrize("suite, args", [
    (suite_lyapunov, (24, 4, 2.0, 10, 0, 2.0)),
    (theory.suite_inequalities, (16, 3, 2.0, 10, 1, 2.0)),
])
def test_suites_are_bit_equal_at_any_chunk_size(monkeypatch, suite, args):
    default = audit_bits(suite(*args))
    n, d = args[:2]
    # a chunk holds 7 (state, branch) pairs, and a block one state
    monkeypatch.setattr(theory, "BRANCH_FLOATS", 7 * 3 * n * d)
    assert theory.audit_block(n, d) == 1
    assert audit_bits(suite(*args)) == default


def test_stacked_audit_rejects_mismatched_or_non_finite_points(synth_tiny):
    problem, _ = synth_tiny
    phi = np.zeros((3, problem.n, problem.d))
    w = np.zeros((3, problem.d))
    for table, points in ((phi, w[:2]), (phi, w[0]), (phi[np.newaxis], w)):
        with pytest.raises(ValueError, match="a stack of tables"):
            Audit(problem, table, points, 2.0)
    w[1, 0] = np.nan
    with pytest.raises(ValueError, match="point contains non-finite entries"):
        Audit(problem, phi, w, 2.0)
    with pytest.raises(ValueError, match="table must have shape"):
        Audit(problem, phi[:, 1:], None, 2.0)


def test_lone_audit_equals_its_row_of_the_stack(synth_tiny, monkeypatch):
    problem, ref = synth_tiny
    monkeypatch.setattr(theory, "BRANCH_FLOATS", 7 * 3 * problem.n * problem.d)
    rng = np.random.default_rng(5)
    pairs = trajectory_states(problem, 8, seed=2)
    phi = np.stack([p for p, _ in pairs])
    w = np.stack([x for _, x in pairs])
    points = rng.normal(size=w.shape)

    def results(phi, w, points):
        audit = Audit(problem, phi, w, 2.0)
        return [audit.decrease_report(2.0), audit.map_report(),
                audit.bound_report(ref),
                audit.mean_descent_report(), audit.term_shifts(),
                audit.t3_shift(), audit.t4_shift(), audit.step_gap(),
                audit.displacement_gap(), audit.variance_gap(),
                audit.table_reports(),
                Audit(problem, phi, points, 2.0).lower_bound_report(2.0),
                Audit(problem, phi, None, 2.0).table_reports()]

    stack = audit_bits(results(phi, w, points))
    for k in range(len(pairs)):
        lone = audit_bits(results(phi[k], w[k], points[k]))
        assert lone == [rows[k] for rows in stack]
        # a point of None is the table map of finito_map
        at_map = Audit(problem, phi[k], finito_map(problem, phi[k], 2.0), 2.0)
        assert audit_bits(at_map.table_reports()) == lone[-1]
    assert np.array_equal(Audit(problem, phi, None, 2.0).w,
                          np.stack([finito_map(problem, p, 2.0) for p in phi]))


# -- inequality suites ---------------------------------------------------------------


def test_pair_checks_names_and_satisfaction(synth_small, rng):
    problem, _ = synth_small
    reports = pair_checks(problem, rng.normal(size=problem.d),
                          rng.normal(size=problem.d))
    names = [r.name for r in reports]
    assert names == ["smoothness-upper", "smoothness-lower",
                     "strong-convexity-lower", "cocoercivity",
                     "strong-monotonicity"]
    assert all(r.satisfied for r in reports)
    assert all(isinstance(r, CheckReport) for r in reports)


def test_table_checks_names_and_satisfaction(synth_small, rng):
    problem, ref = synth_small
    phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
    w = finito_map(problem, phi, 2.0)
    reports = Audit(problem, phi, w, 2.0).table_reports()
    assert [r.name for r in reports] == ["table-strong-convexity",
                                         "table-smoothness-lower"]
    assert all(r.satisfied for r in reports)


def test_convexity_suite_batch(synth_small):
    problem, ref = synth_small
    reports = convexity_suite(problem, draws=40, seed=2, reference=ref)
    assert len(reports) == 7 * 40
    assert all(r.satisfied for r in reports)


def test_component_lower_bound_check(synth_small, rng):
    problem, _ = synth_small
    for _ in range(50):
        rep = strong_lb_check(problem, int(rng.integers(problem.n)),
                              rng.normal(size=problem.d),
                              rng.normal(size=problem.d))
        assert rep.satisfied


def test_component_lower_bound_needs_curvature_gap(desk):
    # L == s leaves no room for the interpolation constant
    with pytest.raises(ValueError):
        strong_lb_check(desk, 0, np.zeros(1), np.ones(1))


def test_aggregate_lower_bound_check(synth_small, rng):
    problem, ref = synth_small
    for _ in range(20):
        phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
        audit = Audit(problem, phi, rng.normal(size=problem.d), 2.0)
        assert audit.lower_bound_report(2.0).satisfied


def test_aggregate_lower_bound_needs_size(desk):
    audit = Audit(desk, np.ones((2, 1)), np.zeros(1), 2.0)
    with pytest.raises(ValueError, match="big-data condition fails"):
        audit.lower_bound_report(3.0)


def reference_table_checks(problem, phi, w, tol=1e-9):
    """The standalone table checks the audit replaced, body kept verbatim
    apart from validation."""
    L = problem.lipschitz_constant()
    s = problem.s
    n = problem.n
    values = problem.table_values(phi)
    grads = problem.table_gradients(phi)
    gaps = w[np.newaxis, :] - phi
    fw = float(problem.objective_batch(w[np.newaxis, :])[0])
    t2 = -float(values.mean()) \
        - float(np.einsum("ij,ij->i", grads, gaps).mean())
    diff = problem.table_gradients(np.broadcast_to(w, (n, problem.d))) - grads
    return [
        theory._le_report("table-strong-convexity", -fw - t2,
                          -0.5 * s * float(np.einsum("ij,ij->", gaps, gaps)) / n,
                          tol, ""),
        theory._le_report("table-smoothness-lower", -fw - t2,
                          -0.5 * float(np.einsum("ij,ij->", diff, diff)) / (L * n),
                          tol, ""),
    ]


def reference_lower_bound(problem, phi, x, beta, tol=1e-9):
    """The standalone averaged lower bound the audit replaced, body kept
    verbatim apart from validation."""
    n = problem.n
    L = problem.lipschitz_constant()
    s = problem.s
    values = problem.table_values(phi)
    grads = problem.table_gradients(phi)
    grads_at_x = problem.table_gradients(np.broadcast_to(x, (n, problem.d)))
    dx = x[np.newaxis, :] - phi
    dg = grads_at_x - grads
    fx = float(problem.objective_batch(x[np.newaxis, :])[0])
    lhs = (float(values.mean())
           + float(np.einsum("ij,ij->i", grads, dx).mean())
           + 0.5 * beta * float(np.einsum("ij,ij->", dg, dg)) / (s * n**2)
           + 0.5 * beta * L * float(np.einsum("ij,ij->", dx, dx)) / n**2
           - beta * float(np.einsum("ij,ij->", dg, dx)) / n**2)
    return theory._le_report("averaged-strong-smooth-lower", lhs, fx, tol,
                             f"beta={beta:g} n={n}")


def report_bits(report):
    return (report.name, report.lhs.hex(), report.rhs.hex(),
            report.slack.hex(), report.satisfied, report.context)


@pytest.mark.parametrize("m,d", [(1, 1), (7, 3), (500, 20)])
def test_random_ball_points_lie_in_the_ball(m, d):
    center = np.linspace(-1e3, 1e3, d)
    points = theory.random_ball_points(np.random.default_rng([m, d]), center,
                                       2.5, m)
    assert points.shape == (m, d)
    radii = np.linalg.norm(points - center, axis=1)
    assert np.all(radii <= 2.5 * (1 + 1e-12))
    assert len(set(radii.tolist())) == m  # lengths are drawn, not fixed


class _ZeroNormals:
    """A generator whose normals are all zero and whose uniforms are 1."""

    def standard_normal(self, shape):
        return np.zeros(shape)

    def uniform(self, size):
        return np.ones(size)


def test_a_zero_normal_gives_the_center():
    center = np.array([1.5, -2.0, 0.25])
    points = theory.random_ball_points(_ZeroNormals(), center, 2.0, 4)
    assert points.shape == (4, 3)
    assert np.array_equal(points, np.tile(center, (4, 1)))


def test_random_ball_points_draw_normals_then_uniforms():
    center = np.zeros(3)
    points = theory.random_ball_points(np.random.default_rng(5), center, 2.0, 4)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((4, 3))
    lengths = 2.0 * rng.uniform(size=4)
    assert np.allclose(points, raw / np.linalg.norm(raw, axis=1)[:, None]
                       * lengths[:, None], rtol=1e-14, atol=0)


def test_audit_table_checks_equal_standalone_checks(synth_tiny):
    # the two table-state checks read the audit's rows instead of evaluating
    # their own; on and off the map, for either loss, not a bit may move
    squared, squared_ref = synth_problem(
        SynthSpec(n=16, d=3, loss="squared", target_beta=2.0, seed=2))
    rng = np.random.default_rng(17)
    states = 0
    for problem, ref in (synth_tiny, (squared, squared_ref)):
        for _ in range(10):
            phi = random_ball_points(rng, ref.w_star, BALL_RADIUS, problem.n)
            at_map = finito_map(problem, phi, 2.0)
            (off_map,) = theory.random_ball_points(rng, ref.w_star, 2.0, 1)
            for w in (at_map, off_map):
                audit = Audit(problem, phi, w, 2.0)
                assert ([report_bits(r) for r in audit.table_reports()]
                        == [report_bits(r) for r in
                            reference_table_checks(problem, phi, w)])
                assert (report_bits(audit.lower_bound_report(2.0))
                        == report_bits(reference_lower_bound(problem, phi, w, 2.0)))
                states += 1
    assert states == 40


def test_inequality_suite_evaluates_each_table_gradient_once(monkeypatch):
    # each random table's gradients feed both its map and its audit; the
    # audits once evaluated them again, 200 times in 600 calls
    tables = []
    table_gradients = finito.FiniteSumProblem.table_gradients

    def recorded(self, points):
        tables.extend(t.tobytes() for t in np.reshape(points, (-1, self.n, self.d)))
        return table_gradients(self, points)

    monkeypatch.setattr(finito.FiniteSumProblem, "table_gradients", recorded)
    draws = 100
    theory.suite_inequalities(40, 5, 2.0, draws, 0, 2.0)
    # per draw: a convexity table and its map, a lower-bound table and x
    assert len(tables) == 4 * draws
    assert len(set(tables)) == len(tables)


def test_inequality_suite_counts_no_more_evaluations(monkeypatch):
    # its audits read rows and gradients only: no potential is evaluated, and
    # per draw the suite makes at most six table_gradients calls and three
    # objective_batch calls
    counts = {"table_gradients": 0, "objective_batch": 0, "potentials": 0}
    cls = finito.FiniteSumProblem

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in ("table_gradients", "objective_batch"):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    monkeypatch.setattr(theory, "_potentials",
                        counted("potentials", theory._potentials))
    draws = 20
    reports = theory.suite_inequalities(16, 3, 2.0, draws, 0, 2.0)
    assert len(reports) == 9 * draws
    assert counts["potentials"] == 0
    assert counts["table_gradients"] <= 6 * draws
    assert counts["objective_batch"] <= 3 * draws


# -- rate certificates ------------------------------------------------------------------


def run_rate_traces(problem, ref, seeds, epochs=6):
    config = SolverConfig(solver="finito", alpha=2.0, monitor="table-mean",
                          first_pass=False, w0=np.zeros(problem.d))
    return [run(problem, config, SamplingScheme("uniform", seed=s), epochs,
                reference=ref) for s in range(seeds)]


def test_rate_curve_and_certificate(synth_small):
    problem, ref = synth_small
    traces = run_rate_traces(problem, ref, seeds=6)
    curve = rate_curve(traces, problem, 2.0, np.zeros(problem.d))
    assert [k for k, _, _ in curve] == [i * problem.n for i in range(7)]
    assert all(mean <= bound + 1e-9 for _, mean, bound in curve)
    cert = rate_certificate(traces, problem, 2.0, np.zeros(problem.d))
    assert cert.name == "rate-bound" and cert.satisfied


def test_worst_report_holds_only_when_every_member_holds():
    family = [
        (0, theory._le_report("a", 1.0, 2.0, 0.0, "")),
        # least slack, yet within tolerance of its large scale
        (4, theory._le_report("b", 0.0, -1.0, 1e-9, "", scale=1e10)),
        (9, theory._le_report("c", 1.0, 0.5, 0.0, "")),
        # a k given twice is two members
        (9, theory._le_report("d", 0.5, 1.0, 0.0, "")),
    ]
    assert [r.satisfied for _, r in family] == [True, True, False, True]
    row = theory._worst_report("family", family, "seeds=2")
    assert (row.name, row.lhs, row.rhs, row.slack, row.satisfied,
            row.context) == ("family", 0.0, -1.0, -1.0, False,
                             "seeds=2 worst_k=4")
    row = theory._worst_report("family", family[:2], "seeds=2")
    assert row.satisfied and row.context == "seeds=2 worst_k=4"


def test_rate_certificate_names_the_worst_checkpoint(synth_small):
    problem, ref = synth_small
    traces = run_rate_traces(problem, ref, seeds=2)
    curve = rate_curve(traces, problem, 2.0, np.zeros(problem.d))
    k, mean, bound = min(curve, key=lambda row: row[2] - row[1])
    cert = rate_certificate(traces, problem, 2.0, np.zeros(problem.d))
    assert (cert.lhs, cert.rhs, cert.slack, cert.context) == (
        mean, bound, bound - mean,
        f"checkpoints={len(curve)} seeds=2 worst_k={k}")


def test_rate_curve_rejects_mismatched_grids(synth_small):
    problem, ref = synth_small
    traces = run_rate_traces(problem, ref, seeds=2)
    with pytest.raises(ValueError):
        rate_curve([traces[0], traces[1][:-1]], problem, 2.0,
                   np.zeros(problem.d))


def test_rate_refusals(synth_small):
    problem, _ = synth_small
    w0 = np.zeros(problem.d)
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        rate_bound(problem, 2.0, w0, -1)
    with pytest.raises(ValueError, match="^need at least one trace$"):
        rate_curve([], problem, 2.0, w0)
    # without a reference the suboptimality column is nan
    with pytest.raises(ValueError, match=r"^traces must carry a finite suboptimality "
                                         r"column \(run against a reference solution\)$"):
        rate_curve(run_rate_traces(problem, None, seeds=1, epochs=1), problem, 2.0, w0)


def test_the_analysis_refuses_an_l1_term():
    problem, _ = synth_problem(SynthSpec(n=20, d=3, seed=1, l1_weight=0.01))
    with pytest.raises(ValueError, match=r"^analysis checks cover the smooth objective "
                                         r"only; drop the l1 term \(l1_weight=0\)$"):
        Audit(problem, np.zeros((problem.n, problem.d)), None, 2.0)


@pytest.mark.parametrize("draws", [0, -5])
def test_suite_lyapunov_needs_a_state(draws):
    # with no state it printed the initial-potential row alone and passed
    with pytest.raises(ValueError, match=f"draws must be >= 1, got {draws}"):
        theory.suite_lyapunov(n=10, d=2, beta=2.0, draws=draws, seed=0, alpha=2.0)


def test_t3_shift_refuses_an_alpha_whose_square_overflows(synth_tiny):
    problem, _ = synth_tiny
    phi = np.zeros((problem.n, problem.d))
    with pytest.raises(ValueError, match="alpha\\^2 overflows"):
        Audit(problem, phi, None, 1e308).t3_shift()


def test_lyapunov_total_property(desk):
    terms = lyapunov_evaluate(desk, np.ones((2, 1)), np.array([0.5]))
    assert terms.total == terms.t1 + terms.t2 + terms.t3 + terms.t4
