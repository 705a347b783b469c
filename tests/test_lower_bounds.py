"""Coupled worst case, unseen-count statistics, and the oracle-information floor."""

import itertools

import numpy as np
import pytest

from finito import (
    CheckReport,
    expected_unseen,
    finito_init,
    first_pass_floor_trace,
    floor_check,
    make_worst_case,
    oracle_limited_suboptimality,
    simulate_unseen,
    unseen_trajectory,
)
from finito.lower_bounds import suite_lowerbound


def test_expected_unseen_exact_values():
    assert expected_unseen(10, 0) == 10.0
    assert expected_unseen(10, 1) == 9.0
    assert expected_unseen(10, 10) == pytest.approx(10 * 0.9**10, abs=1e-15)


def test_expected_unseen_matches_enumeration():
    # brute force over every index sequence of length k
    n = 3
    for k in range(1, 7):
        total = 0
        for seq in itertools.product(range(n), repeat=k):
            total += n - len(set(seq))
        want = total / n**k
        assert expected_unseen(n, k) == pytest.approx(want, abs=1e-12)


def test_worst_case_construction():
    case = make_worst_case(4)
    p = case.problem
    assert p.n == 4 and p.d == 4 and p.s == 1.0
    assert p.lipschitz_constant() == 5.0
    assert np.array_equal(case.w_start, np.zeros(4))
    assert case.reference.method_tag == "closed-form"
    assert np.array_equal(case.reference.w_star, np.full(4, 0.5))
    assert case.reference.f_star == 1.0
    assert p.full_objective(np.zeros(4)) == 2.0
    assert p.full_objective(case.reference.w_star) == 1.0
    assert np.linalg.norm(p.full_gradient(case.reference.w_star)) <= 1e-12


def test_oracle_floor_from_mask():
    assert oracle_limited_suboptimality(8, np.zeros(8, dtype=bool)) == 2.0
    mask = np.zeros(8, dtype=bool)
    mask[[0, 3, 5]] = True
    assert oracle_limited_suboptimality(8, mask) == 5.0 / 4.0
    assert oracle_limited_suboptimality(8, np.ones(8, dtype=bool)) == 0.0


def test_unseen_trajectory_shape_and_monotonicity():
    rows = unseen_trajectory(12, 30, seed=5)
    assert [r.k for r in rows] == list(range(31))
    unseen = [r.unseen for r in rows]
    assert unseen[0] == 12
    assert all(a >= b for a, b in zip(unseen, unseen[1:]))
    # the scaled value is the martingale lift of the count
    for r in rows:
        assert r.scaled == pytest.approx(unseen_lift(12, r.k) * r.unseen, rel=1e-12)
    again = unseen_trajectory(12, 30, seed=5)
    assert [r.unseen for r in again] == unseen


def unseen_lift(n, k):
    return (1 - 1 / n) ** (-k)


def test_simulate_unseen_matches_formula():
    summary = simulate_unseen(10, [1, 5, 10], trials=60_000, seed=3)
    assert summary.n == 10 and summary.trials == 60_000
    assert len(summary.points) == 3
    for pt in summary.points:
        assert pt.expected == pytest.approx(expected_unseen(10, pt.k), abs=1e-12)
        assert abs(pt.mc_mean - pt.expected) <= 4 * pt.mc_stderr
        assert abs(pt.martingale_mean - 10.0) <= 4 * pt.martingale_stderr


def test_simulate_unseen_single_k_and_determinism():
    one = simulate_unseen(6, 4, trials=20_000, seed=9)
    assert len(one.points) == 1 and one.points[0].k == 4
    again = simulate_unseen(6, 4, trials=20_000, seed=9)
    assert one.points[0].mc_mean == again.points[0].mc_mean


def test_first_pass_floor_never_beaten():
    for solver in ("finito", "sag"):
        rows = first_pass_floor_trace(10, solver=solver)
        assert rows[0][0] == 0
        for k, floor, measured in rows:
            if k <= 10:
                assert floor == pytest.approx((10 - k) / 4, abs=1e-12)
            assert measured >= floor - 1e-9


def test_floor_check_reports():
    for solver in ("finito", "sag"):
        rep = floor_check(12, solver=solver)
        assert rep.name == "oracle-floor"
        assert rep.satisfied


def test_floor_uses_identity_start():
    # the floor argument needs the iterate built only from seen components;
    # starting at zero, the unseen coordinates stay exactly at zero
    case = make_worst_case(6)
    st = finito_init(case.problem, alpha=2.0, w0=case.w_start, first_pass=True)
    from finito import finito_first_pass_step

    for k in range(3):
        finito_first_pass_step(st, case.problem, k)
    assert np.array_equal(st.w[3:], np.zeros(3))


@pytest.mark.parametrize("n", [3, 7, 12, 30, 40, 200])
def test_lowerbound_suite_judges_zero_spread_rows_at_rounding_tolerance(n):
    # at k = 1 every trial leaves n - 1 unseen, so the spread is 0 and the
    # lift (n - 1)(1 - 1/n)^(-1) misses n by rounding alone: at these n the
    # martingale-mean-k1 row once failed
    reports = suite_lowerbound(seed=0, n=n)
    rows = {r.name: r for r in reports}
    assert rows["unseen-mean-k1"].rhs == rows["martingale-mean-k1"].rhs == 0.0
    assert all(isinstance(r, CheckReport) and r.satisfied for r in reports)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_lowerbound_suite_needs_two_components(n):
    with pytest.raises(ValueError, match="need n >= 2"):
        suite_lowerbound(seed=0, n=n)
