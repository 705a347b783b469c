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
    unseen_variance,
)
from finito import lower_bounds
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


def test_unseen_variance_matches_enumeration():
    n = 3
    for k in range(0, 7):
        counts = [n - len(set(seq))
                  for seq in itertools.product(range(n), repeat=k)]
        mean = sum(counts) / n**k
        want = sum((c - mean) ** 2 for c in counts) / n**k
        assert unseen_variance(n, k) == pytest.approx(want, abs=1e-12)


def test_worst_case_construction():
    p, reference = make_worst_case(4)
    assert p.n == 4 and p.d == 4 and p.s == 1.0
    assert p.lipschitz_constant() == 5.0
    assert reference.method_tag == "closed-form"
    assert np.array_equal(reference.w_star, np.full(4, 0.5))
    assert reference.f_star == 1.0
    assert p.full_objective(np.zeros(4)) == 2.0
    assert p.full_objective(reference.w_star) == 1.0
    assert np.linalg.norm(p.full_gradient(reference.w_star)) <= 1e-12


def test_oracle_floor_from_mask():
    assert oracle_limited_suboptimality(8, np.zeros(8, dtype=bool)) == 2.0
    mask = np.zeros(8, dtype=bool)
    mask[[0, 3, 5]] = True
    assert oracle_limited_suboptimality(8, mask) == 5.0 / 4.0
    assert oracle_limited_suboptimality(8, np.ones(8, dtype=bool)) == 0.0


def test_simulate_unseen_matches_formula():
    points = simulate_unseen(10, [1, 5, 10], trials=60_000, seed=3)
    assert [pt.k for pt in points] == [1, 5, 10]
    for pt in points:
        assert pt.expected == pytest.approx(expected_unseen(10, pt.k), abs=1e-12)
        assert abs(pt.mc_mean - pt.expected) <= 4 * pt.mc_stderr
        # the martingale lift (1 - 1/n)^(-k) v_k keeps mean n at every k
        lift = (1 - 1 / 10) ** -pt.k
        assert abs(pt.mc_mean * lift - 10.0) <= 4 * pt.mc_stderr * lift


def test_simulate_unseen_single_k_and_determinism():
    one = simulate_unseen(6, 4, trials=20_000, seed=9)
    assert len(one) == 1 and one[0].k == 4
    again = simulate_unseen(6, 4, trials=20_000, seed=9)
    assert one[0].mc_mean == again[0].mc_mean


@pytest.mark.parametrize("k,trials,message", [
    ([], 10, "^need at least one k$"),
    ([-1], 10, "^need k >= 0, got -1$"),
    (3, 1, "^need trials >= 2, got 1$"),
])
def test_simulate_unseen_refusals(k, trials, message):
    with pytest.raises(ValueError, match=message):
        simulate_unseen(10, k, trials=trials)


def test_simulate_unseen_k0_sees_no_index():
    (point,) = simulate_unseen(7, 0, trials=50)
    assert point.mc_mean == point.expected == 7
    assert point.mc_stderr == 0


def test_first_pass_floor_trace_refuses_another_solver():
    with pytest.raises(ValueError, match=r"^unknown solver 'miso' \(use finito or sag\)$"):
        first_pass_floor_trace(5, "miso")


def test_simulate_unseen_refuses_a_draw_batch_beyond_the_limit():
    # one batch of 2 x 10^12 int64 draws would need ~15 TiB; the request is
    # refused before anything is allocated
    with pytest.raises(ValueError, match="GiB of draws per batch"):
        simulate_unseen(10, [10**12], trials=2)


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


def test_floor_check_reports_the_least_slack_step(monkeypatch):
    rows = [(0, 1.5, 1.5), (1, 1.25, 1.0), (2, 1.0, 1.1)]
    monkeypatch.setattr(lower_bounds, "first_pass_floor_trace",
                        lambda n, solver: rows)
    rep = floor_check(6, "sag")
    assert (rep.lhs, rep.rhs, rep.slack, rep.satisfied, rep.context) == (
        1.25, 1.0, -0.25, False, "solver=sag n=6 worst_k=1")


def test_floor_uses_identity_start():
    # the floor argument needs the iterate built only from seen components;
    # starting at zero, the unseen coordinates stay exactly at zero
    problem, _ = make_worst_case(6)
    st = finito_init(problem, alpha=2.0, w0=np.zeros(6), first_pass=True)
    from finito import finito_first_pass_step

    for k in range(3):
        finito_first_pass_step(st, problem, k)
    assert np.array_equal(st.w[3:], np.zeros(3))


@pytest.mark.parametrize("n", [3, 7, 12, 30, 40, 200])
def test_lowerbound_suite_judges_zero_spread_rows_at_rounding_tolerance(n):
    # at k = 1 every trial leaves n - 1 unseen, so the law's variance is 0
    # and the row is judged by the range term alone, which covers rounding
    assert unseen_variance(n, 1) == 0.0
    reports = suite_lowerbound(seed=0, n=n)
    rows = {r.name: r for r in reports}
    assert rows["unseen-mean-k1"].rhs == 16.0 * n / (3.0 * 100_000)
    assert all(isinstance(r, CheckReport) and r.satisfied for r in reports)


@pytest.mark.parametrize("seed", [0, 42, 44])
def test_lowerbound_suite_passes_at_two_components(seed):
    # judged against the sample's spread, seed 0 failed; seeds 42 and 44
    # each see 2 trials with an unseen index at k = 20 where 0.19 are
    # expected, which four of the law's standard errors alone reject
    reports = suite_lowerbound(seed=seed, n=2)
    assert all(r.satisfied for r in reports)


def test_lowerbound_suite_rejects_a_law_one_draw_off(monkeypatch):
    monkeypatch.setattr(lower_bounds, "expected_unseen",
                        lambda n, k: n * (1.0 - 1.0 / n) ** (k + 1))
    rows = {r.name: r for r in suite_lowerbound(seed=0, n=10)}
    assert [rows[f"unseen-mean-k{k}"].satisfied for k in (1, 5, 10, 20)] \
        == [False] * 4


@pytest.mark.parametrize("n", [0, -3])
def test_lowerbound_suite_needs_a_component(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        suite_lowerbound(seed=0, n=n)
