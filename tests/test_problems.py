"""Problem containers: exact desk values, gradient oracles, validation."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from finito import (
    LOGISTIC,
    SQUARED,
    FiniteSumProblem,
    QuadraticProblem,
    StrongConvexityRequired,
    prox_operator,
)


def fd_gradient(fun, w, h=1e-6):
    """Central finite difference, the independent oracle for every gradient."""
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (fun(w + e) - fun(w - e)) / (2 * h)
    return g


# -- exact component values ---------------------------------------------------


def test_squared_component_value_exact():
    p = FiniteSumProblem([[1.0, 0.0]], [1.0], SQUARED, s=0.0)
    assert p.component_value(0, np.zeros(2)) == 0.5


def test_squared_component_value_with_ridge():
    p = FiniteSumProblem([[1.0, 0.0]], [1.0], SQUARED, s=0.1)
    assert p.component_value(0, np.array([1.0, 0.0])) == pytest.approx(0.05, abs=1e-15)


def test_logistic_component_value_exact():
    p = FiniteSumProblem([[1.0]], [1.0], LOGISTIC, s=0.0)
    assert p.component_value(0, np.zeros(1)) == pytest.approx(np.log(2.0), abs=1e-15)


def test_squared_component_gradient_exact():
    p = FiniteSumProblem([[1.0, 0.0]], [1.0], SQUARED, s=0.1)
    g = p.component_gradient(0, np.zeros(2))
    assert np.array_equal(g, [-1.0, 0.0])


def test_logistic_component_gradient_exact():
    p = FiniteSumProblem([[1.0]], [1.0], LOGISTIC, s=0.0)
    assert p.component_gradient(0, np.zeros(1))[0] == -0.5


def test_full_objective_desk_values(desk):
    assert desk.full_objective(np.zeros(1)) == 0.5
    assert desk.full_objective(np.ones(1)) == 1.0


def test_full_gradient_desk_value(desk):
    assert desk.full_gradient(np.array([0.5]))[0] == 0.5


def test_l1_term_in_objective_only():
    p = FiniteSumProblem([[0.0, 0.0]], [0.0], SQUARED, s=0.0, l1_weight=0.5)
    w = np.array([1.0, -2.0])
    assert p.full_objective(w) == 1.5
    # smooth part excludes the l1 term
    assert np.array_equal(p.full_gradient(w), [0.0, 0.0])


def test_single_component_full_gradient_matches_component():
    p = FiniteSumProblem([[2.0, 1.0]], [0.5], SQUARED, s=0.3)
    w = np.array([0.2, -0.7])
    assert np.array_equal(p.full_gradient(w), p.component_gradient(0, w))


# -- finite-difference oracle -------------------------------------------------


@pytest.mark.parametrize("loss,s", [(SQUARED, 0.0), (SQUARED, 0.7), (LOGISTIC, 0.0), (LOGISTIC, 0.3)])
def test_component_gradient_matches_finite_differences(loss, s, rng):
    n, d = 8, 4
    feats = rng.normal(size=(n, d))
    targets = rng.normal(size=n)
    if loss == LOGISTIC:
        targets = np.where(targets >= 0, 1.0, -1.0)
    p = FiniteSumProblem(feats, targets, loss, s=s)
    for _ in range(25):
        i = int(rng.integers(n))
        w = rng.normal(size=d)
        got = p.component_gradient(i, w)
        want = fd_gradient(lambda v: p.component_value(i, v), w)
        assert np.linalg.norm(got - want) <= 1e-6 * (1 + np.linalg.norm(want))


def test_quadratic_gradient_matches_finite_differences(rng):
    p = QuadraticProblem(rng.normal(size=(5, 3)), weights=rng.uniform(0.5, 2.0, 5))
    for i in range(5):
        w = rng.normal(size=3)
        want = fd_gradient(lambda v: p.component_value(i, v), w)
        got = p.component_gradient(i, w)
        assert np.linalg.norm(got - want) <= 1e-6 * (1 + np.linalg.norm(want))


def test_logistic_stable_at_extreme_margins():
    p = FiniteSumProblem([[1.0]], [1.0], LOGISTIC, s=0.0)
    # far negative margin: value grows linearly, never overflows
    v = p.component_value(0, np.array([-1000.0]))
    assert np.isfinite(v) and v == pytest.approx(1000.0, rel=1e-12)
    assert p.component_value(0, np.array([1000.0])) == 0.0
    g = p.component_gradient(0, np.array([-1000.0]))
    assert g[0] == pytest.approx(-1.0, abs=1e-12)
    assert p.component_gradient(0, np.array([1000.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_logistic_gradients_quiet_at_extreme_margins():
    p = FiniteSumProblem([[1.0], [1.0]], [1.0, -1.0], LOGISTIC, s=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for m in (-1000.0, 1000.0):
            w = np.array([m])
            grads = [p.component_gradient(0, w), p.component_gradient(1, w),
                     p.table_gradients(np.full((2, 1), m)), p.full_gradient(w)]
            assert all(np.all(np.isfinite(g)) for g in grads)


def test_import_and_synth_do_not_load_scipy(subprocess_env):
    script = ("import sys, finito\n"
              "finito.synth_problem(finito.SynthSpec(n=20, d=3, loss='logistic'))\n"
              "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# -- batch helpers agree with the scalar paths --------------------------------


def test_table_helpers_match_component_loop(synth_small, rng):
    problem, _ = synth_small
    pts = rng.normal(size=(problem.n, problem.d))
    vals = problem.table_values(pts)
    grads = problem.table_gradients(pts)
    for i in range(0, problem.n, 7):
        assert vals[i] == pytest.approx(problem.component_value(i, pts[i]), abs=1e-14)
        assert np.allclose(grads[i], problem.component_gradient(i, pts[i]), atol=1e-14)


def test_objective_batch_matches_full_objective(synth_small, rng):
    problem, _ = synth_small
    pts = rng.normal(size=(6, problem.d))
    got = problem.objective_batch(pts)
    want = [problem.full_objective(p) for p in pts]
    assert np.allclose(got, want, atol=1e-13)


def test_objective_batch_of_a_stack_repeats_each_single_point(synth_small, rng):
    # a (m, 1, d) stack runs the one-point kernel per point, bit for bit
    problem, _ = synth_small
    quadratic = QuadraticProblem(rng.normal(size=(9, problem.d)),
                                 weights=rng.uniform(0.5, 2.0, size=9))
    pts = rng.normal(size=(6, problem.d))
    for p in (problem, quadratic):
        stacked = p.objective_batch(pts[:, np.newaxis, :])
        assert stacked.shape == (6, 1)
        single = [p.objective_batch(x[np.newaxis, :])[0] for x in pts]
        assert stacked[:, 0].tolist() == single


# -- Lipschitz constant -------------------------------------------------------


def test_lipschitz_closed_forms():
    assert FiniteSumProblem([[1.0, 0.0]], [1.0], SQUARED, s=0.1).lipschitz_constant() == 1.1
    assert FiniteSumProblem([[2.0]], [1.0], LOGISTIC, s=0.0).lipschitz_constant() == 1.0


def test_lipschitz_bounds_gradient_differences(rng):
    feats = rng.normal(size=(12, 4)) * 2.0
    targets = np.where(rng.normal(size=12) >= 0, 1.0, -1.0)
    p = FiniteSumProblem(feats, targets, LOGISTIC, s=0.2)
    L = p.lipschitz_constant()
    for _ in range(1000):
        i = int(rng.integers(12))
        w, v = rng.normal(size=4), rng.normal(size=4)
        lhs = np.linalg.norm(p.component_gradient(i, w) - p.component_gradient(i, v))
        assert lhs <= L * np.linalg.norm(w - v) + 1e-12


def test_an_overflowing_lipschitz_constant_names_the_largest_feature():
    # the problem is built: finito needs no L and runs on such data
    p = FiniteSumProblem([[1e200], [-3e199]], [1.0, -1.0], LOGISTIC, s=0.5)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"overflows: the largest feature magnitude is "
                              r"1e\+200 \(s = 0.5\); rescale the data"):
        p.lipschitz_constant()


def test_quadratic_lipschitz_is_max_weight():
    p = QuadraticProblem([[0.0], [1.0]], weights=[3.0, 0.5])
    assert p.lipschitz_constant() == 3.0


# -- big data report ----------------------------------------------------------


def test_big_data_verdict_and_ratio():
    feats = np.vstack([np.sqrt(10.0 - 1.0) * np.eye(1)] * 100)
    p = FiniteSumProblem(feats, np.zeros(100), SQUARED, s=1.0)
    assert p.lipschitz_constant() == 10.0
    rep = p.big_data_check(2.0)
    assert rep.verdict and rep.beta_achieved == 10.0


def test_big_data_verdict_false_when_small():
    feats = np.vstack([3.0 * np.eye(1)] * 10)
    p = FiniteSumProblem(feats, np.zeros(10), SQUARED, s=1.0)
    assert not p.big_data_check(2.0).verdict


def test_big_data_boundary_inclusive():
    # n exactly equals beta * L / s
    p = QuadraticProblem(np.zeros((4, 1)), weights=np.full(4, 2.0), s=1.0)
    assert p.lipschitz_constant() == 2.0
    assert p.big_data_check(2.0).verdict


def test_big_data_refuses_beta_0():
    p = QuadraticProblem(np.zeros((4, 1)), weights=np.full(4, 2.0), s=1.0)
    with pytest.raises(ValueError, match="^beta must be > 0, got 0.0$"):
        p.big_data_check(0.0)


def test_big_data_requires_strong_convexity():
    p = FiniteSumProblem([[1.0]], [0.0], SQUARED, s=0.0)
    with pytest.raises(StrongConvexityRequired):
        p.big_data_check(2.0)


# -- prox ----------------------------------------------------------------------


def test_prox_soft_threshold_values():
    assert prox_operator(0.5, np.array([2.0]), 1.0)[0] == 1.5
    assert prox_operator(0.5, np.array([-0.3]), 1.0)[0] == 0.0
    z = np.array([0.7, -1.4, 0.0])
    assert np.array_equal(prox_operator(0.0, z, 2.0), z)


def test_prox_refuses_step_0_and_a_negative_weight():
    with pytest.raises(ValueError, match="^prox step must be > 0, got 0.0$"):
        prox_operator(0.5, np.array([2.0]), 0.0)
    with pytest.raises(ValueError, match="^l1_weight must be >= 0, got -0.5$"):
        prox_operator(-0.5, np.array([2.0]), 1.0)


def test_prox_threshold_scales_with_step():
    out = prox_operator(0.25, np.array([3.0, -0.4]), 2.0)
    assert np.array_equal(out, [2.5, 0.0])


def test_prox_nonexpansive(rng):
    for _ in range(200):
        z1, z2 = rng.normal(size=5), rng.normal(size=5)
        d = np.linalg.norm(
            prox_operator(0.8, z1, 1.3) - prox_operator(0.8, z2, 1.3)
        )
        assert d <= np.linalg.norm(z1 - z2) + 1e-12


# -- validation ----------------------------------------------------------------


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FiniteSumProblem([[1.0]], [1.0], "hinge")
    with pytest.raises(ValueError):
        FiniteSumProblem([[1.0]], [0.5], LOGISTIC)  # labels must be +-1
    with pytest.raises(ValueError):
        FiniteSumProblem([[1.0]], [1.0, 2.0], SQUARED)
    with pytest.raises(ValueError):
        FiniteSumProblem([[1.0]], [1.0], SQUARED, s=-0.1)
    with pytest.raises(ValueError):
        FiniteSumProblem([[np.inf]], [1.0], SQUARED)
    with pytest.raises(ValueError):
        FiniteSumProblem(np.zeros((0, 2)), np.zeros(0), SQUARED)
    with pytest.raises(ValueError):
        QuadraticProblem([[0.0]], weights=[0.0])
    with pytest.raises(ValueError):
        QuadraticProblem([[0.0], [1.0]], weights=[1.0, 2.0], s=1.5)


def test_index_and_point_validation(desk):
    with pytest.raises(IndexError):
        desk.component_value(2, np.zeros(1))
    with pytest.raises(IndexError):
        desk.component_value(-1, np.zeros(1))
    with pytest.raises(ValueError):
        desk.component_value(0, np.zeros(3))
    with pytest.raises(ValueError):
        desk.component_value(0, np.array([np.nan]))


# values int() used to truncate or read as 0/1; an index must be an integer
NON_INTEGRAL = [0.0, 1.0, 1.7, np.float64(1.0), "1", True, False, np.True_, None]


@pytest.mark.parametrize("i", NON_INTEGRAL, ids=repr)
def test_non_integral_component_index_is_type_error(i):
    problems = [QuadraticProblem([[1.0], [-1.0]]),
                FiniteSumProblem([[1.0], [2.0]], [1.0, -1.0], LOGISTIC, s=0.1)]
    for p in problems:
        for op in (p.component_value, p.component_gradient):
            with pytest.raises(TypeError):
                op(i, np.zeros(1))


def test_numpy_integer_component_index_accepted(desk):
    w = np.array([0.5])
    for i in (np.int64(1), np.int32(1), np.uint8(1)):
        assert np.array_equal(desk.component_gradient(i, w),
                              desk.component_gradient(1, w))
        assert desk.component_value(i, w) == desk.component_value(1, w)


def test_quadratic_minimizer_closed_form():
    p = QuadraticProblem([[1.0, 0.0], [0.0, 2.0]], weights=[1.0, 3.0])
    m = p.minimizer()
    assert np.allclose(m, [0.25, 1.5], atol=1e-15)
    assert np.linalg.norm(p.full_gradient(m)) <= 1e-14


@pytest.mark.parametrize("loss", [SQUARED, LOGISTIC])
def test_component_gradient_error_texts(loss):
    # a zero feature column turns an inf in w into a NaN margin
    x = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, -1.0]])
    p = FiniteSumProblem(x, [1.0, -1.0], loss, s=0.1)
    w = np.array([0.5, 0.25, -1.0])
    for i in (2, -1):
        with pytest.raises(IndexError, match=rf"^component index {i} out of range \[0, 2\)$"):
            p.component_gradient(i, w)
    with pytest.raises(ValueError, match=r"^point must have shape \(3,\), got \(4,\)$"):
        p.component_gradient(0, np.zeros(4))
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0 * inf in x @ w
            with pytest.raises(ValueError, match="^point contains non-finite entries$"):
                p.component_gradient(1, np.array(bad))
    # a list and an integer array are still accepted as points
    expected = p.component_gradient(1, np.zeros(3))
    assert np.array_equal(p.component_gradient(1, [0, 0, 0]), expected)
    assert np.array_equal(p.component_gradient(1, np.zeros(3, dtype=int)), expected)


def test_component_gradient_overflowing_margin_is_not_a_bad_point():
    # finite w whose margin overflows: the point is valid, the gradient is not
    p = FiniteSumProblem([[1.0, 1.0]], [0.0], SQUARED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        g = p.component_gradient(0, np.array([1e308, 1e308]))
    assert not np.all(np.isfinite(g))
