"""Problem containers: exact desk values, gradient oracles, validation."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from finito import (
    LOGISTIC,
    SQUARED,
    UNIFORM,
    FiniteSumProblem,
    IndexSampler,
    QuadraticProblem,
    ReferenceSolution,
    SamplingScheme,
    SolverConfig,
    StrongConvexityRequired,
    SynthSpec,
    convexity_suite,
    expected_unseen,
    make_worst_case,
    prox_operator,
    rate_bound,
    run,
    simulate_unseen,
    synth_data,
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


def _just_above(value, exact):
    # the smoothness constant's rounding margin keeps it at or just above the
    # exact smoothness, never below
    return exact <= value <= exact * (1.0 + 1e-12)


def test_smoothness_closed_forms():
    # orthogonal rows of squared norm 1 and 4: lambda_max(X^T X) = 4, so
    # c 4 / 2 + s, where the mean bound c (1 + 4) / 2 + s gives 3.0 and 0.625
    feats = [[1.0, 0.0], [0.0, 2.0]]
    assert _just_above(
        FiniteSumProblem(feats, [1.0, 0.0], SQUARED, s=0.5).smoothness_constant(), 2.5)
    assert _just_above(
        FiniteSumProblem(feats, [1.0, -1.0], LOGISTIC).smoothness_constant(), 0.5)
    # d > n: the Gram matrix X X^T is diag(9, 4), so 9 / 2 where the mean
    # bound gives 13 / 2
    wide = FiniteSumProblem([[1.0, 2.0, 2.0, 0.0], [0.0, 0.0, 0.0, 2.0]],
                            [1.0, 0.0], SQUARED)
    assert _just_above(wide.smoothness_constant(), 4.5)
    # rank one: the eigenvalue is the trace, so the margin lifts it above the
    # mean bound, which caps it
    ranked = FiniteSumProblem([[1.0, 1.0], [2.0, 2.0]], [1.0, 0.0], SQUARED)
    assert ranked.smoothness_constant() == 5.0
    p = QuadraticProblem([[0.0], [1.0], [2.0], [3.0]], weights=[1.0, 2.0, 3.0, 4.0])
    assert p.smoothness_constant() == 2.5


def test_smoothness_is_finite_where_the_largest_component_constant_is():
    # each row's squared norm is 1e308, so their sum overflows
    p = FiniteSumProblem(np.full((4, 1), 1e154), np.zeros(4), SQUARED)
    assert p.lipschitz_constant() == p.smoothness_constant() == 1e154 * 1e154
    # X^T X = diag(2e308, 1e308) overflows unless X is scaled first; the
    # constant, 2e308 / 3, lies below the mean bound 1e308, so it is not a
    # NaN eigenvalue that the cap replaced
    p = FiniteSumProblem([[1e154, 0.0], [1e154, 0.0], [0.0, 1e154]],
                         np.zeros(3), SQUARED)
    with np.errstate(over="raise", invalid="raise"):
        assert _just_above(p.smoothness_constant(), 1e154 * 1e154 / 3.0 * 2.0)


def test_an_overflowing_smoothness_constant_names_the_largest_feature():
    p = FiniteSumProblem([[1e200], [-3e199]], [1.0, -1.0], LOGISTIC, s=0.5)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"overflows: the largest feature magnitude is 1e\+200"):
        p.smoothness_constant()


@pytest.mark.parametrize("feature,message", [
    (0.0, r"^Lipschitz constant is 0: every feature is 0 and s = 0$"),
    # its square, 1e-340, rounds to 0
    (1e-170, r"^Lipschitz constant underflows to 0: the largest feature magnitude "
             r"is 1e-170 \(s = 0\); rescale the data$"),
    # its square, 5.29e-324, rounds to 5e-324 or (logistic, times 1/4) to 0;
    # 1/5e-324 overflows
    (2.3e-162, r"^Lipschitz constant underflows to 0: the largest feature magnitude "
               r"is 2.3e-162 \(s = 0\); rescale the data$")])
@pytest.mark.parametrize("loss", [LOGISTIC, SQUARED])
@pytest.mark.parametrize("constant", ["lipschitz_constant", "smoothness_constant"])
def test_a_zero_constant_names_its_cause(constant, loss, feature, message):
    # the steps and the reference solve divide by it; the problem is built,
    # since sag runs on it at a given step without a reference
    p = FiniteSumProblem(np.full((3, 1), feature), [1.0, -1.0, 1.0], loss, s=0.0)
    with pytest.raises(ValueError, match=message):
        getattr(p, constant)()


def test_a_smoothness_constant_whose_reciprocal_overflows_names_its_cause():
    # L = 2^-1022 is invertible, but the average's constant is L/8 = 2^-1025,
    # whose reciprocal the reference solve's step overflowed to inf
    features = np.zeros((8, 1))
    features[0, 0] = 2.0**-511
    p = FiniteSumProblem(features, np.zeros(8), SQUARED, s=0.0)
    assert p.lipschitz_constant() == 2.0**-1022
    with pytest.raises(ValueError, match=r"^Lipschitz constant underflows to 0: the largest "
                       r"feature magnitude is 1.49167e-154 \(s = 0\); rescale the data$"):
        p.smoothness_constant()


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
    with pytest.raises(ValueError, match="^beta must be finite and > 0, got 0.0$"):
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
    with pytest.raises(ValueError, match="^step must be finite and > 0, got 0.0$"):
        prox_operator(0.5, np.array([2.0]), 0.0)
    with pytest.raises(ValueError, match="^l1_weight must be finite and >= 0, got -0.5$"):
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


# NaN once passed both constructors: an l1 weight of NaN dropped the l1
# term from full_objective, and an s of NaN surfaced later as divergence or
# as a Lipschitz overflow blamed on the data.  A quadratic's infinite weight
# once built with L = inf, a NaN one was refused as an s outside [0, min
# weight], and a non-finite center surfaced as a non-finite gradient at step 0
@pytest.mark.parametrize("make,value,message", [
    *(pytest.param(make, value, f"{name} must be finite and >= 0, got {value}",
                   id=f"{case}-{value}")
      for case, name, make in (
          ("finite-sum-s", "s",
           lambda v: FiniteSumProblem([[1.0]], [1.0], LOGISTIC, s=v)),
          ("finite-sum-l1", "l1_weight",
           lambda v: FiniteSumProblem([[1.0]], [1.0], LOGISTIC, l1_weight=v)),
          ("quadratic-l1", "l1_weight", lambda v: QuadraticProblem([[0.0]], l1_weight=v)))
      for value in (math.nan, math.inf, -0.5)),
    *(pytest.param(make, value, f"{field} contain non-finite entries",
                   id=f"quadratic-{field}-{value}")
      for field, make in (
          ("weights", lambda v: QuadraticProblem([[0.0], [1.0]], weights=[1.0, v])),
          ("centers", lambda v: QuadraticProblem([[v], [0.0]])))
      for value in (math.inf, math.nan)),
])
def test_a_problem_refuses_a_weight_that_is_not_finite_and_nonnegative(make, value, message):
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == message


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


# -- scalar input rules ---------------------------------------------------------

_DESK = QuadraticProblem([[1.0], [-1.0]], weights=[2.0, 2.0], s=1.0)
_DESK_REFERENCE = ReferenceSolution(np.zeros(1), 1.0, 0.0, "closed-form")
_Z = np.array([2.0, -1.0])


def _run(epochs):
    return run(_DESK, SolverConfig(), SamplingScheme(UNIFORM), epochs)


# (call, the parameter its refusal names); NaN, inf, -1, 2.5 and True fed to
# public entry points, True only where an integer is due.  The rows whose id
# ends in "-once" were not refused by name before the rules were shared:
# they returned NaN, zeros or verdict=False, ran a truncated count, or
# raised islice's or numpy's own message.
SCALAR_REFUSALS = [
    pytest.param(lambda: prox_operator(math.nan, _Z, 1.0), "l1_weight", id="prox-l1-nan-once"),
    pytest.param(lambda: prox_operator(1.0, _Z, math.nan), "step", id="prox-step-nan-once"),
    pytest.param(lambda: prox_operator(1.0, _Z, math.inf), "step", id="prox-step-inf-once"),
    pytest.param(lambda: prox_operator(-1.0, _Z, 1.0), "l1_weight", id="prox-l1-negative"),
    pytest.param(lambda: prox_operator(1.0, _Z, -1.0), "step", id="prox-step-negative"),
    pytest.param(lambda: _DESK.big_data_check(math.nan), "beta", id="big-data-nan-once"),
    pytest.param(lambda: _DESK.big_data_check(math.inf), "beta", id="big-data-inf-once"),
    pytest.param(lambda: _DESK.big_data_check(-1.0), "beta", id="big-data-negative"),
    pytest.param(lambda: _run(math.nan), "epochs", id="run-epochs-nan-once"),
    pytest.param(lambda: _run(2.5), "epochs", id="run-epochs-2.5"),
    pytest.param(lambda: _run(True), "epochs", id="run-epochs-true"),
    pytest.param(lambda: _run(-1), "epochs", id="run-epochs-negative"),
    pytest.param(lambda: rate_bound(_DESK, 2.0, np.ones(1), math.nan), "k",
                 id="rate-bound-k-nan-once"),
    pytest.param(lambda: rate_bound(_DESK, 2.0, np.ones(1), math.inf), "k",
                 id="rate-bound-k-inf"),
    pytest.param(lambda: rate_bound(_DESK, math.nan, np.ones(1), 1), "alpha",
                 id="rate-bound-alpha-nan"),
    pytest.param(lambda: expected_unseen(2.5, 1), "n", id="expected-unseen-n-2.5-once"),
    pytest.param(lambda: expected_unseen(5, -1), "k", id="expected-unseen-k-negative"),
    pytest.param(lambda: simulate_unseen(2.5, [1]), "n", id="simulate-unseen-n-2.5-once"),
    pytest.param(lambda: simulate_unseen(5, [1.7]), "k", id="simulate-unseen-k-1.7-once"),
    pytest.param(lambda: simulate_unseen(5, math.nan), "k", id="simulate-unseen-k-nan"),
    pytest.param(lambda: simulate_unseen(5, [1], trials=True), "trials",
                 id="simulate-unseen-trials-true"),
    pytest.param(lambda: simulate_unseen(5, [1], trials=50, seed=-1), "seed",
                 id="simulate-unseen-seed-negative-once"),
    pytest.param(lambda: make_worst_case(True), "n", id="worst-case-n-true"),
    pytest.param(lambda: IndexSampler(SamplingScheme(UNIFORM), 5).skip_to(1.5), "draws",
                 id="skip-to-1.5-once"),
    pytest.param(lambda: IndexSampler(SamplingScheme(UNIFORM), 5).skip_to(-1), "draws",
                 id="skip-to-negative"),
    pytest.param(lambda: IndexSampler(SamplingScheme(UNIFORM), math.inf), "n",
                 id="sampler-n-inf"),
    pytest.param(lambda: SamplingScheme(UNIFORM, True), "seed", id="scheme-seed-true"),
    pytest.param(lambda: SamplingScheme(UNIFORM, -1), "seed", id="scheme-seed-negative"),
    pytest.param(lambda: synth_data(SynthSpec(n=20, d=3, seed=-1)), "seed",
                 id="synth-seed-negative-once"),
    pytest.param(lambda: synth_data(SynthSpec(n=2.5, d=3)), "n", id="synth-n-2.5"),
    pytest.param(lambda: synth_data(SynthSpec(n=20, d=True)), "d", id="synth-d-true"),
    pytest.param(lambda: synth_data(SynthSpec(n=20, d=3, s=math.inf)), "s", id="synth-s-inf"),
    pytest.param(lambda: synth_data(SynthSpec(n=20, d=3, noise=math.nan)), "noise",
                 id="synth-noise-nan"),
    pytest.param(lambda: synth_data(SynthSpec(n=20, d=3, noise=-1.0)), "noise",
                 id="synth-noise-negative"),
    pytest.param(lambda: convexity_suite(_DESK, _DESK_REFERENCE, draws=2.5), "draws",
                 id="convexity-draws-2.5"),
    pytest.param(lambda: convexity_suite(_DESK, _DESK_REFERENCE, seed=-1), "seed",
                 id="convexity-seed-negative"),
]


@pytest.mark.parametrize("call,name", SCALAR_REFUSALS)
def test_scalar_inputs_are_refused_naming_the_parameter(call, name):
    with pytest.raises((ValueError, TypeError), match=rf"^{name} must be "):
        call()
