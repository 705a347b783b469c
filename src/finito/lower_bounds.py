"""Hardness floor for incremental-gradient methods on separable problems.

The worst case is a finite sum whose component i is the only place any
information about coordinate i exists:

    f_i(w) = (n/2) (w_i - 1)^2 + (1/2) ||w||^2,

built from n scaled one-hot feature rows with squared loss and a unit
ridge, in dimension equal to n.  A method whose iterate lives in the span
of the gradients it has queried keeps w_i = 0 for every index i it has not
touched, and each such coordinate costs exactly 1/4 in suboptimality.
Under uniform sampling the number of untouched indices after k draws has
mean n (1 - 1/n)^k, so no such method beats that decay here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import FiniteSumProblem, ReferenceSolution, SQUARED, _require_count
from .solvers import (finito_first_pass_step, finito_init,
                      sag_first_pass_step, sag_init)
from .theory import CheckReport, _le_report, _worst_report

# trials per simulate_unseen batch, and the most bytes its int64 draws may take
_TRIAL_CHUNK = 16_384
_MAX_DRAW_BYTES = 1 << 30


def make_worst_case(n: int):
    """(FiniteSumProblem, ReferenceSolution) of the hard instance, the pair
    synth_problem returns.

    f(w) = (1/2)||w - 1||^2 + (1/2)||w||^2: minimized at w = 1/2 with
    f* = n/4; the all-zeros start is n/4 suboptimal, 1/4 per coordinate.
    """
    n = _require_count("n", n, 1)
    root = float(np.sqrt(n))
    features = root * np.eye(n)
    targets = np.full(n, root)
    problem = FiniteSumProblem(features, targets, SQUARED, s=1.0)
    reference = ReferenceSolution(
        w_star=np.full(n, 0.5), f_star=n / 4.0,
        grad_norm_at_solution=0.0, method_tag="closed-form")
    return problem, reference


def expected_unseen(n: int, k: int) -> float:
    """E[# indices never drawn in k uniform draws] = n (1 - 1/n)^k."""
    n, k = _require_count("n", n, 1), _require_count("k", k)
    return n * (1.0 - 1.0 / n) ** k


def unseen_variance(n: int, k: int) -> float:
    """Var[# indices never drawn in k uniform draws]
    = n(n-1)(1 - 2/n)^k + n(1 - 1/n)^k - n^2(1 - 1/n)^(2k), clamped at 0
    against rounding."""
    mean = expected_unseen(n, k)
    return max(0.0, n * (n - 1) * (1.0 - 2.0 / n) ** k + mean - mean * mean)


def oracle_limited_suboptimality(n: int, seen_mask) -> float:
    """Suboptimality of the best iterate supported on the seen coordinates.

    With w = 1/2 on seen coordinates and 0 elsewhere, f(w) - f* is exactly
    v/4 where v counts the unseen flags; no point supported on the seen
    set does better.
    """
    mask = np.asarray(seen_mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"seen_mask must have shape ({n},), got {mask.shape}")
    return float(n - np.count_nonzero(mask)) / 4.0


@dataclass
class UnseenPoint:
    k: int
    expected: float
    mc_mean: float
    mc_stderr: float


def simulate_unseen(n: int, k, trials: int = 100_000,
                    seed: int = 0) -> list[UnseenPoint]:
    """Monte-Carlo check of the unseen-count law under uniform sampling, one
    point per requested draw count in increasing order.

    `k` may be a single draw count or a list; all requested counts share
    trajectories (one length-max(k) draw sequence per trial).
    """
    n = _require_count("n", n, 1)
    ks = sorted({_require_count("k", x) for x in (k if np.iterable(k) else [k])})
    if not ks:
        raise ValueError("need at least one k")
    trials = _require_count("trials", trials, 2)
    k_max = ks[-1]
    if min(_TRIAL_CHUNK, trials) * k_max * 8 > _MAX_DRAW_BYTES:
        raise ValueError(f"k={k_max} needs over {_MAX_DRAW_BYTES >> 30} GiB of "
                         "draws per batch")
    rng = np.random.default_rng([_require_count("seed", seed)])
    sums = dict.fromkeys(ks, 0.0)
    sq_sums = dict.fromkeys(ks, 0.0)
    done = 0
    while done < trials:
        m = min(_TRIAL_CHUNK, trials - done)
        draws = rng.integers(0, n, size=(m, k_max))
        for kk in ks:
            prefix = np.sort(draws[:, :kk], axis=1)
            # a nonempty prefix's first value, then each change of value
            distinct = (kk > 0) + np.count_nonzero(np.diff(prefix, axis=1), axis=1)
            v = (n - distinct).astype(float)
            sums[kk] += float(v.sum())
            sq_sums[kk] += float((v * v).sum())
        done += m
    points = []
    for kk in ks:
        mean = sums[kk] / trials
        var = max(0.0, (sq_sums[kk] - trials * mean * mean) / (trials - 1))
        points.append(UnseenPoint(
            k=kk, expected=expected_unseen(n, kk), mc_mean=mean,
            mc_stderr=float(np.sqrt(var / trials))))
    return points


def first_pass_floor_trace(n: int, solver: str = "finito"):
    """Drive a solver through its first pass on the hard instance and
    tabulate (k, floor, measured suboptimality); finito runs at alpha = 2.

    The first pass admits indices in order, so after k steps the iterate
    is supported on coordinates 0..k-1 and can never dip under the floor
    (n - k)/4; equality holds at k = 0.
    """
    problem, reference = make_worst_case(n)
    if solver == "finito":
        state = finito_init(problem, 2.0, w0=np.zeros(n), first_pass=True)
        step_fn = finito_first_pass_step
    elif solver == "sag":
        state = sag_init(problem, w0=np.zeros(n), first_pass=True)
        step_fn = sag_first_pass_step
    else:
        raise ValueError(f"unknown solver {solver!r} (use finito or sag)")

    def measure(k: int):
        f_w = float(problem.objective_batch(state.w[np.newaxis, :])[0])
        floor = oracle_limited_suboptimality(n, np.arange(n) < k)
        return (k, floor, f_w - reference.f_star)

    rows = [measure(0)]
    for k in range(n):
        step_fn(state, problem, k)
        rows.append(measure(k + 1))
    return rows


def floor_check(n: int, solver: str = "finito") -> CheckReport:
    """Every first-pass iterate respects the oracle-access floor."""
    return _worst_report(
        "oracle-floor",
        [(k, _le_report("oracle-floor", floor, measured, 1e-9, "",
                        scale=floor))
         for k, floor, measured in first_pass_floor_trace(n, solver)],
        f"solver={solver} n={n}")


def suite_lowerbound(seed: int = 0, n: int = 10) -> list[CheckReport]:
    """Unseen-count means at k = 1, 5, 10, 20 over T = 100 000 trials, each
    within 4 sqrt(Var/T) + 16 n/(3T) of the law, with Var = unseen_variance,
    then floor_check for finito and sag.  The radius is Bernstein's
    inequality for counts in [0, n] at exponent 8, so a correct law fails a
    row with probability at most 2 e^-8."""
    trials = 100_000
    ctx = f"trials={trials}"
    reports = []
    for p in simulate_unseen(n, [1, 5, 10, 20], trials=trials, seed=seed):
        radius = (4.0 * float(np.sqrt(unseen_variance(n, p.k) / trials))
                  + 16.0 * n / (3.0 * trials))
        reports.append(_le_report(f"unseen-mean-k{p.k}",
                                  abs(p.mc_mean - p.expected), radius, 0.0, ctx))
    reports.append(floor_check(n, "finito"))
    reports.append(floor_check(n, "sag"))
    return reports
