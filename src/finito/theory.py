"""Numerical verification of the convergence analysis behind the finito
update.

Everything here works on *audit* quantities: an explicit point table phi
(one row per component) and an iterate w.  The central object is a
four-term potential

    T1 = f(phi_bar)
    T2 = -(1/n) sum_i [ f_i(phi_i) + <f_i'(phi_i), w - phi_i> ]
    T3 = -(s/2n) sum_i ||w - phi_i||^2
    T4 = +(s/2n) sum_i ||phi_bar - phi_i||^2

whose expected one-step decrease (under uniform sampling, with w equal to
the table map) certifies geometric convergence, and whose value bounds the
suboptimality of the table mean.  The checks below evaluate both sides of
each claimed inequality with exact enumeration over the n equally likely
updates, never with sampled estimates, so a failure is a real
counterexample and not noise.

The per-state API is `Audit(problem, phi, w, alpha)`.  It validates the
state once, builds the n successor iterates with running-sum arithmetic and
evaluates the potential once at the state and once for all n branches; each
check on that state is a method reading those quantities, and
`expected_decrease_check` is the one-call form of its decrease check.  The
branches are evaluated as stacked (b, n, d) arrays of at most BRANCH_FLOATS
floats per chunk (see Audit.branches).  Every reduction runs per branch along
the same axis as for a single state, and T1 comes from a stacked
(b, 1, d) @ (d, n) matmul, which runs the single-point kernel once per branch,
so each branch carries the bits of its own full evaluation; a plain
(b, d) @ (d, n) GEMM would not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data_io import SynthSpec, synth_problem
from .problems import LOGISTIC, ReferenceSolution, StrongConvexityRequired
from .samplers import IndexSampler, SamplingScheme, UNIFORM
from .solvers import (SolverConfig, TraceRecord, _require_positive, finito_init,
                      finito_step, reference_solve, run)

# random points and table rows are drawn from the ball of this radius
# around the reference minimizer
BALL_RADIUS = 2.0

# cap on the floats held by one chunk of stacked branch arrays (its tables,
# gradients and gaps, b x n x d each)
BRANCH_FLOATS = 2**20


@dataclass
class LyapunovTerms:
    t1: float
    t2: float
    t3: float
    t4: float

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3 + self.t4


@dataclass
class CheckReport:
    """One verified check.  An inequality is satisfied iff
    lhs <= rhs + tol * (1 + |scale|), the scale being rhs unless the check
    names another; an identity iff |rhs - lhs| <= tol * (1 + |scale|).

    slack = rhs - lhs, so negative slack beyond tolerance means violation.
    """

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    context: str = ""


def _require_smooth(problem) -> None:
    if getattr(problem, "l1_weight", 0.0) != 0.0:
        raise ValueError(
            "analysis checks cover the smooth objective only; "
            "drop the l1 term (l1_weight=0)")


def _require_strongly_convex(problem) -> None:
    if problem.s <= 0:
        raise StrongConvexityRequired(
            "the potential and map need s > 0")


def _require_big_data(problem, beta: float) -> None:
    report = problem.big_data_check(beta)
    if not report.verdict:
        raise ValueError(
            f"big-data condition fails at beta={beta}: "
            f"n*s = {report.n * report.s:g} < beta*L = {beta * report.L:g}")


def _checked_state(problem, phi_table: np.ndarray, w: np.ndarray):
    """(table, point) validated for the analysis: smooth objective, s > 0."""
    _require_smooth(problem)
    _require_strongly_convex(problem)
    return problem._check_table(phi_table), problem._check_point(w)


def _objective_at(problem, point: np.ndarray) -> float:
    return float(problem.objective_batch(point[np.newaxis, :])[0])


def finito_map(problem, phi_table: np.ndarray, alpha: float) -> np.ndarray:
    """w(phi) = mean(phi) - (1/(alpha*s*n)) * sum of table gradients."""
    _require_positive("alpha", alpha)
    _require_strongly_convex(problem)
    phi_table = problem._check_table(phi_table)
    return _map(phi_table, problem.table_gradients(phi_table),
                alpha * problem.s * problem.n)


def _map(phi_table: np.ndarray, grads: np.ndarray, denom: float) -> np.ndarray:
    return phi_table.mean(axis=0) - grads.sum(axis=0) / denom


def lyapunov_evaluate(problem, phi_table: np.ndarray,
                      w: np.ndarray) -> LyapunovTerms:
    """Evaluate the four potential terms at an arbitrary (phi, w) pair."""
    phi_table, w = _checked_state(problem, phi_table, w)
    return _potential(problem, phi_table, problem.table_values(phi_table),
                      problem.table_gradients(phi_table), w)


def _potential(problem, phi_table: np.ndarray, values: np.ndarray,
               grads: np.ndarray, w: np.ndarray) -> LyapunovTerms:
    # the four terms from the table's row values and gradients
    return _potentials(problem, phi_table[np.newaxis], values[np.newaxis],
                       grads[np.newaxis], w[np.newaxis])[0]


def _potentials(problem, tables: np.ndarray, values: np.ndarray,
                grads: np.ndarray, ws: np.ndarray) -> list[LyapunovTerms]:
    # _potential for a stack of states: tables and grads (b, n, d), values
    # (b, n), points (b, d).  Every reduction runs within one state along the
    # axis a lone (n, d) table would use, so each state's terms have the bits
    # of evaluating that state by itself
    phi_bar = tables.mean(axis=1)
    gaps = ws[:, np.newaxis, :] - tables
    # f at each phi_bar as a stack of one-point batches: the bits of
    # _objective_at, which a (b, d) batch's GEMM would not keep
    t1 = problem.objective_batch(phi_bar[:, np.newaxis, :])[:, 0]
    t2 = (-values.mean(axis=1)
          - np.einsum("bij,bij->bi", grads, gaps).mean(axis=1))
    t3 = -0.5 * problem.s * np.einsum("bij,bij->bi", gaps, gaps).mean(axis=1)
    spread = np.subtract(phi_bar[:, np.newaxis, :], tables, out=gaps)
    t4 = 0.5 * problem.s * np.einsum("bij,bij->bi", spread, spread).mean(axis=1)
    return [LyapunovTerms(*map(float, row)) for row in zip(t1, t2, t3, t4)]


def initial_lyapunov(problem, phi0: np.ndarray, alpha: float) -> float:
    """Potential value when every table row equals phi0 and w is the map.

    Closed form: (1 - 1/(2*alpha)) * ||f'(phi0)||^2 / (alpha * s).
    """
    _require_positive("alpha", alpha)
    _require_smooth(problem)
    _require_strongly_convex(problem)
    phi0 = problem._check_point(phi0)
    g = problem.full_gradient(phi0)
    return (1.0 - 0.5 / alpha) * float(g @ g) / (alpha * problem.s)


def admissible_parameters(alpha: float, beta: float) -> bool:
    """Parameter region where the expected-decrease certificate applies:

        2/alpha - 1/alpha^2 - beta + beta/alpha <= 0,  alpha >= 2, beta >= 2.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        return False
    margin = 2.0 / alpha - 1.0 / alpha**2 - beta + beta / alpha
    return bool(margin <= 0.0 and alpha >= 2.0 and beta >= 2.0)


def _require_admissible(alpha: float, beta: float) -> None:
    if not admissible_parameters(alpha, beta):
        raise ValueError(f"(alpha={alpha}, beta={beta}) is outside "
                         "the admissible region")


class Audit:
    """One audit state (phi, w) at step constant alpha and its n equally
    likely successors: branch j overwrites table row j with w and moves w to
    the new table map, row j of `next_w`.  The state is validated once (s > 0,
    smooth objective, finite alpha > 0); its row values and gradients, the
    gradients at w and the gaps w - phi_i and f_i'(w) - f_i'(phi_i) are
    computed once, `base` and `next_w` on first use, and every per-state
    check is a method reading them.  The caller's arrays are never written."""

    def __init__(self, problem, phi_table: np.ndarray, w: np.ndarray,
                 alpha: float):
        _require_positive("alpha", alpha)
        phi, w = _checked_state(problem, phi_table, w)
        self.problem, self.alpha, self.phi, self.w = problem, alpha, phi, w
        self.denom = alpha * problem.s * problem.n
        self.values = problem.table_values(phi)
        self.grads = problem.table_gradients(phi)
        self.grads_at_w = problem.table_gradients(np.broadcast_to(w, phi.shape))
        self.gaps = w - phi
        self.grad_gaps = self.grads_at_w - self.grads

    @functools.cached_property
    def base(self) -> LyapunovTerms:
        return _potential(self.problem, self.phi, self.values, self.grads, self.w)

    @functools.cached_property
    def next_w(self) -> np.ndarray:
        # running-sum form of the map: replace row j's point and gradient
        return ((self.phi.sum(axis=0) + self.gaps) / self.problem.n
                - (self.grads.sum(axis=0) + self.grad_gaps) / self.denom)

    @functools.cached_property
    def branches(self) -> list[LyapunovTerms]:
        """The potential after each update.  A chunk of b branches stacks b
        copies of the table, its row values and its row gradients, where
        branch j's copy holds w, f_j(w) and f_j'(w) in row j, and evaluates
        them at once; b keeps the chunk's tables, gradients and gaps within
        BRANCH_FLOATS floats, or is 1 when one branch alone is larger."""
        problem, phi, w = self.problem, self.phi, self.w
        n, d = phi.shape
        values_at_w = problem.table_values(np.broadcast_to(w, phi.shape))
        size = max(1, BRANCH_FLOATS // (3 * n * d))
        terms = []
        for start in range(0, n, size):
            rows = np.arange(start, min(start + size, n))
            chunk = np.arange(len(rows))
            tables = np.repeat(phi[np.newaxis], len(rows), axis=0)
            values = np.repeat(self.values[np.newaxis], len(rows), axis=0)
            grads = np.repeat(self.grads[np.newaxis], len(rows), axis=0)
            tables[chunk, rows] = w
            values[chunk, rows] = values_at_w[rows]
            grads[chunk, rows] = self.grads_at_w[rows]
            terms += _potentials(problem, tables, values, grads, self.next_w[rows])
        return terms

    @functools.cached_property
    def phi_bar(self) -> np.ndarray:
        return self.phi.mean(axis=0)

    @functools.cached_property
    def full_grad_at_w(self) -> np.ndarray:
        """f'(w), shared by step_gap and t3_shift."""
        return self.problem.full_gradient(self.w)

    def decrease_report(self, beta: float, tol: float = 1e-10) -> CheckReport:
        """E[T'] <= (1 - 1/(alpha*n)) T over the n branches; see
        expected_decrease_check."""
        _require_admissible(self.alpha, beta)
        _require_big_data(self.problem, beta)
        total = self.base.total
        lhs = float(np.mean([b.total for b in self.branches]))
        rhs = (1.0 - 1.0 / (self.alpha * self.problem.n)) * total
        return _le_report(
            "expected-decrease", lhs, rhs, tol,
            f"alpha={self.alpha:g} beta={beta:g} n={self.problem.n} "
            f"T={total:.6g}", scale=total)

    def bound_report(self, reference: ReferenceSolution,
                     tol: float = 1e-9) -> CheckReport:
        """f(phi_bar) - f* <= alpha * T, valid when w is the table map
        (ValueError otherwise)."""
        mapped = _map(self.phi, self.grads, self.denom)
        scale = 1.0 + float(np.linalg.norm(mapped))
        if float(np.linalg.norm(self.w - mapped)) > 1e-9 * scale:
            raise ValueError("w is not the table map; the bound only covers "
                             "map-consistent states")
        return _le_report(
            "suboptimality-bound", self.base.t1 - reference.f_star,
            self.alpha * self.base.total, tol,
            f"alpha={self.alpha:g} n={self.problem.n}", scale=0.0)

    def mean_descent_report(self, tol: float = 1e-9) -> CheckReport:
        """E[T1'] - T1 <= (1/n) <f'(phi_bar), w - phi_bar>
                          + (L/(2 n^3)) sum_j ||w - phi_j||^2."""
        problem, phi_bar, t1 = self.problem, self.phi_bar, self.base.t1
        n = problem.n
        nxt = phi_bar[np.newaxis, :] + self.gaps / n   # branch-j table means
        lhs = float(problem.objective_batch(nxt).mean()) - t1
        L = problem.lipschitz_constant()
        rhs = (float(problem.full_gradient(phi_bar) @ (self.w - phi_bar)) / n
               + 0.5 * L * float(np.einsum("ij,ij->", self.gaps, self.gaps)) / n**3)
        return _le_report("table-mean-descent", lhs, rhs, tol, f"n={n}", scale=t1)

    def term_shifts(self) -> LyapunovTerms:
        """E[T_m'] - T_m for each potential term, by exact enumeration."""
        def shift(term: str) -> float:
            return (float(np.mean([getattr(b, term) for b in self.branches]))
                    - getattr(self.base, term))
        return LyapunovTerms(*map(shift, ("t1", "t2", "t3", "t4")))

    def t3_shift(self) -> float:
        """Exact value of E[T3'] - T3 when w is the table map:

            -(1/n + 1/n^2) T3 + (1/(alpha n)) <f'(w), w - phi_bar>
            - (1/(2 alpha^2 s n^3)) sum_j ||f_j'(phi_j) - f_j'(w)||^2
        """
        n, s, alpha = self.problem.n, self.problem.s, self.alpha
        return (-(1.0 / n + 1.0 / n**2) * self.base.t3
                + float(self.full_grad_at_w @ (self.w - self.phi_bar)) / (alpha * n)
                - float(np.einsum("ij,ij->", self.grad_gaps, self.grad_gaps))
                / (2.0 * alpha**2 * s * n**3))

    def t4_shift(self) -> float:
        """Exact value of E[T4'] - T4 (holds for any w, no map needed):

            -(1/n) T4 + (s/(2n)) ||phi_bar - w||^2 - (s/(2n^3)) sum_j ||w - phi_j||^2
        """
        n, s = self.problem.n, self.problem.s
        u = self.phi_bar - self.w
        return (-self.base.t4 / n + 0.5 * s * float(u @ u) / n
                - 0.5 * s * float(np.einsum("ij,ij->", self.gaps, self.gaps)) / n**3)

    def step_gap(self) -> float:
        """|| E[w'] - (w - (1/(alpha s n)) f'(w)) ||: the mean update equals a
        damped gradient step at w.  Zero up to roundoff when w is the map."""
        damped = self.w - self.full_grad_at_w / self.denom
        return float(np.linalg.norm(self.next_w.mean(axis=0) - damped))

    def displacement_gap(self) -> float:
        """Worst-case residual of the single-update displacement identity

            w_j' - w = (w - phi_j)/n + (f_j'(phi_j) - f_j'(w)) / (alpha s n),

        which holds exactly when w is the table map."""
        predicted = self.gaps / self.problem.n - self.grad_gaps / self.denom
        residuals = (self.next_w - self.w) - predicted
        # the n norms at once: a stacked (1, d) @ (d, 1) matmul runs the same
        # dot as np.linalg.norm of each row
        norms = np.sqrt(residuals[:, np.newaxis, :] @ residuals[:, :, np.newaxis])
        return max([0.0] + norms.ravel().tolist())

    def variance_gap(self) -> float:
        """| mean_i ||w - phi_i||^2 - ||w - phi_bar||^2 - mean_i ||phi_bar - phi_i||^2 |."""
        spread = self.phi_bar[np.newaxis, :] - self.phi
        lhs = float(np.einsum("ij,ij->i", self.gaps, self.gaps).mean())
        u = self.w - self.phi_bar
        rhs = float(u @ u) + float(np.einsum("ij,ij->i", spread, spread).mean())
        return abs(lhs - rhs)

    def table_reports(self, tol: float = 1e-9,
                      context: str = "") -> list[CheckReport]:
        """Summed table forms bounding the T2 term: table-strong-convexity
        (-f(w) - T2 <= -(s/2n) sum ||w - phi_i||^2) and table-smoothness-lower
        (<= -(1/(2Ln)) sum ||f_i'(w) - f_i'(phi_i)||^2).  T2 is formed here:
        reading it off `base` would evaluate the whole potential."""
        problem, gaps, diff = self.problem, self.gaps, self.grad_gaps
        n = problem.n
        fw = _objective_at(problem, self.w)
        t2 = -float(self.values.mean()) \
            - float(np.einsum("ij,ij->i", self.grads, gaps).mean())
        return [
            _le_report("table-strong-convexity", -fw - t2,
                       -0.5 * problem.s * float(np.einsum("ij,ij->", gaps, gaps)) / n,
                       tol, context),
            _le_report("table-smoothness-lower", -fw - t2,
                       -0.5 * float(np.einsum("ij,ij->", diff, diff))
                       / (problem.lipschitz_constant() * n), tol, context),
        ]

    def lower_bound_report(self, beta: float, tol: float = 1e-9) -> CheckReport:
        """Averaged lower bound on f(w) from the table, with constants
        beta/(2 s n^2), beta L/(2 n^2), beta/n^2; valid under the big-data
        condition at beta (checked, raises otherwise) and for any w:

            f(w) >= (1/n) sum_i [ f_i(phi_i) + <f_i'(phi_i), w - phi_i> ]
                    + beta/(2 s n^2) sum_i ||f_i'(w) - f_i'(phi_i)||^2
                    + beta L/(2 n^2) sum_i ||w - phi_i||^2
                    + beta/n^2 sum_i <f_i'(w) - f_i'(phi_i), phi_i - w>.
        """
        problem, dx, dg = self.problem, self.gaps, self.grad_gaps
        _require_big_data(problem, beta)
        n, s, L = problem.n, problem.s, problem.lipschitz_constant()
        lhs = (float(self.values.mean())
               + float(np.einsum("ij,ij->i", self.grads, dx).mean())
               + 0.5 * beta * float(np.einsum("ij,ij->", dg, dg)) / (s * n**2)
               + 0.5 * beta * L * float(np.einsum("ij,ij->", dx, dx)) / n**2
               - beta * float(np.einsum("ij,ij->", dg, dx)) / n**2)
        return _le_report("averaged-strong-smooth-lower", lhs,
                          _objective_at(problem, self.w), tol,
                          f"beta={beta:g} n={n}")


def expected_decrease_check(problem, phi_table: np.ndarray, w: np.ndarray,
                            alpha: float, beta: float,
                            tol: float = 1e-10) -> CheckReport:
    """E[T'] <= (1 - 1/(alpha*n)) T, the expectation taken by enumerating
    all n equally likely updates exactly.

    Preconditions: admissible (alpha, beta) and the big-data condition at
    beta; both raise ValueError when unmet rather than report a failure,
    because outside them the claim is simply not made.
    """
    return Audit(problem, phi_table, w, alpha).decrease_report(beta, tol)


# ---------------------------------------------------------------------------
# convexity / smoothness inequality suite


def random_ball_point(rng: np.random.Generator, center: np.ndarray,
                radius: float) -> np.ndarray:
    """Uniform direction, length uniform in [0, radius]."""
    raw = rng.standard_normal(center.shape[0])
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        return center.copy()
    return center + raw * (radius * rng.uniform() / norm)


def random_audit_state(problem, w_star: np.ndarray, alpha: float,
                       rng: np.random.Generator):
    """Random table with rows in the BALL_RADIUS ball around w_star, w set to
    the map."""
    phi = np.stack([random_ball_point(rng, w_star, BALL_RADIUS)
                    for _ in range(problem.n)])
    return phi, finito_map(problem, phi, alpha)


def _le_report(name: str, lhs: float, rhs: float, tol: float, ctx: str,
               scale: float | None = None) -> CheckReport:
    """The one verdict rule for lhs <= rhs: satisfied iff
    lhs <= rhs + tol * (1 + |scale|), where scale defaults to rhs."""
    scaled = tol * (1.0 + abs(rhs if scale is None else scale))
    return CheckReport(name=name, lhs=lhs, rhs=rhs,
                       satisfied=bool(lhs <= rhs + scaled),
                       slack=rhs - lhs, context=ctx)


def pair_checks(problem, x: np.ndarray, y: np.ndarray, tol: float = 1e-9,
                context: str = "") -> list[CheckReport]:
    """The five classical two-point inequalities on the full objective:
    smoothness-upper, smoothness-lower, strong-convexity-lower,
    cocoercivity, strong-monotonicity."""
    _require_smooth(problem)
    x = problem._check_point(x)
    y = problem._check_point(y)
    L = problem.lipschitz_constant()
    s = problem.s
    fx, fy = (float(v) for v in problem.objective_batch(np.stack([x, y])))
    gx = problem.full_gradient(x)
    gy = problem.full_gradient(y)
    dxy = x - y
    dg = gx - gy
    linear = fx + float(gx @ (y - x))
    return [
        _le_report("smoothness-upper",
                   fy, linear + 0.5 * L * float(dxy @ dxy), tol, context),
        _le_report("smoothness-lower",
                   linear + 0.5 * float(dg @ dg) / L, fy, tol, context),
        _le_report("strong-convexity-lower",
                   linear + 0.5 * s * float(dxy @ dxy), fy, tol, context),
        _le_report("cocoercivity",
                   float(dg @ dg) / L, float(dg @ dxy), tol, context),
        _le_report("strong-monotonicity",
                   s * float(dxy @ dxy), float(dg @ dxy), tol, context),
    ]


def convexity_suite(problem, draws: int = 100, tol: float = 1e-9,
                    alpha: float = 2.0, seed: int = 0,
                    reference: ReferenceSolution | None = None) -> list[CheckReport]:
    """Pointwise checks of the smooth/strongly-convex inequalities the
    analysis consumes: per draw, the five pair_checks at a random (x, y)
    and the two Audit.table_reports at a random map-consistent table state,
    seven reports per draw.
    """
    _require_smooth(problem)
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if reference is None:
        reference = reference_solve(problem)
    w_star = reference.w_star
    rng = np.random.default_rng([seed])
    reports: list[CheckReport] = []
    for t in range(draws):
        ctx = f"draw={t}"
        x = random_ball_point(rng, w_star, BALL_RADIUS)
        y = random_ball_point(rng, w_star, BALL_RADIUS)
        reports.extend(pair_checks(problem, x, y, tol, ctx))
        phi, w = random_audit_state(problem, w_star, alpha, rng)
        reports.extend(Audit(problem, phi, w, alpha).table_reports(tol, ctx))
    return reports


def strong_lb_check(problem, i: int, x: np.ndarray, y: np.ndarray,
                    tol: float = 1e-9) -> CheckReport:
    """Component lower bound that mixes curvature s and smoothness L:

        f_i(x) >= f_i(y) + <f_i'(y), x - y>
                  + ||f_i'(x) - f_i'(y)||^2 / (2(L - s))
                  + s L ||y - x||^2 / (2(L - s))
                  + s <f_i'(x) - f_i'(y), y - x> / (L - s).

    Requires L > s (at L = s the objective is exactly quadratic and the
    bound degenerates); raising keeps that precondition loud.
    """
    _require_smooth(problem)
    L = problem.lipschitz_constant()
    s = problem.s
    if L <= s:
        raise ValueError(
            f"needs L > s, got L={L:g}, s={s:g}")
    x = problem._check_point(x)
    y = problem._check_point(y)
    fx = problem.component_value(i, x)
    fy = problem.component_value(i, y)
    gx = problem.component_gradient(i, x)
    gy = problem.component_gradient(i, y)
    dg = gx - gy
    dyx = y - x
    gap = L - s
    lhs = (fy + float(gy @ (x - y))
           + 0.5 * float(dg @ dg) / gap
           + 0.5 * s * L * float(dyx @ dyx) / gap
           + s * float(dg @ dyx) / gap)
    return _le_report("strong-smooth-lower", lhs, fx, tol, f"i={i}")


# ---------------------------------------------------------------------------
# rate certificates


def rate_bound(problem, alpha: float, phi0: np.ndarray, k: int) -> float:
    """Certified suboptimality of the table mean after k updates:

        (c/s) (1 - 1/(alpha n))^k ||f'(phi0)||^2,   c = 1 - 1/(2 alpha).

    At alpha = 2 this is (3/(4s)) (1 - 1/(2n))^k ||f'(phi0)||^2.
    """
    _require_positive("alpha", alpha)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _require_smooth(problem)
    _require_strongly_convex(problem)
    phi0 = problem._check_point(phi0)
    g = problem.full_gradient(phi0)
    c = 1.0 - 0.5 / alpha
    return (c / problem.s) * (1.0 - 1.0 / (alpha * problem.n)) ** k * float(g @ g)


def rate_curve(traces: list[list[TraceRecord]], problem, alpha: float,
               phi0: np.ndarray):
    """Rows (k, mean suboptimality, certified bound) on the traces' grid.

    Traces must monitor the table mean of runs started with every row at
    phi0; epochs convert to update counts via k = epoch * n.
    """
    if not traces:
        raise ValueError("need at least one trace")
    epochs = [r.epoch for r in traces[0]]
    for t, trace in enumerate(traces):
        if [r.epoch for r in trace] != epochs:
            raise ValueError(f"trace {t} is on a different epoch grid")
        for r in trace:
            if not math.isfinite(r.suboptimality):
                raise ValueError(
                    "traces must carry a finite suboptimality column "
                    "(run against a reference solution)")
    means = [float(np.mean([trace[i].suboptimality for trace in traces]))
             for i in range(len(epochs))]
    ks = [round(epoch * problem.n) for epoch in epochs]
    return [(k, m, rate_bound(problem, alpha, phi0, k)) for k, m in zip(ks, means)]


def rate_certificate(traces: list[list[TraceRecord]], problem, alpha: float,
                     phi0: np.ndarray, tol: float = 1e-9) -> CheckReport:
    """Seed-averaged measured curve lies under the certified bound at every
    recorded k."""
    return _certificate(rate_curve(traces, problem, alpha, phi0), len(traces), tol)


def _certificate(rows, seeds: int, tol: float) -> CheckReport:
    worst = min(rows, key=lambda row: row[2] - row[1])
    k, mean, bound = worst
    ok = all(m <= b + tol * (1.0 + abs(b)) for _, m, b in rows)
    return CheckReport(
        name="rate-bound", lhs=mean, rhs=bound, satisfied=bool(ok),
        slack=bound - mean,
        context=f"checkpoints={len(rows)} seeds={seeds} worst_k={k}")


# ---------------------------------------------------------------------------
# verification suites: the report lists `finito verify` prints


def _eq_report(name: str, lhs: float, rhs: float, tol: float, scale: float,
               context: str = "") -> CheckReport:
    bound = tol * (1.0 + abs(scale))
    return CheckReport(name=name, lhs=lhs, rhs=rhs,
                       satisfied=bool(abs(rhs - lhs) <= bound),
                       slack=rhs - lhs, context=context)


def suite_inequalities(n: int, d: int, beta: float, draws: int, seed: int,
                       alpha: float) -> list[CheckReport]:
    """convexity_suite on a generated logistic problem, then `draws` rows
    each of strong_lb_check and Audit.lower_bound_report at random points."""
    problem, reference = synth_problem(
        SynthSpec(n=n, d=d, loss=LOGISTIC, target_beta=beta, seed=seed))
    reports = convexity_suite(problem, draws=draws, alpha=alpha, seed=seed,
                              reference=reference)
    rng = np.random.default_rng([seed, 1])
    for t in range(draws):
        i = int(rng.integers(problem.n))
        x = random_ball_point(rng, reference.w_star, BALL_RADIUS)
        y = random_ball_point(rng, reference.w_star, BALL_RADIUS)
        report = strong_lb_check(problem, i, x, y)
        report.context = f"draw={t} {report.context}"
        reports.append(report)
    for t in range(draws):
        phi, _ = random_audit_state(problem, reference.w_star, alpha, rng)
        x = random_ball_point(rng, reference.w_star, BALL_RADIUS)
        report = Audit(problem, phi, x, alpha).lower_bound_report(beta)
        report.context = f"draw={t} {report.context}"
        reports.append(report)
    return reports


def suite_lyapunov(n: int, d: int, beta: float, states: int, seed: int,
                   alpha: float) -> list[CheckReport]:
    """The closed-form initial potential, then at each of `states` states of
    a uniform finito run the expected decrease, bound gap, table-mean
    descent and five exact identities (step, displacement, variance, T3, T4)."""
    problem, reference = synth_problem(
        SynthSpec(n=n, d=d, loss=LOGISTIC, target_beta=beta, seed=seed))
    w0 = np.zeros(d)
    state = finito_init(problem, alpha, w0=w0, audit=True)
    sampler = IndexSampler(SamplingScheme(UNIFORM, seed), problem.n)
    terms0 = lyapunov_evaluate(problem, state.phi_table, state.w)
    closed = initial_lyapunov(problem, w0, alpha)
    reports = [_eq_report("initial-potential", terms0.total, closed,
                          1e-12, closed, "all rows at w0")]
    for t in range(states):
        phi, w = state.phi_table, state.w
        ctx = f"step={t}"
        audit = Audit(problem, phi, w, alpha)
        for report in (audit.decrease_report(beta),
                       audit.bound_report(reference),
                       audit.mean_descent_report()):
            report.context = f"{ctx} {report.context}"
            reports.append(report)
        scale = float(np.linalg.norm(w))
        shifts = audit.term_shifts()
        total = audit.base.total
        for name, lhs, rhs, size in (
            ("expected-step-identity", audit.step_gap(), 0.0, scale),
            ("update-displacement-identity", audit.displacement_gap(), 0.0,
             scale),
            ("variance-decomposition", audit.variance_gap(), 0.0,
             float(np.einsum("ij,ij->", phi, phi))),
            ("t3-shift-closed-form", shifts.t3, audit.t3_shift(), total),
            ("t4-shift-closed-form", shifts.t4, audit.t4_shift(), total),
        ):
            reports.append(_eq_report(name, lhs, rhs, 1e-12, size, ctx))
        finito_step(state, problem, sampler.next_index())
    return reports


def suite_rate(n: int, seed: int, alpha: float, seeds: int = 5,
               epochs: int = 10) -> list[CheckReport]:
    """Seed-averaged table-mean suboptimality of `seeds` uniform finito runs
    against rate_bound, one row per epoch, then the rate_certificate row;
    alpha must be admissible at beta = 2, where the rate is certified."""
    beta = 2.0
    _require_admissible(alpha, beta)
    problem, reference = synth_problem(
        SynthSpec(n=n, d=10, loss=LOGISTIC, target_beta=beta, seed=seed))
    w0 = np.zeros(problem.d)
    config = SolverConfig(solver="finito", alpha=alpha, audit=True,
                          first_pass=False, monitor="table-mean", w0=w0)
    traces = [run(problem, config, SamplingScheme(UNIFORM, seed=s), epochs,
                  reference=reference) for s in range(seeds)]
    rows = rate_curve(traces, problem, alpha, w0)
    reports = [_le_report(f"rate-k-{k}", mean, bound, 1e-9, f"seeds={seeds}")
               for k, mean, bound in rows]
    reports.append(_certificate(rows, len(traces), tol=1e-9))
    return reports
