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

The audit API is `Audit(problem, phi, w, alpha)`, which takes a stack of S
states, tables (S, n, d) and iterates (S, d); one (n, d) table and (d,)
iterate are the stack of one.  It validates the states once, builds the n
successor iterates of each with running-sum arithmetic and evaluates the
potential once at the states and once for all S n branches; each check is a
method computing its rows for the whole stack at once, and
`expected_decrease_check` is the one-call form of the decrease check of one
state.  The branches are evaluated as stacked (b, n, d) arrays of b
(state, branch) pairs, at most BRANCH_FLOATS floats per chunk (see
Audit.branches), and the suites audit blocks of audit_block(n, d) states, whose
arrays fit the same budget.  Every reduction runs per state or branch along
the same axis as for a lone state, and T1 and f(w) come from a stacked
(b, 1, d) @ (d, n) matmul, which runs the single-point kernel once per point,
so each state and branch carries the bits of its own full evaluation; a plain
(b, d) @ (d, n) GEMM would not.  The full gradients and the whole-table sums
stay one call per state, whose stacked forms would round differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data_io import SynthSpec, synth_problem
from .problems import (LOGISTIC, ReferenceSolution, StrongConvexityRequired,
                       _require_count, _require_positive)
from .samplers import IndexSampler, SamplingScheme, UNIFORM
from .solvers import SolverConfig, TraceRecord, finito_init, finito_step, run

# random points and table rows are drawn from the ball of this radius
# around the reference minimizer
BALL_RADIUS = 2.0

# cap on the floats held by one chunk of stacked branch arrays (its tables,
# gradients and gaps, b x n x d each), and by the arrays of one block of
# states the suites audit as a stack (see audit_block)
BRANCH_FLOATS = 2**18


@dataclass
class LyapunovTerms:
    """The four potential terms: floats for one state, (S,) arrays for a
    stack of S states or branches."""

    t1: float
    t2: float
    t3: float
    t4: float

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3 + self.t4

    def fields(self) -> tuple:
        return self.t1, self.t2, self.t3, self.t4

    def rows(self) -> list[LyapunovTerms]:
        """Terms held as (S,) arrays, as S LyapunovTerms of floats."""
        return [LyapunovTerms(*row)
                for row in zip(*(t.tolist() for t in self.fields()))]


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
            f"n*s = {problem.n * problem.s:g} < beta*L = {beta * report.L:g}")


def _checked_state(problem, phi_table: np.ndarray, w):
    """Tables (S, n, d) and points (S, d) validated for the analysis (smooth
    objective, s > 0, finite points), and whether the caller gave one (n, d)
    table and one (d,) point, which come back as a stack of one.  A point of
    None is passed through: the audit forms each table's map."""
    _require_smooth(problem)
    _require_strongly_convex(problem)
    phi = problem._check_table(phi_table)
    if phi.ndim == 2:
        return phi[np.newaxis], (None if w is None
                                 else problem._check_point(w)[np.newaxis]), True
    w = None if w is None else np.asarray(w, dtype=float)
    if phi.ndim != 3 or (w is not None and w.shape != (len(phi), problem.d)):
        raise ValueError(f"a stack of tables (S, {problem.n}, {problem.d}) "
                         f"needs points (S, {problem.d}); got {phi.shape} "
                         f"and {np.shape(w)}")
    if w is not None and not np.all(np.isfinite(w)):
        raise ValueError("point contains non-finite entries")
    return phi, w, False


def _objectives(problem, points: np.ndarray) -> np.ndarray:
    # f at each (d,) point of a stack, as a stack of one-point batches: the
    # bits of evaluating each point alone, which a (S, d) batch's GEMM would
    # not keep
    return problem.objective_batch(points[..., np.newaxis, :])[..., 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # <a, b> along the last axis as stacked (1, d) @ (d, 1) matmuls, which run
    # the dot of a lone `a @ b` (and of np.linalg.norm)
    return (a[..., np.newaxis, :] @ b[..., :, np.newaxis])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(a, a))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b)


def _table_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum_ij a_ij b_ij of each (n, d) table in a stack, one lone einsum per
    # table: past 8192 floats a stacked einsum sums in another order
    return np.array([np.einsum("ij,ij->", x, y) for x, y in zip(a, b)])


def finito_map(problem, phi_table: np.ndarray, alpha: float) -> np.ndarray:
    """w(phi) = mean(phi) - (1/(alpha*s*n)) * sum of table gradients."""
    _require_positive("alpha", alpha)
    _require_strongly_convex(problem)
    phi_table = problem._check_table(phi_table)
    return _map(phi_table, problem.table_gradients(phi_table),
                alpha * problem.s * problem.n)


def _map(phi_table: np.ndarray, grads: np.ndarray, denom: float) -> np.ndarray:
    return phi_table.mean(axis=-2) - grads.sum(axis=-2) / denom


def lyapunov_evaluate(problem, phi_table: np.ndarray, w: np.ndarray):
    """Evaluate the four potential terms at an arbitrary (phi, w) pair, or
    at each pair of a stack (a list, one LyapunovTerms per state)."""
    phi, w, lone = _checked_state(problem, phi_table, np.asarray(w, dtype=float))
    rows = _potentials(problem, phi, problem.table_values(phi),
                       problem.table_gradients(phi), w).rows()
    return rows[0] if lone else rows


def _potentials(problem, tables: np.ndarray, values: np.ndarray,
                grads: np.ndarray, ws: np.ndarray) -> LyapunovTerms:
    # the four terms of a stack of states, as (b,) arrays: tables and grads
    # (b, n, d), values (b, n), points (b, d).  Every reduction runs within one
    # state along the axis a lone (n, d) table would use, so each state's
    # terms have the bits of evaluating that state by itself
    phi_bar = tables.mean(axis=1)
    gaps = ws[:, np.newaxis, :] - tables
    t1 = _objectives(problem, phi_bar)
    t2 = -values.mean(axis=1) - _row_dots(grads, gaps).mean(axis=1)
    t3 = -0.5 * problem.s * _row_dots(gaps, gaps).mean(axis=1)
    spread = np.subtract(phi_bar[:, np.newaxis, :], tables, out=gaps)
    t4 = 0.5 * problem.s * _row_dots(spread, spread).mean(axis=1)
    return LyapunovTerms(t1, t2, t3, t4)


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

        2/alpha - 1/alpha^2 - beta + beta/alpha <= 0,  alpha >= 2, beta >= 2,

    both finite.  The margin, which overflows at a huge alpha, is not
    evaluated: alpha, beta >= 2 make it 1 - (1 - 1/alpha)^2 - beta (1 - 1/alpha) < 0.
    """
    return bool(2.0 <= alpha < math.inf and 2.0 <= beta < math.inf)


def _require_admissible(alpha: float, beta: float) -> None:
    if not admissible_parameters(alpha, beta):
        raise ValueError(f"(alpha={alpha}, beta={beta}) is outside "
                         "the admissible region")


class Audit:
    """A stack of S audit states (phi, w) at step constant alpha, tables
    (S, n, d) and points (S, d), and the n equally likely successors of each:
    branch j overwrites table row j with w and moves w to the new table map,
    row j of the state's `next_w`.  One (n, d) table and (d,) point are the
    stack of one; a point of None audits each table at its own map.

    The states are validated once (s > 0, smooth objective, finite alpha > 0);
    their row values and gradients, the gradients at w and the gaps
    w - phi_i and f_i'(w) - f_i'(phi_i) are computed once for the whole stack
    with the batch-axis table ops, `base`, `next_w` and `branches` on first
    use.  Each check is one stacked computation returning one result per
    state, or the one result of a lone state.  Every reduction runs per state
    along the axis a lone state uses, so each state's results have the bits
    of auditing it alone.  The caller's arrays are never written."""

    def __init__(self, problem, phi_table: np.ndarray, w, alpha: float):
        _require_positive("alpha", alpha)
        phi, w, self.lone = _checked_state(problem, phi_table, w)
        self.problem, self.alpha, self.phi = problem, alpha, phi
        self.denom = alpha * problem.s * problem.n
        self.values = problem.table_values(phi)
        self.grads = problem.table_gradients(phi)
        self.w = _map(phi, self.grads, self.denom) if w is None else w
        self.tiled_w = np.broadcast_to(self.w[:, np.newaxis, :], phi.shape)
        self.grads_at_w = problem.table_gradients(self.tiled_w)
        self.gaps = self.w[:, np.newaxis, :] - phi
        self.grad_gaps = self.grads_at_w - self.grads

    def _each(self, results: list):
        # one result per state; the audit of a lone state returns its one
        return results[0] if self.lone else results

    @functools.cached_property
    def base(self) -> LyapunovTerms:
        """The potential of each state, as (S,) arrays."""
        return _potentials(self.problem, self.phi, self.values, self.grads,
                           self.w)

    @functools.cached_property
    def next_w(self) -> np.ndarray:
        # running-sum form of the map: replace row j's point and gradient
        return ((self.phi.sum(axis=1)[:, np.newaxis] + self.gaps) / self.problem.n
                - (self.grads.sum(axis=1)[:, np.newaxis] + self.grad_gaps)
                / self.denom)

    @functools.cached_property
    def branches(self) -> LyapunovTerms:
        """The potential after each update, as (S n,) arrays in (state,
        branch) order.  A chunk of b (state, branch) pairs stacks b copies of
        their states' tables, row values and row gradients, where pair (k, j)
        holds w_k, f_j(w_k) and f_j'(w_k) in row j, and evaluates them at
        once; b keeps the chunk's tables, gradients and gaps within
        BRANCH_FLOATS floats, or is 1 when one branch alone is larger.  A
        chunk may split a state and span states."""
        problem, phi = self.problem, self.phi
        states, n, d = phi.shape
        values_at_w = problem.table_values(self.tiled_w)
        size = max(1, BRANCH_FLOATS // (3 * n * d))
        terms = np.empty((4, states * n))
        for start in range(0, states * n, size):
            stop = min(start + size, states * n)
            state, row = np.divmod(np.arange(start, stop), n)
            chunk = np.arange(stop - start)
            tables = phi[state]
            values, grads = self.values[state], self.grads[state]
            tables[chunk, row] = self.w[state]
            values[chunk, row] = values_at_w[state, row]
            grads[chunk, row] = self.grads_at_w[state, row]
            terms[:, start:stop] = _potentials(problem, tables, values, grads,
                                          self.next_w[state, row]).fields()
        return LyapunovTerms(*terms)

    def _branch_means(self, terms: np.ndarray) -> np.ndarray:
        # each state's mean over its n branches
        return terms.reshape(-1, self.problem.n).mean(axis=1)

    @functools.cached_property
    def phi_bar(self) -> np.ndarray:
        return self.phi.mean(axis=1)

    @functools.cached_property
    def full_grad_at_w(self) -> np.ndarray:
        """f'(w) of each state, shared by step_gap and t3_shift; one
        full_gradient call per state keeps its bits."""
        return np.stack([self.problem.full_gradient(x) for x in self.w])

    @functools.cached_property
    def gap_squares(self) -> np.ndarray:
        """sum_j ||w - phi_j||^2 of each state."""
        return _table_dots(self.gaps, self.gaps)

    def decrease_report(self, beta: float):
        """E[T'] <= (1 - 1/(alpha*n)) T over the n branches; see
        expected_decrease_check."""
        _require_admissible(self.alpha, beta)
        _require_big_data(self.problem, beta)
        n, T = self.problem.n, self.base.total
        return self._each(_le_rows(
            "expected-decrease", self._branch_means(self.branches.total),
            (1.0 - 1.0 / (self.alpha * n)) * T, 1e-10, scale=T,
            ctx=[f"alpha={self.alpha:g} beta={beta:g} n={n} T={t:.6g}" for t in T]))

    def map_report(self):
        """||w - map(phi)|| <= 0 up to 1e-9 (1 + ||map(phi)||): w is the
        table map, which bound_report and the closed forms assume."""
        mapped = _map(self.phi, self.grads, self.denom)
        return self._each(_le_rows(
            "map-consistency", _norms(self.w - mapped), 0.0, 1e-9,
            f"alpha={self.alpha:g} n={self.problem.n}", scale=_norms(mapped)))

    def bound_report(self, reference: ReferenceSolution):
        """f(phi_bar) - f* <= alpha * T, which the analysis claims only where
        w is the table map; map_report checks that."""
        return self._each(_le_rows(
            "suboptimality-bound", self.base.t1 - reference.f_star,
            self.alpha * self.base.total, 1e-9,
            f"alpha={self.alpha:g} n={self.problem.n}", scale=0.0))

    def mean_descent_report(self):
        """E[T1'] - T1 <= (1/n) <f'(phi_bar), w - phi_bar>
                          + (L/(2 n^3)) sum_j ||w - phi_j||^2."""
        problem, phi_bar, t1 = self.problem, self.phi_bar, self.base.t1
        n = problem.n
        nxt = phi_bar[:, np.newaxis, :] + self.gaps / n   # branch-j table means
        lhs = problem.objective_batch(nxt).mean(axis=1) - t1
        L = problem.lipschitz_constant()
        slopes = np.stack([problem.full_gradient(x) for x in phi_bar])
        rhs = (_dots(slopes, self.w - phi_bar) / n
               + 0.5 * L * self.gap_squares / n**3)
        return self._each(_le_rows("table-mean-descent", lhs, rhs, 1e-9,
                                   f"n={n}", scale=t1))

    def term_shifts(self):
        """E[T_m'] - T_m for each potential term, by exact enumeration."""
        return self._each(LyapunovTerms(*(
            self._branch_means(after) - before for after, before
            in zip(self.branches.fields(), self.base.fields()))).rows())

    def t3_shift(self):
        """Exact value of E[T3'] - T3 when w is the table map:

            -(1/n + 1/n^2) T3 + (1/(alpha n)) <f'(w), w - phi_bar>
            - (1/(2 alpha^2 s n^3)) sum_j ||f_j'(phi_j) - f_j'(w)||^2
        """
        n, s, alpha = self.problem.n, self.problem.s, self.alpha
        try:
            alpha2 = alpha**2
        except OverflowError:
            raise ValueError(f"alpha={alpha:g}: alpha^2 overflows") from None
        return self._each((
            -(1.0 / n + 1.0 / n**2) * self.base.t3
            + _dots(self.full_grad_at_w, self.w - self.phi_bar) / (alpha * n)
            - _table_dots(self.grad_gaps, self.grad_gaps)
            / (2.0 * alpha2 * s * n**3)).tolist())

    def t4_shift(self):
        """Exact value of E[T4'] - T4 (holds for any w, no map needed):

            -(1/n) T4 + (s/(2n)) ||phi_bar - w||^2 - (s/(2n^3)) sum_j ||w - phi_j||^2
        """
        n, s = self.problem.n, self.problem.s
        u = self.phi_bar - self.w
        return self._each((-self.base.t4 / n + 0.5 * s * _dots(u, u) / n
                           - 0.5 * s * self.gap_squares / n**3).tolist())

    def step_gap(self):
        """|| E[w'] - (w - (1/(alpha s n)) f'(w)) ||: the mean update equals a
        damped gradient step at w.  Zero up to roundoff when w is the map."""
        damped = self.w - self.full_grad_at_w / self.denom
        return self._each(_norms(self.next_w.mean(axis=1) - damped).tolist())

    def displacement_gap(self):
        """Worst-case residual of the single-update displacement identity

            w_j' - w = (w - phi_j)/n + (f_j'(phi_j) - f_j'(w)) / (alpha s n),

        which holds exactly when w is the table map."""
        predicted = self.gaps / self.problem.n - self.grad_gaps / self.denom
        residuals = (self.next_w - self.w[:, np.newaxis, :]) - predicted
        return self._each([max([0.0] + norms)
                           for norms in _norms(residuals).tolist()])

    def variance_gap(self):
        """| mean_i ||w - phi_i||^2 - ||w - phi_bar||^2 - mean_i ||phi_bar - phi_i||^2 |."""
        spread = self.phi_bar[:, np.newaxis, :] - self.phi
        lhs = _row_dots(self.gaps, self.gaps).mean(axis=1)
        u = self.w - self.phi_bar
        rhs = _dots(u, u) + _row_dots(spread, spread).mean(axis=1)
        return self._each(np.abs(lhs - rhs).tolist())

    def table_reports(self):
        """Summed table forms bounding the T2 term: table-strong-convexity
        (-f(w) - T2 <= -(s/2n) sum ||w - phi_i||^2) and table-smoothness-lower
        (<= -(1/(2Ln)) sum ||f_i'(w) - f_i'(phi_i)||^2), the two reports of
        each state.  T2 is formed here: reading it off `base` would evaluate
        the whole potential."""
        problem, diff = self.problem, self.grad_gaps
        n = problem.n
        t2 = (-self.values.mean(axis=1)
              - _row_dots(self.grads, self.gaps).mean(axis=1))
        lhs = -_objectives(problem, self.w) - t2
        convexity = -0.5 * problem.s * self.gap_squares / n
        smoothness = (-0.5 * _table_dots(diff, diff)
                      / (problem.lipschitz_constant() * n))
        return self._each(list(map(list, zip(
            _le_rows("table-strong-convexity", lhs, convexity, 1e-9),
            _le_rows("table-smoothness-lower", lhs, smoothness, 1e-9)))))

    def lower_bound_report(self, beta: float):
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
        lhs = (self.values.mean(axis=1) + _row_dots(self.grads, dx).mean(axis=1)
               + 0.5 * beta * _table_dots(dg, dg) / (s * n**2)
               + 0.5 * beta * L * self.gap_squares / n**2
               - beta * _table_dots(dg, dx) / n**2)
        return self._each(_le_rows("averaged-strong-smooth-lower", lhs,
                                   _objectives(problem, self.w), 1e-9,
                                   f"beta={beta:g} n={n}"))


def expected_decrease_check(problem, phi_table: np.ndarray, w: np.ndarray,
                            alpha: float, beta: float) -> CheckReport:
    """E[T'] <= (1 - 1/(alpha*n)) T, the expectation taken by enumerating
    all n equally likely updates exactly.

    Preconditions: admissible (alpha, beta) and the big-data condition at
    beta; both raise ValueError when unmet rather than report a failure,
    because outside them the claim is simply not made.
    """
    return Audit(problem, phi_table, w, alpha).decrease_report(beta)


# ---------------------------------------------------------------------------
# convexity / smoothness inequality suite


def random_ball_points(rng: np.random.Generator, center: np.ndarray,
                       radius: float, m: int) -> np.ndarray:
    """(m, d) points, each a uniform direction (a normalised Gaussian) from
    center and a length uniform in [0, radius].  Draws (m, d) normals, then
    m uniforms; a zero normal gives center."""
    raw = rng.standard_normal((m, center.shape[0]))
    lengths = radius * rng.uniform(size=m)
    norms = np.linalg.norm(raw, axis=1)
    scale = np.divide(lengths, norms, out=np.zeros(m), where=norms > 0.0)
    return center + raw * scale[:, None]


def audit_block(n: int, d: int) -> int:
    """States per stacked audit in the suites, at least one: a block keeps
    within BRANCH_FLOATS floats the six (n, d) arrays each state holds and
    the three (n, n) arrays (margins, their products with the labels,
    losses) its table-mean descent evaluates."""
    return max(1, BRANCH_FLOATS // (n * (6 * d + 3 * n)))


def _le_report(name: str, lhs: float, rhs: float, tol: float, ctx: str,
               scale: float | None = None) -> CheckReport:
    """The one verdict rule for lhs <= rhs: satisfied iff
    lhs <= rhs + tol * (1 + |scale|), where scale defaults to rhs."""
    scaled = tol * (1.0 + abs(rhs if scale is None else scale))
    return CheckReport(name=name, lhs=lhs, rhs=rhs,
                       satisfied=bool(lhs <= rhs + scaled),
                       slack=rhs - lhs, context=ctx)


def _le_rows(name: str, lhs, rhs, tol: float, ctx="", scale=None) -> list:
    """_le_report's row for each entry of the arrays lhs and rhs; a scalar
    rhs, ctx or scale is broadcast to them, and scale defaults to rhs."""
    lhs, rhs, ctx, scale = (np.broadcast_to(v, np.shape(lhs)).tolist() for v in
                            (lhs, rhs, ctx, rhs if scale is None else scale))
    return [_le_report(name, lo, hi, tol, c, scale=size)
            for lo, hi, c, size in zip(lhs, rhs, ctx, scale)]


def _worst_report(name: str, family: list, ctx: str) -> CheckReport:
    """One row for a family of (k, _le_report row) pairs: the member of
    least slack, named `name`, satisfied only if every member is, with
    context "<ctx> worst_k=<k>"."""
    k, worst = min(family, key=lambda pair: pair[1].slack)
    return replace(worst, name=name, context=f"{ctx} worst_k={k}",
                   satisfied=all(r.satisfied for _, r in family))


def pair_checks(problem, x: np.ndarray, y: np.ndarray,
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
                   fy, linear + 0.5 * L * float(dxy @ dxy), 1e-9, context),
        _le_report("smoothness-lower",
                   linear + 0.5 * float(dg @ dg) / L, fy, 1e-9, context),
        _le_report("strong-convexity-lower",
                   linear + 0.5 * s * float(dxy @ dxy), fy, 1e-9, context),
        _le_report("cocoercivity",
                   float(dg @ dg) / L, float(dg @ dxy), 1e-9, context),
        _le_report("strong-monotonicity",
                   s * float(dxy @ dxy), float(dg @ dxy), 1e-9, context),
    ]


def convexity_suite(problem, reference: ReferenceSolution, draws: int = 100,
                    alpha: float = 2.0, seed: int = 0) -> list[CheckReport]:
    """Pointwise checks of the smooth/strongly-convex inequalities the
    analysis consumes: per draw, the five pair_checks at a random (x, y)
    and the two Audit.table_reports at a random table and its map, seven
    reports per draw, all drawn around reference.w_star.  The tables of
    audit_block draws are audited as one stack.
    """
    _require_smooth(problem)
    draws = _require_count("draws", draws, 1)
    w_star = reference.w_star
    rng = np.random.default_rng([_require_count("seed", seed)])
    reports: list[CheckReport] = []
    block = audit_block(problem.n, problem.d)
    for first in range(0, draws, block):
        pairs, tables = [], []
        for t in range(first, min(first + block, draws)):
            x, y = random_ball_points(rng, w_star, BALL_RADIUS, 2)
            pairs.append(pair_checks(problem, x, y, f"draw={t}"))
            tables.append(random_ball_points(rng, w_star, BALL_RADIUS,
                                             problem.n))
        audit = Audit(problem, np.stack(tables), None, alpha)
        for t, (pair, table) in enumerate(zip(pairs, audit.table_reports()),
                                          first):
            for report in table:
                report.context = f"draw={t}"
            reports += pair + table
    return reports


def strong_lb_check(problem, i: int, x: np.ndarray, y: np.ndarray) -> CheckReport:
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
    return _le_report("strong-smooth-lower", lhs, fx, 1e-9, f"i={i}")


# ---------------------------------------------------------------------------
# rate certificates


def rate_bound(problem, alpha: float, phi0: np.ndarray, k: int) -> float:
    """Certified suboptimality of the table mean after k updates:

        (c/s) (1 - 1/(alpha n))^k ||f'(phi0)||^2,   c = 1 - 1/(2 alpha).

    At alpha = 2 this is (3/(4s)) (1 - 1/(2n))^k ||f'(phi0)||^2.
    """
    _require_positive("alpha", alpha)
    k = _require_count("k", k)
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
                     phi0: np.ndarray) -> CheckReport:
    """Seed-averaged measured curve lies under the certified bound at every
    recorded k."""
    rows = rate_curve(traces, problem, alpha, phi0)
    return _worst_report(
        "rate-bound",
        [(k, _le_report("rate-bound", mean, bound, 1e-9, ""))
         for k, mean, bound in rows],
        f"checkpoints={len(rows)} seeds={len(traces)}")


# ---------------------------------------------------------------------------
# verification suites: the report lists `finito verify` prints


def _eq_report(name: str, lhs: float, rhs: float, scale: float,
               context: str = "") -> CheckReport:
    bound = 1e-12 * (1.0 + abs(scale))
    return CheckReport(name=name, lhs=lhs, rhs=rhs,
                       satisfied=bool(abs(rhs - lhs) <= bound),
                       slack=rhs - lhs, context=context)


def suite_inequalities(n: int = 40, d: int = 5, beta: float = 2.0, draws: int = 100,
                       seed: int = 0, alpha: float = 2.0) -> list[CheckReport]:
    """convexity_suite on a generated logistic problem, then `draws` rows
    each of strong_lb_check and Audit.lower_bound_report at random points,
    the latter audited audit_block tables at a time."""
    problem, reference = synth_problem(
        SynthSpec(n=n, d=d, loss=LOGISTIC, target_beta=beta, seed=seed))
    reports = convexity_suite(problem, reference, draws=draws, alpha=alpha,
                              seed=seed)
    w_star = reference.w_star
    rng = np.random.default_rng([seed, 1])
    components = rng.integers(problem.n, size=draws).tolist()
    xy = random_ball_points(rng, w_star, BALL_RADIUS, 2 * draws)
    for t, (i, x, y) in enumerate(zip(components, xy[0::2], xy[1::2])):
        report = strong_lb_check(problem, i, x, y)
        report.context = f"draw={t} {report.context}"
        reports.append(report)
    block = audit_block(problem.n, problem.d)
    for first in range(0, draws, block):
        tables, points = [], []
        for _ in range(first, min(first + block, draws)):
            # a table and its point per call, so the draws do not depend on block
            drawn = random_ball_points(rng, w_star, BALL_RADIUS, problem.n + 1)
            tables.append(drawn[:-1])
            points.append(drawn[-1])
        audit = Audit(problem, np.stack(tables), np.stack(points), alpha)
        for t, report in enumerate(audit.lower_bound_report(beta), first):
            report.context = f"draw={t} {report.context}"
            reports.append(report)
    return reports


def suite_lyapunov(n: int = 40, d: int = 5, beta: float = 2.0, draws: int = 200,
                   seed: int = 0, alpha: float = 2.0) -> list[CheckReport]:
    """The closed-form initial potential, then at each of `draws` states of
    a uniform finito run the expected decrease, map consistency, bound gap,
    table-mean descent and five exact identities (step, displacement,
    variance, T3, T4).
    The run is snapshotted audit_block states at a time and each block is
    audited as one stack; `draws` must be >= 1."""
    draws = _require_count("draws", draws, 1)
    problem, reference = synth_problem(
        SynthSpec(n=n, d=d, loss=LOGISTIC, target_beta=beta, seed=seed))
    w0 = np.zeros(d)
    state = finito_init(problem, alpha, w0=w0, audit=True)
    sampler = IndexSampler(SamplingScheme(UNIFORM, seed), problem.n)
    terms0 = lyapunov_evaluate(problem, state.phi_table, state.w)
    closed = initial_lyapunov(problem, w0, alpha)
    reports = [_eq_report("initial-potential", terms0.total, closed, closed,
                          "all rows at w0")]
    block = audit_block(n, d)
    for first in range(0, draws, block):
        size = min(block, draws - first)
        phi, w = np.empty((size, n, d)), np.empty((size, d))
        for k in range(size):
            phi[k], w[k] = state.phi_table, state.w
            finito_step(state, problem, sampler.next_index())
        audit = Audit(problem, phi, w, alpha)
        checks = zip(audit.decrease_report(beta), audit.map_report(),
                     audit.bound_report(reference), audit.mean_descent_report())
        identities = zip(
            audit.step_gap(), audit.displacement_gap(), audit.variance_gap(),
            audit.term_shifts(), audit.t3_shift(), audit.t4_shift(),
            _norms(w).tolist(), _table_dots(phi, phi).tolist(),
            audit.base.total.tolist())
        for t, rows, (step, moved, variance, shifts, t3, t4, scale, spread,
                      total) in zip(range(first, draws), checks, identities):
            ctx = f"step={t}"
            for report in rows:
                report.context = f"{ctx} {report.context}"
                reports.append(report)
            for name, lhs, rhs, size in (
                ("expected-step-identity", step, 0.0, scale),
                ("update-displacement-identity", moved, 0.0, scale),
                ("variance-decomposition", variance, 0.0, spread),
                ("t3-shift-closed-form", shifts.t3, t3, total),
                ("t4-shift-closed-form", shifts.t4, t4, total),
            ):
                reports.append(_eq_report(name, lhs, rhs, size, ctx))
    return reports


def suite_rate(n: int = 200, seed: int = 0, alpha: float = 2.0) -> list[CheckReport]:
    """Seed-averaged table-mean suboptimality of 5 uniform finito runs of 10
    epochs against rate_bound, one row per epoch, then the rate_certificate
    row; alpha must be admissible at beta = 2, where the rate is certified."""
    beta, seeds, epochs = 2.0, 5, 10
    _require_admissible(alpha, beta)
    problem, reference = synth_problem(
        SynthSpec(n=n, d=10, loss=LOGISTIC, target_beta=beta, seed=seed))
    w0 = np.zeros(problem.d)
    config = SolverConfig(solver="finito", alpha=alpha, first_pass=False,
                          monitor="table-mean", w0=w0)
    traces = [run(problem, config, SamplingScheme(UNIFORM, seed=s), epochs,
                  reference=reference) for s in range(seeds)]
    rows = [_le_report(f"rate-k-{k}", mean, bound, 1e-9, f"seeds={seeds}")
            for k, mean, bound in rate_curve(traces, problem, alpha, w0)]
    return rows + [rate_certificate(traces, problem, alpha, w0)]
