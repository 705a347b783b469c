"""Finite-sum objectives: component losses, problem constants, and the L1 prox.

Every problem here is an average f(w) = (1/n) sum_i f_i(w) where each f_i is
s-strongly convex with an L-Lipschitz gradient.  Solvers and the verification
suites only touch the small interface implemented by the classes below:
component values/gradients, row-wise table evaluation, the full gradient, and
the big-data condition report.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

LOGISTIC = "logistic"
SQUARED = "squared"
LOSS_KINDS = (LOGISTIC, SQUARED)

# curvature of the loss in its margin argument, used for per-row L bounds
_MARGIN_CURVATURE = {SQUARED: 1.0, LOGISTIC: 0.25}


class StrongConvexityRequired(ValueError):
    """Raised when an operation needs s > 0 but the problem declares s = 0."""


@dataclass
class BigDataReport:
    """Outcome of the n >= beta * L / s test."""

    L: float
    beta_achieved: float
    verdict: bool


@dataclass
class ReferenceSolution:
    """High-accuracy minimizer used as the suboptimality reference.

    grad_norm_at_solution is the stopping certificate measured at w_star
    itself: for smooth problems the gradient norm ||f'(w_star)||; for
    composite problems the proximal fixed-point residual
    ||prox(w_star - f'(w_star)/L, 1/L) - w_star||, L the problem's
    smoothness_constant().  method_tag names the algorithm that produced
    it ("accelerated-proximal-gradient" for reference_solve).
    """

    w_star: np.ndarray
    f_star: float
    grad_norm_at_solution: float
    method_tag: str


def prox_operator(l1_weight: float, z: np.ndarray, step: float) -> np.ndarray:
    """Soft threshold: argmin_x (1/2)||x - z||^2 + step * l1_weight * ||x||_1.

    The threshold is t = l1_weight * step.  With l1_weight == 0 the map is the
    identity and the input values are returned unchanged (as a fresh array).
    """
    _require_nonnegative("l1_weight", l1_weight)
    _require_positive("step", step)
    z = np.asarray(z, dtype=float)
    if l1_weight == 0.0:
        return z.copy()
    return _soft_threshold(z, l1_weight * step)


def _soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


# the scalar input rules, one per kind of value, which every module's
# refusals of a setting, a count or a seed go through
def _require_positive(name: str, value: float) -> None:
    # NaN fails both comparisons, so it is rejected along with 0, < 0 and inf
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    # NaN fails the comparison, so it is refused along with < 0 and inf
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _as_index(i, what: str = "component index") -> int:
    # integers only (operator.index): a float (NaN and inf too), str or bool
    # is a TypeError naming `what`, never truncated or read as 0/1
    if type(i) is int:
        return i
    if not isinstance(i, (bool, np.bool_)):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, not {type(i).__name__}")


def _require_count(name: str, value, low: int = 0) -> int:
    # a count, size or seed as an int: TypeError unless an integer, then >= low
    value = _as_index(value, name)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


class _ProblemBase:
    """Shared aggregate operations; subclasses provide the component ops.

    Subclasses must define n, d, s, l1_weight plus component_value,
    component_gradient, table_values, table_gradients and objective_batch.
    """

    n: int
    d: int
    s: float
    l1_weight: float

    # -- validation helpers -------------------------------------------------

    def _check_index(self, i: int) -> int:
        if type(i) is not int:
            i = _as_index(i)
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        return i

    def _as_point(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d,):
            raise ValueError(f"point must have shape ({self.d},), got {w.shape}")
        return w

    def _check_point(self, w: np.ndarray) -> np.ndarray:
        w = self._as_point(w)
        if not np.all(np.isfinite(w)):
            raise ValueError("point contains non-finite entries")
        return w

    def _check_table(self, points: np.ndarray) -> np.ndarray:
        # one (n, d) table, or a stack of them along leading axes
        points = np.asarray(points, dtype=float)
        if points.shape[-2:] != (self.n, self.d):
            raise ValueError(
                f"table must have shape ({self.n}, {self.d}), got {points.shape}"
            )
        return points

    # -- aggregates built on the row-wise ops -------------------------------

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part (1/n) sum_i f_i at w."""
        w = self._check_point(w)
        tiled = np.broadcast_to(w, (self.n, self.d))
        return self.table_gradients(tiled).mean(axis=0)

    def full_objective(self, w: np.ndarray) -> float:
        """(1/n) sum_i f_i(w) plus the L1 term when one is configured."""
        w = self._check_point(w)
        tiled = np.broadcast_to(w, (self.n, self.d))
        value = float(self.table_values(tiled).mean())
        if self.l1_weight > 0.0:
            value += self.l1_weight * float(np.abs(w).sum())
        return value

    def big_data_check(self, beta: float) -> BigDataReport:
        """Report whether n >= beta * L / s holds (boundary inclusive)."""
        _require_positive("beta", beta)
        if self.s == 0.0:
            raise StrongConvexityRequired(
                "big data condition needs s > 0; this problem declares s = 0"
            )
        L = self.lipschitz_constant()
        return BigDataReport(L=L, beta_achieved=self.n * self.s / L,
                             verdict=bool(self.n * self.s >= beta * L))


class FiniteSumProblem(_ProblemBase):
    """Data-backed finite sum: f_i(w) = loss(<x_i, w>, y_i) + (s/2) ||w||^2.

    Parameters
    ----------
    features : (n, d) array
        One row per component.
    targets : (n,) array
        Regression targets (squared loss) or labels in {-1, +1} (logistic).
    loss : str
        "squared" or "logistic".
    s : float
        Strong convexity constant; the ridge term is folded into every f_i.
    l1_weight : float
        Optional L1 penalty weight applied to the average, handled by prox_operator.
    """

    def __init__(self, features, targets, loss: str, s: float = 0.0,
                 l1_weight: float = 0.0):
        features = np.ascontiguousarray(features, dtype=float)
        targets = np.ascontiguousarray(targets, dtype=float)
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise ValueError(f"features must be a nonempty 2-D array, got shape {features.shape}")
        if targets.shape != (features.shape[0],):
            raise ValueError(
                f"targets must have shape ({features.shape[0]},), got {targets.shape}"
            )
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise ValueError("features/targets contain non-finite entries")
        if loss not in (SQUARED, LOGISTIC):
            raise ValueError(f"unknown loss {loss!r}")
        if loss == LOGISTIC and not np.all(np.isin(targets, (-1.0, 1.0))):
            raise ValueError("logistic targets must lie in {-1, +1}")
        _require_nonnegative("s", s)
        _require_nonnegative("l1_weight", l1_weight)
        self.features = features
        self.targets = targets
        self.loss = loss
        self.s = float(s)
        self.l1_weight = float(l1_weight)
        self.n, self.d = features.shape
        self._lipschitz: float | None = None
        self._smoothness: float | None = None

    def __repr__(self) -> str:
        return (f"FiniteSumProblem(n={self.n}, d={self.d}, loss={self.loss!r}, "
                f"s={self.s}, l1_weight={self.l1_weight})")

    # -- loss kernels --------------------------------------------------------

    def _loss_values(self, margins: np.ndarray, targets: np.ndarray) -> np.ndarray:
        if self.loss == SQUARED:
            r = margins - targets
            return 0.5 * r * r
        # log(1 + exp(-y m)) evaluated stably for large |m|
        return np.logaddexp(0.0, -targets * margins)

    def _loss_dmargin(self, margins: np.ndarray, targets: np.ndarray) -> np.ndarray:
        if self.loss == SQUARED:
            return margins - targets
        # sigmoid(-y m) in tanh form, which cannot overflow for any margin
        return -targets * (0.5 - 0.5 * np.tanh(0.5 * targets * margins))

    # -- component interface -------------------------------------------------

    def component_value(self, i: int, w: np.ndarray) -> float:
        i = self._check_index(i)
        w = self._check_point(w)
        m = float(self.features[i] @ w)
        value = float(self._loss_values(np.array(m), np.array(self.targets[i])))
        return value + 0.5 * self.s * float(w @ w)

    def component_gradient(self, i: int, w: np.ndarray) -> np.ndarray:
        i = self._check_index(i)
        w = self._as_point(w)
        x = self.features[i]
        m = float(x.dot(w))  # x @ w's BLAS dot without the matmul dispatch
        if not math.isfinite(m):
            # the features are finite, so any NaN or inf in w reaches m
            self._check_point(w)
        y = self.targets.item(i)
        if self.loss == SQUARED:
            dm = m - y
        else:
            # _loss_dmargin's operations on Python floats; math.tanh rounds
            # differently from np.tanh, so the one tanh stays numpy's
            dm = -y * (0.5 - 0.5 * float(np.tanh(0.5 * y * m)))
        return dm * x + self.s * w

    def table_values(self, points: np.ndarray) -> np.ndarray:
        """f_i evaluated at row i of `points`, for all i at once; a stack of
        tables (..., n, d) gives (..., n), each table with its own bits."""
        points = self._check_table(points)
        margins = np.einsum("ij,...ij->...i", self.features, points)
        ridge = 0.5 * self.s * np.einsum("...j,...j->...", points, points)
        return self._loss_values(margins, self.targets) + ridge

    def table_gradients(self, points: np.ndarray) -> np.ndarray:
        """Gradient of f_i at row i of `points`, for all i at once; stacks as
        table_values does."""
        points = self._check_table(points)
        margins = np.einsum("ij,...ij->...i", self.features, points)
        dm = self._loss_dmargin(margins, self.targets)
        return dm[..., None] * self.features + self.s * points

    def objective_batch(self, points: np.ndarray) -> np.ndarray:
        """Smooth objective (1/n) sum_i f_i at each point along the last axis
        of `points`, shape (..., d) -> (...).  A (m, 1, d) stack evaluates
        each point with the single-point matmul kernel, (m, d) with one GEMM."""
        points = np.asarray(points, dtype=float)
        margins = points @ self.features.T  # (..., n)
        losses = self._loss_values(margins, self.targets)
        ridge = 0.5 * self.s * np.einsum("...j,...j->...", points, points)
        return losses.mean(axis=-1) + ridge

    def full_gradient(self, w: np.ndarray) -> np.ndarray:
        w = self._check_point(w)
        margins = self.features @ w
        dm = self._loss_dmargin(margins, self.targets)
        return self.features.T @ dm / self.n + self.s * w

    def lipschitz_constant(self) -> float:
        """max_i L_i with L_i = c ||x_i||^2 + s, c the loss margin curvature.
        ValueError when it or its reciprocal is not finite: only the steps
        and the checks that need L refuse such data, so finito runs on it
        without a reference."""
        if self._lipschitz is None:
            c = _MARGIN_CURVATURE[self.loss]
            row_norms = np.einsum("ij,ij->i", self.features, self.features)
            L = float(c * row_norms.max() + self.s)
            if not math.isfinite(L):
                raise ValueError(
                    f"Lipschitz constant overflows: the largest feature "
                    f"magnitude is {np.abs(self.features).max():g} "
                    f"(s = {self.s:g}); rescale the data")
            self._lipschitz = self._invertible(L)
        return self._lipschitz

    def _invertible(self, constant: float) -> float:
        # 1/x overflows for every x <= 2^-1024, so such an x is refused as 0 is
        if constant > math.ldexp(1.0, -1024):
            return constant
        largest = np.abs(self.features).max()
        raise ValueError(
            "Lipschitz constant is 0: every feature is 0 and s = 0"
            if constant == 0.0 == largest else
            f"Lipschitz constant underflows to 0: the largest feature "
            f"magnitude is {largest:g} (s = {self.s:g}); rescale the data")

    def smoothness_constant(self) -> float:
        """c lambda_max(G)/n + s, the smoothness of the average f, raised by a
        rounding margin so that it is never below it, and capped by the mean
        bound c mean_i ||x_i||^2 + s (lambda_max is at most the trace).  G is
        the Gram matrix of the smaller side of X: X^T X when d <= n, X X^T
        otherwise (the same nonzero eigenvalues), never larger than the data.
        X is first scaled by the power of two that brings its largest row norm
        into [1/2, 1), exactly, so every entry of G is at most n and G is
        finite wherever max_i L_i is.

        Margin (eps = 2^-52, k the order of G): each computed entry of G is
        within (n eps/2) sum_i |x_ij x_ik| of the exact one, so the computed
        G^ is within (n eps/2) tr(G) of G in the 2-norm; eigvalsh returns the
        eigenvalues of G^ + E, ||E||_2 <= p(k) eps ||G^||_2, where LAPACK's
        Householder tridiagonalisation gives p of order k^2, taken as 8 k^2.
        So lambda_max(G) <= lambda^ + (n + 8 k^2) eps tr(G^), which also
        covers the second-order terms and the entries that the scaling takes
        below 2^-1022.  Raises lipschitz_constant's ValueError when max_i L_i
        or its reciprocal is not finite, and its underflow message when the
        reciprocal of this constant is not."""
        if self._smoothness is None:
            self.lipschitz_constant()
            c = _MARGIN_CURVATURE[self.loss]
            row_norms = np.einsum("ij,ij->i", self.features, self.features)
            # each term is at most max/n, so the sum cannot overflow
            mean = float((row_norms / self.n).sum())
            e = math.frexp(math.sqrt(row_norms.max()))[1]
            x = np.ldexp(self.features, -e)
            gram = x.T @ x if self.d <= self.n else x @ x.T
            margin = (self.n + 8 * len(gram) ** 2) * np.finfo(float).eps
            bound = float(np.linalg.eigvalsh(gram)[-1] + margin * np.trace(gram))
            # capped where the scaled values cannot overflow: 2^(2e) times
            # the smaller is at most the mean, so scaling back is exact
            scaled = min(bound / self.n, math.ldexp(mean, -2 * e))
            self._smoothness = self._invertible(c * math.ldexp(scaled, 2 * e) + self.s)
        return self._smoothness


class QuadraticProblem(_ProblemBase):
    """Per-component isotropic quadratics f_i(w) = (a_i/2) ||w - c_i||^2.

    Exact desk problems (integer-valued tables, analytic minimizers) live in
    this family; its strong convexity s defaults to min(a_i) and does not need
    a separate ridge term.
    """

    def __init__(self, centers, weights=None, s: float | None = None,
                 l1_weight: float = 0.0):
        centers = np.ascontiguousarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] == 0 or centers.shape[1] == 0:
            raise ValueError(f"centers must be a nonempty 2-D array, got shape {centers.shape}")
        n, d = centers.shape
        if weights is None:
            weights = np.ones(n)
        weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
        for name, values in (("centers", centers), ("weights", weights)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contain non-finite entries")
        if np.any(weights <= 0):
            raise ValueError("component weights must be > 0")
        if s is None:
            s = float(weights.min())
        if not 0 <= s <= weights.min():
            raise ValueError(f"s must lie in [0, min weight]; got s={s}")
        _require_nonnegative("l1_weight", l1_weight)
        self.centers = centers
        self.weights = weights
        self.s = float(s)
        self.l1_weight = float(l1_weight)
        self.n, self.d = n, d

    def __repr__(self) -> str:
        return f"QuadraticProblem(n={self.n}, d={self.d}, s={self.s})"

    def component_value(self, i: int, w: np.ndarray) -> float:
        i = self._check_index(i)
        w = self._check_point(w)
        diff = w - self.centers[i]
        return 0.5 * self.weights[i] * float(diff @ diff)

    def component_gradient(self, i: int, w: np.ndarray) -> np.ndarray:
        i = self._check_index(i)
        w = self._check_point(w)
        return self.weights[i] * (w - self.centers[i])

    def table_values(self, points: np.ndarray) -> np.ndarray:
        points = self._check_table(points)
        diffs = points - self.centers
        return 0.5 * self.weights * np.einsum("...j,...j->...", diffs, diffs)

    def table_gradients(self, points: np.ndarray) -> np.ndarray:
        points = self._check_table(points)
        return self.weights[:, None] * (points - self.centers)

    def objective_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        # ||z - c_i||^2 expanded to stay vectorized over every axis
        znorm = np.einsum("...j,...j->...", points, points)
        cnorm = np.einsum("ij,ij->i", self.centers, self.centers)
        cross = points @ self.centers.T
        sq = znorm[..., None] - 2.0 * cross + cnorm
        return 0.5 * (sq @ self.weights) / self.n

    def minimizer(self) -> np.ndarray:
        """Closed form: the weight-weighted mean of the centers."""
        return (self.weights @ self.centers) / self.weights.sum()

    def lipschitz_constant(self) -> float:
        return float(self.weights.max())

    def smoothness_constant(self) -> float:
        """mean(a_i), exactly the smoothness of the average."""
        return float(self.weights.mean())
