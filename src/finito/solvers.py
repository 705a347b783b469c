"""Incremental solvers over gradient tables, plus the shared run driver.

Every table solver steps through one kernel: replace table row j with the
data at the current w, update the running sums, then refresh w.  For finito

    w = phi_bar - (1/(alpha * s * n)) * sum_i f_i'(phi_i),

soft-thresholded on a proximal state (prox-finito); miso is finito at
alpha = L/s, and SAG moves w along the stored gradient sum instead.

Every finito state keeps p_i = f_i'(phi_i) - alpha*s*phi_i and reads w as
-(1/(alpha*s*n)) * sum_i p_i.  Audit storage keeps the phi table beside it,
which only the verification suites and the table-mean monitor read; the
phi table never feeds back into w, so both storages step bit for bit alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .problems import (ReferenceSolution, StrongConvexityRequired, _as_index,
                       _require_count, _require_positive, _soft_threshold,
                       prox_operator)
from .samplers import IndexSampler, SamplingScheme

SOLVER_TAGS = ("finito", "prox-finito", "sag", "miso", "full-gradient")
FINITO_TAGS = ("finito", "prox-finito", "miso")  # the FinitoState tags
ALPHA_TAGS = ("finito", "prox-finito")  # the tags that read config.alpha
MONITORS = ("iterate", "table-mean")

# run() aborts when suboptimality exceeds this multiple of its start value
DIVERGENCE_RATIO = 1e6

# reference_solve gives up after this many iterations
REFERENCE_MAX_ITER = 500_000


class DivergenceError(RuntimeError):
    """A run blew up: non-finite numbers or runaway suboptimality.

    Carries the offending component j and step k when known, and whatever
    trace records were produced before the abort.
    """

    def __init__(self, message, j=None, k=None, records=None):
        super().__init__(message)
        self.j = j
        self.k = k
        self.records = records if records is not None else []


@dataclass
class TraceRecord:
    """One telemetry row; wall_ms is the only nondeterministic field."""

    epoch: float
    objective: float
    suboptimality: float
    grad_norm: float
    wall_ms: float
    solver: str
    sampling: str
    seed: int


@dataclass
class FinitoState:
    """Mutable single-owner state for the table-based solvers.

    p_table and p_sum are always set; audit storage also sets phi_table,
    compact storage does not.  `proximal` is not settable: it is
    derived from the tag, true exactly for "prox-finito".  Construction
    checks the storage, the tag (one of FINITO_TAGS), alpha (finite, > 0)
    and, with n the table's row count, k >= 0 and seen == n or (mid first
    pass) seen == k < n.  The fields are the checkpoint's lines.
    """

    alpha: float
    k: int
    seen: int
    w: np.ndarray
    p_table: np.ndarray
    p_sum: np.ndarray
    phi_table: np.ndarray | None = None
    solver_tag: str = "finito"

    def __post_init__(self):
        if self.solver_tag not in FINITO_TAGS:
            raise ValueError(f"finito_init builds {', '.join(FINITO_TAGS)} states, "
                             f"not {self.solver_tag!r}")
        if self.p_table is None or self.p_sum is None:
            raise ValueError("a finito state holds p_table and p_sum")
        _check_table_state("alpha", self.alpha, self.k, self.seen, self.p_table)
        # a plain attribute, not a property: _next_w reads it every step
        self.proximal = self.solver_tag == "prox-finito"

    @property
    def audit(self) -> bool:
        return self.phi_table is not None


@dataclass
class SagState:
    """State for the stored-gradient averaging baseline; construction checks
    step and the counters as FinitoState checks alpha and its counters."""

    step: float
    k: int
    seen: int
    w: np.ndarray
    grad_table: np.ndarray
    grad_sum: np.ndarray
    solver_tag: ClassVar[str] = "sag"
    phi_table: ClassVar[None] = None  # the audit table: never held

    def __post_init__(self):
        _check_table_state("step", self.step, self.k, self.seen, self.grad_table)


@dataclass
class FullGradientState:
    """Deterministic full-gradient baseline; one step costs a whole pass.
    Construction checks step (finite, > 0) and k >= 0."""

    step: float
    w: np.ndarray
    k: int = 0
    solver_tag: ClassVar[str] = "full-gradient"

    def __post_init__(self):
        _require_positive("step", self.step)
        # k counts steps from 0, as in the table states
        if self.k < 0:
            raise ValueError(f"counter k={self.k}: need k >= 0")


@dataclass
class SolverConfig:
    """Flat run configuration; sampling and seed live in SamplingScheme."""

    solver: str = "finito"
    alpha: float = 2.0
    step: float | None = None
    first_pass: bool = True
    monitor: str = "iterate"  # or "table-mean", which keeps audit storage
    w0: np.ndarray | None = None


def _refuse_l1(tag: str, problem) -> None:
    # finito, miso and sag step on the smooth part alone; SAG (arXiv
    # 1309.2388) is analysed for smooth sums only
    if problem.l1_weight > 0 and tag not in ("prox-finito", "full-gradient"):
        raise ValueError(f"{tag} ignores the l1 term (l1 = {problem.l1_weight:g}); "
                         "use prox-finito or full-gradient")


def check_run(problem, config: SolverConfig, scheme: SamplingScheme, epochs: int,
              record_every: float = 1.0, resume: tuple | None = None) -> tuple[str, float]:
    """(name, value) of the constant the run holds: finito's and
    prox-finito's alpha, miso's L/s ("alpha"), and sag's and full-gradient's
    step, by default sag_default_step(problem) and 1/L.  ValueError, in this
    order, unless run_with_state would start `config` on `problem` as asked:
    a known solver and monitor, no l1 term the solver ignores, no setting it
    never reads (step for finito, prox-finito and miso, whose step alpha
    sets), s > 0 for those three, that constant finite and > 0, an integer
    epochs >= 0 (TypeError for another type), record_every finite and > 0;
    a resume (state, sampler) that continues the run it was saved from (the
    same solver and constant; for a table solver, the seen count and draw
    its step and first-pass setting imply and the same scheme, the sampler
    absent only at draw 0) at a step no later than the run's end; and
    table-mean monitoring only on a finito state in audit storage."""
    solver = config.solver
    if solver not in SOLVER_TAGS:
        raise ValueError(f"unknown solver {solver!r}")
    if config.monitor not in MONITORS:
        raise ValueError(f"unknown monitor {config.monitor!r}")
    _refuse_l1(solver, problem)  # a resumed state too
    if config.step is not None and solver in FINITO_TAGS:
        raise ValueError(f"{solver} ignores step (step = {config.step:g}); "
                         "only sag and full-gradient take one")
    if solver in FINITO_TAGS and problem.s == 0.0:  # finito_init's, before any state
        raise StrongConvexityRequired("the table update divides by alpha*s*n")
    if solver in ALPHA_TAGS:
        name, value = "alpha", config.alpha
    elif solver == "miso":
        L = problem.lipschitz_constant()
        name, value = "alpha", L / problem.s
        if value == math.inf:
            raise ValueError(f"miso's alpha = L/s overflows at L = {L:g}, "
                             f"s = {problem.s:g}; rescale the data")
    elif config.step is not None:
        name, value = "step", config.step
    else:  # sag's analysed default, full-gradient's 1/L
        name, value = "step", (sag_default_step(problem) if solver == "sag"
                               else 1.0 / problem.lipschitz_constant())
    _require_positive(name, value)
    _require_count("epochs", epochs)
    _require_positive("record_every", record_every)
    state = None
    if resume is not None:
        state, sampler = resume
        tag = getattr(state, "solver_tag", None)
        if tag != solver:
            raise ValueError(f"resume state is for {tag!r}, config says {solver!r}")
        settings = [(name, getattr(state, name), value)]  # (name, the state's, the run's)
        drawn = 0  # full-gradient draws no index
        if solver != "full-gradient":  # a step that admits a row draws none
            start = 0 if config.first_pass else problem.n  # the rows seen at k = 0
            seen = min(start + state.k, problem.n)
            drawn = state.k - (seen - start)
            settings.append(("seen", state.seen, seen))
        if sampler is not None:
            settings += [("sampling", sampler.scheme, scheme), ("draw", sampler.draws, drawn)]
        for setting, held, fresh in settings:
            if held != fresh:
                raise ValueError(f"{tag} resumes at {setting} {held!r} from its checkpoint, "
                                 f"not {fresh!r}; resume with the settings it started with")
        # without its sampler the index stream would restart at draw 0
        if sampler is None and drawn > 0:
            raise ValueError(f"{tag} resumes at step {state.k} without the index "
                             "stream it drew from (sampling none); save the "
                             "checkpoint with its sampler")
        end = epochs * (1 if solver == "full-gradient" else problem.n)
        if state.k > end:
            raise ValueError(f"{tag} resumes at step {state.k} from its checkpoint, "
                             f"past the run's end at step {end} (epochs = {epochs})")
    if config.monitor == "table-mean" and (
            solver not in FINITO_TAGS or state is not None and state.phi_table is None):
        raise ValueError("table-mean monitoring needs finito audit storage")
    return name, value


def _check_table_state(name: str, value: float, k: int, seen: int, table) -> None:
    # k counts updates from 0; every row is filled, or the first pass has
    # admitted exactly k rows
    _require_positive(name, value)
    if not (k >= 0 and (seen == len(table) or seen == k < len(table))):
        raise ValueError(f"counters k={k} seen={seen}: need k >= 0 and "
                         f"seen == n={len(table)} or seen == k < n")


def _next_w(state: FinitoState, problem, seen: int, total: np.ndarray) -> np.ndarray:
    """A finito state's iterate given p_sum over its `seen` rows."""
    # negation is exact, so this is -p_sum / (alpha*s*seen)
    z = total / -(state.alpha * problem.s * seen)
    if state.proximal and problem.l1_weight > 0.0:
        # prox_operator without its argument checks; l1 = 0 is the identity
        z = _soft_threshold(z, problem.l1_weight * (1.0 / (state.alpha * problem.s)))
    return z


def _fold(state: FinitoState | SagState, problem, j: int, first_pass: bool):
    # the first pass folds in the next unseen row, still all +0.0, so
    # sum + (new - row) is exactly sum + new
    n = problem.n
    seen = state.seen
    if first_pass:
        if seen >= n:
            raise ValueError(f"first pass is over (k >= n = {n})")
        j = _as_index(j)
        if j != seen:
            raise ValueError("first pass visits components in index order; "
                             f"expected k={seen}, got {j}")
        seen += 1
    elif seen < n:
        kind = "sag" if isinstance(state, SagState) else "finito"
        raise ValueError(f"first pass incomplete; step with {kind}_first_pass_step")
    k = state.k
    w = state.w
    try:
        # checks j, its type and range, before anything changes
        g = problem.component_gradient(j, w)
    except ValueError as exc:
        raise DivergenceError(f"iterate no longer finite at step {k}: {exc}",
                              j=j, k=k) from exc
    # stage the step in locals; the state changes only once it is checked
    sag = isinstance(state, SagState)
    if sag:
        # every first-pass step, the last one included, scales by n/seen
        step = state.step * n / seen if first_pass else state.step
        table, row, total = state.grad_table, g, state.grad_sum
    else:
        table, row, total = state.p_table, g - state.alpha * problem.s * w, state.p_sum
    total = total + (row - table[j])
    z = w - step * total if sag else _next_w(state, problem, seen, total)
    recompute = (k + 1) % n == 0
    # NaN and inf in g always reach z and then z.z, so a finite z.z means a
    # finite step.  Otherwise (and on a recompute) take the exact checks in
    # order; finite entries whose square overflows pass them.
    exact = recompute or not math.isfinite(z.dot(z))
    if exact and not np.all(np.isfinite(g)):
        raise DivergenceError(f"non-finite gradient for component {j} at step {k}",
                              j=j, k=k)
    if recompute:
        # the periodic full recompute bounds incremental-sum drift; it reads
        # the new row from the table, which gets its old row back on a raise
        old = table[j].copy()
        table[j] = row
        total = table.sum(axis=0)
        z = w - step * total if sag else _next_w(state, problem, seen, total)
    if exact and not np.all(np.isfinite(z)):
        if recompute:
            table[j] = old
        raise DivergenceError(f"iterate diverged at step {k + 1}", j=j, k=k + 1)
    table[j] = row
    if sag:
        state.grad_sum = total
    else:
        state.p_sum = total
    if state.phi_table is not None:
        state.phi_table[j] = w
    state.seen = seen
    state.k = k + 1
    state.w = z
    return state


def finito_init(problem, alpha: float, w0=None, audit: bool = False,
                first_pass: bool = False,
                solver_tag: str = "finito") -> FinitoState:
    """Build the table state.

    The storage is the p table and, with audit=True, the phi table beside
    it.  The default fills every row at w0 and sets w to the resulting map
    (DivergenceError at k = 0 if it is not finite).  With first_pass=True
    the tables start empty and rows are admitted one at a time in index
    order by finito_first_pass_step, so a pass costs exactly n gradient
    evaluations.

    solver_tag is one of FINITO_TAGS.  "prox-finito" makes the state proximal:
    each w refreshed from p_sum goes through the L1 prox with step
    1/(alpha*s); the other tags refuse a problem with an l1 term.
    """
    _refuse_l1(solver_tag, problem)
    n, d = problem.n, problem.d
    w0 = problem._check_point(np.zeros(d) if w0 is None else w0)
    state = FinitoState(alpha=float(alpha), k=0, seen=0, w=w0.copy(),
                        p_table=np.zeros((n, d)), p_sum=np.zeros(d),
                        phi_table=np.zeros((n, d)) if audit else None,
                        solver_tag=solver_tag)
    if problem.s == 0.0:
        raise StrongConvexityRequired("the table update divides by alpha*s*n")
    if first_pass:
        return state
    grads = problem.table_gradients(np.broadcast_to(w0, (n, d)))
    state.p_table = grads - alpha * problem.s * w0[None, :]
    state.p_sum = state.p_table.sum(axis=0)
    if audit:
        state.phi_table = np.tile(w0, (n, 1))
    state.seen = n
    state.w = _next_w(state, problem, n, state.p_sum)
    if not np.all(np.isfinite(state.w)):  # as the first pass would raise
        raise DivergenceError("iterate diverged at step 0", k=0)
    return state


def finito_step(state: FinitoState, problem, j: int) -> FinitoState:
    """Fold the current w into table row j, then recompute w from the tables.

    The same step runs prox-finito (a proximal state) and miso (alpha = L/s).
    """
    return _fold(state, problem, j, first_pass=False)


def finito_first_pass_step(state: FinitoState, problem, k: int) -> FinitoState:
    """Admit component k during the first pass.

    Components are visited in index order; with k rows already seen the
    iterate is the map over the seen prefix only,

        w = (1/k) sum_{i<k} phi_i - (1/(alpha*s*k)) sum_{i<k} f_i'(phi_i),

    so no unseen gradient is ever touched.
    """
    return _fold(state, problem, k, first_pass=True)


def sag_default_step(problem, practical: bool = False) -> float:
    """Stored-gradient step: 1/(16Ln) from the analysis, 1/(Ln) in practice."""
    L = problem.lipschitz_constant()
    step = 1.0 / (L * problem.n) if practical else 1.0 / (16.0 * L * problem.n)
    if step == 0.0:
        raise ValueError(f"the default sag step underflows to 0 at L = {L:g}, "
                         f"n = {problem.n}; rescale the data")
    return step


def sag_init(problem, w0=None, step: float | None = None,
             first_pass: bool = False) -> SagState:
    _refuse_l1("sag", problem)
    if step is None:
        step = sag_default_step(problem)
    n, d = problem.n, problem.d
    w0 = problem._check_point(np.zeros(d) if w0 is None else w0)
    state = SagState(step=float(step), k=0, seen=0, w=w0.copy(),
                     grad_table=np.zeros((n, d)), grad_sum=np.zeros(d))
    if not first_pass:
        state.grad_table = problem.table_gradients(np.broadcast_to(w0, (n, d)))
        state.grad_sum = state.grad_table.sum(axis=0)
        state.seen = n
        if not np.all(np.isfinite(state.grad_sum)):
            raise DivergenceError("gradient sum diverged at step 0", k=0)
    return state


def sag_step(state: SagState, problem, j: int) -> SagState:
    """Refresh stored row j at the current w, then move along the table sum."""
    return _fold(state, problem, j, first_pass=False)


def sag_first_pass_step(state: SagState, problem, k: int) -> SagState:
    """Admit component k; the sum is divided by the number seen, not n."""
    return _fold(state, problem, k, first_pass=True)


# ---------------------------------------------------------------------------
# run driver


def _monitor_point(state, config: SolverConfig) -> np.ndarray:
    if config.monitor == "table-mean" and state.seen:
        # the rows not yet seen are all +0.0, so this is the mean of those seen
        return state.phi_table.sum(axis=0) / state.seen
    return state.w


def _build_state(problem, config: SolverConfig, value: float):
    w0 = config.w0
    solver = config.solver
    if solver in FINITO_TAGS:
        return finito_init(problem, value, w0=w0, audit=config.monitor == "table-mean",
                           first_pass=config.first_pass, solver_tag=solver)
    if solver == "sag":
        return sag_init(problem, w0=w0, step=value, first_pass=config.first_pass)
    # full-gradient, the one tag left once check_run has passed it
    w0 = np.zeros(problem.d) if w0 is None else problem._check_point(w0)
    return FullGradientState(step=value, w=w0.copy())


def run_with_state(problem, config: SolverConfig, scheme: SamplingScheme,
                   epochs: int, reference: ReferenceSolution | None = None,
                   record_every: float = 1.0, resume: tuple | None = None):
    """Like run(), but returns (records, state, sampler) so the caller can
    checkpoint where the run stopped."""
    _, value = check_run(problem, config, scheme, epochs, record_every, resume)
    n = problem.n
    f_star = reference.f_star if reference is not None else None
    if f_star is not None and not math.isfinite(f_star):
        raise ValueError(f"reference f_star must be finite, got {f_star}")
    t0 = time.perf_counter()
    records: list[TraceRecord] = []

    full_grad = config.solver == "full-gradient"
    steps_per_epoch = 1 if full_grad else n
    total_steps = epochs * steps_per_epoch
    # past the run's end an interval records the same rows, and cannot overflow
    interval = max(1, round(min(record_every * steps_per_epoch, total_steps)))

    # a fresh run steps its start state; a resumed one measures divergence from it
    start = _build_state(problem, config, value)
    state, sampler = resume if resume is not None else (start, None)
    if sampler is None and not full_grad:
        sampler = IndexSampler(scheme, n)

    def emit():
        point = _monitor_point(state, config)
        objective = problem.full_objective(point)
        sub = objective - f_star if f_star is not None else float("nan")
        gnorm = float(np.linalg.norm(problem.full_gradient(point)))
        records.append(TraceRecord(
            epoch=state.k / steps_per_epoch, objective=objective,
            suboptimality=sub, grad_norm=gnorm,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            solver=config.solver, sampling=scheme.kind, seed=scheme.seed,
        ))
        return sub

    # the divergence baseline is the start row's suboptimality, so a resumed
    # run stops where the uninterrupted one does
    if resume is None:
        baseline = emit()
    else:  # the start row is in the trace the checkpoint came from
        baseline = (problem.full_objective(_monitor_point(start, config)) - f_star
                    if f_star is not None else math.nan)

    if not full_grad:
        # bound once per run, from the module globals as they are when it starts
        sag = isinstance(state, SagState)
        first = sag_first_pass_step if sag else finito_first_pass_step
        step = sag_step if sag else finito_step
        next_index = sampler.next_index

    while state.k < total_steps:
        try:
            if full_grad:
                # as in the table kernel, the state changes only once checked
                g = problem.full_gradient(state.w)
                w = prox_operator(problem.l1_weight, state.w - state.step * g, state.step)
                if not np.all(np.isfinite(w)):
                    raise DivergenceError(f"iterate diverged at step {state.k + 1}",
                                          k=state.k + 1)
                state.w, state.k = w, state.k + 1
            elif state.seen < n:
                first(state, problem, state.seen)
            else:
                step(state, problem, next_index())
        except DivergenceError as err:
            err.records = records
            raise
        if state.k % interval == 0 or state.k == total_steps:
            sub = emit()
            if baseline > 1e-9 and sub > DIVERGENCE_RATIO * baseline:
                raise DivergenceError(
                    f"suboptimality exceeded {DIVERGENCE_RATIO:g} times its "
                    f"starting value at step {state.k}",
                    k=state.k, records=records)
    return records, state, sampler


def run(problem, config: SolverConfig, scheme: SamplingScheme, epochs: int,
        reference: ReferenceSolution | None = None, record_every: float = 1.0,
        resume: tuple | None = None) -> list[TraceRecord]:
    """Drive a solver for `epochs` passes and return its trace.

    Executes the first-pass rule (when the state was initialized for it),
    then scheme-driven steps, one TraceRecord per `record_every` passes.

    Parameters
    ----------
    reference : ReferenceSolution, optional
        Enables the suboptimality column and the divergence ratio guard;
        its f_star must be finite (ValueError otherwise).
    record_every : float
        Record interval in passes (default one row per pass).
    resume : (state, sampler), optional
        Continue a checkpointed run; records are emitted only for new steps.

    Raises DivergenceError (with the partial trace attached) when the iterate
    goes non-finite or suboptimality exceeds 1e6 times its starting value.
    """
    records, _, _ = run_with_state(problem, config, scheme, epochs,
                                   reference=reference,
                                   record_every=record_every, resume=resume)
    return records


# ---------------------------------------------------------------------------
# full-gradient reference solver


def reference_solve(problem) -> ReferenceSolution:
    """High-accuracy minimizer for the suboptimality reference.

    Accelerated proximal gradient (FISTA) at step 1/L, L an upper bound on
    the smoothness of the average f as FISTA needs (problem.
    smoothness_constant(): the largest eigenvalue of the data's Gram matrix,
    never above the mean of the component constants), with gradient-based
    adaptive restart: each iteration evaluates g = full_gradient(y) once and
    sets x+ = prox(y - g/L); momentum resets (t = 1, y = x+) whenever
    (y - x+).(x+ - x) > 0.  With l1 = 0 the prox is the identity.  This needs
    about sqrt(L/s) iterations where plain gradient steps need L/s.

    The loop returns w_star = y as soon as the certificate at y is at most
    1e-12: the gradient norm ||g|| for smooth problems, the proximal
    fixed-point residual ||x+ - y|| with an L1 term.  Raises ValueError when
    REFERENCE_MAX_ITER iterations do not reach it (too ill-conditioned), and
    as soon as an iteration moves no coordinate of y by more than 4 ulps
    (|x+ - y| <= 4 spacing(|y|)): the step has rounded away in floating
    point, and later iterations only wander over the last bits.
    """
    L = problem.smoothness_constant()
    smooth = problem.l1_weight == 0.0
    x = y = np.zeros(problem.d)
    t = 1.0
    cert = np.inf
    for _ in range(REFERENCE_MAX_ITER):
        g = problem.full_gradient(y)
        x_next = prox_operator(problem.l1_weight, y - g / L, 1.0 / L)
        cert = float(np.linalg.norm(g if smooth else x_next - y))
        if cert <= 1e-12:
            return ReferenceSolution(w_star=y, f_star=problem.full_objective(y),
                                     grad_norm_at_solution=cert,
                                     method_tag="accelerated-proximal-gradient")
        if np.all(np.abs(x_next - y) <= 4.0 * np.spacing(np.abs(y))):
            raise ValueError(f"reference solve stalled at certificate "
                             f"{cert:g}: the iterate stopped moving in "
                             f"floating point")
        if float((y - x_next) @ (x_next - x)) > 0.0:
            t, y = 1.0, x_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        x = x_next
    raise ValueError(f"reference solve stalled at certificate {cert:g} "
                     f"after {REFERENCE_MAX_ITER} iterations")
