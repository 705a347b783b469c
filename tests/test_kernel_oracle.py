"""Every step of the table solvers against the methods' own definitions.

Before each step the oracle rebuilds the next iterate with no running sum.
It keeps its own tables: the point phi_i at which row i was last evaluated,
and f_i'(phi_i) as the problem evaluates it there (the table op for rows
filled at w0, as the inits fill them, and component_gradient for each
step's row).  Over the m rows seen so far (m = n once the first pass is
over) the next iterate is

- finito (arXiv 1407.2710): mean(phi) - sum_i f_i'(phi_i) / (alpha s m);
- miso (Mairal, arXiv 1402.4419): finito at alpha = L/s;
- prox-finito: the finito point through the soft threshold at l1/(alpha s);
- sag (Schmidt, Le Roux & Bach, arXiv 1309.2388): w - step * sum_i y_i, the
  step scaled by n/m on every first-pass step.

After each step the kernel's iterate must agree with this to within c*n*eps
of the magnitude of the terms.  At every recompute step (k + 1 = 0 mod n) it
must equal, bit for bit, the table map evaluated on the oracle's rows the way
a recompute evaluates it (the audit tables too).  Wherever the oracle's next
iterate is not finite, the step must raise DivergenceError and leave the
state as it was.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from finito import (  # noqa: E402
    LOGISTIC,
    SAMPLING_NAMES,
    SQUARED,
    DivergenceError,
    FiniteSumProblem,
    IndexSampler,
    QuadraticProblem,
    SamplingScheme,
    finito_first_pass_step,
    finito_init,
    finito_step,
    sag_default_step,
    sag_first_pass_step,
    sag_init,
    sag_step,
)

EPS = np.finfo(float).eps
C = 8.0  # the c of the c*n*eps bound

# (tag, audit storage, first pass); sag keeps no audit tables
CASES = [(tag, audit, first_pass)
         for tag in ("finito", "miso", "prox-finito", "sag", "practical sag")
         for audit in ((False, True) if "sag" not in tag else (False,))
         for first_pass in (False, True)]
ARRAYS = ("w", "p_table", "p_sum", "phi_table", "grad_table", "grad_sum")


@st.composite
def problems(draw, l1_weights):
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l1 = draw(st.sampled_from(l1_weights))
    kind = draw(st.sampled_from([LOGISTIC, SQUARED, "quadratic"]))
    if kind == "quadratic":
        return QuadraticProblem(rng.standard_normal((n, d)),
                                weights=rng.uniform(1.0, 4.0, n), l1_weight=l1), rng
    targets = (np.sign(rng.standard_normal(n)) if kind == LOGISTIC
               else rng.standard_normal(n))
    targets[targets == 0.0] = 1.0
    return FiniteSumProblem(rng.standard_normal((n, d)), targets, kind,
                            s=draw(st.sampled_from([0.1, 0.5, 1.0])), l1_weight=l1), rng


def _snapshot(state):
    return ({name: a.tobytes() for name in ARRAYS
             if (a := getattr(state, name, None)) is not None}, state.k, state.seen)


class Oracle:
    """The rows a run has folded in so far, kept apart from the solver."""

    def __init__(self, problem, state, tag, first_pass, w0):
        n, d = problem.n, problem.d
        self.problem, self.tag = problem, tag
        self.sag = "sag" in tag
        self.rate = None if self.sag else state.alpha * problem.s  # alpha*s
        self.phi = np.zeros((n, d)) if first_pass else np.tile(w0, (n, 1))
        self.grad = (np.zeros((n, d)) if first_pass else
                     problem.table_gradients(np.broadcast_to(w0, (n, d))))
        self.seen = 0 if first_pass else n
        self.scale = np.zeros(d)  # largest term magnitude since the recompute

    def fold(self, state, j, recompute):
        """Rows after folding w into row j, the textbook iterate, the
        magnitude of its terms, and the table map in the kernel's order of
        additions: a table sum at a recompute, otherwise one row after
        another in index order from +0.0, which in the first pass is the
        running sum bit for bit (each row lands on a row of zeros)."""
        n, w = self.problem.n, state.w
        phi, grad = self.phi.copy(), self.grad.copy()
        phi[j] = w
        grad[j] = self.problem.component_gradient(j, w)
        m = min(self.seen + 1, n)
        step = None
        if self.sag:
            step = state.step * n / m if self.seen < n else state.step
            z = w - step * grad[:m].sum(axis=0)
            scale = np.abs(w) + step * np.abs(grad[:m]).sum(axis=0)
            rows = grad
        else:
            z = self._prox(phi[:m].mean(axis=0) - grad[:m].sum(axis=0) / (self.rate * m),
                           self.problem.l1_weight / self.rate)
            scale = (np.abs(grad[:m]).sum(axis=0)
                     + self.rate * np.abs(phi[:m]).sum(axis=0)) / (self.rate * m)
            rows = grad - self.rate * phi
        total = rows.sum(axis=0) if recompute else sum(rows[:m], np.zeros(len(w)))
        return (phi, grad, m), z, scale, self._map(w, total, m, step)

    def _map(self, w, total, m, step):
        if self.sag:
            return w - step * total
        return self._prox(total / -(self.rate * m),
                          self.problem.l1_weight * (1.0 / self.rate))

    def _prox(self, z, t):
        if self.tag != "prox-finito" or self.problem.l1_weight == 0.0:
            return z
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


@pytest.mark.parametrize("tag,audit,first_pass", CASES)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(SAMPLING_NAMES),
       alpha=st.sampled_from([2.0, 1.0, 5.0]), epochs=st.integers(1, 3),
       huge=st.booleans())
def test_every_step_matches_the_textbook_iterate(tag, audit, first_pass, data, kind,
                                                 alpha, epochs, huge):
    # only prox-finito steps on an l1 term; the other solvers refuse one
    problem, rng = data.draw(problems([0.0, 0.05] if tag == "prox-finito" else [0.0]))
    follow_the_oracle(problem, rng, tag, audit, first_pass, kind, alpha, epochs, huge)


def follow_the_oracle(problem, rng, tag, audit, first_pass, kind, alpha, epochs,
                      huge=False):
    """Step a fresh state of `tag` on `problem` through `epochs` passes and
    assert each step against the oracle; rng draws w0 and the sampler seed."""
    n = problem.n
    # a huge w0 may overflow in the first pass, where the oracle's map is the
    # kernel's arithmetic bit for bit, so both agree on where the iterate
    # stops being finite; such a draw runs that pass only
    huge = huge and first_pass
    w0 = rng.standard_normal(problem.d) * (2.0**1022 if huge else 1.0)
    if "sag" in tag:
        step = None
        if tag == "practical sag":
            step = sag_default_step(problem, practical=True)
        state = sag_init(problem, w0=w0, step=step, first_pass=first_pass)
        first, step = sag_first_pass_step, sag_step
    else:
        if tag == "miso":
            alpha = problem.lipschitz_constant() / problem.s
        state = finito_init(problem, alpha, w0=w0, audit=audit, first_pass=first_pass,
                            solver_tag=tag)
        first, step = finito_first_pass_step, finito_step
    oracle = Oracle(problem, state, tag, first_pass, w0)
    sampler = IndexSampler(SamplingScheme(kind, int(rng.integers(100))), n)
    steps = n if huge else epochs * n
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(steps):
            in_first_pass = state.seen < n
            recompute = (k + 1) % n == 0
            j = state.seen if in_first_pass else sampler.next_index()
            rows, z, scale, exact = oracle.fold(state, j, recompute)
            if not np.all(np.isfinite(exact)):
                before = _snapshot(state)
                with pytest.raises(DivergenceError):
                    (first if in_first_pass else step)(state, problem, j)
                assert _snapshot(state) == before
                return
            (first if in_first_pass else step)(state, problem, j)
            oracle.phi, oracle.grad, oracle.seen = rows
            if recompute or in_first_pass:
                assert np.array_equal(state.w, exact), (k, state.w, exact)
            if recompute and audit:
                assert np.array_equal(state.phi_table, oracle.phi)
            if not huge:
                oracle.scale = np.maximum(oracle.scale, scale)
                gap = np.abs(state.w - z)
                assert np.all(gap <= C * n * EPS * oracle.scale), (k, gap, oracle.scale)
            if recompute:
                oracle.scale = scale
    assert state.k == steps
