"""Each seeded solver defect fails a named cheap check, which passes on the
code as it is (mutation analysis, DeMillo, Lipton & Sayward, IEEE Computer
1978).  The mutations come from the method definitions in the Finito paper
(arXiv 1407.2710) and in SAG's (arXiv 1309.2388):

- M2: w divides by 1.1 alpha s seen, not alpha s seen;
- M3: the periodic recompute of the running sum never runs;
- M4: phi row j stores w + 1e-3 g, not w;
- M5: SAG's first pass drops its n/seen step scaling;
- M6: the permuted sampler draws uniformly;
- M7: SAG's step is doubled once the first pass is over.

Each is applied in-process: a module function is patched, or `_fold` is
rebuilt from its source with one replacement that must match exactly once.
"""

import inspect

import numpy as np
import pytest

import finito.cli as cli
import finito.solvers as solvers
from finito import (LOGISTIC, PERMUTED, FiniteSumProblem, IndexSampler,
                    QuadraticProblem, SamplingScheme, sag_init, sag_step)


def rebuild_fold(monkeypatch, old: str, new: str) -> None:
    """Patch solvers._fold with its source edited once, compiled in the
    module's globals, so the step functions call the edited kernel."""
    source = inspect.getsource(solvers._fold)
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), solvers.__file__, "exec"),
         vars(solvers), namespace)
    monkeypatch.setattr(solvers, "_fold", namespace["_fold"])


def lyapunov_passes() -> bool:
    """verify's lyapunov suite at a small size: exit 0, or 3 on a false row."""
    code = cli.main(["verify", "--suite", "lyapunov", "--n", "12", "--d", "3",
                     "--draws", "4"])
    assert code in (0, 3)
    return code == 0


def oracle_passes(tag: str) -> bool:
    """One fixed case of the kernel oracle: three passes from the first pass."""
    pytest.importorskip("hypothesis")
    from test_kernel_oracle import follow_the_oracle
    rng = np.random.default_rng(8)
    problem = FiniteSumProblem(rng.standard_normal((8, 3)),
                               np.sign(rng.standard_normal(8)), LOGISTIC, s=0.5)
    try:
        follow_the_oracle(problem, rng, tag, audit=False, first_pass=True,
                          kind=PERMUTED, alpha=2.0, epochs=3)
    except AssertionError:
        return False
    return True


def permuted_passes_are_permutations() -> bool:
    sampler = IndexSampler(SamplingScheme(PERMUTED, 1), 10)
    return all(sorted(sampler.next_index() for _ in range(10)) == list(range(10))
               for _ in range(3))


def sag_step_hand_value_holds() -> bool:
    # test_sag_step_hand_value on the n=2 desk quadratic of conftest
    desk = QuadraticProblem(centers=[[1.0], [-1.0]])
    state = sag_init(desk, w0=np.ones(1))
    sag_step(state, desk, 0)
    return state.w[0] == 15.0 / 16.0


def m2(monkeypatch):
    monkeypatch.setattr(solvers, "_next_w", lambda state, problem, seen, total:
                        total / -(1.1 * state.alpha * problem.s * seen))


def m3(monkeypatch):
    rebuild_fold(monkeypatch, "recompute = (k + 1) % n == 0", "recompute = False")


def m4(monkeypatch):
    rebuild_fold(monkeypatch, "state.phi_table[j] = w", "state.phi_table[j] = w + 1e-3 * g")


SAG_STEP = "step = state.step * n / seen if first_pass else state.step"


def m5(monkeypatch):
    rebuild_fold(monkeypatch, SAG_STEP, "step = state.step")


def m6(monkeypatch):
    def uniform_block(scheme, n, pass_index):
        rng = np.random.default_rng([scheme.seed, pass_index])
        return rng.integers(0, n, size=n).tolist()
    monkeypatch.setattr(IndexSampler, "_make_block", staticmethod(uniform_block))


def m7(monkeypatch):
    rebuild_fold(monkeypatch, SAG_STEP, SAG_STEP.replace("else state.step",
                                                         "else 2 * state.step"))


# mutation -> the check that catches it
CAUGHT_BY = {
    m2: lyapunov_passes,
    m3: lambda: oracle_passes("finito"),
    m4: lyapunov_passes,
    m5: lambda: oracle_passes("sag"),
    m6: permuted_passes_are_permutations,
    m7: sag_step_hand_value_holds,
}


@pytest.mark.parametrize("mutate", CAUGHT_BY, ids=lambda m: m.__name__.upper())
def test_each_mutation_fails_its_check(monkeypatch, mutate):
    check = CAUGHT_BY[mutate]
    assert check()
    mutate(monkeypatch)
    assert not check()
