"""The benchmark's workloads: which problems each one generates, which solver
runs it makes, and the suboptimality every run must reach.

Problems are generated from `seed % PROBLEM_SEEDS`, so that every problem a
workload can meet has its reference value recorded in `fstar.json`.  Sampler
seeds use the full workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

PROBLEM_SEEDS = 16


@dataclass(frozen=True)
class ProblemSpec:
    """One `SynthSpec` recipe, minus its seed."""

    key: str
    n: int
    d: int
    loss: str = "logistic"
    beta: float = 2.0
    l1: float = 0.0

    @property
    def signature(self) -> str:
        """Key of this recipe's reference values in fstar.json."""
        return f"{self.loss} n={self.n} d={self.d} beta={self.beta:g} l1={self.l1:g}"


@dataclass(frozen=True)
class SolverRun:
    """A solver run that is checkpointed after `split` epochs, reloaded from
    the checkpoint and resumed to `epochs`."""

    label: str
    problem: str
    solver: str
    sampling: str
    epochs: int
    split: int
    record_every: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problems: tuple[ProblemSpec, ...]
    target: float
    runs: tuple[SolverRun, ...] = ()
    verify: bool = False


_SMALL = ProblemSpec("smooth", n=2000, d=20)
_SMALL_L1 = ProblemSpec("l1", n=2000, d=20, l1=0.001)
_BIG = ProblemSpec("smooth", n=5000, d=50)
_BIG_L1 = ProblemSpec("l1", n=5000, d=50, l1=0.001)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="inner-loop",
        why="n=2000 d=20: per-step overhead (guards, table update, w refresh, "
            "sampler) dominates; reference solves are a small share",
        problems=(_SMALL, _SMALL_L1),
        target=1e-8,
        runs=(
            SolverRun("finito-permuted", "smooth", "finito", "permuted", 12, 6),
            SolverRun("sag-uniform", "smooth", "sag", "uniform", 24, 12),
            SolverRun("prox-finito-permuted", "l1", "prox-finito", "permuted",
                      12, 6),
        ),
    ),
    Workload(
        name="big-n",
        why="n=5000 d=50: the O(n^2 d) reference solves dominate; 2 MB tables "
            "make checkpoints and memory visible",
        problems=(_BIG, _BIG_L1),
        target=1e-4,
        runs=(
            SolverRun("finito-permuted", "smooth", "finito", "permuted", 5, 3,
                      record_every=0.1),
            SolverRun("prox-finito-permuted", "l1", "prox-finito", "permuted",
                      5, 3, record_every=0.1),
        ),
    ),
    Workload(
        name="verify-lab",
        why="finito verify --suite all: the theory lab calls problems in batch "
            "and finito_step in audit mode",
        # the problems `finito verify` generates for its suites at default sizes
        problems=(ProblemSpec("lab", n=40, d=5), ProblemSpec("rate", n=200, d=10)),
        target=1e-4,
        verify=True,
    ),
)}
