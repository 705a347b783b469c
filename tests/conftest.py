"""Shared fixtures: the two-component desk quadratic and cached synthetic problems,
a time limit on every test, plus the platform guard of the golden-digest tests.

The desk problem f_1(w) = (1/2)(w-1)^2, f_2(w) = (1/2)(w+1)^2 has s = L = 1,
minimizer 0, and f* = 1/2, so every hand-derived value in the tests is an
exact dyadic rational.
"""

import hashlib
import os
import signal
from pathlib import Path

import numpy as np
import pytest

import finito
from finito import QuadraticProblem, SynthSpec, synth_problem


# no test takes more than a few seconds; a solver loop whose counter never
# reaches its end would otherwise hang the suite
TEST_SECONDS = 60


class TimeLimitExceeded(BaseException):
    """No Exception, so no handler in the code under test catches it, and
    not one hypothesis takes for a failing example: it would shrink by
    running the example again, past the one alarm."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run TEST_SECONDS, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(*_):
        raise TimeLimitExceeded(f"the test ran longer than {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def desk():
    return QuadraticProblem(centers=[[1.0], [-1.0]])


@pytest.fixture(scope="session")
def synth_small():
    """n=40 logistic problem with a tight reference; shared, do not mutate."""
    return synth_problem(SynthSpec(n=40, d=5, target_beta=2.0, seed=0))


@pytest.fixture(scope="session")
def synth_tiny():
    return synth_problem(SynthSpec(n=20, d=3, target_beta=2.0, seed=1))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def subprocess_env():
    """The environment for a child `python` that imports this finito."""
    src = str(Path(finito.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# golden digests


def sha_prefix(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()[:16]


def arithmetic_digest() -> str:
    """The numpy/BLAS primitives the recorded numbers rest on."""
    rng = np.random.default_rng([2024])
    x = rng.standard_normal((12, 3))
    w = rng.standard_normal(3)
    grid = np.linspace(-40.0, 40.0, 801)
    parts = [x @ w, np.array([float(row @ w) for row in x]), x.T @ (x @ w),
             np.tanh(grid), np.array([float(np.tanh(t)) for t in grid]),
             np.logaddexp(0.0, grid), x.sum(axis=0),
             np.einsum("ij,ij->i", x, x), np.array([np.linalg.norm(w)])]
    return sha_prefix(*(p.tobytes() for p in parts))


def skip_unless_same_arithmetic(recorded: dict) -> dict:
    """Golden digests are only comparable on a platform whose floating-point
    primitives round like the recording platform's; skip elsewhere. The CI
    workflow finds this skip in the -rs summary by its reason's last words."""
    if recorded["arithmetic"] != arithmetic_digest():
        pytest.skip("this platform's numpy/BLAS primitives round differently "
                    "from the ones the digests were recorded with")
    return recorded
