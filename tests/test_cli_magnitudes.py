"""Data of any magnitude a double can hold, through every solver: `finito
run` exits 0 or 2, or 1 only with a message that asks to rescale the data.

Each example is a small LIBSVM file with features ~10^a and targets ~10^b,
a and b drawn from 0-307, run with and without the first pass.  Where the
Lipschitz constant L, SAG's default step 1/(16Ln) or miso's alpha = L/s
leaves the double range, SAG and full-gradient used to exit 1 blaming a
step of 0.0 and miso an alpha of inf, flags the user never set."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import finito.cli as cli  # noqa: E402
from finito import SOLVER_TAGS  # noqa: E402

RANGE_MESSAGE = "; rescale the data\n"


@st.composite
def libsvm_texts(draw):
    """(loss, text) of an n x d file, n in 2-5 and d in 1-3."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    a, b = draw(st.integers(0, 307)), draw(st.integers(0, 307))
    loss = draw(st.sampled_from(("squared", "logistic")))
    digits = st.integers(-9, 9)
    lines = []
    for _ in range(n):
        label = (draw(st.sampled_from((-1, 1))) if loss == "logistic"
                 else f"{draw(digits)}e{b}")
        cells = " ".join(f"{j + 1}:{draw(digits)}e{a}" for j in range(d))
        lines.append(f"{label} {cells}\n")
    return loss, "".join(lines)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("magnitudes") / "data.svm"


@settings(max_examples=50, derandomize=True, deadline=None)
@given(case=libsvm_texts())
# L = 1e308 + s is finite, but 16 L n and L/s are not
@example(case=("squared", "0 1:0e154\n0 1:1e154\n"))
def test_any_magnitude_exits_with_a_contract_code(data_path, case):
    loss, text = case
    data_path.write_text(text, encoding="ascii")
    for solver in SOLVER_TAGS:
        for first_pass in ([], ["--no-first-pass"]):
            argv = ["run", "--data", str(data_path), "--loss", loss,
                    "--s", "0.5", "--epochs", "2", "--fstar", "none",
                    "--solver", solver, *first_pass]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, text)
            if code == 1:
                assert err.getvalue().endswith(RANGE_MESSAGE), (
                    argv, text, err.getvalue())
