"""Command-line contract: exit codes, CSV schemas, reproducibility."""

import argparse
import contextlib
import inspect
import io
import re
import statistics
import subprocess
import sys

import pytest

import finito
import finito.cli as cli
import finito.lower_bounds as lower_bounds
import finito.theory as theory
from finito import CheckReport, TRACE_HEADER


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def rows_without_wall(text):
    out = []
    for line in text.strip().splitlines()[1:]:
        cells = line.split(",")
        out.append(cells[:4] + cells[5:])
    return out


SYNTH = "n=40,d=4,beta=2,seed=3"


# -- run ---------------------------------------------------------------------


def test_run_header_and_exit():
    code, out, err = call(["run", "--synth", SYNTH, "--solver", "finito",
                           "--epochs", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TRACE_HEADER
    # the CSV contract itself, not just whatever TRACE_HEADER says
    assert lines[0] == ("epoch,objective,suboptimality,grad_norm,wall_ms,"
                        "solver,sampling,seed")
    assert len(lines) == 7  # header + epochs 0..5
    last = lines[-1].split(",")
    assert float(last[0]) == 5.0
    assert last[5] == "finito" and last[6] == "uniform" and last[7] == "0"


def test_run_is_deterministic_modulo_wall_clock():
    argv = ["run", "--synth", SYNTH, "--solver", "sag", "--sampling",
            "permuted", "--epochs", "4", "--seed", "7"]
    _, first, _ = call(argv)
    _, second, _ = call(argv)
    assert rows_without_wall(first) == rows_without_wall(second)


def test_run_writes_file(tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, _ = call(["run", "--synth", SYNTH, "--epochs", "2",
                         "--out", str(out_file)])
    assert code == 0 and out == ""
    assert out_file.read_text().splitlines()[0] == TRACE_HEADER


def test_run_record_every():
    code, out, _ = call(["run", "--synth", SYNTH, "--epochs", "2",
                         "--record-every", "0.5"])
    epochs = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
    assert epochs == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_run_without_reference_emits_nan():
    code, out, _ = call(["run", "--synth", SYNTH, "--epochs", "1",
                         "--fstar", "none"])
    assert code == 0
    cells = out.strip().splitlines()[-1].split(",")
    assert cells[2] == "nan"


def test_run_explicit_fstar_literal():
    code, out, _ = call(["run", "--synth", SYNTH, "--epochs", "1",
                         "--fstar", "0.25"])
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[2]) == pytest.approx(float(first[1]) - 0.25, abs=1e-15)


def test_run_reads_libsvm_data(tmp_path):
    data = tmp_path / "toy.libsvm"
    data.write_text("1 1:0.4 2:-0.2\n-1 1:-0.3 2:0.9\n1 2:0.7\n-1 1:0.8\n")
    code, out, _ = call(["run", "--data", str(data), "--loss", "logistic",
                         "--s", "0.1", "--epochs", "3", "--fstar", "auto"])
    assert code == 0
    subopt = [float(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
    assert subopt[-1] <= subopt[0]


# -- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_one():
    assert call(["run", "--synth", SYNTH, "--solver", "sparkle"])[0] == 1
    assert call(["run", "--synth", "n=40,q=1"])[0] == 1
    assert call(["compare", "--synth", SYNTH])[0] == 1  # --configs required
    assert call(["frobnicate"])[0] == 1
    assert call(["run"])[0] == 1  # needs --data or --synth


def test_miso_without_strong_convexity_exits_one(tmp_path):
    data = tmp_path / "toy.libsvm"
    data.write_text("1 1:0.4 2:-0.2\n-1 1:-0.3 2:0.9\n1 2:0.7\n")
    for solver in ("finito", "miso"):
        code, _, err = call(["run", "--data", str(data), "--s", "0",
                             "--solver", solver, "--fstar", "none"])
        assert code == 1
        assert "divides by alpha*s*n" in err


# the exit-1 table names these files in braces; they are written as UTF-8
DATA_FILES = {"huge-l.svm": "1 1:1e200\n-1 1:-3e199 2:1.0\n",
              "stall.svm": "1 1:1e8\n-1 1:7e7\n",
              "three.svm": "1 1:0.5 2:1\n-1 1:-0.3 2:0.2\n1 1:0.1 2:-0.4\n",
              "zero.svm": "1 1:0\n-1 1:0\n1 1:0\n",
              # L = 5e-324 at s = 0 (squared), whose reciprocal overflows
              "tiny.svm": "1 1:2.3e-162\n0 2:2.3e-162\n",
              # U+0661, the Arabic-Indic digit one, is the bytes 0xd9 0xa1
              "non-ascii.svm": "1 1:1\n" * 1000 + "1 1:\u0661\n",
              "nan-label.svm": "nan 1:1\n1 1:2\n",
              "inf-value.svm": "1 1:1e400\n-1 1:2\n",
              "header-9.ckpt": "FINITOCKPT 9\n",
              "finxito.ckpt": "FINITOCKPT 2\nsolver finxito\n"}


# every module that looks reference_solve up
SOLVING_MODULES = (finito.solvers, finito.data_io, cli)


@pytest.fixture
def no_reference_solve(monkeypatch):
    """reference_solve fails the test if called."""
    def refuse(problem):
        pytest.fail("reference_solve was called")
    for module in SOLVING_MODULES:
        monkeypatch.setattr(module, "reference_solve", refuse)


@pytest.fixture
def reference_solves(monkeypatch):
    """The problems reference_solve is called on, in call order."""
    solved = []

    def counted(problem):
        solved.append(problem)
        return real(problem)

    real = finito.solvers.reference_solve
    for module in SOLVING_MODULES:
        monkeypatch.setattr(module, "reference_solve", counted)
    return solved


# the run and compare refusals of the exit-1 table that come from the
# reference solve itself; every other one comes before any reference is solved
AFTER_THE_REFERENCE = {"huge-l-reference", "reference-stall", "zero-l-reference",
                       "tiny-l-reference"}


# each of these once escaped cli.main as a traceback or exited 2 ("diverged")
@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "--synth", "n=10,d=2", "--loss", "hinge"],
                 "invalid choice: 'hinge'", id="unknown-synth-loss"),
    pytest.param(["run", "--synth", "n=10,d=2", "--record-every", "inf"],
                 "record_every must be finite", id="record-every-inf"),
    pytest.param(["run", "--synth", "n=10,d=2", "--alpha", "nan"],
                 "alpha must be finite", id="alpha-nan"),
    pytest.param(["run", "--synth", "n=50,d=5,beta=0"],
                 "target_beta must be finite and > 0", id="synth-beta-0"),
    pytest.param(["run", "--synth", "n=50,d=5,beta=-1"],
                 "target_beta must be finite and > 0", id="synth-beta-negative"),
    # a subnormal s leaves the feature rescaling too few bits to tune L
    pytest.param(["run", "--synth", "n=50,d=5", "--s", "1e-320", "--epochs", "1"],
                 "target beta=2.0 at s=1e-320", id="synth-s-subnormal"),
    pytest.param(["compare", "--synth", "n=50,d=5", "--s", "5e-324", "--configs", "finito"],
                 "target beta=2.0 at s=5e-324", id="compare-synth-s-subnormal"),
    # these step on the smooth part alone; on this problem finito's
    # suboptimality rose from 0.0377 to 0.295 and the run exited 0
    *(pytest.param(["run", "--synth", "n=200,d=10", "--l1", "0.05", "--solver", solver],
                   f"error: {solver} ignores the l1 term (l1 = 0.05); "
                   "use prox-finito or full-gradient\n", id=f"{solver}-l1")
      for solver in ("finito", "sag", "miso")),
    # each of these exited 0 and ignored a setting the solver never reads
    pytest.param(["run", "--synth", "n=50,d=5", "--solver", "finito", "--step", "0.1"],
                 "error: finito ignores step (step = 0.1)", id="finito-step"),
    pytest.param(["run", "--synth", "n=50,d=5", "--solver", "prox-finito",
                  "--step", "practical"],
                 "error: prox-finito ignores --step practical; only sag has one\n",
                 id="prox-finito-sag-practical"),
    pytest.param(["run", "--synth", "n=50,d=5", "--solver", "full-gradient",
                  "--step", "practical"],
                 "error: full-gradient ignores --step practical; only sag has one\n",
                 id="full-gradient-sag-practical"),
    # compare's step= takes what run --step takes, practical included
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs",
                  "sag::step=practical,full-gradient::step=practical"],
                 "error: full-gradient ignores step=practical in config "
                 "'full-gradient::step=practical'; only sag has one\n",
                 id="compare-full-gradient-practical"),
    pytest.param(["run", "--synth", "n=50,d=5", "--solver", "sag", "--step", "fast"],
                 "error: --step 'fast': use practical or a number\n",
                 id="step-not-a-number"),
    pytest.param(["compare", "--synth", "n=50,d=5",
                  "--configs", "finito::step=0.5,sag::alpha=3,miso::alpha=9"],
                 "error: sag ignores alpha (in config 'sag::alpha=3')",
                 id="compare-ignored-settings"),
    *(pytest.param(["compare", "--synth", "n=50,d=5", "--configs", token],
                   f"error: {message}", id=f"compare-{token}")
      for token, message in (("finito::step=0.5", "finito ignores step (step = 0.5)"),
                             ("miso::alpha=9", "miso ignores alpha"),
                             ("full-gradient::alpha=3", "full-gradient ignores alpha"))),
    # run --alpha once exited 0 where the solver never reads alpha
    *(pytest.param(["run", "--synth", "n=50,d=5", "--solver", solver, "--alpha", "3"],
                   f"error: {solver} ignores alpha (--alpha); only finito and "
                   "prox-finito take one\n", id=f"run-{solver}-alpha")
      for solver in ("sag", "full-gradient", "miso")),
    # a single suite once ran, exit 0 and the CSV unchanged, with a flag it
    # never reads
    pytest.param(["verify", "--suite", "rate", "--d", "99", "--beta", "7", "--draws", "3"],
                 "error: verify --suite rate ignores --d\n", id="rate-d-beta-draws"),
    pytest.param(["verify", "--suite", "lowerbound", "--alpha", "9", "--d", "3"],
                 "error: verify --suite lowerbound ignores --d\n", id="lowerbound-alpha-d"),
    *(pytest.param(["verify", "--suite", suite, flag, "3"],
                   f"error: verify --suite {suite} ignores {flag}\n",
                   id=f"{suite}{flag}")
      for suite, flag in (("rate", "--beta"), ("rate", "--draws"),
                          ("lowerbound", "--alpha"), ("lowerbound", "--beta"))),
    pytest.param(["verify", "--suite", "lyapunov", "--beta", "0"],
                 "target_beta must be finite and > 0", id="lyapunov-beta-0"),
    # the rate is certified only inside the admissible region (alpha >= 2 at
    # the suite's beta = 2); outside it there is no claim to pass or fail
    pytest.param(["verify", "--suite", "rate", "--alpha", "1"],
                 "outside the admissible region", id="rate-alpha-1"),
    pytest.param(["verify", "--suite", "rate", "--alpha", "0.5"],
                 "outside the admissible region", id="rate-alpha-0.5"),
    pytest.param(["verify", "--suite", "lyapunov", "--alpha", "1"],
                 "error: (alpha=1.0, beta=2.0) is outside the admissible region\n",
                 id="lyapunov-alpha-1"),
    pytest.param(["verify", "--suite", "lowerbound", "--n", "0"],
                 "n must be >= 1, got 0", id="lowerbound-n-0"),
    # every suite refuses n = 1 with this line, so it does not matter which
    # process, the caller or the forked worker, finishes first
    pytest.param(["verify", "--suite", "all", "--n", "1"],
                 "error: n must be >= 2, got 1\n", id="verify-all-n-1"),
    # the unseen-count law is a verify suite, not a command of its own
    pytest.param(["lowerbound", "--n", "10"], "invalid choice: 'lowerbound'",
                 id="lowerbound-command"),
    # these audited no state and exited 0
    pytest.param(["verify", "--suite", "lyapunov", "--draws", "0"],
                 "draws must be >= 1, got 0", id="lyapunov-draws-0"),
    pytest.param(["verify", "--suite", "lyapunov", "--draws", "-5"],
                 "draws must be >= 1, got -5", id="lyapunov-draws-negative"),
    # alpha = 1e308 is admissible, but the T3 closed form needs alpha^2
    pytest.param(["verify", "--suite", "lyapunov", "--alpha", "1e308"],
                 "alpha^2 overflows", id="lyapunov-alpha-1e308"),
    # each setting has one spelling: these were a second one, which won over
    # the flag (l1=) or left it unread (loss=, s=, compare --alpha)
    *(pytest.param(["run", "--synth", f"n=50,d=5,{key}={value}"],
                   f"error: {key}= is not a synth field; use --{key}\n",
                   id=f"synth-{key}-key")
      for key, value in (("loss", "squared"), ("s", "0.05"), ("l1", "0.01"))),
    pytest.param(["compare", "--synth", "n=50,d=5", "--alpha", "7", "--configs", "sag"],
                 "unrecognized arguments: --alpha 7", id="compare-alpha-flag"),
    pytest.param(["run", "--synth", "n=50,d=5", "--fstar", "fstar.txt"],
                 "error: --fstar 'fstar.txt': use auto, none or a number\n",
                 id="fstar-not-a-number"),
    # a key given twice once kept its last value and exited 0
    pytest.param(["run", "--synth", "n=50,n=40,d=2"],
                 "error: n= given twice in synth spec 'n=50,n=40,d=2'\n",
                 id="synth-key-twice"),
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs", "finito::alpha=3:alpha=4"],
                 "error: alpha= given twice in config 'finito::alpha=3:alpha=4'\n",
                 id="config-key-twice"),
    # a check that walked argv itself read --out's missing value as a second
    # --synth
    pytest.param(["run", "--synth", "n=50,d=5", "--out", "--synth"],
                 "finito run: error: argument --out: expected one argument\n",
                 id="out-without-value"),
    # argparse reads the tokens in order, so the first fault is the one named
    pytest.param(["run", "--synth", "n=50,d=5", "--epochs", "x", "--epochs", "2"],
                 "finito run: error: argument --epochs: invalid int value: 'x'\n",
                 id="bad-value-then-twice"),
    # a prefix of a flag once ran as that flag: compare's --seed 3 as --seeds 3,
    # the median over seeds 0, 1 and 2
    pytest.param(["run", "--synth", "n=50,d=5", "--epo", "1", "--sam", "permuted",
                  "--alp", "3", "--so", "finito"],
                 "finito: error: unrecognized arguments: --epo 1 --sam permuted "
                 "--alp 3 --so finito\n", id="run-abbreviations"),
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs", "finito", "--epochs", "2",
                  "--seed", "3"],
                 "finito: error: unrecognized arguments: --seed 3\n",
                 id="compare-seed-abbreviation"),
    pytest.param(["verify", "--suite", "rate", "--se", "1"],
                 "finito: error: unrecognized arguments: --se 1\n",
                 id="verify-se-abbreviation"),
    # refusals that no other test reached
    pytest.param(["run", "--synth", "n=50,d=5", "--solver", "sag", "--monitor", "table-mean"],
                 "error: table-mean monitoring needs finito audit storage\n",
                 id="sag-table-mean"),
    pytest.param(["run", "--synth", "n=50,d=5", "--epochs", "-1"],
                 "error: epochs must be >= 0, got -1\n", id="epochs-negative"),
    pytest.param(["run", "--synth", "d=5"],
                 "error: synth spec needs at least n= and d=\n", id="synth-without-n"),
    *(pytest.param(["compare", "--synth", "n=50,d=5", "--configs", configs,
                    "--seeds", seeds],
                   f"error: {message}\n", id=f"compare-{configs}-seeds-{seeds}")
      for configs, seeds, message in (
          (",", "1", "no configs given"),
          ("finito", ",", "no seeds given"),
          ("finito", "1,x", "bad integer list '1,x'"),
          ("bogus", "1", "unknown solver 'bogus' in config 'bogus'"),
          ("finito:bogus", "1", "unknown sampling 'bogus' in config 'finito:bogus'"),
          ("finito:uniform:alpha", "1",
           "bad override 'alpha' in config 'finito:uniform:alpha'"),
          # the number parsers once gave Python's own message, naming
          # neither the setting nor the spec
          ("finito", "2x", "bad integer list '2x'"),
          ("finito::alpha=x", "1", "bad override 'alpha=x' in config 'finito::alpha=x'"),
          ("sag::step=x", "1", "bad override 'step=x' in config 'sag::step=x'"))),
    *(pytest.param(["run", "--synth", spec], f"error: bad synth field '{field}'\n",
                   id=f"synth-{field}")
      for spec, field in (("n=x,d=5", "n=x"), ("n=50,d=5,beta=y", "beta=y"))),
    *(pytest.param(["run", "--synth", "n=50,d=5", "--s", s], f"error: {message}\n",
                   id=f"synth-s-{s}")
      for s, message in (("0", "s must be finite and > 0, got 0.0"),
                         ("nan", "s must be finite and > 0, got nan"))),
    # the reference solve steps at the mean of the row constants, which is
    # finite wherever their largest is, and refuses the same data
    pytest.param(["run", "--data", "{huge-l.svm}", "--solver", "finito"],
                 "error: Lipschitz constant overflows: the largest feature magnitude "
                 "is 1e+200 (s = 0.01); rescale the data\n", id="huge-l-reference"),
    # sag, full-gradient and miso need L itself (finito runs without it)
    *(pytest.param(["run", "--data", "{huge-l.svm}", "--fstar", "none", "--solver", solver],
                   "error: Lipschitz constant overflows: the largest feature magnitude "
                   "is 1e+200 (s = 0.01); rescale the data\n", id=f"{solver}-huge-l")
      for solver in ("sag", "full-gradient", "miso")),
    # all-zero features at s = 0 give L = 0, which each of these divided by in
    # a ZeroDivisionError traceback: sag's default step, full-gradient's 1/L,
    # the reference solve's step and compare's check of sag
    *(pytest.param([command, "--data", "{zero.svm}", "--s", "0", *flags, "--epochs", "1"],
                   "error: Lipschitz constant is 0: every feature is 0 and s = 0\n",
                   id=f"zero-l-{name}")
      for command, flags, name in (
          ("run", ["--solver", "sag"], "sag"),
          ("run", ["--solver", "full-gradient"], "full-gradient"),
          ("run", ["--solver", "sag", "--step", "1"], "reference"),
          ("compare", ["--configs", "sag", "--seeds", "1"], "compare-sag"))),
    # L = 5e-324 is not 0, but 1/L overflows: the reference solve's 1/L ended
    # in a ZeroDivisionError traceback (its constant rounded to 0), and sag's
    # default step and full-gradient's 1/L in "step must be finite and > 0"
    *(pytest.param(["run", "--data", "{tiny.svm}", "--loss", "squared", "--s", "0",
                    "--solver", *flags, "--epochs", "1"],
                   "error: Lipschitz constant underflows to 0: the largest feature "
                   "magnitude is 2.3e-162 (s = 0); rescale the data\n", id=f"tiny-l-{name}")
      for flags, name in ((["sag", "--step", "1"], "reference"), (["sag"], "sag"),
                          (["full-gradient"], "full-gradient"))),
    # a byte above 0x7f is refused by the line and column of its token; an
    # ASCII decode of the whole file named only its offset
    pytest.param(["run", "--data", "{non-ascii.svm}", "--fstar", "none"],
                 "error: line 1001, column 3: malformed token '1:\\udcd9\\udca1'\n",
                 id="non-ascii-libsvm"),
    # a non-finite label or value reached the problem, whose refusal named
    # no line
    pytest.param(["run", "--data", "{nan-label.svm}", "--epochs", "1"],
                 "error: line 1, column 1: non-finite label 'nan'\n", id="nan-label-libsvm"),
    pytest.param(["run", "--data", "{inf-value.svm}", "--epochs", "1"],
                 "error: line 1, column 3: non-finite value in token '1:1e400'\n",
                 id="inf-value-libsvm"),
    # a checkpoint's header and solver tag were the refusals without a line
    pytest.param(["run", "--synth", "n=20,d=3", "--epochs", "2", "--resume", "{header-9.ckpt}"],
                 "error: line 1: unsupported checkpoint header 'FINITOCKPT 9' "
                 "(expected 'FINITOCKPT 2')\n", id="checkpoint-header-9"),
    pytest.param(["run", "--synth", "n=20,d=3", "--epochs", "2", "--resume", "{finxito.ckpt}"],
                 "error: line 2: unknown solver tag 'finxito'\n", id="checkpoint-solver-finxito"),
    # with s = 0 the gradient floors near 1e-8, where the step rounds away;
    # sag, since finito refuses s = 0 before any reference is solved
    pytest.param(["run", "--data", "{stall.svm}", "--loss", "squared", "--s", "0",
                  "--solver", "sag"],
                 "the iterate stopped moving in floating point\n", id="reference-stall"),
    # a NaN l1 weight once ran finito and prox-finito without the l1 term
    # (exit 0); a NaN s once diverged (finito) or blamed the data (sag)
    *(pytest.param(["run", "--data", "{three.svm}", "--fstar", "none", "--solver", solver,
                    flag, "nan"], f"error: {name} must be finite and >= 0, got nan\n",
                   id=f"{solver}-{flag[2:]}-nan")
      for solver, flag, name in (("finito", "--l1", "l1_weight"),
                                 ("prox-finito", "--l1", "l1_weight"),
                                 ("finito", "--s", "s"), ("sag", "--s", "s"))),
    # finito steps with w = -p_sum/(alpha*s*n); it refused s = 0 only after a
    # reference solve that stalls on these rows after 500 000 iterations (8 s)
    pytest.param(["run", "--data", "{three.svm}", "--s", "0", "--solver", "finito",
                  "--epochs", "1"],
                 "error: the table update divides by alpha*s*n\n", id="finito-s-0"),
    pytest.param(["compare", "--data", "{three.svm}", "--s", "0", "--configs", "finito",
                  "--seeds", "1", "--epochs", "1"],
                 "error: the table update divides by alpha*s*n\n", id="compare-finito-s-0"),
    # sag takes s = 0, so these were refused only by run_with_state, after the
    # same 8 s stall of the reference solve, which named no flag
    pytest.param(["run", "--data", "{three.svm}", "--s", "0", "--solver", "sag",
                  "--epochs", "-1"],
                 "error: epochs must be >= 0, got -1\n", id="sag-s-0-epochs-negative"),
    pytest.param(["run", "--data", "{three.svm}", "--s", "0", "--solver", "sag",
                  "--record-every", "0"],
                 "error: record_every must be finite and > 0, got 0.0\n",
                 id="sag-s-0-record-every-0"),
    pytest.param(["compare", "--data", "{three.svm}", "--s", "0", "--configs", "sag",
                  "--seeds", "1", "--epochs", "-1"],
                 "error: epochs must be >= 0, got -1\n", id="compare-sag-s-0-epochs-negative"),
    # every seed is checked before the first run: seed 0's trace was written
    # before seed -1 was refused
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs", "finito", "--seeds", "0,-1",
                  "--epochs", "1", "--out-dir", "{traces}"],
                 "error: seed must be >= 0, got -1\n", id="compare-seed-negative"),
    # a generator's seed takes the sampler's rule, not numpy's message
    pytest.param(["run", "--synth", "n=50,d=5,seed=-1"],
                 "error: seed must be >= 0, got -1\n", id="synth-seed-negative"),
    pytest.param(["verify", "--suite", "lowerbound", "--seed", "-1"],
                 "error: seed must be >= 0, got -1\n", id="lowerbound-seed-negative"),
    # a config given twice ran twice, and its second run overwrote the first's
    # --out-dir traces under a repeated column
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs", "finito,sag,finito",
                  "--epochs", "1", "--out-dir", "{traces}"],
                 "error: config 'finito' given twice in --configs 'finito,sag,finito'\n",
                 id="config-twice"),
    # a seed given twice ran twice, rewrote its trace and took the median
    # over copies
    pytest.param(["compare", "--synth", "n=50,d=5", "--configs", "finito",
                  "--seeds", "0,0,0", "--epochs", "1", "--out-dir", "{traces}"],
                 "error: seed 0 given twice in --seeds '0,0,0'\n", id="seed-twice"),
])
def test_invalid_values_exit_one_without_traceback(tmp_path, reference_solves, request,
                                                   argv, message):
    for name, rows in DATA_FILES.items():
        (tmp_path / name).write_text(rows, encoding="utf-8")
    argv = [str(tmp_path / a.strip("{}")) if a.startswith("{") else a for a in argv]
    code, _, err = call(argv)
    assert code == 1
    assert message in err
    assert "Traceback" not in err
    # nothing is left behind: no trace, no --out-dir
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DATA_FILES)
    if argv[0] != "verify":  # the lab solves its own problems' references
        assert bool(reference_solves) == (request.node.callspec.id in AFTER_THE_REFERENCE)


def _flag_occurrences():
    """(command, its flag's occurrences) for every store and store_true flag
    of every subcommand: each spelling as `--flag v` and `--flag=v`, with a
    value the flag takes, or alone for store_true."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command, sub in commands.items():
        for action in sub._actions:
            if isinstance(action, argparse._StoreTrueAction):
                yield command, [[flag] for flag in action.option_strings]
            elif isinstance(action, argparse._StoreAction):
                value = action.choices[0] if action.choices else "1"
                yield command, [occurrence for flag in action.option_strings
                                for occurrence in ([flag, value], [f"{flag}={value}"])]


# a flag given twice once kept its last value and exited 0
@pytest.mark.parametrize("command,occurrences", [
    pytest.param(command, occurrences, id=f"{command}{occurrences[0][0]}")
    for command, occurrences in _flag_occurrences()])
def test_every_flag_given_twice_exits_one(command, occurrences):
    for first in occurrences:
        for second in occurrences:
            code, out, err = call([command, *first, *second])
            flag = second[0].partition("=")[0]
            assert (code, out) == (1, "")
            assert err.endswith(f"\nfinito {command}: error: {flag} given twice\n")
            assert "Traceback" not in err


def test_help_given_twice_prints_the_help():
    # help ends the parse at its first occurrence
    code, out, err = call(["run", "-h", "-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: finito run ")


def test_objective_flags_set_the_synth_problem():
    # --loss and --s once reached --data problems only; a synth problem
    # took them from its spec
    args = cli.build_parser().parse_args(
        ["run", "--synth", "n=60,d=4,noise=0.1", "--loss", "squared",
         "--s", "0.05", "--l1", "0.01"])
    problem = cli._build_problem(args)
    assert (problem.loss, problem.s, problem.l1_weight) == ("squared", 0.05, 0.01)


# --synth once solved a reference whatever --fstar said
@pytest.mark.parametrize("fstar", ["none", "0.25"])
@pytest.mark.parametrize("source", [["--synth", "n=40,d=4"], ["--data", "{three.svm}"]],
                         ids=["synth", "data"])
@pytest.mark.parametrize("command", [
    ["run", "--solver", "sag", "--epochs", "1"],
    ["compare", "--configs", "finito,sag", "--seeds", "2", "--epochs", "1"],
], ids=["run", "compare"])
def test_fstar_none_or_a_number_solves_no_reference(
        tmp_path, no_reference_solve, command, source, fstar):
    (tmp_path / "three.svm").write_text(DATA_FILES["three.svm"])
    source = [str(tmp_path / a.strip("{}")) if a.startswith("{") else a for a in source]
    code, out, err = call([*command, *source, "--fstar", fstar])
    assert (code, err) == (0, "")
    last = out.strip().splitlines()[-1].split(",")
    if command[0] == "run":
        objective, suboptimality = float(last[1]), last[2]
        assert suboptimality == ("nan" if fstar == "none" else repr(objective - 0.25))
    else:  # the median suboptimality of each config
        assert all((cell == "nan") == (fstar == "none") for cell in last[1:])


def test_sag_at_a_given_step_runs_on_zero_data_without_a_reference(
        tmp_path, no_reference_solve):
    # it reads no L, so the zero constant is not refused
    data = tmp_path / "zero.svm"
    data.write_text(DATA_FILES["zero.svm"])
    code, out, err = call(["run", "--data", str(data), "--s", "0", "--solver", "sag",
                           "--step", "1", "--epochs", "1", "--fstar", "none"])
    assert (code, err) == (0, "")
    assert [row[0] for row in rows_without_wall(out)] == ["0.0", "1.0"]


def test_a_large_synth_problem_without_a_reference_solves_none(no_reference_solve):
    code, out, err = call(["run", "--synth", "n=20000,d=50", "--fstar", "none",
                           "--epochs", "0"])
    assert (code, err) == (0, "")
    assert rows_without_wall(out)[0][2] == "nan"


def test_run_solves_the_synth_reference_once_and_writes_the_library_trace(
        reference_solves):
    # the CLI solves the reference synth_problem returns, on the same problem
    code, out, err = call(["run", "--synth", "n=60,d=4,seed=3", "--solver", "sag",
                           "--sampling", "permuted", "--seed", "2", "--epochs", "3",
                           "--fstar", "auto"])
    assert (code, err, len(reference_solves)) == (0, "", 1)
    problem, reference = finito.synth_problem(finito.SynthSpec(n=60, d=4, seed=3))
    records = finito.run(problem, finito.SolverConfig("sag"),
                         finito.SamplingScheme("permuted", 2), 3, reference=reference)
    expected = io.StringIO()
    finito.write_trace(records, expected)
    assert rows_without_wall(out) == rows_without_wall(expected.getvalue())


def test_compare_checks_every_config_before_its_first_run(monkeypatch):
    # prox-finito once ran for every seed before finito's turn refused l1
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[1].solver)
        return real(*args, **kwargs)

    real = cli.run
    monkeypatch.setattr(cli, "run", counted)
    code, out, err = call(["compare", "--synth", "n=2000,d=20", "--l1", "0.01", "--configs",
                           "prox-finito,finito", "--seeds", "3", "--epochs", "5"])
    assert (code, out, runs) == (1, "", [])
    assert err == ("error: finito ignores the l1 term (l1 = 0.01); "
                   "use prox-finito or full-gradient\n")


# each once ran every finito seed, and wrote its traces, before the refusal
@pytest.mark.parametrize("data,configs,message", [
    pytest.param(["--synth", "n=50,d=5"], "finito,sag::step=-1",
                 "step must be finite and > 0, got -1.0", id="sag-step-negative"),
    pytest.param(["--synth", "n=50,d=5"], "finito,full-gradient::step=nan",
                 "step must be finite and > 0, got nan", id="full-gradient-step-nan"),
    pytest.param(["--data", "{huge-l.svm}", "--fstar", "none"], "finito,sag",
                 "Lipschitz constant overflows: the largest feature magnitude is "
                 "1e+200 (s = 0.01); rescale the data", id="sag-default-step-huge-l"),
])
def test_compare_resolves_every_constant_before_its_first_run(
        tmp_path, monkeypatch, data, configs, message):
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[1].solver)
        return real(*args, **kwargs)

    real = cli.run
    monkeypatch.setattr(cli, "run", counted)
    (tmp_path / "huge-l.svm").write_text(DATA_FILES["huge-l.svm"])
    data = [str(tmp_path / a.strip("{}")) if a.startswith("{") else a for a in data]
    out_dir = tmp_path / "traces"
    code, out, err = call(["compare", *data, "--configs", configs, "--seeds", "2",
                           "--epochs", "1", "--out-dir", str(out_dir)])
    assert (code, out, err, runs) == (1, "", f"error: {message}\n", [])
    assert not out_dir.exists()


def test_stalled_reference_solve_exits_one(tmp_path, monkeypatch):
    # with s = 0 these rows have no minimizer; the stall escaped as a
    # RuntimeError traceback after 500 000 iterations
    monkeypatch.setattr(finito.solvers, "REFERENCE_MAX_ITER", 50)
    data = tmp_path / "toy.libsvm"
    data.write_text("1 1:0.4 2:-0.2\n-1 1:-0.3 2:0.9\n1 2:0.7\n")
    code, out, err = call(["run", "--data", str(data), "--s", "0",
                           "--solver", "sag"])
    assert (code, out) == (1, "")
    assert "reference solve stalled" in err and "Traceback" not in err


def test_reference_solve_at_s_zero_uses_the_data_curvature(tmp_path):
    # full column rank: squared loss is strongly convex without the s term
    data = tmp_path / "toy.libsvm"
    data.write_text("1 1:0.4 2:-0.2\n-1 1:-0.3 2:0.9\n1 2:0.7\n")
    code, out, err = call(["run", "--data", str(data), "--loss", "squared",
                           "--s", "0", "--solver", "sag", "--epochs", "1"])
    assert code == 0, err
    # the suboptimality column needs the reference's f_star
    assert float(out.splitlines()[1].split(",")[2]) > 0.0


def test_huge_record_interval_records_the_ends():
    # record_every * n overflowed to inf and round() raised OverflowError
    code, out, err = call(["run", "--synth", SYNTH, "--epochs", "3",
                           "--record-every", "1e308"])
    assert code == 0, err
    assert [row[0] for row in rows_without_wall(out)] == ["0.0", "3.0"]


def test_huge_admissible_alpha_is_checked():
    # alpha = 1e308 is inside the admissible region; deciding so once
    # overflowed in alpha**2
    code, out, err = call(["verify", "--suite", "rate", "--alpha", "1e308",
                           "--n", "25"])
    assert code == 0, err
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_runaway_suboptimality_exits_two_naming_its_step():
    # the ratio guard, not a non-finite value: the trace up to the record
    # past 1e6 times the start's suboptimality, and one stderr line
    code, out, err = call(["run", "--synth", "n=50,d=5,beta=0.01", "--alpha", "0.05",
                           "--epochs", "3"])
    assert code == 2
    assert err == ("diverged: suboptimality exceeded 1e+06 times its starting "
                   "value at step 100\n")
    assert [row[0] for row in rows_without_wall(out)] == ["0.0", "1.0", "2.0"]


def test_divergence_exits_two_with_partial_trace():
    code, out, err = call(["run", "--synth", SYNTH, "--solver",
                           "full-gradient", "--step", "1e9", "--epochs", "4"])
    assert code == 2
    assert "diverged" in err
    lines = out.strip().splitlines()
    assert lines[0] == TRACE_HEADER and len(lines) >= 2


@pytest.mark.parametrize("l1", ["0", "0.01"])
def test_alpha_times_s_underflowing_to_zero_exits_two(l1):
    # alpha*s = 1e-400 rounds to 0.0; prox-finito's threshold step 1/(alpha*s)
    # once escaped cli.main as a ZeroDivisionError traceback at l1 > 0
    code, out, err = call(["run", "--synth", "n=20,d=3", "--solver", "prox-finito",
                           "--alpha", "1e-200", "--s", "1e-200", "--l1", l1,
                           "--fstar", "none", "--epochs", "1"])
    assert code == 2 and out.startswith(TRACE_HEADER + "\n")
    assert err == "diverged: iterate diverged at step 1\n"


# squared losses near 1e400 at w0
HUGE_ROWS = "1e200 1:1e120 2:-2e120\n-1e200 1:3e120\n1e200 2:1e120\n"


@pytest.mark.parametrize("solver", ["finito", "prox-finito", "miso", "sag"])
@pytest.mark.parametrize("first_pass", [True, False])
def test_rows_that_overflow_at_w0_exit_two(tmp_path, solver, first_pass):
    # squared losses near 1e400 at w0: the state built with every row at w0
    # is as non-finite as the first pass's first step, and both are
    # divergence at step 0, not a bad point handed to the objective
    data = tmp_path / "huge.libsvm"
    data.write_text(HUGE_ROWS)
    argv = ["run", "--data", str(data), "--loss", "squared", "--s", "0.5",
            "--epochs", "1", "--fstar", "none", "--solver", solver]
    code, out, err = call(argv + ([] if first_pass else ["--no-first-pass"]))
    assert code == 2 and out.startswith(TRACE_HEADER + "\n")
    if first_pass:
        expected = "non-finite gradient for component 0 at step 0"
    else:
        built = "gradient sum" if solver == "sag" else "iterate"
        expected = f"{built} diverged at step 0"
    assert err == f"diverged: {expected}\n"


def test_overflow_prints_only_the_diverged_line(tmp_path, subprocess_env):
    # numpy's overflow warnings, with the library's source lines, once came
    # before the CLI's own line
    data = tmp_path / "huge.libsvm"
    data.write_text(HUGE_ROWS)
    done = subprocess.run(
        [sys.executable, "-m", "finito", "run", "--data", str(data), "--loss",
         "squared", "--s", "0.5", "--epochs", "1", "--fstar", "none"],
        env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == ("diverged: non-finite gradient for component 0 "
                           "at step 0\n")


def test_a_dense_libsvm_warning_reaches_stderr(tmp_path, subprocess_env):
    # it was a ResourceWarning, which Python's default filters drop, so a
    # run that materialized a huge dense matrix printed nothing
    data = tmp_path / "three.svm"
    data.write_text(DATA_FILES["three.svm"])
    script = ("import sys\n"
              "import finito.cli as cli\n"
              "import finito.data_io\n"
              "finito.data_io.DENSE_WARN_BYTES = 8\n"
              f"sys.exit(cli.main(['run', '--data', {str(data)!r}, "
              "'--fstar', 'none', '--epochs', '1']))\n")
    done = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # one line of the CLI's own, not Python's format with the library's source
    assert done.stderr == ("warning: dense LIBSVM materialization needs 0 MiB "
                           "(3 rows x 2 columns)\n")


def test_verification_failure_exits_three(monkeypatch):
    monkeypatch.setattr(
        cli, "suite_lowerbound",
        lambda **kw: [CheckReport("forced", 1.0, 0.0, False, -1.0)])
    code, out, err = call(["verify", "--suite", "lowerbound"])
    assert code == 3
    assert out.strip().splitlines()[-1] == "forced,1.0,0.0,-1.0,false"
    assert err == "failed: forced: lhs=1.0 rhs=0.0 context=''\n"


def test_a_solver_whose_w_is_not_its_table_map_fails_a_row(monkeypatch):
    # the iterate divides by 1.1 alpha s seen: the lab reports a false
    # map-consistency row (exit 3), not a usage error (exit 1)
    monkeypatch.setattr(
        finito.solvers, "_next_w",
        lambda state, problem, seen, total:
            total / -(1.1 * state.alpha * problem.s * seen))
    code, out, err = call(["verify", "--suite", "lyapunov", "--n", "12",
                           "--d", "3", "--draws", "4"])
    assert code == 3
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {row[4] for row in rows if row[0] == "map-consistency"} == {"false"}
    # stderr names the first false row in CSV order, with its context
    first = next(row for row in rows if row[4] == "false")
    assert err == (f"failed: {first[0]}: lhs={first[1]} rhs={first[2]} "
                   "context='all rows at w0'\n")
    assert first[0] == "initial-potential"


# -- verify ----------------------------------------------------------------------


def test_a_failed_write_keeps_the_old_output(monkeypatch, tmp_path):
    # the CSV is ASCII: a row that cannot be encoded fails the write, and the
    # file it was to replace stays as it was
    monkeypatch.setattr(
        cli, "suite_lowerbound",
        lambda **kw: [CheckReport("\u00fcber", 1.0, 0.0, True, 1.0)])
    out_file = tmp_path / "verify.csv"
    out_file.write_bytes(b"name,lhs,rhs,slack,satisfied\nold,1.0,1.0,0.0,true\n")
    before = out_file.read_bytes()
    code, out, err = call(["verify", "--suite", "lowerbound",
                           "--out", str(out_file)])
    assert (code, out) == (1, "")
    assert err.startswith("error: 'ascii' codec can't encode")
    assert out_file.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["verify.csv"]


@pytest.mark.parametrize("suite,flags", [
    ("inequalities", ["--draws", "25", "--n", "25", "--d", "3"]),
    ("lyapunov", ["--draws", "40", "--n", "25", "--d", "3"]),
    ("rate", ["--n", "50"]),
    ("lowerbound", []),
    # n = 1 was refused, and a radius from the sample's spread exited 3
    # at n = 2 on most seeds
    ("lowerbound", ["--n", "1"]),
    ("lowerbound", ["--n", "2"]),
])
def test_verify_suites_pass(suite, flags):
    code, out, _ = call(["verify", "--suite", suite] + flags)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,lhs,rhs,slack,satisfied"
    assert len(lines) > 1
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize("suite", ["lowerbound", "all"])
def test_verify_at_n_40_passes(suite):
    # at n = 40 the k = 1 count has zero spread; a row judged by that
    # spread alone exited 3 on a rounding error of 7.1e-15
    code, out, _ = call(["verify", "--suite", suite, "--n", "40"])
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_verify_all_runs_every_suite():
    # some suite reads each flag, so --suite all refuses none
    code, out, err = call(["verify", "--suite", "all", "--draws", "10",
                           "--n", "25", "--d", "3", "--beta", "2", "--alpha", "3"])
    assert code == 0, err
    names = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert {"smoothness-upper", "expected-decrease", "rate-bound",
            "oracle-floor"} <= names


def test_verify_passes_a_suite_only_the_flags_given(monkeypatch):
    # the suite's keyword defaults are the only ones; --seed once passed 0
    settings = []
    monkeypatch.setattr(cli, "suite_rate", lambda **kw: settings.append(kw) or [])
    assert call(["verify", "--suite", "rate"])[0] == 0
    assert call(["verify", "--suite", "rate", "--seed", "4", "--alpha", "3"])[0] == 0
    assert settings == [{}, {"seed": 4, "alpha": 3.0}]


def test_verify_flags_are_the_suites_keywords():
    # each flag and its type once had a hand-written copy beside the suites
    want = {}
    for suite in (theory.suite_inequalities, theory.suite_lyapunov,
                  theory.suite_rate, lower_bounds.suite_lowerbound):
        for name, param in inspect.signature(suite).parameters.items():
            want[name] = type(param.default)
    verify = next(action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices["verify"]
    flags = [action for action in verify._actions
             if action.dest not in ("help", "suite", "out")]
    assert {action.dest: action.type for action in flags} == want
    assert [action.option_strings for action in flags] == [[f"--{name}"] for name in want]
    assert all(action.default is None for action in flags)


# -- compare ---------------------------------------------------------------------


def test_compare_aggregate_schema():
    code, out, _ = call(["compare", "--synth", SYNTH, "--epochs", "3",
                         "--seeds", "3",
                         "--configs", "finito:uniform,sag:permuted"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epoch,finito-uniform,sag-permuted"
    assert len(lines) == 5
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0, 2.0, 3.0]


def test_compare_reports_divergent_cells():
    code, out, err = call(["compare", "--synth", SYNTH, "--epochs", "3",
                           "--seeds", "2",
                           "--configs",
                           "finito:uniform,full-gradient:uniform:step=1e9"])
    assert code == 0
    assert "diverged" in err
    last = out.strip().splitlines()[-1].split(",")
    assert last[2] == "inf"


def test_compare_out_dir_traces(tmp_path):
    out_dir = tmp_path / "traces"
    code, _, _ = call(["compare", "--synth", SYNTH, "--epochs", "2",
                       "--seeds", "2", "--configs", "finito:permuted",
                       "--out-dir", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["finito-permuted-seed0.csv", "finito-permuted-seed1.csv"]
    for p in out_dir.iterdir():
        assert p.read_text().splitlines()[0] == TRACE_HEADER


def _counted_runs(monkeypatch):
    # the (solver, seed) of every cli.run call
    runs = []

    def counted(*args, **kwargs):
        runs.append((args[1].solver, args[2].seed))
        return real(*args, **kwargs)

    real = cli.run
    monkeypatch.setattr(cli, "run", counted)
    return runs


def test_compare_runs_a_seed_free_config_once(tmp_path, monkeypatch):
    # cyclic sampling draws no random number and full-gradient no index, so
    # compare once ran each of them again for every seed, to the same trace
    runs = _counted_runs(monkeypatch)
    out_dir = tmp_path / "traces"
    code, out, err = call(["compare", "--synth", "n=50,d=5", "--configs",
                           "finito:cyclic,full-gradient,finito", "--seeds", "3",
                           "--epochs", "2", "--out-dir", str(out_dir)])
    assert (code, err) == (0, "")
    assert runs == [("finito", 0), ("full-gradient", 0),
                    ("finito", 0), ("finito", 1), ("finito", 2)]
    # every trace is the library's run at its own seed, wall_ms apart, and
    # the CSV their median suboptimality per epoch
    problem, reference = finito.synth_problem(finito.SynthSpec(n=50, d=5))
    columns = []
    for label, solver, sampling in (("finito-cyclic", "finito", "cyclic"),
                                    ("full-gradient", "full-gradient", "uniform"),
                                    ("finito", "finito", "uniform")):
        subs = []
        for seed in range(3):
            records = finito.run(problem, finito.SolverConfig(solver),
                                 finito.SamplingScheme(sampling, seed), 2,
                                 reference=reference)
            expected = io.StringIO()
            finito.write_trace(records, expected)
            written = (out_dir / f"{label}-seed{seed}.csv").read_text()
            assert rows_without_wall(written) == rows_without_wall(expected.getvalue())
            subs.append([r.suboptimality for r in records])
        columns.append([statistics.median(at) for at in zip(*subs)])
    assert out.splitlines() == ["epoch,finito-cyclic,full-gradient,finito"] + [
        ",".join(map(repr, [float(e), *cells])) for e, cells in enumerate(zip(*columns))]


def test_compare_reports_a_seed_free_divergence_for_every_seed(monkeypatch):
    runs = _counted_runs(monkeypatch)
    code, out, err = call(["compare", "--synth", SYNTH, "--epochs", "3", "--seeds", "0,4,7",
                           "--configs", "full-gradient:uniform:step=1e9"])
    assert (code, runs) == (0, [("full-gradient", 0)])
    lines = err.splitlines()
    assert [line.split(" diverged: ")[0] for line in lines] == [
        f"full-gradient-uniform-step=1e9 seed {seed}" for seed in (0, 4, 7)]
    assert len(set(line.split(" diverged: ")[1] for line in lines)) == 1
    assert out.strip().splitlines()[-1].split(",")[1] == "inf"


def test_compare_step_practical_is_run_step_practical(tmp_path):
    # a config's step= once took a number alone, so sag's practical step was
    # run --step practical's spelling only
    code, _, _ = call(["compare", "--synth", SYNTH, "--epochs", "2", "--seeds", "1",
                       "--configs", "sag::step=practical", "--out-dir", str(tmp_path)])
    assert code == 0
    _, out, _ = call(["run", "--synth", SYNTH, "--epochs", "2", "--solver", "sag",
                      "--step", "practical"])
    assert (rows_without_wall((tmp_path / "sag--step=practical-seed0.csv").read_text())
            == rows_without_wall(out))
    _, default, _ = call(["run", "--synth", SYNTH, "--epochs", "2", "--solver", "sag"])
    assert rows_without_wall(default) != rows_without_wall(out)


def test_compare_rejects_bad_config_token():
    assert call(["compare", "--synth", SYNTH,
                 "--configs", "finito:uniform:gamma=1"])[0] == 1


# -- checkpoint flow ----------------------------------------------------------------


def test_cli_save_and_resume_stitches_exactly(tmp_path):
    ck = tmp_path / "state.ckpt"
    part1 = tmp_path / "part1.csv"
    base = ["--synth", SYNTH, "--solver", "finito", "--sampling", "permuted",
            "--seed", "5"]
    _, full, _ = call(["run", *base, "--epochs", "6"])
    code, _, _ = call(["run", *base, "--epochs", "3",
                       "--save-state", str(ck), "--out", str(part1)])
    assert code == 0
    code, tail, _ = call(["run", *base, "--epochs", "6", "--resume", str(ck)])
    assert code == 0
    stitched = rows_without_wall(part1.read_text()) + rows_without_wall(tail)
    assert stitched == rows_without_wall(full)


# each once exited 0 and ran on at the checkpoint's own setting, and
# --save-state wrote the checkpoint's step, alpha or scheme
N50 = ["--synth", "n=50,d=5"]


@pytest.mark.parametrize("start,resume,message", [
    pytest.param([*N50, "--solver", "sag"], [*N50, "--solver", "sag", "--step", "1e-3"],
                 "sag resumes at step 0.0050000000048 from its checkpoint, not 0.001",
                 id="sag-step"),
    # practical is sag's 1/(Ln), 16 times the analysed default
    pytest.param([*N50, "--solver", "sag", "--step", "practical"], [*N50, "--solver", "sag"],
                 "sag resumes at step 0.0800000000768 from its checkpoint, "
                 "not 0.0050000000048", id="sag-step-practical"),
    pytest.param(N50, [*N50, "--alpha", "7"],
                 "finito resumes at alpha 2.0 from its checkpoint, not 7.0",
                 id="finito-alpha"),
    pytest.param([*N50, "--sampling", "permuted", "--seed", "4"],
                 [*N50, "--sampling", "cyclic"],
                 "finito resumes at sampling SamplingScheme(kind='permuted', seed=4) "
                 "from its checkpoint, not SamplingScheme(kind='cyclic', seed=0)",
                 id="sampling"),
    # miso's alpha is L/s, here n/beta: 25, then 12.5
    pytest.param([*N50, "--solver", "miso"],
                 ["--synth", "n=50,d=5,beta=4", "--solver", "miso"],
                 "miso resumes at alpha 24.99", id="miso-alpha"),
    # full-gradient's default step is 1/L, here beta/(n s) = 4; its state
    # once held no step, and the resume ran on at 0.5
    pytest.param([*N50, "--solver", "full-gradient"],
                 [*N50, "--solver", "full-gradient", "--step", "0.5"],
                 "full-gradient resumes at step 4.00000000384 from its checkpoint, "
                 "not 0.5", id="full-gradient-step"),
    # the first pass draws no index: 100 steps in, its stream is at draw 50,
    # where a run without it would be at draw 100
    pytest.param(N50, [*N50, "--no-first-pass"],
                 "finito resumes at draw 50 from its checkpoint, not 100",
                 id="no-first-pass"),
])
def test_resume_refuses_settings_that_contradict_its_checkpoint(
        tmp_path, start, resume, message):
    ck, saved = tmp_path / "start.ckpt", tmp_path / "saved.ckpt"
    base = ["run", "--fstar", "none"]
    assert call([*base, *start, "--epochs", "2", "--save-state", str(ck)])[0] == 0
    code, out, err = call([*base, *resume, "--epochs", "3", "--resume", str(ck),
                           "--save-state", str(saved)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.endswith("; resume with the settings it started with\n")
    assert not saved.exists()
    # the flags it started with resume it
    code, _, err = call([*base, *start, "--epochs", "3", "--resume", str(ck)])
    assert code == 0, err


def test_resume_contradicting_its_checkpoint_exits_before_a_reference(
        tmp_path, no_reference_solve):
    # the refusal once came after the reference solve it made pointless
    ck = tmp_path / "sag.ckpt"
    assert call(["run", *N50, "--solver", "sag", "--epochs", "2", "--fstar", "none",
                 "--save-state", str(ck)])[0] == 0
    code, out, err = call(["run", *N50, "--solver", "sag", "--step", "1e-3", "--epochs", "3",
                           "--fstar", "auto", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert err.startswith("error: sag resumes at step 0.0050000000048 from its "
                          "checkpoint, not 0.001")


@pytest.mark.parametrize("flags,message", [
    pytest.param(["--solver", "sag"], "resume state is for 'finito', config says 'sag'",
                 id="sag"),
    # a compact checkpoint holds no phi table to take the mean of
    pytest.param(["--monitor", "table-mean"],
                 "table-mean monitoring needs finito audit storage", id="table-mean"),
])
def test_resume_refuses_what_its_checkpoint_cannot_run(tmp_path, flags, message):
    ck = tmp_path / "finito.ckpt"
    assert call(["run", *N50, "--epochs", "1", "--save-state", str(ck)])[0] == 0
    code, out, err = call(["run", *N50, *flags, "--epochs", "2", "--resume", str(ck)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_resume_past_the_run_end_exits_one_before_a_reference(tmp_path, no_reference_solve):
    # it once exited 0, wrote a header-only trace and saved the checkpoint
    # unchanged; resuming at the run's end still takes no step
    ck4, ck2 = tmp_path / "4.ckpt", tmp_path / "2.ckpt"
    assert call(["run", *N50, "--epochs", "4", "--fstar", "none",
                 "--save-state", str(ck4)])[0] == 0
    code, out, err = call(["run", *N50, "--epochs", "2", "--resume", str(ck4),
                           "--save-state", str(ck2)])
    assert (code, out, err) == (1, "", "error: finito resumes at step 200 from its "
                                "checkpoint, past the run's end at step 100 (epochs = 2)\n")
    assert not ck2.exists()
    code, out, err = call(["run", *N50, "--epochs", "4", "--fstar", "none",
                           "--resume", str(ck4), "--save-state", str(ck2)])
    assert (code, out, err) == (0, TRACE_HEADER + "\n", "")
    assert ck2.read_text() == ck4.read_text()


def test_resume_without_its_sampler_exits_one_before_a_reference(tmp_path,
                                                                 no_reference_solve):
    # a library checkpoint saved with no sampler once resumed with the index
    # stream restarted at draw 0, exited 0 and ended at another w
    ck = tmp_path / "finito.ckpt"
    problem = cli._build_problem(cli.build_parser().parse_args(
        ["run", "--synth", "n=50,d=5,seed=1"]))
    _, state, _ = finito.run_with_state(problem, finito.SolverConfig(),
                                        finito.SamplingScheme("uniform", 3), 2)
    finito.checkpoint_save(state, ck)
    assert "sampling none\n" in ck.read_text()
    code, out, err = call(["run", "--synth", "n=50,d=5,seed=1", "--seed", "3",
                           "--epochs", "4", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert err == ("error: finito resumes at step 100 without the index stream "
                   "it drew from (sampling none); save the checkpoint with its "
                   "sampler\n")


# (flags the epoch-0 checkpoint is saved with, flags it is resumed with, the
# refusal or None). Both settings stand at draw 0 there, so only the seen
# count tells them apart: each mixed resume once exited 0 and printed the
# other setting's trajectory, or one neither run follows
@pytest.mark.parametrize("saved,resumed,message", [
    pytest.param(["--no-first-pass"], ["--no-first-pass"], None, id="no-first-pass"),
    pytest.param([], [], None, id="first-pass"),
    pytest.param([], ["--no-first-pass"],
                 "finito resumes at seen 0 from its checkpoint, not 40", id="dropped"),
    pytest.param(["--no-first-pass"], [],
                 "finito resumes at seen 40 from its checkpoint, not 0", id="added"),
])
def test_resume_without_first_pass_from_epoch_zero(tmp_path, saved, resumed, message):
    # a no-first-pass checkpoint at k = 0 < n already has seen == n
    ck = tmp_path / "state.ckpt"
    part1 = tmp_path / "part1.csv"
    base = ["--synth", SYNTH, "--solver", "finito", "--sampling", "permuted", "--seed", "5"]
    code, _, _ = call(["run", *base, *saved, "--epochs", "0",
                       "--save-state", str(ck), "--out", str(part1)])
    assert code == 0
    code, tail, err = call(["run", *base, *resumed, "--epochs", "2", "--resume", str(ck)])
    if message is not None:
        assert (code, tail, err) == (1, "", f"error: {message}; resume with the "
                                     "settings it started with\n")
        return
    assert code == 0, err
    _, full, _ = call(["run", *base, *resumed, "--epochs", "2"])
    stitched = rows_without_wall(part1.read_text()) + rows_without_wall(tail)
    assert stitched == rows_without_wall(full)


def test_resume_from_checkpoint_without_w_exits_one(tmp_path):
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", "finito", "--sampling", "permuted",
            "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "3", "--save-state", str(ck)])
    assert code == 0
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(l for l in lines if not l.startswith("vec w ")) + "\n")
    code, _, err = call(["run", *base, "--epochs", "6", "--resume", str(ck)])
    assert code == 1
    assert "line 9: expected 'vec w', found 'vec p_sum'" in err


def test_resume_from_audit_checkpoint_in_the_gradient_table_layout_exits_one(tmp_path):
    # audit checkpoints once held phi and gradient tables, with their sums,
    # in place of the p table, under the same header; such a file lacks the
    # p arrays every finito state reads w from, and is refused where the
    # layout expects its p_sum
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", "finito", "--monitor", "table-mean",
            "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "2", "--save-state", str(ck)])
    assert code == 0
    head, *blocks = re.split(r"(?m)^(?=vec |table |END$)", ck.read_text())
    parts = {" ".join(block.split()[:2]): block for block in blocks}
    old = (head + parts["vec w"] + parts["vec p_sum"].replace("vec p_sum", "vec phi_sum")
           + parts["vec p_sum"].replace("vec p_sum", "vec grad_sum")
           + parts["table phi"] + parts["table p"].replace("table p", "table grad")
           + parts["END"])
    assert old.startswith("FINITOCKPT 2\n") and "\ntable grad 40\n" in old
    ck.write_text(old)
    code, out, err = call(["run", *base, "--epochs", "4", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert "line 10: expected 'vec p_sum', found 'vec phi_sum'" in err
    assert "Traceback" not in err


def test_resume_from_audit_checkpoint_with_a_phi_sum_line_exits_one(tmp_path):
    # audit checkpoints once also held the phi table's running sum, under the
    # same header; the table-mean monitor now sums the table itself
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", "finito", "--monitor", "table-mean",
            "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "2", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert "\ntable phi 40\n" in text and "phi_sum" not in text
    p_sum = re.search(r"(?m)^vec p_sum .*\n", text).group()
    ck.write_text(text.replace(p_sum, p_sum + p_sum.replace("vec p_sum", "vec phi_sum")))
    code, out, err = call(["run", *base, "--epochs", "4", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: line \d+: expected 'table p', found 'vec phi_sum'\n", err)


@pytest.mark.parametrize("solver", ["finito", "prox-finito", "miso"])
def test_table_mean_checkpoint_resumes_under_either_monitor(tmp_path, solver):
    # the checkpoint's arrays, not the monitor, are a resumed run's storage:
    # audit tables saved by a table-mean run resume under --monitor iterate;
    # only prox-finito steps on an l1 term
    l1 = ["--l1", "0.01"] if solver == "prox-finito" else []
    base = ["--synth", "n=40,d=4,beta=2,seed=3", *l1, "--solver", solver,
            "--sampling", "permuted", "--seed", "5"]
    ck, whole = tmp_path / "mid.ckpt", tmp_path / "whole.ckpt"
    assert call(["run", *base, "--monitor", "table-mean", "--epochs", "4",
                 "--save-state", str(whole)])[0] == 0
    assert call(["run", *base, "--monitor", "table-mean", "--epochs", "2",
                 "--save-state", str(ck)])[0] == 0
    assert "table phi 40" in ck.read_text()
    for monitor in ("iterate", "table-mean"):
        end = tmp_path / f"{monitor}.ckpt"
        code, _, err = call(["run", *base, "--monitor", monitor, "--epochs", "4",
                             "--resume", str(ck), "--save-state", str(end)])
        assert code == 0, err
        assert end.read_text() == whole.read_text()


# the tag alone says proximal and the arrays alone say audit: a checkpoint
# has no `line` saying either, and one with an `edited` line added is refused
@pytest.mark.parametrize("solver,line,edited,message", [
    pytest.param("finito", "proximal 0", "proximal 1",
                 "line 3: expected 'alpha', found 'proximal'",
                 id="finito-proximal 0-proximal 1"),
    pytest.param("prox-finito", "proximal 1", "proximal 0",
                 "line 3: expected 'alpha', found 'proximal'",
                 id="prox-finito-proximal 1-proximal 0"),
    pytest.param("prox-finito", "audit 1", "audit 0",
                 "line 3: expected 'alpha', found 'audit'",
                 id="prox-finito-audit 1-audit 0"),
])
def test_resume_from_checkpoint_contradicting_its_tag_exits_one(
        tmp_path, solver, line, edited, message):
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", solver, "--seed", "5"]
    if line == "audit 1":
        base += ["--monitor", "table-mean"]
    code, _, _ = call(["run", *base, "--epochs", "2", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert f"\n{line}\n" not in text
    tag = f"\nsolver {solver}\n"
    assert tag in text
    ck.write_text(text.replace(tag, f"{tag}{edited}\n"))
    code, out, err = call(["run", *base, "--epochs", "4", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert message in err


def test_resume_from_checkpoint_with_nan_alpha_exits_one(tmp_path):
    # such a checkpoint once loaded and then "diverged" (exit 2)
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", "finito", "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "2", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert "\nalpha 2.0\n" in text
    ck.write_text(text.replace("\nalpha 2.0\n", "\nalpha nan\n"))
    code, out, err = call(["run", *base, "--epochs", "4", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert "alpha must be finite and > 0, got nan" in err
    assert "Traceback" not in err


def test_resume_from_checkpoint_with_negative_k_exits_one(tmp_path):
    # a no-first-pass checkpoint has seen == n from k = 0 on; edited to a
    # negative k it once loaded and resumed at a negative epoch
    ck = tmp_path / "state.ckpt"
    base = ["--synth", SYNTH, "--solver", "finito", "--no-first-pass",
            "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "0", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert "\nk 0\n" in text
    ck.write_text(text.replace("\nk 0\n", "\nk -25\n"))
    code, out, err = call(["run", *base, "--epochs", "1", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert "k=-25 seen=40: need k >= 0" in err
    assert "Traceback" not in err


def test_resume_full_gradient_checkpoint_with_negative_k_exits_one(tmp_path):
    # the full-gradient state once had no counter rule: edited to k -3 it
    # resumed at epoch -2 and exited 0
    ck = tmp_path / "state.ckpt"
    base = ["--synth", "n=20,d=3", "--solver", "full-gradient", "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "2", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert "\nk 2\n" in text
    ck.write_text(text.replace("\nk 2\n", "\nk -3\n"))
    code, out, err = call(["run", *base, "--epochs", "3", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert "counter k=-3: need k >= 0" in err
    assert "Traceback" not in err


def test_resume_full_gradient_checkpoint_without_a_step_exits_one(tmp_path):
    # the full-gradient layout before its state held the step: the same
    # header, no step line
    ck = tmp_path / "state.ckpt"
    base = ["--synth", "n=20,d=3", "--solver", "full-gradient", "--seed", "5"]
    assert call(["run", *base, "--epochs", "2", "--save-state", str(ck)])[0] == 0
    lines = ck.read_text().splitlines()
    assert lines[:2] == ["FINITOCKPT 2", "solver full-gradient"]
    assert lines[2].startswith("step ")
    ck.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    code, out, err = call(["run", *base, "--epochs", "3", "--resume", str(ck)])
    assert (code, out, err) == (1, "", "error: line 3: expected 'step', found 'k'\n")


def test_resume_from_checkpoint_with_huge_n_exits_one(tmp_path):
    # such a file once sized a 10^14-row table from its own n line and died
    # with a MemoryError traceback
    ck = tmp_path / "state.ckpt"
    base = ["--synth", "n=20,d=5", "--solver", "finito", "--seed", "5"]
    code, _, _ = call(["run", *base, "--epochs", "1", "--save-state", str(ck)])
    assert code == 0
    text = ck.read_text()
    assert "\ntable p 20\n" in text
    ck.write_text(text.replace("\ntable p 20\n", "\ntable p 100000000000000\n"))
    code, out, err = call(["run", *base, "--epochs", "2", "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert "table 'p' has 100000000000000 rows, expected n=20" in err
    assert "Traceback" not in err


# a checkpoint of an n=40, d=4 problem: the rows of its table or the entries
# of its vectors do not match the problem's
@pytest.mark.parametrize("synth,message", [
    pytest.param("n=41,d=4,beta=2,seed=3", "table 'p' has 40 rows, expected n=41",
                 id="n=41,d=4,beta=2,seed=3-dimension mismatch: n"),
    pytest.param("n=40,d=5,beta=2,seed=3", "expected 5 entries, found 4",
                 id="n=40,d=5,beta=2,seed=3-dimension mismatch: d"),
])
def test_resume_against_a_problem_of_another_shape_exits_one(
        tmp_path, synth, message):
    ck = tmp_path / "state.ckpt"
    code, _, _ = call(["run", "--synth", SYNTH, "--epochs", "1",
                       "--save-state", str(ck)])
    assert code == 0
    code, out, err = call(["run", "--synth", synth, "--epochs", "2",
                           "--resume", str(ck)])
    assert (code, out) == (1, "")
    assert message in err


# each request needs more than 2^47 bytes (128 TiB) at once, so the
# allocation fails under any overcommit policy without touching memory; each
# once escaped cli.main as a MemoryError traceback
@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--data", "{huge.libsvm}", "--fstar", "none"],
                 id="libsvm-index-1e14"),
    pytest.param(["compare", "--synth", "n=20,d=3", "--configs", "finito",
                  "--seeds", "1000000000000000"], id="compare-seeds-1e15"),
    pytest.param(["run", "--synth", "n=1000000000,d=1000000"],
                 id="synth-n-1e9-d-1e6"),
])
def test_request_too_big_to_allocate_exits_one(tmp_path, argv):
    data = tmp_path / "huge.libsvm"
    data.write_text("1 100000000000000:1\n-1 1:0.5\n")
    argv = [str(data) if a == "{huge.libsvm}" else a for a in argv]
    # the dense matrix is far past DENSE_WARN_BYTES, and says so first
    with (pytest.warns(UserWarning, match="dense LIBSVM materialization")
          if "--data" in argv else contextlib.nullcontext()):
        code, out, err = call(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("fstar", ["inf", "-inf", "nan"])
def test_non_finite_fstar_exits_one(command, fstar):
    # --fstar inf once exited 0 with -inf in every suboptimality cell, and
    # nan gave the NaN column of --fstar none
    argv = [command, "--synth", SYNTH, "--epochs", "1", f"--fstar={fstar}"]
    if command == "compare":
        argv += ["--configs", "finito", "--seeds", "1"]
    code, out, err = call(argv)
    assert (code, out) == (1, "")
    assert "reference f_star must be finite" in err


@pytest.mark.parametrize("module", ["finito", "finito.cli"])
def test_module_execution_runs_the_cli(module, subprocess_env):

    def python_m(*args):
        return subprocess.run([sys.executable, "-m", module, *args],
                              env=subprocess_env,
                              capture_output=True, text=True, timeout=120)

    argv = ["verify", "--suite", "lowerbound", "--n", "4"]
    done = python_m(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == call(argv)[1]
    assert python_m("verify").returncode == 1  # --suite is required
    # Python's crash status is 1 too: main's refusal is its one stderr line
    done = python_m("run", "--synth", "n=50,d=5", "--l1", "0.01")
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: finito ignores the l1 term (l1 = 0.01); use prox-finito or "
               "full-gradient\n")
