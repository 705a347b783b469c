"""`finito verify --suite all` runs the suites besides rate in a forked
worker when the machine has a CPU to spare; what it prints and its exit code
must not depend on whether it has one.  A lost worker would block the
caller's read of its pipe forever; conftest's time limit fails such a test."""

import contextlib
import io
import multiprocessing.connection
import os
import pickle
import signal
import struct
import subprocess
import sys
import time

import pytest

import finito.cli as cli
import finito.solvers
from finito import CheckReport, DivergenceError


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def on_cpus(monkeypatch, cpus, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return call(argv)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_worker_only(action):
    """A suite stand-in that runs `action` in a forked worker and fails the
    test if it is called in this process."""
    caller = os.getpid()

    def suite(**_):
        assert os.getpid() != caller, "suite ran in the calling process"
        return action()
    return suite


def test_csv_is_the_same_on_one_and_two_cpus(monkeypatch):
    # the golden digests pin --suite all at its default sizes on both paths;
    # --n 40 also shrinks the rate and lower-bound suites
    argv = ["verify", "--suite", "all", "--n", "40"]
    serial = on_cpus(monkeypatch, 1, argv)
    parallel = on_cpus(monkeypatch, 2, argv)
    assert serial[0] == 0, serial[2]
    assert parallel == serial
    assert_no_child_left()


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "1"), ("--alpha", "1e308"), ("--draws", "0"), ("--n", "0"),
    # rate fails in the caller with d=10 too, but inequalities comes first
    ("--n", "1"),
    # no feature scale meets beta = 2 at n = 2
    ("--n", "2"),
])
def test_errors_are_the_same_on_one_and_two_cpus(monkeypatch, flag, value):
    argv = ["verify", "--suite", "all", flag, value]
    serial = on_cpus(monkeypatch, 1, argv)
    parallel = on_cpus(monkeypatch, 2, argv)
    assert serial[0] == 1 and "error: " in serial[2]
    assert parallel == serial
    assert_no_child_left()


def test_divergence_in_a_worker_exits_two(monkeypatch):
    def diverge():
        raise DivergenceError("blew up in a worker", j=3, k=7)
    monkeypatch.setattr(cli, "suite_lyapunov", in_worker_only(diverge))
    code, out, err = on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert (code, out, err) == (2, "", "diverged: blew up in a worker\n")
    assert_no_child_left()


def test_violated_check_in_a_worker_exits_three(monkeypatch):
    bad = CheckReport(name="stand-in", lhs=1.0, rhs=0.0, satisfied=False,
                      slack=-1.0)
    monkeypatch.setattr(cli, "suite_lowerbound", in_worker_only(lambda: [bad]))
    code, out, _ = on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert code == 3
    assert out.splitlines()[-1] == "stand-in,1.0,0.0,-1.0,false"
    assert_no_child_left()


def test_the_first_failed_check_is_the_same_on_one_and_two_cpus(monkeypatch):
    # lyapunov runs in the worker and rate in the caller; stderr names the
    # first unsatisfied row in CSV order, wherever its suite ran
    def failing(name, context):
        return lambda **_: [CheckReport(f"{name}-holds", 0.0, 1.0, True, 1.0),
                            CheckReport(name, 2.0, 1.0, False, -1.0, context)]
    monkeypatch.setattr(cli, "suite_inequalities", lambda **_: [])
    monkeypatch.setattr(cli, "suite_lyapunov", failing("lyapunov-row", "step=3"))
    monkeypatch.setattr(cli, "suite_rate", failing("rate-row", "k=1"))
    monkeypatch.setattr(cli, "suite_lowerbound", lambda **_: [])
    argv = ["verify", "--suite", "all"]
    serial = on_cpus(monkeypatch, 1, argv)
    parallel = on_cpus(monkeypatch, 2, argv)
    assert serial[0] == 3
    assert serial[2] == "failed: lyapunov-row: lhs=2.0 rhs=1.0 context='step=3'\n"
    assert parallel == serial
    assert_no_child_left()


def test_a_worker_that_dies_without_a_result_exits_one(monkeypatch):
    monkeypatch.setattr(cli, "suite_inequalities",
                        in_worker_only(lambda: os._exit(7)))
    code, out, err = on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert (code, out) == (1, "")
    assert err == ("error: the worker running suite inequalities, lyapunov, "
                   "lowerbound exited without a result (exit code 7)\n")
    assert_no_child_left()


def test_a_result_cut_short_reads_as_no_result(monkeypatch):
    # a worker killed while it writes leaves half a frame in the pipe
    def send_half(connection, obj):
        payload = pickle.dumps(obj)
        os.write(connection.fileno(), struct.pack("!i", len(payload))
                 + payload[:len(payload) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        send_half)
    code, out, err = on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert (code, out) == (1, "")
    assert err == ("error: the worker running suite inequalities, lyapunov, "
                   "lowerbound exited without a result (exit code -9)\n")
    assert_no_child_left()


def test_a_result_that_cannot_be_sent_exits_one_without_a_traceback(
        subprocess_env):
    # a lambda cannot be pickled, so the worker cannot send this exception
    script = ("import os, sys\n"
              "import finito.cli as cli\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "def suite(**_):\n"
              "    raise ValueError(lambda: None)\n"
              "cli.suite_lyapunov = suite\n"
              "sys.exit(cli.main(['verify', '--suite', 'all', '--n', '40']))\n")
    done = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: the worker running suite inequalities, "
                           "lyapunov, lowerbound exited without a result "
                           "(exit code 1)\n")


def test_the_worker_is_ended_when_the_caller_raises(monkeypatch):
    def interrupt(**_):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "suite_rate", interrupt)
    monkeypatch.setattr(cli, "suite_inequalities",
                        in_worker_only(lambda: time.sleep(60)))
    with pytest.raises(KeyboardInterrupt):
        on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert_no_child_left()


def test_more_spare_cpus_still_fork_one_worker(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    code, _, err = on_cpus(monkeypatch, 4, ["verify", "--suite", "all"])
    assert code == 0, err
    assert forks == [1]
    assert_no_child_left()


def test_the_caller_keeps_the_rate_suite(monkeypatch):
    # a wrapper of run_with_state in this process (as the benchmark installs)
    # sees every solver run of the rate suite
    seen = []
    original = finito.solvers.run_with_state

    def counted(*args, **kwargs):
        seen.append(os.getpid())
        return original(*args, **kwargs)
    monkeypatch.setattr(finito.solvers, "run_with_state", counted)
    code, _, _ = on_cpus(monkeypatch, 2, ["verify", "--suite", "all"])
    assert code == 0
    assert seen == [os.getpid()] * 5


@pytest.mark.parametrize("setup", ["one-cpu", "no-affinity", "one-suite"])
def test_no_fork_without_a_spare_cpu_or_a_second_suite(monkeypatch, setup):
    def refuse():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", refuse)
    argv = ["verify", "--suite", "lowerbound" if setup == "one-suite" else "all"]
    if setup == "no-affinity":  # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        code, _, err = call(argv)
    else:
        code, _, err = on_cpus(monkeypatch, 1 if setup == "one-cpu" else 2, argv)
    assert code == 0, err
