"""One pass of a workload, its correctness checks and its failure accounting.

A pass generates the workload's problems (the set-up), then makes its solver
runs, each checkpointed partway and resumed, or runs `finito verify --suite
all` through the CLI.  Every finito call goes through a module attribute
looked up at call time, so the wrappers the tracer installs see it.

Times are reported in nominal seconds.  The machine the benchmark was
written on switches, for seconds to tens of seconds at a time, between its
full speed and a mode about 1.7x slower, so raw wall times of the same work
differ by up to that factor from one run to the next.  A fixed calibration
kernel therefore reads the machine's pace at the start and end of every timed
interval (a synth call, a solver run segment, a checkpoint save or load, a
trace write, a verify call) and, from a timer signal, every SAMPLE_S inside
it.  An interval's wall time, less the time spent calibrating inside it, is
divided by the mean pace read over it, to the power SENSITIVITY.  Raw wall
times are kept next to the scaled ones in the result file.  Traced passes
take no readings inside intervals, so that none lands inside a span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import PROBLEM_SEEDS, SolverRun, Workload

FSTAR_PATH = Path(__file__).resolve().parent / "fstar.json"
FSTAR_RTOL = 1e-12
ALPHA = 2.0

# calibration kernel time at full speed on a 2-vCPU Intel Xeon virtual
# machine; it only sets the scale of nominal seconds
NOMINAL_KERNEL_S = 4.4e-3
# pace reading interval inside timed intervals
SAMPLE_S = 0.25
# The workloads slow down less than the kernel: their parts take about the
# kernel's slowdown to this power longer (least-squares fit over the parts of
# ten runs of inner-loop and big-n on that machine).
SENSITIVITY = 0.85
_KERNEL_ROWS = np.random.default_rng(0).standard_normal((256, 50))


def calibration_kernel() -> float:
    """Wall seconds of a fixed mix of interpreter work, small-vector numpy
    calls and a 256x50 matrix-vector product, like the workloads' own."""
    t0 = time.perf_counter()
    acc = np.zeros(50)
    for i in range(1200):
        row = _KERNEL_ROWS[i & 255]
        acc = acc + (float(row @ acc) * 1e-9) * row + 1e-6 * row
        if i % 50 == 0:
            acc = acc + 1e-9 * (_KERNEL_ROWS.T @ (_KERNEL_ROWS @ acc))
    return time.perf_counter() - t0


class Pace:
    """Readings of how much slower than nominal the machine runs: each the
    median of three calibration kernels, over NOMINAL_KERNEL_S.  `spent`
    adds up the wall seconds spent taking them."""

    def __init__(self):
        self.spent = 0.0
        self.readings: list[float] = []
        self.sample = True  # read the pace inside intervals too
        self.open = 0       # intervals open; the outermost owns the timer
        self.measure()

    def measure(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.readings.append(statistics.median(
            calibration_kernel() for _ in range(3)) / NOMINAL_KERNEL_S)
        self.spent += time.perf_counter() - t0

    @contextmanager
    def interval(self):
        """Time the body; on exit the yielded Interval holds its wall time
        less calibration, and the mean pace read from its start to its end.
        With `sample` on, the pace is also read every SAMPLE_S inside it."""
        span = Interval()
        first, spent = len(self.readings) - 1, self.spent
        owner = self.sample and self.open == 0
        self.open += 1
        if owner:
            previous = signal.signal(signal.SIGALRM, self.measure)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.gross = time.perf_counter() - t0
            span.wall = span.gross - (self.spent - spent)
            self.open -= 1
            if owner:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.measure()
            span.pace = statistics.fmean(self.readings[first:])


@dataclass
class Interval:
    gross: float = 0.0  # wall seconds, calibration included
    wall: float = 0.0   # wall seconds, calibration left out
    pace: float = 1.0

    @property
    def nominal(self) -> float:
        return self.wall / self.pace ** SENSITIVITY


def load_finito(root: Path):
    """Import finito from root/src only; None when those sources are absent."""
    package = root / "src" / "finito"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    import finito
    import finito.cli  # noqa: F401  (binds finito.cli for the verify lab)
    if Path(finito.__file__).resolve().parent != package.resolve():
        return None
    return finito


def load_fstar() -> dict:
    """Recorded reference values: problem signature -> hex f_star per problem seed."""
    return json.loads(FSTAR_PATH.read_text(encoding="ascii"))


def synth(fi, spec, problem_seed: int):
    return fi.synth_problem(fi.SynthSpec(
        n=spec.n, d=spec.d, loss=spec.loss, target_beta=spec.beta,
        seed=problem_seed, l1_weight=spec.l1))


class Ledger:
    """Attempted and failed operations; each failure is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.tracebacks: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @contextmanager
    def operation(self, name: str):
        """Count one operation; an exception inside it marks it failed and ends it."""
        self.attempted += 1
        outcome = _Outcome()
        try:
            yield outcome
        except Exception as err:  # a failed operation must not stop the workload
            outcome.ok = False
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            self.tracebacks.append(traceback.format_exc())


class _Outcome:
    ok = True


@dataclass
class Segment:
    """One run_with_state call: its trace, the steps it took and its nominal
    seconds.  `clock` turns the run's own wall_ms, which includes any
    calibration inside the call, into nominal milliseconds."""

    records: list
    steps: int
    seconds: float
    clock: float = 1.0


class RunProbe:
    """Wrapper for run_with_state that keeps a Segment per call."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.segments: list[Segment] = []

    def __call__(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            resume = signature.bind(*args, **kwargs).arguments.get("resume")
            k0 = resume[0].k if resume is not None else 0
            with self.pace.interval() as span:
                records, state, sampler = fn(*args, **kwargs)
            self.segments.append(Segment(
                records, state.k - k0, span.nominal,
                span.nominal / span.gross))
            return records, state, sampler
        return probed


@dataclass
class Session:
    """Everything the passes of one benchmark run share."""

    fi: object
    workload: Workload
    seed: int
    workdir: Path
    fstar: dict
    ledger: Ledger = field(default_factory=Ledger)
    pace: Pace = field(default_factory=Pace)

    def __post_init__(self):
        self.probe = RunProbe(self.pace)

    @property
    def problem_seed(self) -> int:
        return self.seed % PROBLEM_SEEDS


@dataclass
class PassResult:
    """What one pass did and how long it took, in nominal seconds.

    Every pass of a workload repeats the same parts on the same inputs.
    """

    setup_s: float = 0.0
    steps: int = 0
    parts: dict = field(default_factory=dict)      # part -> nominal seconds
    raw_parts: dict = field(default_factory=dict)  # part -> wall seconds
    pace: dict = field(default_factory=dict)       # part -> pace read over it
    run_s: dict = field(default_factory=dict)      # run -> solver seconds
    run_ttt: dict = field(default_factory=dict)    # run -> time to target
    checkpoint_bytes: int = 0
    checks: int = 0
    checks_unsatisfied: int = 0
    problems: dict = field(default_factory=dict)   # key -> (problem, reference)
    traces: dict = field(default_factory=dict)     # run label -> records

    @property
    def total_s(self) -> float:
        return sum(self.parts.values())

    @property
    def steps_per_s(self) -> float:
        solver_s = sum(self.run_s.values())
        return self.steps / solver_s if solver_s > 0 else 0.0

    @property
    def time_to_tol_s(self) -> float:
        return sum(self.run_ttt.values())


@contextmanager
def _part(session: Session, result: PassResult, name: str):
    """Time one part of the pass in nominal seconds."""
    with session.pace.interval() as span:
        yield
    result.raw_parts[name] = span.wall
    result.pace[name] = span.pace
    result.parts[name] = span.nominal


def time_to_target(segments: list[Segment], target: float) -> float | None:
    """Nominal solver seconds until suboptimality first reaches `target`.

    Segments of one run are laid end to end, so checkpoint I/O between them
    is not counted.  The crossing is interpolated log-linearly between the
    two records around it; None when no record reaches the target.
    """
    offset = 0.0
    prev = None
    for seg in segments:
        for rec in seg.records:
            t = offset + rec.wall_ms / 1e3 * seg.clock
            sub = rec.suboptimality
            if sub <= target:
                if prev is None or sub <= 0.0:
                    return t
                t_prev, sub_prev = prev
                frac = math.log(sub_prev / target) / math.log(sub_prev / sub)
                return t_prev + frac * (t - t_prev)
            prev = (t, sub)
        offset += seg.seconds
    return None


def _account(session: Session, result: PassResult, label: str,
             segments: list[Segment]) -> None:
    """Steps, nominal solver seconds and time to target of one run."""
    result.steps += sum(seg.steps for seg in segments)
    result.run_s[label] = sum(seg.seconds for seg in segments)
    target = session.workload.target
    hit = time_to_target(segments, target)
    if session.ledger.check(f"target {label}", hit is not None,
                            f"suboptimality never reached {target:g}"):
        result.run_ttt[label] = hit


def _config(fi, run: SolverRun, problem, seed: int):
    config = fi.SolverConfig(solver=run.solver, alpha=ALPHA,
                             w0=np.zeros(problem.d))
    return config, fi.SamplingScheme.from_name(run.sampling, seed)


def run_pass(session: Session) -> PassResult:
    """Set up the workload's problems, then run its job once."""
    result = PassResult()
    for spec in session.workload.problems:
        with session.ledger.operation(f"synth {spec.key}"), \
                _part(session, result, f"synth {spec.key}"):
            result.problems[spec.key] = synth(session.fi, spec,
                                              session.problem_seed)
    result.setup_s = result.total_s
    _check_references(session, result)
    if session.workload.verify:
        _verify_lab(session, result)
    else:
        _solver_runs(session, result)
    return result


def _check_references(session: Session, result: PassResult) -> None:
    seed = session.problem_seed
    for spec in session.workload.problems:
        if spec.key not in result.problems:
            continue
        recorded = session.fstar.get(spec.signature, [])
        if seed >= len(recorded):
            session.ledger.check(f"f_star {spec.key}", False,
                                 f"no value recorded for problem seed {seed}")
            continue
        want = float.fromhex(recorded[seed])
        got = result.problems[spec.key][1].f_star
        rel = abs(got - want) / abs(want)
        session.ledger.check(f"f_star {spec.key}", rel <= FSTAR_RTOL,
                             f"{got!r} vs recorded {want!r} (relative {rel:.3g})")


def _solver_runs(session: Session, result: PassResult) -> None:
    fi, ledger = session.fi, session.ledger
    for run in session.workload.runs:
        if run.problem not in result.problems:
            ledger.check(f"run {run.label}", False, "problem was not generated")
            continue
        problem, reference = result.problems[run.problem]
        segments = session.probe.segments
        with ledger.operation(f"run {run.label}") as op:
            config, scheme = _config(fi, run, problem, session.seed)
            with _part(session, result, f"{run.label} head"):
                head, state, sampler = fi.run_with_state(
                    problem, config, scheme, run.split, reference=reference,
                    record_every=run.record_every)
            path = session.workdir / f"{run.label}.ckpt"
            with _part(session, result, f"{run.label} save"):
                fi.checkpoint_save(state, path, sampler)
            result.checkpoint_bytes += path.stat().st_size
            with _part(session, result, f"{run.label} load"):
                resumed = fi.checkpoint_load(path, problem)
            with _part(session, result, f"{run.label} tail"):
                tail, _, _ = fi.run_with_state(
                    problem, config, scheme, run.epochs, reference=reference,
                    record_every=run.record_every, resume=resumed)
            with _part(session, result, f"{run.label} write"):
                fi.write_trace(head + tail,
                               session.workdir / f"{run.label}.csv")
            result.traces[run.label] = head + tail
        if op.ok:
            _account(session, result, run.label, segments[-2:])


def _verify_lab(session: Session, result: PassResult) -> None:
    ledger = session.ledger
    out = session.workdir / "verify.csv"
    first = len(session.probe.segments)
    with ledger.operation("verify") as op, _part(session, result, "verify"):
        code = session.fi.cli.main(["verify", "--suite", "all", "--seed",
                                    str(session.problem_seed), "--out", str(out)])
    if not op.ok or not ledger.check("verify exit code", code == 0,
                                      f"exit code {code}"):
        return
    rows = out.read_text(encoding="ascii").splitlines()[1:]
    result.checks = len(rows)
    result.checks_unsatisfied = sum(not row.endswith(",true") for row in rows)
    ledger.check("verify rows", bool(rows) and result.checks_unsatisfied == 0,
                 f"{result.checks_unsatisfied} of {len(rows)} rows unsatisfied")
    segments = session.probe.segments[first:]
    ledger.check("verify solver runs", bool(segments),
                 "no solver run seen inside verify")
    for i, seg in enumerate(segments):
        _account(session, result, f"verify run {i}", [seg])


def _trace_key(records) -> list[tuple]:
    """Every trace field bit for bit, apart from wall_ms."""
    return [(r.epoch.hex(), r.objective.hex(), r.suboptimality.hex(),
             r.grad_norm.hex(), r.solver, r.sampling, r.seed) for r in records]


def check_resume(session: Session, last: PassResult) -> None:
    """Rerun each solver run without interruption and compare it with the
    checkpointed and resumed trace of the last pass."""
    for run in session.workload.runs:
        resumed = last.traces.get(run.label)
        if resumed is None:
            continue  # the run itself already failed and was counted
        problem, reference = last.problems[run.problem]
        with session.ledger.operation(f"uninterrupted {run.label}"):
            config, scheme = _config(session.fi, run, problem, session.seed)
            whole = session.fi.run(problem, config, scheme, run.epochs,
                                   reference=reference,
                                   record_every=run.record_every)
            session.ledger.check(
                f"resume {run.label}", _trace_key(whole) == _trace_key(resumed),
                "resumed trace differs from the uninterrupted one")
