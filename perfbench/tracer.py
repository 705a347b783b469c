"""Spans recorded from outside the program, by wrapping the finito functions
and methods a workload calls.

Each span keeps its name, start, end and the span that was open when it
began.  Spans live in flat arrays until the run ends; `SpanTable` then turns
them into durations and self times (duration minus the direct children),
from which `layer_metrics` derives the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).
PER_LAYER = {
    "problems.component_gradient_us": ("us", "lower", "steps_per_s, time_to_tol_s on inner-loop"),
    "problems.component_gradient_p99_us": ("us", "lower", "steps_per_s, time_to_tol_s on inner-loop"),
    "problems.component_gradient_calls": ("count", "lower", "steps_per_s, time_to_tol_s on inner-loop"),
    "problems.full_gradient_us": ("us", "lower", "setup_s on big-n"),
    "problems.full_gradient_calls": ("count", "lower", "setup_s on big-n"),
    "problems.full_objective_us": ("us", "lower", "setup_s on big-n"),
    "problems.full_objective_calls": ("count", "lower", "setup_s on big-n"),
    "problems.table_gradients_us": ("us", "lower", "total_s on verify-lab"),
    "problems.table_gradients_calls": ("count", "lower", "total_s on verify-lab"),
    "problems.self_s": ("s", "lower", "all end-to-end times on every workload"),
    "samplers.next_index_us": ("us", "lower", "steps_per_s on inner-loop"),
    "samplers.draws": ("count", "lower", "steps_per_s on inner-loop"),
    "samplers.self_s": ("s", "lower", "steps_per_s on inner-loop"),
    "solvers.finito_step_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.finito_step_p99_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.sag_step_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.sag_step_p99_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.prox_finito_step_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.prox_finito_step_p99_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.first_pass_step_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.first_pass_step_p99_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.step_self_us": ("us", "lower", "steps_per_s on inner-loop"),
    "solvers.record_emit_us": ("us", "lower", "steps_per_s on big-n"),
    "solvers.records": ("count", "lower", "steps_per_s on big-n"),
    "solvers.reference_solve_s": ("s", "lower", "setup_s on big-n"),
    "solvers.reference_oracle_calls": ("count", "lower", "setup_s on big-n"),
    "solvers.self_s": ("s", "lower", "steps_per_s on inner-loop, setup_s on big-n"),
    "data_io.synth_self_s": ("s", "lower", "setup_s on inner-loop and big-n"),
    "data_io.checkpoint_save_ms": ("ms", "lower", "total_s on inner-loop, peak_rss_mb on big-n"),
    "data_io.checkpoint_load_ms": ("ms", "lower", "total_s on inner-loop, peak_rss_mb on big-n"),
    "data_io.checkpoint_bytes": ("bytes", "lower", "total_s on inner-loop, peak_rss_mb on big-n"),
    "data_io.write_trace_ms": ("ms", "lower", "total_s on inner-loop, peak_rss_mb on big-n"),
    "data_io.self_s": ("s", "lower", "setup_s and total_s on inner-loop and big-n"),
    "theory.inequalities_s": ("s", "lower", "total_s on verify-lab"),
    "theory.lyapunov_s": ("s", "lower", "total_s on verify-lab"),
    "theory.rate_s": ("s", "lower", "total_s on verify-lab"),
    "theory.expected_decrease_check_ms": ("ms", "lower", "total_s on verify-lab"),
    "theory.checks": ("count", "higher", "total_s on verify-lab"),
    "theory.checks_unsatisfied": ("count", "lower", "total_s on verify-lab"),
    "theory.self_s": ("s", "lower", "total_s on verify-lab"),
    "lower_bounds.lowerbound_s": ("s", "lower", "total_s on verify-lab"),
    "lower_bounds.self_s": ("s", "lower", "total_s on verify-lab"),
    "cli.self_ms": ("ms", "lower", "total_s on verify-lab"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced total_s"),
}

_STEP_SPANS = ("solvers.finito_step", "solvers.sag_step",
               "solvers.prox_finito_step", "solvers.first_pass_step")
_SELF_LAYERS = ("problems", "samplers", "solvers", "data_io", "theory",
                "lower_bounds")


def _step_name(args) -> str:
    # run_with_state drives prox-finito through finito_step on a proximal state
    if getattr(args[0], "proximal", False):
        return "solvers.prox_finito_step"
    return "solvers.finito_step"


# (module, attribute, span name); a callable name is applied to the call's
# positional arguments
FUNCTIONS = (
    ("finito.solvers", "finito_step", _step_name),
    ("finito.solvers", "sag_step", "solvers.sag_step"),
    ("finito.solvers", "finito_first_pass_step", "solvers.first_pass_step"),
    ("finito.solvers", "sag_first_pass_step", "solvers.first_pass_step"),
    ("finito.solvers", "run_with_state", "solvers.run"),
    ("finito.solvers", "reference_solve", "solvers.reference_solve"),
    ("finito.data_io", "synth_problem", "data_io.synth_problem"),
    ("finito.data_io", "checkpoint_save", "data_io.checkpoint_save"),
    ("finito.data_io", "checkpoint_load", "data_io.checkpoint_load"),
    ("finito.data_io", "write_trace", "data_io.write_trace"),
    ("finito.theory", "expected_decrease_check", "theory.expected_decrease_check"),
    ("finito.cli", "main", "cli.main"),
)
# the verify suites, found by the suffix of their function name
SUITES = {
    "suite_inequalities": "theory.inequalities",
    "suite_lyapunov": "theory.lyapunov",
    "suite_rate": "theory.rate",
    "suite_lowerbound": "lower_bounds.lowerbound",
}
# (module, class, method, span name)
METHODS = tuple(
    ("finito.problems", "FiniteSumProblem", method, f"problems.{method}")
    for method in ("component_gradient", "full_gradient", "full_objective",
                   "table_gradients")
) + (("finito.samplers", "IndexSampler", "next_index", "samplers.next_index"),)


def _finito_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "finito" or name.startswith("finito."))]


class Patches:
    """Rebinds finito functions and methods; `undo` restores the originals."""

    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, fn, make_wrapper) -> None:
        """Replace every finito module binding of `fn` with its wrapper."""
        wrapper = make_wrapper(fn)
        for mod in _finito_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn, True))

    def method(self, cls, name: str, make_wrapper) -> None:
        own = name in vars(cls)
        original = getattr(cls, name)
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original, own))

    def undo(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


class Tracer:
    """In-memory span store; `wrapper(name)` makes a function wrapper that
    records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrapper(self, name):
        names, parent, start, end, stack = (self.names, self.parent,
                                            self.start, self.end, self._stack)
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = len(names)
                names.append(fixed or name(args))
                parent.append(stack[-1])
                start.append(0.0)
                end.append(0.0)
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[sid] = clock()
                    start[sid] = t0
                    stack.pop()
            return traced
        return make

    def install(self, patches: Patches) -> list[str]:
        """Wrap every traced function and method; returns those not found."""
        missing = []
        for module, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
            else:
                patches.function(fn, self.wrapper(name))
        for suffix, name in SUITES.items():
            fn = _find_suite(suffix)
            if fn is None:
                missing.append(suffix)
            else:
                patches.function(fn, self.wrapper(name))
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is None or not hasattr(cls, method):
                missing.append(f"{module}.{cls_name}.{method}")
            else:
                patches.method(cls, method, self.wrapper(name))
        return missing

    def table(self) -> "SpanTable":
        return SpanTable(self.names, np.frombuffer(self.parent, dtype=np.int64),
                         np.frombuffer(self.start), np.frombuffer(self.end))


def _find_suite(suffix: str):
    for mod in _finito_modules():
        for attr, value in vars(mod).items():
            if attr.endswith(suffix) and callable(value):
                return value
    return None


class SpanTable:
    """Durations and self times of recorded spans, indexed by span id."""

    def __init__(self, names, parent, start, end):
        self.vocab = sorted(set(names))
        index = {name: code for code, name in enumerate(self.vocab)}
        self.codes = np.array([index[name] for name in names], dtype=np.int64)
        self.parent = parent
        self.start = start
        self.dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                               minlength=len(names))
        self.self_time = self.dur - children

    def mask(self, *names) -> np.ndarray:
        codes = [self.vocab.index(name) for name in names if name in self.vocab]
        return np.isin(self.codes, codes)

    def durations(self, *names) -> np.ndarray:
        return self.dur[self.mask(*names)]

    def name(self, i: int) -> str:
        return self.vocab[self.codes[i]]

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        return {name: {"calls": int(m.sum()), "total_s": float(self.dur[m].sum()),
                       "self_s": float(self.self_time[m].sum())}
                for name, m in ((name, self.mask(name)) for name in self.vocab)}

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,name,start_s,duration_s,self_s\n")
            for i in range(len(self.codes)):
                handle.write(f"{i},{self.parent[i]},{self.name(i)},"
                             f"{self.start[i]!r},{self.dur[i]!r},"
                             f"{self.self_time[i]!r}\n")


def _median(values: np.ndarray, scale: float) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _p99(values: np.ndarray, scale: float) -> float:
    return float(np.percentile(values, 99)) * scale if len(values) else 0.0


def _record_emit(t: SpanTable) -> list[float]:
    """Seconds per trace record: the full objective plus the full gradient a
    run evaluates for each record, paired in call order."""
    runs = np.flatnonzero(t.mask("solvers.run"))
    oracle = np.flatnonzero(np.isin(t.parent, runs)
                            & t.mask("problems.full_objective", "problems.full_gradient"))
    pending: dict[int, float] = {}
    emits = []
    for i in oracle:
        run = int(t.parent[i])
        if t.name(i) == "problems.full_objective":
            pending[run] = t.dur[i]
        elif run in pending:
            emits.append(pending.pop(run) + t.dur[i])
    return emits


def layer_metrics(t: SpanTable, checkpoint_bytes: int, checks: int,
                  checks_unsatisfied: int, overhead_s: float) -> dict:
    m = {}
    grad = t.durations("problems.component_gradient")
    m["problems.component_gradient_us"] = _median(grad, 1e6)
    m["problems.component_gradient_p99_us"] = _p99(grad, 1e6)
    m["problems.component_gradient_calls"] = len(grad)
    for op in ("full_gradient", "full_objective", "table_gradients"):
        d = t.durations(f"problems.{op}")
        m[f"problems.{op}_us"] = _median(d, 1e6)
        m[f"problems.{op}_calls"] = len(d)
    draws = t.durations("samplers.next_index")
    m["samplers.next_index_us"] = _median(draws, 1e6)
    m["samplers.draws"] = len(draws)
    for span in _STEP_SPANS:
        d = t.durations(span)
        key = span.split(".", 1)[1]
        m[f"solvers.{key}_us"] = _median(d, 1e6)
        m[f"solvers.{key}_p99_us"] = _p99(d, 1e6)
    m["solvers.step_self_us"] = _median(t.self_time[t.mask(*_STEP_SPANS)], 1e6)
    emits = np.array(_record_emit(t))
    m["solvers.record_emit_us"] = _median(emits, 1e6)
    m["solvers.records"] = len(emits)
    refs = np.flatnonzero(t.mask("solvers.reference_solve"))
    m["solvers.reference_solve_s"] = float(t.dur[refs].sum())
    m["solvers.reference_oracle_calls"] = int(np.sum(
        np.isin(t.parent, refs)
        & t.mask("problems.full_gradient", "problems.full_objective")))
    m["data_io.synth_self_s"] = float(t.self_time[t.mask("data_io.synth_problem")].sum())
    m["data_io.checkpoint_save_ms"] = _median(t.durations("data_io.checkpoint_save"), 1e3)
    m["data_io.checkpoint_load_ms"] = _median(t.durations("data_io.checkpoint_load"), 1e3)
    m["data_io.checkpoint_bytes"] = checkpoint_bytes
    m["data_io.write_trace_ms"] = _median(t.durations("data_io.write_trace"), 1e3)
    for suite in ("inequalities", "lyapunov", "rate"):
        m[f"theory.{suite}_s"] = float(t.durations(f"theory.{suite}").sum())
    m["theory.expected_decrease_check_ms"] = _median(
        t.durations("theory.expected_decrease_check"), 1e3)
    m["theory.checks"] = checks
    m["theory.checks_unsatisfied"] = checks_unsatisfied
    m["lower_bounds.lowerbound_s"] = float(t.durations("lower_bounds.lowerbound").sum())
    m["cli.self_ms"] = float(t.self_time[t.mask("cli.main")].sum()) * 1e3
    for layer in _SELF_LAYERS:
        names = [name for name in t.vocab if name.startswith(layer + ".")]
        m[f"{layer}.self_s"] = float(t.self_time[t.mask(*names)].sum())
    m["trace.overhead_s"] = overhead_s
    return m
