"""Command-line front end: run solvers, compare configurations, and verify
the convergence analysis and the sampling lower bound.

Exit codes: 0 success, 1 usage or input errors (a request too large to
allocate included), 2 divergence, 3 one or more verification checks
unsatisfied, the first named on stderr.  Every command is deterministic
given its flags; the wall_ms trace column is the single exception.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .data_io import (SynthSpec, _format_float as _fmt, _open_text,
                      checkpoint_load, checkpoint_save, parse_libsvm,
                      synth_problem, write_trace)
from .lower_bounds import suite_lowerbound
from .problems import (FiniteSumProblem, LOGISTIC, LOSS_KINDS,
                       ReferenceSolution)
from .samplers import SAMPLING_NAMES, SamplingScheme
from .solvers import (DivergenceError, MONITORS, SOLVER_TAGS, SolverConfig,
                      check_config, reference_solve, run, run_with_state,
                      sag_default_step)
from .theory import suite_inequalities, suite_lyapunov, suite_rate


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1.  A flag is
    its full name, given once, where argparse takes a prefix or the last."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        names = [arg.split("=", 1)[0] for arg in
                 (sys.argv[1:] if args is None else args)]
        for flag in self._option_string_actions:
            if names.count(flag) > 1:
                self.error(f"{flag} given twice")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sink(path: str):
    return sys.stdout if path == "-" else path


def _write_text(path: str, text: str) -> None:
    with _open_text(_sink(path), "w") as handle:
        handle.write(text)


def _parse_seeds(text: str) -> list[int]:
    """'11' means seeds 0..10; '3,5,7' is an explicit list."""
    try:
        if "," not in text:
            return list(range(int(text)))
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad integer list {text!r}") from None


_SYNTH_KEYS = {"n": ("n", int), "d": ("d", int), "beta": ("target_beta", float),
               "noise": ("noise", float), "seed": ("seed", int)}


def _parse_synth_spec(text: str) -> dict:
    """Generator fields from 'n=200,d=10,beta=2' with optional noise=, seed=."""
    fields: dict = {}
    for token in text.split(","):
        key, eq, val = token.partition("=")
        key = key.strip()
        if key in ("loss", "s", "l1"):
            raise ValueError(f"{key}= is not a synth field; use --{key}")
        if not eq or key not in _SYNTH_KEYS:
            raise ValueError(f"bad synth field {token!r} "
                             f"(known keys: {', '.join(_SYNTH_KEYS)})")
        name, cast = _SYNTH_KEYS[key]
        if name in fields:
            raise ValueError(f"{key}= given twice in synth spec {text!r}")
        try:
            fields[name] = cast(val.strip())
        except ValueError:
            raise ValueError(f"bad synth field {token!r}") from None
    if "n" not in fields or "d" not in fields:
        raise ValueError("synth spec needs at least n= and d=")
    return fields


def _build_problem(args):
    """(problem, reference-or-None) from the source and objective flags."""
    objective = {"loss": args.loss, "s": args.s, "l1_weight": args.l1}
    if args.data is not None:
        return FiniteSumProblem(*parse_libsvm(Path(args.data)), **objective), None
    return synth_problem(SynthSpec(**_parse_synth_spec(args.synth), **objective))


def _resolve_reference(fstar: str, problem, synth_ref):
    if fstar == "none":
        return None
    if fstar == "auto":
        return synth_ref if synth_ref is not None else reference_solve(problem)
    try:
        value = float(fstar)
    except ValueError:
        raise ValueError(f"--fstar {fstar!r}: use auto, none or a number") from None
    return ReferenceSolution(w_star=np.full(problem.d, np.nan), f_star=value,
                             grad_norm_at_solution=float("nan"),
                             method_tag="external")


def _resolve_step(solver: str, step: str | None, problem) -> float | None:
    """run --step: practical (sag's 1/(Ln)) or a number; None without one,
    which leaves sag at its analysed 1/(16Ln) and full-gradient at 1/L."""
    if step != "practical":
        try:
            return None if step is None else float(step)
        except ValueError:
            raise ValueError(f"--step {step!r}: use practical or a number") from None
    if solver != "sag":
        raise ValueError(f"{solver} ignores --step practical; only sag has one")
    return sag_default_step(problem, practical=True)


def _add_problem_flags(sub) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="LIBSVM text file")
    src.add_argument("--synth", help="synthetic spec, e.g. n=200,d=10,beta=2")
    sub.add_argument("--loss", choices=LOSS_KINDS, default=LOGISTIC,
                     help="loss (default logistic)")
    sub.add_argument("--s", type=float, default=0.01,
                     help="strong convexity weight (default 0.01)")
    sub.add_argument("--l1", type=float, default=0.0,
                     help="l1 weight (default 0)")
    sub.add_argument("--fstar", default="auto",
                     help="auto | none | <value> "
                          "(default auto: full-gradient solve to 1e-12)")
    sub.add_argument("--out", default="-",
                     help="output CSV path, - for stdout (default -)")


def _alpha_setting(solver: str, alpha: float | None, where: str) -> dict:
    """SolverConfig's alpha keyword: none for alpha None; refused, naming
    `where`, by a solver that never reads alpha (miso's is L/s)."""
    if alpha is None:
        return {}
    if solver not in ("finito", "prox-finito"):
        raise ValueError(f"{solver} ignores alpha ({where}); "
                         "only finito and prox-finito take one")
    return {"alpha": alpha}


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    problem, synth_ref = _build_problem(args)
    reference = _resolve_reference(args.fstar, problem, synth_ref)
    config = SolverConfig(
        solver=args.solver, step=_resolve_step(args.solver, args.step, problem),
        first_pass=not args.no_first_pass, monitor=args.monitor,
        **_alpha_setting(args.solver, args.alpha, "--alpha"))
    scheme = SamplingScheme(args.sampling, args.seed)
    resume = None if args.resume is None else checkpoint_load(args.resume, problem)
    try:
        records, state, sampler = run_with_state(
            problem, config, scheme, args.epochs, reference=reference,
            record_every=args.record_every, resume=resume)
    except DivergenceError as err:  # main prints it and exits 2
        write_trace(err.records or [], _sink(args.out))
        raise
    write_trace(records, _sink(args.out))
    if args.save_state is not None:
        checkpoint_save(state, args.save_state, sampler)
    return 0


# ---------------------------------------------------------------------------
# compare


def _parse_config_token(token: str):
    """'solver[:sampling[:key=val]...]' with the keys alpha and step."""
    parts = token.split(":")
    solver = parts[0]
    if solver not in SOLVER_TAGS:
        raise ValueError(f"unknown solver {solver!r} in config {token!r}")
    sampling = parts[1] if len(parts) > 1 and parts[1] else "uniform"
    if sampling not in SAMPLING_NAMES:
        raise ValueError(f"unknown sampling {sampling!r} in config {token!r}")
    settings = {}
    for extra in parts[2:]:
        key, _, val = extra.partition("=")
        if key not in ("alpha", "step"):
            raise ValueError(f"unknown override key {key!r} in {token!r}")
        if key in settings:
            raise ValueError(f"{key}= given twice in config {token!r}")
        try:
            settings[key] = float(val)
        except ValueError:
            raise ValueError(f"bad override {extra!r} in config {token!r}") from None
    alpha = settings.pop("alpha", None)
    settings.update(_alpha_setting(solver, alpha, f"in config {token!r}"))
    return token.replace(":", "-"), sampling, SolverConfig(solver, **settings)


def cmd_compare(args) -> int:
    problem, synth_ref = _build_problem(args)
    configs = [_parse_config_token(tok) for tok in args.configs.split(",") if tok]
    if not configs:
        raise ValueError("no configs given")
    for _, _, config in configs:  # every config, before the first run
        check_config(problem, config)
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ValueError("no seeds given")
    reference = _resolve_reference(args.fstar, problem, synth_ref)
    grid = list(range(args.epochs + 1))
    columns: dict[str, np.ndarray] = {}
    if args.out_dir is not None:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for label, sampling, config in configs:
        per_seed = np.full((len(seeds), len(grid)), np.inf)
        for row, seed in enumerate(seeds):
            scheme = SamplingScheme(sampling, seed)
            try:
                records = run(problem, config, scheme, args.epochs,
                              reference=reference)
            except DivergenceError as err:
                records = err.records or []
                print(f"{label} seed {seed} diverged: {err}", file=sys.stderr)
            by_epoch = {r.epoch: r.suboptimality for r in records}
            per_seed[row] = [by_epoch.get(float(e), np.inf) for e in grid]
            if args.out_dir is not None:
                write_trace(records,
                            Path(args.out_dir) / f"{label}-seed{seed}.csv")
        columns[label] = np.median(per_seed, axis=0)
    lines = ["epoch," + ",".join(label for label, *_ in configs)]
    for i, e in enumerate(grid):
        cells = ",".join(_fmt(columns[label][i]) for label, *_ in configs)
        lines.append(f"{_fmt(float(e))},{cells}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _suite_rows(suite, **settings) -> tuple[str, str | None]:
    """suite(**settings)'s CSV rows and a line naming its first unsatisfied
    check, or None when every check holds, made in the process that ran the
    suite, so a worker sends text and not reports."""
    reports = suite(**settings)
    text = "".join(f"{r.name},{_fmt(r.lhs)},{_fmt(r.rhs)},{_fmt(r.slack)},"
                   f"{'true' if r.satisfied else 'false'}\n" for r in reports)
    bad = next((r for r in reports if not r.satisfied), None)
    return text, bad and (f"failed: {bad.name}: lhs={_fmt(bad.lhs)} "
                          f"rhs={_fmt(bad.rhs)} context={bad.context!r}")


def _spare_cpus() -> int:
    """Usable CPUs besides this process's; 0 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) - 1 if affinity is not None else 0


def _run_group(calls: dict, names: list[str]) -> dict:
    """Each named call's result in order; the first exception raised takes
    its call's place and ends the group."""
    done = {}
    for name in names:
        try:
            done[name] = calls[name]()
        except Exception as err:
            done[name] = err
            break
    return done


def _send_group(calls: dict, names: list[str], sender) -> None:
    """A forked worker's target: send _run_group's result, or exit 1 without
    a traceback; os._exit also keeps it from flushing the caller's output."""
    try:
        sender.send(_run_group(calls, names))
        os._exit(0)
    finally:  # reached only when the result could not be sent
        os._exit(1)


def _run_suites(calls: dict) -> dict:
    """_run_group over every call, with the same result at any CPU count.
    With more than one call and a spare CPU, the calls other than "rate" run
    in one forked worker while this process runs rate, so a wrapper of
    run_with_state in this process sees its solver runs."""
    if len(calls) < 2 or _spare_cpus() < 1:
        return _run_group(calls, list(calls))
    forked = [name for name in calls if name != "rate"]
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    worker = fork.Process(target=_send_group, args=(calls, forked, sender))
    worker.start()
    sender.close()  # the worker then holds the pipe's only write end
    try:
        done = _run_group(calls, [name for name in calls if name not in forked])
        try:
            result = receiver.recv()
        except (EOFError, OSError):  # nothing sent, or a frame cut short
            result = None
        worker.join()
    finally:
        worker.kill()  # a no-op once joined; ends the worker if this raised
        worker.join()
        receiver.close()
    done.update(result or {forked[0]: OSError(
        f"the worker running suite {', '.join(forked)} exited without a "
        f"result (exit code {worker.exitcode})")})
    return done


# each suite in CSV order, with the verify flags it reads; the first two
# read them all
_SUITE_FLAGS = {"inequalities": ("n", "d", "beta", "draws", "seed", "alpha"),
                "lyapunov": ("n", "d", "beta", "draws", "seed", "alpha"),
                "rate": ("n", "seed", "alpha"), "lowerbound": ("n", "seed")}


def cmd_verify(args) -> int:
    names = [name for name in _SUITE_FLAGS if args.suite in (name, "all")]
    given = {flag: getattr(args, flag) for flag in _SUITE_FLAGS["inequalities"]
             if getattr(args, flag) is not None}
    for flag in given:
        if all(flag not in _SUITE_FLAGS[name] for name in names):
            raise ValueError(f"verify --suite {args.suite} ignores --{flag}")
    # looked up here, so a suite rebound in this module is the one called
    suites = {"inequalities": suite_inequalities, "lyapunov": suite_lyapunov,
              "rate": suite_rate, "lowerbound": suite_lowerbound}
    # a suite's own defaults fill the flags not given
    calls = {name: partial(_suite_rows, suites[name],
                           **{flag: given[flag] for flag in _SUITE_FLAGS[name]
                              if flag in given})
             for name in names}
    done = _run_suites(calls)
    for name in calls:  # a call after the first error has no entry
        if isinstance(done[name], Exception):
            raise done[name]
    texts, failures = zip(*(done[name] for name in calls))
    _write_text(args.out, "name,lhs,rhs,slack,satisfied\n" + "".join(texts))
    for failure in filter(None, failures):  # the first in CSV order
        print(failure, file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finito",
                     description="incremental gradient solvers and the "
                                 "numerical checks behind their guarantees")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p_run = subs.add_parser("run", help="run one solver, write a trace CSV")
    _add_problem_flags(p_run)
    p_run.add_argument("--solver", choices=SOLVER_TAGS, default="finito")
    p_run.add_argument("--alpha", type=float, default=None,
                       help="finito and prox-finito only (default 2); miso "
                            "sets alpha = L/s, sag and full-gradient refuse it")
    p_run.add_argument("--step", default=None,
                       help="sag / full-gradient step: <number> | practical "
                            "(sag's 1/(Ln); default 1/(16Ln)); refused by the others")
    p_run.add_argument("--sampling", choices=SAMPLING_NAMES,
                       default="uniform")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--epochs", type=int, default=10)
    p_run.add_argument("--record-every", type=float, default=1.0,
                       help="record interval in passes (default 1)")
    p_run.add_argument("--monitor", choices=MONITORS, default="iterate",
                       help="table-mean keeps the phi table it reads")
    p_run.add_argument("--no-first-pass", action="store_true",
                       help="initialize every table row at w0 instead of "
                            "running the first-pass rule")
    p_run.add_argument("--resume", default=None,
                       help="checkpoint to resume, with the flags it started with")
    p_run.add_argument("--save-state", default=None,
                       help="write a checkpoint at run end")
    p_run.set_defaults(func=cmd_run)

    p_cmp = subs.add_parser("compare",
                            help="median suboptimality per epoch across "
                                 "configs and seeds")
    _add_problem_flags(p_cmp)
    p_cmp.add_argument("--configs", required=True,
                       help="comma list of solver[:sampling[:key=val]...], keys "
                            "alpha and step, e.g. finito,finito:permuted:alpha=3")
    p_cmp.add_argument("--seeds", default="11",
                       help="seed count (0..n-1) or comma list (default 11)")
    p_cmp.add_argument("--epochs", type=int, default=10)
    p_cmp.add_argument("--out-dir", default=None,
                       help="also write one trace CSV per (config, seed)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = subs.add_parser("verify",
                            help="run analysis check suites, emit CheckReport "
                                 "CSV, exit 3 on any violation")
    p_ver.add_argument("--suite", choices=(*_SUITE_FLAGS, "all"), required=True)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--beta", type=float, default=None)
    p_ver.add_argument("--draws", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--out", default="-")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no numpy warning on stderr; errstate changes no value or exit code
        with np.errstate(all="ignore"):
            return args.func(args)
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        # no check in the library can know how much memory the machine has
        print(f"error: out of memory: {err}" if str(err) else
              "error: out of memory", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
