"""Problem ingestion and run persistence: LIBSVM text, synthetic generators,
trace CSV, and bit-exact solver checkpoints.

Checkpoint layouts are the fields of the state dataclasses in solvers, and
loading goes through the state's constructor and its invariant checks.  Every
source or sink is a str/Path filesystem path or an open text stream.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .problems import (FiniteSumProblem, ReferenceSolution, LOGISTIC, LOSS_KINDS,
                       _MARGIN_CURVATURE)
from .samplers import IndexSampler, SamplingScheme
from .solvers import (FINITO_TAGS, FinitoState, FullGradientState, SagState,
                      TraceRecord, _require_positive, reference_solve)


def _format_float(x: float) -> str:
    return repr(float(x))


# field type -> (format, parse) of a trace cell or a checkpoint scalar line;
# floats are shortest round-trip decimals
_CODECS = {"float": (_format_float, float), "int": (lambda v: str(int(v)), int),
           "str": (str, str)}
# (name, format, parse) per trace column, in field order
_TRACE_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(TraceRecord)]
TRACE_HEADER = ",".join(name for name, _, _ in _TRACE_COLUMNS)
CHECKPOINT_MAGIC = "FINITOCKPT 2"
_STATE_CLASSES = {**dict.fromkeys(FINITO_TAGS, FinitoState),
                  **{cls.solver_tag: cls for cls in (SagState, FullGradientState)}}

# dense materialization above this many bytes draws a warning
DENSE_WARN_BYTES = 1 << 30


class LibsvmFormatError(ValueError):
    pass


class TraceFormatError(ValueError):
    pass


class CheckpointFormatError(ValueError):
    pass


@contextmanager
def _open_text(source, mode: str):
    # a regular file (or a new one) opened to write ("w") is written beside
    # itself and replaced only once the writer is done, so a write that fails
    # part-way leaves it whole; a device or a pipe is written in place
    if not isinstance(source, (str, Path)):
        yield source
        return
    path = temp = Path(source)
    if mode == "w" and (path.is_file() or (path.parent.is_dir() and not path.exists())):
        path = path.resolve()  # a symlink keeps pointing at the new file
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, encoding="ascii", newline="") as handle:
            yield handle
        if temp != path:
            if path.exists():  # the new file keeps the old one's permissions
                os.chmod(temp, path.stat().st_mode)
            temp.replace(path)
    except BaseException:
        if temp != path:
            temp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# LIBSVM


def parse_libsvm(source):
    """Parse `<label> <idx>:<val> ...` lines into dense (features, targets).

    Indices are 1-based and must be strictly ascending within a line; blank
    lines are skipped, so concatenating valid files yields a valid file.  The
    width is the largest index seen.
    """
    with _open_text(source, "r") as handle:
        text = handle.read()
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    width = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        tokens = list(re.finditer(r"\S+", raw))
        head = tokens[0]
        try:
            label = float(head.group())
        except ValueError:
            raise LibsvmFormatError(
                f"line {line_no}, column {head.start() + 1}: "
                f"bad label {head.group()!r}") from None
        entries: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            col = tok.start() + 1
            idx_text, sep, val_text = tok.group().partition(":")
            if not sep:
                raise LibsvmFormatError(
                    f"line {line_no}, column {col}: malformed token "
                    f"{tok.group()!r} (expected idx:value)")
            try:
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise LibsvmFormatError(
                    f"line {line_no}, column {col}: malformed token "
                    f"{tok.group()!r}") from None
            if idx == 0:
                raise LibsvmFormatError(
                    f"line {line_no}, column {col}: indices are 1-based, got 0")
            if idx <= prev:
                raise LibsvmFormatError(
                    f"line {line_no}, column {col}: index {idx} not ascending "
                    f"(previous {prev})")
            entries.append((idx, val))
            prev = idx
        labels.append(label)
        rows.append(entries)
        width = max(width, prev)
    if not rows:
        raise LibsvmFormatError("no data lines found")
    n = len(rows)
    need = n * width * 8
    if need > DENSE_WARN_BYTES:
        warnings.warn(
            f"dense LIBSVM materialization needs {need / 2**20:.0f} MiB "
            f"({n} rows x {width} columns)", ResourceWarning)
    features = np.zeros((n, width))
    for r, entries in enumerate(rows):
        for idx, val in entries:
            features[r, idx - 1] = val
    return features, np.asarray(labels)


# ---------------------------------------------------------------------------
# synthetic problems


@dataclass
class SynthSpec:
    """Recipe for a generated problem that meets the big-data condition.

    Feature rows are drawn standard normal, then rescaled globally so that
    n >= target_beta * L / s holds with a hair of slack.  Targets come from a
    planted weight vector plus noise (squared) or its sign (logistic).
    """

    n: int
    d: int
    loss: str = LOGISTIC
    s: float = 0.01
    target_beta: float = 2.0
    noise: float = 0.0
    seed: int = 0
    l1_weight: float = 0.0


def synth_problem(spec: SynthSpec):
    """Generate (FiniteSumProblem, ReferenceSolution) from a SynthSpec; the
    reference is reference_solve's, certified to 1e-12."""
    if spec.n < 2 or spec.d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={spec.n}, d={spec.d}")
    if spec.loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss {spec.loss!r} "
                         f"(known: {', '.join(LOSS_KINDS)})")
    for name in ("s", "target_beta", "noise", "l1_weight"):
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)}")
    if spec.s <= 0:
        raise ValueError("synthetic problems need s > 0")
    _require_positive("target_beta", spec.target_beta)
    if spec.n <= spec.target_beta:
        raise ValueError(
            f"n={spec.n} cannot satisfy the big-data condition at "
            f"beta={spec.target_beta} for any feature scale")
    rng = np.random.default_rng([spec.seed])
    features = rng.standard_normal((spec.n, spec.d))
    planted = rng.standard_normal(spec.d)
    noise = spec.noise * rng.standard_normal(spec.n)

    q = _MARGIN_CURVATURE[spec.loss]
    max_norm2 = float(np.einsum("ij,ij->i", features, features).max())
    L_target = spec.n * spec.s / spec.target_beta
    scale2 = (L_target - spec.s) * (1.0 - 1e-9) / (q * max_norm2)
    for _ in range(64):
        scaled = features * np.sqrt(scale2)
        margins = scaled @ planted + noise
        if spec.loss == LOGISTIC:
            targets = np.where(margins >= 0, 1.0, -1.0)
        else:
            targets = margins
        problem = FiniteSumProblem(scaled, targets, spec.loss, s=spec.s,
                                   l1_weight=spec.l1_weight)
        if problem.big_data_check(spec.target_beta).verdict:
            break
        scale2 *= 1.0 - 1e-9  # shave another ulp-scale sliver off L
    else:
        # a subnormal s leaves L_target too few bits for the shaving to reach
        raise ValueError(f"feature rescaling failed to reach the target "
                         f"beta={spec.target_beta!r} at s={spec.s!r}")
    return problem, reference_solve(problem)


# ---------------------------------------------------------------------------
# trace CSV


def write_trace(records, sink) -> None:
    """Write records as CSV; floats use shortest round-trip decimals."""
    lines = [TRACE_HEADER]
    lines += (",".join(fmt(getattr(r, name)) for name, fmt, _ in _TRACE_COLUMNS)
              for r in records)
    payload = "\n".join(lines) + "\n"
    with _open_text(sink, "w") as handle:
        handle.write(payload)


def read_trace(source) -> list[TraceRecord]:
    with _open_text(source, "r") as handle:
        text = handle.read()
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        found = lines[0] if lines else ""
        raise TraceFormatError(
            f"header mismatch: expected {TRACE_HEADER!r}, found {found!r}")
    records = []
    width = len(_TRACE_COLUMNS)
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise TraceFormatError(
                f"line {line_no}: expected {width} fields, found {len(cells)}")
        try:
            records.append(TraceRecord(**{
                name: parse(cell)
                for (name, _, parse), cell in zip(_TRACE_COLUMNS, cells)}))
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: non-numeric field ({exc})") from None
    return records


# ---------------------------------------------------------------------------
# checkpoints


def _hex_vector(v: np.ndarray) -> str:
    return " ".join(map(float.hex, v.tolist()))


def _parse_hex_vector(line: str, line_no: int, d: int) -> np.ndarray:
    tokens = line.split()
    if len(tokens) != d:
        raise CheckpointFormatError(
            f"line {line_no}: expected {d} entries, found {len(tokens)}")
    values = []
    for tok in tokens:
        try:
            values.append(float.fromhex(tok))
        except ValueError:
            raise CheckpointFormatError(
                f"line {line_no}: bad float literal {tok!r}") from None
    return np.array(values, dtype=float)


def _scalars(cls) -> dict:
    # scalar field -> its (format, parse), in field order; the solver line is the tag
    return {f.name: _CODECS[f.type]
            for f in fields(cls) if f.type in _CODECS and f.name != "solver_tag"}


def _arrays(cls) -> list:
    # (field, line head) per array field, in field order: field x_table is
    # `table x`, any other array field `vec <field>`
    return [(f, f"table {f.name.removesuffix('_table')}" if f.name.endswith("_table")
             else f"vec {f.name}") for f in fields(cls) if "ndarray" in str(f.type)]


def checkpoint_save(state, sink, sampler: IndexSampler | None = None) -> None:
    """Serialize solver state (and optionally the sampler position).

    The layout is the state's fields: the solver tag, one line per scalar
    field, the sampler lines, then a vec line per vector field and a table
    per x_table field that is set, vecs first, each in field order.  Floats
    are hexadecimal literals, so save -> load -> save is byte-identical and
    resumed runs replay the exact arithmetic of an uninterrupted one.  Lines
    are written one at a time, never the whole file, and a path is replaced
    only by a whole checkpoint: saving over the one a run resumed from is
    safe.
    """
    cls = type(state)
    if cls not in _STATE_CLASSES.values():
        raise TypeError(f"cannot checkpoint {cls.__name__}")
    # the vec lines, then the tables, each in field order (sorted is stable)
    arrays = sorted(((head, getattr(state, f.name)) for f, head in _arrays(cls)
                     if getattr(state, f.name) is not None),
                    key=lambda a: a[0].startswith("table "))
    lines = [CHECKPOINT_MAGIC, f"solver {state.solver_tag}"]
    for key, (fmt, _) in _scalars(cls).items():
        lines.append(f"{key} {fmt(getattr(state, key))}")
    lines += (["sampling none"] if sampler is None else
              [f"sampling {sampler.scheme.kind}",
               f"sampling_seed {sampler.scheme.seed}", f"draws {sampler.draws}"])
    with _open_text(sink, "w") as handle:
        handle.writelines(line + "\n" for line in lines)
        for head, a in arrays:
            if head.startswith("vec "):
                handle.write(f"{head} {_hex_vector(a)}\n")
                continue
            handle.write(f"{head} {len(a)}\n")
            for row in a:
                handle.write(_hex_vector(row) + "\n")
        handle.write("END\n")


def checkpoint_load(source, problem):
    """Rebuild (state, sampler) from a checkpoint of `problem`.

    The solver tag picks the state class, whose fields (see checkpoint_save)
    say what to read; the vec and table lines present are the storage, which
    the state's constructor checks.  These are CheckpointFormatError: another
    header, missing entries, scalar values that do not parse (naming the key
    and the line), vectors not of length d and tables not n x d (both sized
    from the problem, so a file's own sizes never allocate), a line given
    twice, a line the layout does not read, and any ValueError the state or
    sampler raises (storage, alpha, step, counters, sampling).
    """
    n, d = problem.n, problem.d
    # line head (a scalar key, `vec name` or `table name`) -> (value, line number)
    entries: dict[str, tuple] = {}
    saw_end = False

    def _scalar(key: str, cast=int):
        # the one parser of scalar entries; a read entry leaves `entries`
        if key not in entries:
            raise CheckpointFormatError(f"missing {key!r} entry")
        text, line_no = entries.pop(key)
        try:
            return cast(text)
        except ValueError:
            raise CheckpointFormatError(
                f"line {line_no}: bad {key!r} value {text!r}") from None

    with _open_text(source, "r") as handle:
        # read line by line; splitting each read line again gives exactly the
        # lines str.splitlines() gives for the whole text
        lines = enumerate((part for raw in handle for part in raw.splitlines()),
                          start=1)
        _, found = next(lines, (1, ""))
        if found != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(
                f"unsupported checkpoint header {found!r} (expected {CHECKPOINT_MAGIC!r})")
        for line_no, line in lines:
            if not line.strip():
                continue
            if line == "END":
                saw_end = True
                break
            key, _, rest = line.partition(" ")
            kind = key if key in ("vec", "table") else None
            if kind:
                name, _, rest = rest.partition(" ")
                key = f"{kind} {name}"
            if key in entries:
                raise CheckpointFormatError(f"line {line_no}: {key!r} given twice "
                                            f"(first on line {entries[key][1]})")
            value, head_line = rest, line_no
            if kind == "vec":
                value = _parse_hex_vector(rest, line_no, d)
            elif kind == "table":
                try:
                    count = int(rest)
                except ValueError:
                    raise CheckpointFormatError(
                        f"line {line_no}: bad table row count {rest!r}") from None
                if count != n:
                    raise CheckpointFormatError(
                        f"line {line_no}: table {name!r} has {count} rows, expected n={n}")
                value = np.empty((n, d))
                for r in range(n):
                    line_no, row = next(lines, (line_no + 1, None))
                    if row is None or row == "END":
                        raise CheckpointFormatError(
                            f"truncated checkpoint: table {name!r} needs {count} rows, "
                            f"got {r} (line {line_no})")
                    value[r] = _parse_hex_vector(row, line_no, d)
            entries[key] = (value, head_line)
    if not saw_end:
        raise CheckpointFormatError("truncated checkpoint: missing END marker")

    solver = _scalar("solver", str)
    cls = _STATE_CLASSES.get(solver)
    if cls is None:
        raise CheckpointFormatError(f"unknown solver tag {solver!r}")
    args = {key: _scalar(key, parse) for key, (_, parse) in _scalars(cls).items()}
    if cls is FinitoState:
        args["solver_tag"] = solver
    for f, head in _arrays(cls):
        if head in entries:
            args[f.name] = entries.pop(head)[0]
        elif f.default is not None:  # a required field; the state checks the rest
            kind, name = head.split(" ")
            raise CheckpointFormatError(f"missing {name!r} {kind}")
    sampler = None
    sampling = _scalar("sampling", str)
    try:
        state = cls(**args)
        if sampling != "none":
            scheme = SamplingScheme(sampling, _scalar("sampling_seed"))
            sampler = IndexSampler(scheme, problem.n).skip_to(_scalar("draws"))
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from None
    if entries:  # the layout reads none of what is left: the file was edited
        key, (_, line_no) = next(iter(entries.items()))
        raise CheckpointFormatError(
            f"line {line_no}: {key!r} is not in the layout of solver {solver!r}")
    return state, sampler
