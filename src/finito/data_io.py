"""Problem ingestion and run persistence: LIBSVM text, synthetic generators,
trace CSV, and bit-exact solver checkpoints.

Checkpoint layouts are the fields of the state dataclasses in solvers, and
loading goes through the state's constructor and its invariant checks.  Every
source or sink is a str/Path filesystem path or an open text stream.
"""

from __future__ import annotations

import os
import re
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .problems import (FiniteSumProblem, ReferenceSolution, LOGISTIC, LOSS_KINDS,
                       _MARGIN_CURVATURE, _require_count, _require_nonnegative,
                       _require_positive)
from .samplers import IndexSampler, SamplingScheme
from .solvers import (FINITO_TAGS, FinitoState, FullGradientState, SagState,
                      TraceRecord, reference_solve)


def _format_float(x: float) -> str:
    return repr(float(x))


# field type -> (format, parse) of a trace cell or a checkpoint scalar line;
# floats are shortest round-trip decimals, and text is ASCII (encode raises a
# ValueError for any other character, a byte read above 0x7f included)
_CODECS = {"float": (_format_float, float), "int": (lambda v: str(int(v)), int),
           "str": (str, lambda v: v.encode("ascii").decode())}
# (name, format, parse) per trace column, in field order
_TRACE_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(TraceRecord)]
TRACE_HEADER = ",".join(name for name, _, _ in _TRACE_COLUMNS)
CHECKPOINT_MAGIC = "FINITOCKPT 2"
_STATE_CLASSES = {**dict.fromkeys(FINITO_TAGS, FinitoState),
                  **{cls.solver_tag: cls for cls in (SagState, FullGradientState)}}

# dense materialization above this many bytes draws a warning, a UserWarning
# so that Python shows it by default
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
        # read, a byte above 0x7f is a lone surrogate each reader refuses by line
        with open(temp, mode, encoding="ascii", newline="",
                  errors="surrogateescape" if mode == "r" else None) as handle:
            yield handle
        if temp != path:
            if path.exists():  # the new file keeps the old one's permissions
                os.chmod(temp, path.stat().st_mode)
            temp.replace(path)
    except BaseException:
        if temp != path:
            temp.unlink(missing_ok=True)
        raise


def _lines(handle):
    # (line number from 1, line) read a piece at a time; splitting each piece
    # again gives exactly the lines str.splitlines() gives for the whole text
    return enumerate((part for raw in handle for part in raw.splitlines()), start=1)


# ---------------------------------------------------------------------------
# LIBSVM


def _libsvm_error(line_no: int, raw: str, t: int, what: str) -> LibsvmFormatError:
    column = list(re.finditer(r"\S+", raw))[t].start() + 1  # of token t, 0 the label
    return LibsvmFormatError(f"line {line_no}, column {column}: {what}")


def parse_libsvm(source):
    """Parse `<label> <idx>:<val> ...` lines into dense (features, targets).

    Indices are 1-based and must be strictly ascending within a line, and
    every label and value finite; the first token in file order that breaks
    a rule is refused by its line and column.  Blank lines are skipped, so
    concatenating valid files yields a valid file.  The width is the largest
    index seen.  The text is read a line at a time, never whole, and the
    matrix is filled by one scatter.
    """
    # per line its label and entry count, per entry its index and value
    labels, counts, indices, values = [], [], [], array("d")
    width = 0
    with _open_text(source, "r") as handle:
        for line_no, raw in _lines(handle):
            tokens = raw.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise _libsvm_error(line_no, raw, 0, f"bad label {tokens[0]!r}") from None
            # x - x is 0.0 for every finite x and NaN for inf and NaN
            if label - label:
                raise _libsvm_error(line_no, raw, 0, f"non-finite label {tokens[0]!r}")
            labels.append(label)
            prev = 0
            for t, token in enumerate(tokens[1:], start=1):
                idx_text, sep, val_text = token.partition(":")
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError:  # a token without ":" fails float("")
                    raise _libsvm_error(
                        line_no, raw, t, f"malformed token {token!r}"
                        + ("" if sep else " (expected idx:value)")) from None
                if idx <= prev:
                    raise _libsvm_error(
                        line_no, raw, t, "indices are 1-based, got 0" if idx == 0
                        else f"index {idx} not ascending (previous {prev})")
                if val - val:
                    raise _libsvm_error(line_no, raw, t,
                                        f"non-finite value in token {token!r}")
                indices.append(idx)
                values.append(val)
                prev = idx
            counts.append(len(tokens) - 1)
            width = max(width, prev)
    if not labels:
        raise LibsvmFormatError("no data lines found")
    n = len(labels)
    need = n * width * 8
    if need > DENSE_WARN_BYTES:
        warnings.warn(
            f"dense LIBSVM materialization needs {need / 2**20:.0f} MiB "
            f"({n} rows x {width} columns)", UserWarning)
    features = np.zeros((n, width))
    # an empty index list must still give an integer array
    features[np.repeat(np.arange(n), counts), np.array(indices, dtype=int) - 1] = values
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


def synth_data(spec: SynthSpec) -> FiniteSumProblem:
    """Generate the FiniteSumProblem a SynthSpec describes."""
    n, d = _require_count("n", spec.n, 2), _require_count("d", spec.d, 1)
    if spec.loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss {spec.loss!r} "
                         f"(known: {', '.join(LOSS_KINDS)})")
    for name in ("s", "target_beta"):
        _require_positive(name, getattr(spec, name))
    for name in ("noise", "l1_weight"):
        _require_nonnegative(name, getattr(spec, name))
    if n <= spec.target_beta:
        raise ValueError(
            f"n={n} cannot satisfy the big-data condition at "
            f"beta={spec.target_beta} for any feature scale")
    rng = np.random.default_rng([_require_count("seed", spec.seed)])
    features = rng.standard_normal((n, d))
    planted = rng.standard_normal(d)
    noise = spec.noise * rng.standard_normal(n)

    q = _MARGIN_CURVATURE[spec.loss]
    max_norm2 = float(np.einsum("ij,ij->i", features, features).max())
    L_target = n * spec.s / spec.target_beta
    scale2 = (L_target - spec.s) * (1.0 - 1e-9) / (q * max_norm2)
    # lipschitz_constant() refuses an L whose reciprocal overflows
    for _ in range(64 if np.isfinite(1.0 / L_target) else 0):
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
    return problem


def synth_problem(spec: SynthSpec):
    """(synth_data(spec), its reference_solve, certified to 1e-12)."""
    problem = synth_data(spec)
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
    records = []
    width = len(_TRACE_COLUMNS)
    with _open_text(source, "r") as handle:
        lines = _lines(handle)
        _, found = next(lines, (1, ""))
        if found != TRACE_HEADER:
            raise TraceFormatError(
                f"header mismatch: expected {TRACE_HEADER!r}, found {found!r}")
        for line_no, line in lines:
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
                raise TraceFormatError(f"line {line_no}: bad field ({exc})") from None
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
    try:
        values = np.array(list(map(float.fromhex, tokens)), dtype=float)
    except (ValueError, OverflowError):
        values = None
    # float.hex writes [-]0x... for a finite float and no 0x for nan or inf;
    # float.fromhex reads a token with one 0x at most, or none (1e3 as 483),
    # so d tokens it reads with d 0x between them are d finite floats
    if values is None or line.count("0x") != d:
        for tok in tokens:
            try:
                float.fromhex(tok)
                if "0x" in tok:
                    continue
            except (ValueError, OverflowError):
                pass
            raise CheckpointFormatError(f"line {line_no}: bad float literal {tok!r}")
    return values


def _layout(cls) -> list:
    # (head, field, kind, optional) per line after the solver line, in file
    # order: the scalar fields, the sampler lines, each `vec <field>`, then each
    # `table x` of a field x_table; a field that defaults to None may be absent
    lines = [(f.name, f.name, f.type, False) for f in fields(cls)
             if f.type in _CODECS and f.name != "solver_tag"]
    lines += [(key, key, kind, False) for key, kind in
              (("sampling", "str"), ("sampling_seed", "int"), ("draws", "int"))]
    for kind in ("vec", "table"):
        lines += [(f"{kind} {f.name.removesuffix('_table')}", f.name, kind, f.default is None)
                  for f in fields(cls) if "ndarray" in str(f.type)
                  and f.name.endswith("_table") == (kind == "table")]
    return lines


def checkpoint_save(state, sink, sampler: IndexSampler | None = None) -> None:
    """Serialize solver state (and optionally the sampler position).

    The lines are the solver tag, then those of the state's _layout that are
    set.  Floats are hexadecimal literals, so save -> load -> save is
    byte-identical and resumed runs replay the exact arithmetic of an
    uninterrupted one.  Lines are written one at a time, never the whole
    file, and a path is replaced only by a whole checkpoint: saving over the
    one a run resumed from is safe.
    """
    cls = type(state)
    if cls not in _STATE_CLASSES.values():
        raise TypeError(f"cannot checkpoint {cls.__name__}")
    values = vars(state) | ({"sampling": "none"} if sampler is None else {
        "sampling": sampler.scheme.kind, "sampling_seed": sampler.scheme.seed,
        "draws": sampler.draws})
    with _open_text(sink, "w") as handle:
        handle.write(f"{CHECKPOINT_MAGIC}\nsolver {state.solver_tag}\n")
        for head, name, kind, _ in _layout(cls):
            value = values.get(name)
            if value is None:
                continue
            if kind == "table":
                handle.write(f"{head} {len(value)}\n")
                handle.writelines(_hex_vector(row) + "\n" for row in value)
            else:
                text = _hex_vector(value) if kind == "vec" else _CODECS[kind][0](value)
                handle.write(f"{head} {text}\n")
        handle.write("END\n")


def checkpoint_load(source, problem):
    """Rebuild (state, sampler) from a checkpoint of `problem`.

    The file is read in the order checkpoint_save writes it: the header, the
    solver line, whose tag picks the state class, that class's _layout, END.
    These are CheckpointFormatError: another header; a line other than the
    one expected next (missing, given twice, moved or unknown); scalar values
    that do not parse (naming the key and the line); vectors not of length d
    and tables not n x d (sized from the problem, so a file's own sizes
    never allocate); an array entry float.hex writes for no finite float
    (naming its line and token); a file that ends before END; and any
    ValueError the state or sampler raises (storage, alpha, step, counters,
    sampling).
    """
    n, d = problem.n, problem.d
    with _open_text(source, "r") as handle:
        lines = _lines(handle)
        line_no, found = next(lines, (1, ""))
        if found != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"line {line_no}: unsupported checkpoint header "
                                        f"{found!r} (expected {CHECKPOINT_MAGIC!r})")

        def entries():
            # (line number, head, value text) per non-blank line, heads as in
            # _layout; the file may end only after END
            head = None
            for line_no, line in lines:
                if line.strip():
                    head, _, text = line.partition(" ")
                    if head in ("vec", "table"):
                        name, _, text = text.partition(" ")
                        head = f"{head} {name}"
                    yield line_no, head, text
            if head != "END":
                raise CheckpointFormatError("truncated checkpoint: missing END marker")

        def expected(key):
            return CheckpointFormatError(f"line {line_no}: expected {key!r}, found {head!r}")

        entry = entries()
        line_no, head, text = next(entry)
        if head != "solver":
            raise expected("solver")
        cls = _STATE_CLASSES.get(text)
        if cls is None:
            raise CheckpointFormatError(f"line {line_no}: unknown solver tag {text!r}")
        values = {"solver_tag": text}
        line_no, head, text = next(entry)
        for key, name, kind, optional in _layout(cls):
            if name in ("sampling_seed", "draws") and values["sampling"] == "none":
                continue
            if head != key:
                if optional:
                    continue
                raise expected(key)
            if kind == "vec":
                values[name] = _parse_hex_vector(text, line_no, d)
            elif kind == "table":
                try:
                    count = int(text)
                except ValueError:
                    raise CheckpointFormatError(
                        f"line {line_no}: bad table row count {text!r}") from None
                if count != n:
                    raise CheckpointFormatError(
                        f"line {line_no}: table {key[6:]!r} has {count} rows, expected n={n}")
                values[name] = rows = np.empty((n, d))
                for r in range(n):
                    line_no, row = next(lines, (line_no + 1, None))
                    if row is None or row == "END":
                        raise CheckpointFormatError(
                            f"truncated checkpoint: table {key[6:]!r} needs {count} rows, "
                            f"got {r} (line {line_no})")
                    rows[r] = _parse_hex_vector(row, line_no, d)
            else:
                try:
                    values[name] = _CODECS[kind][1](text)
                except ValueError:
                    raise CheckpointFormatError(
                        f"line {line_no}: bad {key!r} value {text!r}") from None
            line_no, head, text = next(entry)
        if head != "END":
            raise expected("END")
        if text:
            raise CheckpointFormatError(f"line {line_no}: bad 'END' value {text!r}")
        for line_no, head, _ in entry:  # END is the last line
            raise CheckpointFormatError(f"line {line_no}: {head!r} after END")
    try:
        state = cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
        sampler = None if values["sampling"] == "none" else IndexSampler(SamplingScheme(
            values["sampling"], values["sampling_seed"]), n).skip_to(values["draws"])
    except ValueError as exc:
        raise CheckpointFormatError(str(exc)) from None
    return state, sampler
