"""Property tests for the text formats (trace CSV, LIBSVM and checkpoints)
and for the reference solve's step constant."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from finito import (  # noqa: E402
    LOSS_KINDS,
    SAMPLING_NAMES,
    SOLVER_TAGS,
    CheckpointFormatError,
    FiniteSumProblem,
    FinitoState,
    IndexSampler,
    QuadraticProblem,
    SagState,
    SamplingScheme,
    SolverConfig,
    TraceRecord,
    checkpoint_load,
    checkpoint_save,
    finito_first_pass_step,
    finito_step,
    parse_libsvm,
    read_trace,
    run_with_state,
    sag_first_pass_step,
    sag_step,
    write_trace,
)
from finito.problems import _MARGIN_CURVATURE  # noqa: E402
from finito.solvers import FINITO_TAGS, MONITORS  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)


def same_float(a: float, b: float) -> bool:
    # repr keeps every bit of a non-NaN float, the sign of zero included
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# -- trace CSV -------------------------------------------------------------------

records = st.builds(
    TraceRecord, epoch=st.floats(), objective=st.floats(),
    suboptimality=st.floats(), grad_norm=st.floats(), wall_ms=st.floats(),
    solver=st.sampled_from(SOLVER_TAGS), sampling=st.sampled_from(SAMPLING_NAMES),
    seed=st.integers(min_value=0, max_value=2**64))


def _trace_text(recs) -> str:
    sink = io.StringIO()
    write_trace(recs, sink)
    return sink.getvalue()


@SETTINGS
@given(st.lists(records, max_size=6))
def test_trace_write_read_round_trip(recs):
    text = _trace_text(recs)
    back = read_trace(io.StringIO(text))
    assert len(back) == len(recs)
    for got, want in zip(back, recs):
        for name in ("epoch", "objective", "suboptimality", "grad_norm", "wall_ms"):
            assert same_float(getattr(got, name), getattr(want, name))
        assert (got.solver, got.sampling, got.seed) == (want.solver, want.sampling,
                                                         want.seed)
    assert _trace_text(back) == text


# -- LIBSVM ----------------------------------------------------------------------

values = st.floats(allow_nan=False)


@st.composite
def libsvm_rows(draw):
    """(label, [(1-based index, value), ...]) rows with ascending indices."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        indices = sorted(draw(st.sets(st.integers(1, 12), max_size=5)))
        rows.append((draw(values), [(i, draw(values)) for i in indices]))
    return rows


def _format_rows(rows, sep: str, blank: bool) -> str:
    lines = []
    for label, entries in rows:
        lines.append(sep.join([repr(label)] + [f"{i}:{v!r}" for i, v in entries]))
        if blank:
            lines.append(sep)
    return "\n".join(lines) + "\n"


@SETTINGS
@given(libsvm_rows(), libsvm_rows(), st.sampled_from([" ", "\t", "  \t"]),
       st.booleans())
def test_parse_libsvm_reads_formatted_rows(head, tail, sep, blank):
    # concatenating two valid files gives a valid file with both row sets
    rows = head + tail
    features, targets = parse_libsvm(io.StringIO(
        _format_rows(head, sep, blank) + _format_rows(tail, sep, blank)))
    width = max([0] + [i for _, entries in rows for i, _ in entries])
    assert features.shape == (len(rows), width)
    expected = np.zeros((len(rows), width))
    for r, (label, entries) in enumerate(rows):
        assert same_float(targets[r], label)
        for i, v in entries:
            expected[r, i - 1] = v
    assert features.tobytes() == expected.tobytes()  # signed zeros too


# -- checkpoints -----------------------------------------------------------------


@st.composite
def run_states(draw):
    """(problem, state, sampler) after a few steps of any solver."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    solver = draw(st.sampled_from(SOLVER_TAGS))
    # finito, miso and sag refuse an l1 term
    l1_weights = [0.0, 0.05] if solver in ("prox-finito", "full-gradient") else [0.0]
    l1 = draw(st.sampled_from(l1_weights))
    problem = QuadraticProblem(rng.standard_normal((n, d)), rng.uniform(1.0, 2.0, n),
                               l1_weight=l1)
    # the table-mean monitor, which keeps audit storage, needs a finito tag
    monitor = draw(st.sampled_from(MONITORS if solver in FINITO_TAGS else ("iterate",)))
    config = SolverConfig(solver=solver, monitor=monitor,
                          first_pass=draw(st.booleans()), w0=rng.standard_normal(d))
    scheme = SamplingScheme(draw(st.sampled_from(SAMPLING_NAMES)),
                            draw(st.integers(0, 100)))
    if solver == "full-gradient":
        _, state, sampler = run_with_state(problem, config, scheme,
                                           draw(st.integers(0, 3)))
        return problem, state, sampler
    _, state, sampler = run_with_state(problem, config, scheme, 0)
    sag = isinstance(state, SagState)
    for _ in range(draw(st.integers(0, 3 * n))):
        if state.seen < n:
            first = sag_first_pass_step if sag else finito_first_pass_step
            first(state, problem, state.seen)
        else:
            (sag_step if sag else finito_step)(state, problem, sampler.next_index())
    return problem, state, sampler


def _saved(state, sampler) -> str:
    sink = io.StringIO()
    checkpoint_save(state, sink, sampler)
    return sink.getvalue()


def _resaved(text: str, problem) -> str:
    return _saved(*checkpoint_load(io.StringIO(text), problem))


@SETTINGS
@given(run_states())
def test_checkpoint_save_load_save_is_byte_identical(case):
    problem, state, sampler = case
    text = _saved(state, sampler)
    assert _resaved(text, problem) == text


def _arrays(n: int, d: int):
    # every finite float64, subnormals and signed zeros included; a checkpoint
    # refuses a non-finite entry
    elements = st.floats(width=64, allow_nan=False, allow_infinity=False)
    return (hnp.arrays(np.float64, (n, d), elements=elements),
            hnp.arrays(np.float64, (d,), elements=elements))


@st.composite
def arbitrary_states(draw):
    """Table states holding arbitrary finite float64 values, with valid
    counters and a finite alpha or step > 0 (the states refuse any other)."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    table, vector = _arrays(n, d)
    positive = st.floats(min_value=1e-300, allow_infinity=False)
    k = draw(st.integers(0, 10**6))
    seen = n if draw(st.booleans()) or k >= n else k
    if draw(st.booleans()):
        state = SagState(step=draw(positive), k=k, seen=seen,
                         w=draw(vector), grad_table=draw(table),
                         grad_sum=draw(vector))
    else:
        tag = draw(st.sampled_from(["finito", "prox-finito", "miso"]))
        arrays = dict(p_table=draw(table), p_sum=draw(vector))
        if draw(st.booleans()):  # audit storage, for any tag, beside p
            arrays.update(phi_table=draw(table))
        state = FinitoState(alpha=draw(positive), k=k, seen=seen, w=draw(vector),
                            solver_tag=tag, **arrays)
    sampler = None
    if draw(st.booleans()):
        scheme = SamplingScheme(draw(st.sampled_from(SAMPLING_NAMES)),
                                draw(st.integers(0, 2**32)))
        sampler = IndexSampler(scheme, n).skip_to(draw(st.integers(0, 10**6)))
    return QuadraticProblem(np.zeros((n, d))), state, sampler


@SETTINGS
@given(arbitrary_states())
def test_checkpoint_keeps_every_float_bit(case):
    problem, state, sampler = case
    text = _saved(state, sampler)
    loaded, _ = checkpoint_load(io.StringIO(text), problem)
    for name in ("w", "p_table", "p_sum", "phi_table", "grad_table", "grad_sum"):
        want = getattr(state, name, None)
        if want is None:
            assert getattr(loaded, name, None) is None
            continue
        assert getattr(loaded, name).tobytes() == want.tobytes()
    assert _resaved(text, problem) == text


@SETTINGS
@given(run_states(), st.data())
def test_truncated_checkpoint_is_format_error(case, data):
    problem, state, sampler = case
    text = _saved(state, sampler)
    # dropping only the final newline still leaves a complete END line
    cut = data.draw(st.integers(0, len(text) - 2))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(io.StringIO(text[:cut]), problem)


@SETTINGS
@given(run_states(), st.data())
def test_checkpoint_without_a_line_fails_or_loads_the_same_state(case, data):
    problem, state, sampler = case
    text = _saved(state, sampler)
    lines = text.splitlines(keepends=True)
    drop = data.draw(st.integers(0, len(lines) - 1))
    edited = "".join(lines[:drop] + lines[drop + 1:])
    # every line is the state's own: none can be rebuilt from the problem
    with pytest.raises(CheckpointFormatError):
        _resaved(edited, problem)


def _table_rows(lines) -> set:
    # the indices of table rows: the count lines after each `table <name> <count>`
    rows = set()
    for at, line in enumerate(lines):
        if line.startswith("table "):
            rows.update(range(at + 1, at + 1 + int(line.split()[2])))
    return rows


@SETTINGS
@given(run_states(), st.data())
def test_checkpoint_with_a_line_moved_or_repeated_fails_or_is_unchanged(case, data):
    # a checkpoint is read in the order it is written, so a line in another
    # place or a line given twice is refused, never read as another state;
    # two rows of one table swapped are data, not layout, so one line of
    # each swapped pair is a line the layout names
    problem, state, sampler = case
    text = _saved(state, sampler)
    lines = text.splitlines(keepends=True)
    rows = _table_rows(lines)
    at = data.draw(st.integers(0, len(lines) - 1), label="at")
    edited = list(lines)
    if data.draw(st.booleans(), label="repeat"):
        edited.insert(at, lines[at])
    else:
        named = data.draw(st.sampled_from([i for i in range(len(lines)) if i not in rows]),
                          label="named")
        edited[at], edited[named] = lines[named], lines[at]
    edited = "".join(edited)
    if edited == text:  # a line swapped with itself
        assert _resaved(edited, problem) == text
        return
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(io.StringIO(edited), problem)


# array entries float.fromhex reads, each a bad float literal at its line:
# any spelling of NaN or an infinity, and spellings of a finite float that
# float.hex never writes (decimal, upper case, no 0x prefix), which it would
# read as another number (1e3 as 0x1e3 = 483), or a hex literal past the
# largest double
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
edited_entries = st.one_of(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"]),
                           finite_floats.map(repr), st.integers().map(str),
                           finite_floats.map(lambda x: x.hex().upper()),
                           finite_floats.map(lambda x: x.hex().replace("0x", "")),
                           st.integers(1024, 10**6).map(lambda e: f"0x1p+{e}"))

# arbitrary text, plus the values most likely to pass a parser and still be
# wrong: integers (negative seeds and draw counts), floats (NaN, inf, <= 0)
# and sampling kinds
edited_values = st.one_of(st.text(), st.integers().map(str), st.floats().map(repr),
                          st.sampled_from(SAMPLING_NAMES + ("none",)))


@SETTINGS
@given(run_states(), st.data())
def test_checkpoint_with_an_edited_value_fails_or_loads_a_valid_state(case, data):
    problem, state, sampler = case
    lines = _saved(state, sampler).splitlines(keepends=True)
    # the scalar lines run from the solver line to the first vec line; each
    # gets its own drawn value, one edit at a time
    end = next(i for i, line in enumerate(lines) if line.startswith("vec "))
    for at in range(1, end):
        key = lines[at].split(" ", 1)[0]
        edited = lines[:at] + [f"{key} {data.draw(edited_values)}\n"] + lines[at + 1:]
        try:
            loaded, loaded_sampler = checkpoint_load(io.StringIO("".join(edited)),
                                                     problem)
        except Exception as exc:
            assert type(exc) is CheckpointFormatError, (key, repr(exc))
            continue
        dataclasses.replace(loaded)  # builds the state anew: its checks pass again
        once = _saved(loaded, loaded_sampler)
        assert _resaved(once, problem) == once
    # an array entry, in a vec line or a table row, edited to one of
    # edited_entries is refused at its line, never loaded as another number
    rows = _table_rows(lines)
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                    if line.startswith("vec ") or i in rows]))
    tokens = lines[at].split()
    entry = data.draw(st.integers(0 if at in rows else 2, len(tokens) - 1))
    tokens[entry] = value = data.draw(edited_entries)
    edited = lines[:at] + [" ".join(tokens) + "\n"] + lines[at + 1:]
    message = f"line {at + 1}: bad float literal {value!r}"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        checkpoint_load(io.StringIO("".join(edited)), problem)


# -- the reference solve's step constant -------------------------------------------


@SETTINGS
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(LOSS_KINDS), st.sampled_from([0.0, 0.1, 1.0]),
       st.sampled_from([0.0, 0.05]), st.integers(-20, 20))
def test_smoothness_constant_lies_between_the_smoothness_and_the_mean_bound(
        n, d, seed, loss, s, l1, scale):
    # at least c lambda_max(X^T X)/n + s, up to rounding, and at most the
    # mean bound c tr(X^T X)/n + s, which it equals for rank-one data; d > n
    # for n < 5 reads the Gram matrix of the rows
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d)) * 2.0**scale
    targets = np.where(rng.standard_normal(n) >= 0.0, 1.0, -1.0)
    problem = FiniteSumProblem(features, targets, loss, s=s, l1_weight=l1)
    c = _MARGIN_CURVATURE[loss]
    smoothness = c * np.linalg.eigvalsh(features.T @ features / n)[-1] + s
    mean_bound = float(c * (np.einsum("ij,ij->i", features, features) / n).sum() + s)
    assert smoothness * (1.0 - 1e-13) <= problem.smoothness_constant() <= mean_bound
