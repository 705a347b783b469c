"""Parsers, generators, traces, checkpoints: formats and their failure modes."""

import io
import math
import os
import re
import stat

import numpy as np
import pytest

import finito.data_io
from finito import (
    CheckpointFormatError,
    LibsvmFormatError,
    LOGISTIC,
    SQUARED,
    SamplingScheme,
    SolverConfig,
    SynthSpec,
    TraceFormatError,
    TraceRecord,
    TRACE_HEADER,
    checkpoint_load,
    checkpoint_save,
    finito_first_pass_step,
    finito_init,
    finito_step,
    parse_libsvm,
    read_trace,
    run_with_state,
    sag_first_pass_step,
    sag_init,
    sag_step,
    synth_problem,
    write_trace,
)

SAMPLE = "1 1:0.5 3:2\n-1 2:1\n"


# -- LIBSVM parsing -------------------------------------------------------------


def test_parse_libsvm_dense_layout():
    feats, labels = parse_libsvm(io.StringIO(SAMPLE))
    assert feats.shape == (2, 3)
    assert np.array_equal(feats, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(labels, [1.0, -1.0])


def test_parse_libsvm_from_path_and_stream(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text(SAMPLE)
    from_path = parse_libsvm(path)[0]
    from_stream = parse_libsvm(io.StringIO(SAMPLE))[0]
    assert np.array_equal(from_path, from_stream)
    # a plain str is a path too, never the content
    assert np.array_equal(parse_libsvm(str(path))[0], from_stream)
    with pytest.raises(FileNotFoundError):
        parse_libsvm(SAMPLE)


@pytest.mark.parametrize("text,message", [
    pytest.param("abc 1:2\n", "line 1, column 1: bad label 'abc'", id="bad-label"),
    pytest.param("1 1:2\n-1 0:3\n", "line 2, column 4: indices are 1-based, got 0",
                 id="index-0"),
    pytest.param("1 3:1 2:5\n", "line 1, column 7: index 2 not ascending (previous 3)",
                 id="descending"),
    pytest.param("1 1::\n", "line 1, column 3: malformed token '1::'", id="bad-value"),
    pytest.param("1 novalue\n",
                 "line 1, column 3: malformed token 'novalue' (expected idx:value)",
                 id="no-colon"),
    pytest.param("", "no data lines found", id="empty"),
    # columns count characters, whatever whitespace str.split() splits at
    pytest.param("1\t3:1\t2:5\n", "line 1, column 7: index 2 not ascending (previous 3)",
                 id="tabs"),
    pytest.param(" \t abc 1:2\n", "line 1, column 4: bad label 'abc'", id="indented-label"),
    pytest.param("1\xa01:1\u3000x\n",
                 "line 1, column 7: malformed token 'x' (expected idx:value)",
                 id="unicode-spaces"),
    # the repeated token is found by its place, not by its text
    pytest.param("1 1:1 1:1\n", "line 1, column 7: index 1 not ascending (previous 1)",
                 id="repeated-token"),
    pytest.param("1 1\n", "line 1, column 3: malformed token '1' (expected idx:value)",
                 id="bare-index"),
    pytest.param("1 -3:1\n", "line 1, column 3: index -3 not ascending (previous 0)",
                 id="negative-index"),
])
def test_parse_libsvm_error_positions(text, message):
    with pytest.raises(LibsvmFormatError) as caught:
        parse_libsvm(io.StringIO(text))
    assert str(caught.value) == message


def test_parse_libsvm_numbers_lines_as_splitlines(tmp_path):
    # read a piece at a time, a file ends its pieces only at \r, \n and
    # \r\n, and a stream only at \n; the line numbers are still those of
    # str.splitlines(), which also ends a line at \x0b, \x0c and \x1c
    text = "".join(f"1 1:{i}{end}" for i, end in
                   enumerate(["\r", "\r\n", "\x0b", "\x0c", "\x1c"], start=1))
    text += "1 x\n"
    assert text.splitlines()[5] == "1 x"
    path = tmp_path / "boundaries.svm"
    path.write_bytes(text.encode("ascii"))
    for source in (path, io.StringIO(text)):
        with pytest.raises(LibsvmFormatError) as caught:
            parse_libsvm(source)
        assert str(caught.value) == "line 6, column 3: malformed token 'x' (expected idx:value)"


def test_parse_libsvm_memory_warning(monkeypatch):
    monkeypatch.setattr(finito.data_io, "DENSE_WARN_BYTES", 8)
    with pytest.warns(UserWarning, match="dense LIBSVM materialization"):
        parse_libsvm(io.StringIO(SAMPLE))


def test_parse_libsvm_concatenation():
    a = "1 1:1 2:2\n"
    b = "-1 1:3\n1 2:4\n"
    fa, la = parse_libsvm(io.StringIO(a))
    fb, lb = parse_libsvm(io.StringIO(b))
    fab, lab = parse_libsvm(io.StringIO(a + b))
    assert np.array_equal(fab, np.vstack([fa, fb]))
    assert np.array_equal(lab, np.concatenate([la, lb]))


# -- synthetic generator ---------------------------------------------------------


def test_synth_meets_size_condition_exactly_at_target():
    problem, ref = synth_problem(SynthSpec(n=30, d=4, target_beta=2.0, seed=5))
    report = problem.big_data_check(2.0)
    assert report.verdict
    # scaled to sit just inside the condition, not far inside
    assert report.beta_achieved == pytest.approx(2.0, rel=1e-6)
    assert ref.grad_norm_at_solution <= 1e-12


def test_synth_is_deterministic():
    a, _ = synth_problem(SynthSpec(n=25, d=3, seed=11))
    b, _ = synth_problem(SynthSpec(n=25, d=3, seed=11))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    c, _ = synth_problem(SynthSpec(n=25, d=3, seed=12))
    assert not np.array_equal(a.features, c.features)


def test_synth_logistic_labels_are_signs():
    problem, _ = synth_problem(SynthSpec(n=25, d=3, loss=LOGISTIC, seed=2))
    assert set(np.unique(problem.targets)) <= {-1.0, 1.0}


def test_synth_squared_noise_changes_targets():
    quiet, _ = synth_problem(SynthSpec(n=25, d=3, loss=SQUARED, seed=2))
    noisy, _ = synth_problem(SynthSpec(n=25, d=3, loss=SQUARED, seed=2, noise=0.5))
    assert np.array_equal(quiet.features, noisy.features)
    assert not np.array_equal(quiet.targets, noisy.targets)


def test_synth_requires_room_for_beta():
    with pytest.raises(ValueError):
        synth_problem(SynthSpec(n=2, d=2, target_beta=2.0))


@pytest.mark.parametrize("setting,message", [
    ({"s": 0.0}, "^s must be finite and > 0, got 0.0$"),
    ({"s": math.nan}, "^s must be finite and > 0, got nan$"),
    ({"loss": "hinge"}, r"^unknown loss 'hinge' \(known: logistic, squared\)$"),
])
def test_synth_refuses_an_objective_it_cannot_build(setting, message):
    with pytest.raises(ValueError, match=message):
        synth_problem(SynthSpec(n=50, d=5, **setting))


def test_synth_l1_passthrough():
    problem, ref = synth_problem(SynthSpec(n=25, d=3, loss=SQUARED, seed=2,
                                           l1_weight=0.3))
    assert problem.l1_weight == 0.3
    assert ref.method_tag == "accelerated-proximal-gradient"


# -- trace round-trip --------------------------------------------------------------


def make_records():
    return [
        TraceRecord(0.0, math.pi, 0.25, 1e-300, 0.125, "finito", "uniform", 3),
        TraceRecord(1.0, 0.1 + 0.2, float("nan"), 5e-324, 17.0, "sag", "cyclic", 0),
    ]


def test_trace_round_trip_exact():
    records = make_records()
    sink = io.StringIO()
    write_trace(records, sink)
    text = sink.getvalue()
    assert text.splitlines()[0] == TRACE_HEADER
    back = read_trace(io.StringIO(text))
    assert len(back) == 2
    for a, b in zip(records, back):
        assert a.epoch == b.epoch and a.objective == b.objective
        assert a.grad_norm == b.grad_norm and a.wall_ms == b.wall_ms
        assert (a.solver, a.sampling, a.seed) == (b.solver, b.sampling, b.seed)
    assert back[0].suboptimality == 0.25
    assert math.isnan(back[1].suboptimality)


def test_trace_header_and_field_errors():
    with pytest.raises(TraceFormatError, match="header mismatch"):
        read_trace(io.StringIO("epoch,loss\n"))
    good = TRACE_HEADER + "\n0.0,1.0,0.5\n"
    with pytest.raises(TraceFormatError, match="line 2: expected 8 fields"):
        read_trace(io.StringIO(good))
    bad_field = TRACE_HEADER + "\n0.0,1.0,x,0.1,0.2,finito,uniform,0\n"
    with pytest.raises(TraceFormatError, match=re.escape(
            "line 2: bad field (could not convert string to float: 'x')")):
        read_trace(io.StringIO(bad_field))


# a file is ASCII: a byte above 0x7f reads as a lone surrogate, which a text
# cell refuses as it refuses any other character that is not ASCII
@pytest.mark.parametrize("cells,position", [
    pytest.param(("fin\xd9\xa1ito", "uniform"), "3-4", id="solver"),
    pytest.param(("finito", "\xd9\xa1uniform"), "0-1", id="sampling")])
def test_trace_refuses_a_non_ascii_text_cell(tmp_path, cells, position):
    line = TRACE_HEADER + "\n0.0,1.0,0.5,0.1,0.2,{},{},0\n".format(*cells)
    path = tmp_path / "trace.csv"
    path.write_bytes(line.encode("latin-1"))
    message = (f"line 2: bad field ('ascii' codec can't encode characters in position "
               f"{position}: ordinal not in range(128))")
    with pytest.raises(TraceFormatError) as caught:
        read_trace(path)
    assert str(caught.value) == message
    with pytest.raises(TraceFormatError):  # from a stream, the characters themselves
        read_trace(io.StringIO(line))


# -- checkpoint round-trip -----------------------------------------------------------


def run_and_checkpoint(problem, ref, solver, tmp_path, audit=False):
    # the table-mean monitor is what keeps the audit tables
    config = SolverConfig(solver=solver, alpha=2.0,
                          monitor="table-mean" if audit else "iterate",
                          w0=np.zeros(problem.d))
    _, state, sampler = run_with_state(problem, config,
                                       SamplingScheme("permuted", seed=2),
                                       epochs=2, reference=ref)
    path = tmp_path / f"{solver}.ckpt"
    checkpoint_save(state, path, sampler)
    return path, state


@pytest.mark.parametrize("solver,audit", [("finito", False), ("finito", True),
                                          ("prox-finito", False), ("prox-finito", True),
                                          ("sag", False),
                                          ("miso", False), ("full-gradient", False)])
def test_checkpoint_save_load_save_identity(synth_tiny, tmp_path, solver, audit):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, solver, tmp_path, audit)
    first = path.read_text()
    state, sampler = checkpoint_load(path, problem)
    sink = io.StringIO()
    checkpoint_save(state, sink, sampler)
    assert sink.getvalue() == first


def test_a_failed_save_keeps_the_old_checkpoint(synth_tiny, tmp_path, monkeypatch):
    # `run --resume F --save-state F` saves over the checkpoint it resumed
    # from; a save that fails part-way must not have truncated it
    problem, ref = synth_tiny
    path, state = run_and_checkpoint(problem, ref, "finito", tmp_path)
    before = path.read_bytes()
    state.k += problem.n  # a later state, so a whole save would change the file
    hex_vector, calls = finito.data_io._hex_vector, []

    def fails_second(v):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return hex_vector(v)
    monkeypatch.setattr(finito.data_io, "_hex_vector", fails_second)
    with pytest.raises(OSError, match="disk full"):
        checkpoint_save(state, path, None)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    monkeypatch.undo()
    path.chmod(0o600)
    checkpoint_save(state, path, None)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_a_save_through_a_link_or_to_a_device_writes_in_place(synth_tiny, tmp_path):
    # the replacing file goes beside the link's target, and a device is
    # never replaced by a regular file
    problem, ref = synth_tiny
    path, state = run_and_checkpoint(problem, ref, "finito", tmp_path)
    link = tmp_path / "link.ckpt"
    link.symlink_to(path.name)
    sink = io.StringIO()
    checkpoint_save(state, sink, None)
    checkpoint_save(state, link, None)
    assert link.is_symlink() and path.read_text() == sink.getvalue()
    checkpoint_save(state, os.devnull, None)
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_prox_finito_checkpoint_keeps_one_table(synth_tiny, tmp_path):
    # prox-finito stores the compact p table only, unless audit asks for the
    # phi table beside it; the tag and the arrays are the layout
    problem, ref = synth_tiny
    path, state = run_and_checkpoint(problem, ref, "prox-finito", tmp_path)
    assert state.proximal and state.phi_table is None
    lines = path.read_text().splitlines()
    assert [line for line in lines if line.startswith("table ")] == [
        f"table p {problem.n}"]
    assert "solver prox-finito" in lines
    assert not [line for line in lines if line.startswith(("proximal ", "audit ", "n ", "d "))]
    path, _ = run_and_checkpoint(problem, ref, "prox-finito", tmp_path, audit=True)
    assert [line.split()[:2] for line in path.read_text().splitlines()
            if line.startswith(("vec ", "table "))] == [
        ["vec", "w"], ["vec", "p_sum"], ["table", "p"], ["table", "phi"]]


TABLE_SAMPLER = ["sampling", "sampling_seed", "draws"]


@pytest.mark.parametrize("solver,heads", [
    ("finito", ["alpha", "k", "seen", *TABLE_SAMPLER]),
    ("prox-finito", ["alpha", "k", "seen", *TABLE_SAMPLER]),
    ("miso", ["alpha", "k", "seen", *TABLE_SAMPLER]),
    ("sag", ["step", "k", "seen", *TABLE_SAMPLER]),
    # the step line is the only one the full-gradient layout gained
    ("full-gradient", ["step", "k", "sampling"]),
])
def test_checkpoint_holds_the_constant_each_solver_steps_at(synth_tiny, tmp_path,
                                                           solver, heads):
    problem, ref = synth_tiny
    path, state = run_and_checkpoint(problem, ref, solver, tmp_path)
    lines = path.read_text().splitlines()
    first_vec = next(i for i, line in enumerate(lines) if line.startswith("vec "))
    assert lines[:2] == ["FINITOCKPT 2", f"solver {solver}"]
    assert [line.split()[0] for line in lines[2:first_vec]] == heads
    name, value = lines[2].split()
    assert float(value) == getattr(state, name)


def test_checkpoint_refuses_what_is_not_a_solver_state():
    with pytest.raises(TypeError, match="^cannot checkpoint object$"):
        checkpoint_save(object(), io.StringIO())


def test_checkpoint_full_gradient_has_no_sampler(synth_tiny, tmp_path):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, "full-gradient", tmp_path)
    _, sampler = checkpoint_load(path, problem)
    assert sampler is None


def test_checkpoint_restores_exact_state(synth_tiny, tmp_path):
    problem, ref = synth_tiny
    path, state = run_and_checkpoint(problem, ref, "finito", tmp_path)
    back, sampler = checkpoint_load(path, problem)
    assert np.array_equal(back.w, state.w)
    assert np.array_equal(back.p_table, state.p_table)
    assert back.k == state.k and back.seen == state.seen
    # the first of the two epochs is the in-order first pass; only the
    # second consumed sampler draws
    assert sampler.draws == problem.n


def test_checkpoint_corruption_detected(synth_tiny, tmp_path):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, "finito", tmp_path)
    lines = path.read_text().splitlines()

    bad = list(lines)
    for i, line in enumerate(bad):
        if "0x" in line:
            bad[i] = line.replace("0x", "0z", 1)
            break
    with pytest.raises(CheckpointFormatError, match="bad float literal"):
        checkpoint_load(io.StringIO("\n".join(bad) + "\n"), problem)

    truncated = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(CheckpointFormatError, match="missing END"):
        checkpoint_load(io.StringIO(truncated), problem)

    with pytest.raises(CheckpointFormatError):
        checkpoint_load(io.StringIO("not a checkpoint\n"), problem)


# lines starting with `prefix` (a string or a tuple of them) are dropped
# (edit None) or rewritten by `edit`
@pytest.mark.parametrize("solver,prefix,edit,match", [
    # the file is read in the order it is written, so a missing line is
    # found where the line after it stands
    pytest.param("finito", "vec w ", None, "^line 9: expected 'vec w', found 'vec p_sum'$",
                 id="finito-vec w "),
    # every finito state holds the p arrays
    pytest.param("finito", "vec p_sum ", None,
                 "^line 10: expected 'vec p_sum', found 'table p'$", id="finito-vec p_sum "),
    pytest.param("finito", "table p ", None,
                 r"^line 11: expected 'table p', found '-?0x[^']*'$", id="finito-table p "),
    # a checkpoint in an earlier format is refused by its header
    pytest.param("finito", "FINITOCKPT ", lambda line: "FINITOCKPT 1",
                 r"^unsupported checkpoint header 'FINITOCKPT 1' \(expected 'FINITOCKPT 2'\)$",
                 id="finito-FINITOCKPT 1"),
    # two lines swapped are refused where the first of them should stand
    pytest.param("finito", ("alpha ", "k "),
                 {"alpha 2.0": "k 40", "k 40": "alpha 2.0"}.__getitem__,
                 "^line 3: expected 'alpha', found 'k'$", id="finito-alpha and k swapped"),
    # without its head line the phi table's rows stand where END belongs
    pytest.param("prox-finito-audit", "table phi ", None,
                 r"^line 32: expected 'END', found '-?0x[^']*'$",
                 id="prox-finito-table phi "),
    # audit checkpoints once kept the phi table's running sum too
    pytest.param("finito-audit", "vec p_sum ",
                 lambda line: line + "\n" + line.replace("vec p_sum", "vec phi_sum"),
                 r"^line 11: expected 'table p', found 'vec phi_sum'$",
                 id="finito-audit-vec phi_sum"),
    pytest.param("sag", "vec grad_sum ", None,
                 "^line 10: expected 'vec grad_sum', found 'table grad'$",
                 id="sag-vec grad_sum "),
    pytest.param("finito", "vec w ", lambda line: line.rsplit(" ", 1)[0],
                 "expected 3 entries, found 2", id="finito-vec w with 2 entries"),
    pytest.param("sag", "vec grad_sum ", lambda line: line + " 0x0.0p+0",
                 "expected 3 entries, found 4", id="sag-vec grad_sum with 4"),
    pytest.param("finito", "table p ", lambda line: "table p 10",
                 "10 rows, expected n=20", id="finito-table p 10"),
    pytest.param("finito", "table p ", lambda line: "table p x",
                 "^line 11: bad table row count 'x'$", id="finito-table p x"),
    # the file's own row count never sizes an array: 10^14 rows x 3 floats
    # would be 2.4e15 bytes, beyond any address space
    pytest.param("finito", "table p ", lambda line: "table p 100000000000000",
                 "line 11: table 'p' has 100000000000000 rows, expected n=20",
                 id="finito-n and table p 10^14"),
    pytest.param("finito", "seen ", lambda line: "seen 999",
                 "k=40 seen=999: need", id="finito-seen 999"),
    pytest.param("sag", "seen ", lambda line: "seen -1",
                 "k=40 seen=-1: need", id="sag-seen -1"),
    # k counts updates from 0, also once every row is filled
    pytest.param("finito", "k ", lambda line: "k -25",
                 "k=-25 seen=20: need k >= 0", id="finito-k -25"),
    pytest.param("full-gradient", "k ", lambda line: "k -3",
                 "counter k=-3: need k >= 0", id="full-gradient-k -3"),
    # seen < n only happens mid first pass, where seen == k
    pytest.param("finito", "seen ", lambda line: "seen 5",
                 "k=40 seen=5: need", id="finito-seen 5 below k"),
    # lines the layout does not read: the tag alone says proximal, the
    # arrays alone say audit, and a misspelt key or an unknown array name is
    # read by nothing, whatever its value
    pytest.param("finito", "alpha ", lambda line: f"{line}\nproximal 1",
                 "^line 4: expected 'k', found 'proximal'$", id="finito-proximal 1"),
    pytest.param("miso", "alpha ", lambda line: f"{line}\nproximal 1",
                 "^line 4: expected 'k', found 'proximal'$", id="miso-proximal 1"),
    pytest.param("prox-finito", "alpha ", lambda line: f"{line}\nproximal 0",
                 "^line 4: expected 'k', found 'proximal'$", id="prox-finito-proximal 0"),
    pytest.param("finito", "alpha ", lambda line: f"{line}\nproximal yes",
                 "^line 4: expected 'k', found 'proximal'$", id="finito-proximal yes"),
    pytest.param("prox-finito-audit", "alpha ", lambda line: f"{line}\naudit 0",
                 "^line 4: expected 'k', found 'audit'$", id="prox-finito-audit 0"),
    pytest.param("finito-audit", "alpha ", lambda line: f"{line}\naudit 0",
                 "^line 4: expected 'k', found 'audit'$", id="finito-audit 0"),
    pytest.param("finito", "alpha ", lambda line: f"{line}\nalpah 9",
                 "^line 4: expected 'k', found 'alpah'$", id="finito-alpah 9"),
    pytest.param("finito", "vec w ", lambda line: f"{line}\nvec zzz 0x0p+0 0x0p+0 0x0p+0",
                 "^line 10: expected 'vec p_sum', found 'vec zzz'$", id="finito-vec zzz"),
    pytest.param("sag", "vec w ",
                 lambda line: f"{line}\ntable zzz 20" + f"\n{line[6:]}" * 20,
                 "^line 10: expected 'vec grad_sum', found 'table zzz'$", id="sag-table zzz"),
    pytest.param("full-gradient", "vec w ", lambda line: f"{line}\nvec p_sum {line[6:]}",
                 "^line 7: expected 'END', found 'vec p_sum'$", id="full-gradient-vec p_sum"),
    # a line given twice, where the last one once won
    pytest.param("finito", "k ", lambda line: f"{line}\nk 7",
                 "^line 5: expected 'seen', found 'k'$", id="finito-k twice"),
    pytest.param("finito", "vec w ", lambda line: f"{line}\n{line}",
                 "^line 10: expected 'vec p_sum', found 'vec w'$", id="finito-vec w twice"),
    pytest.param("sag", "vec w ",
                 lambda line: f"{line}\ntable grad 20" + f"\n{line[6:]}" * 20,
                 "^line 10: expected 'vec grad_sum', found 'table grad'$",
                 id="sag-table grad twice"),
    # scalar values that do not parse name their key and line
    pytest.param("finito", "k ", lambda line: "k x",
                 "line 4: bad 'k' value 'x'", id="finito-k x"),
    pytest.param("finito", "alpha ", lambda line: "alpha two",
                 "line 3: bad 'alpha' value 'two'", id="finito-alpha two"),
    pytest.param("sag", "sampling_seed ", lambda line: "sampling_seed True",
                 "bad 'sampling_seed' value 'True'", id="sag-sampling_seed True"),
    # values that parse but that the state or the sampler refuses
    pytest.param("finito", "alpha ", lambda line: "alpha nan",
                 "alpha must be finite and > 0, got nan", id="finito-alpha nan"),
    pytest.param("finito", "alpha ", lambda line: "alpha -3",
                 "alpha must be finite and > 0, got -3.0", id="finito-alpha -3"),
    pytest.param("finito", "alpha ", lambda line: "alpha inf",
                 "alpha must be finite and > 0, got inf", id="finito-alpha inf"),
    pytest.param("sag", "step ", lambda line: "step nan",
                 "step must be finite and > 0, got nan", id="sag-step nan"),
    pytest.param("full-gradient", "step ", lambda line: "step 0.0",
                 "step must be finite and > 0, got 0.0", id="full-gradient-step 0"),
    # the full-gradient layout before its state held the step
    pytest.param("full-gradient", "step ", None, "^line 3: expected 'step', found 'k'$",
                 id="full-gradient-no step"),
    pytest.param("finito", "sampling_seed ", lambda line: "sampling_seed -1",
                 "seed must be >= 0", id="finito-sampling_seed -1"),
    pytest.param("finito", "draws ", lambda line: "draws -5",
                 "draws must be >= 0", id="finito-draws -5"),
    pytest.param("finito", "sampling ", lambda line: "sampling bogus",
                 "unknown sampling kind 'bogus'", id="finito-sampling bogus"),
])
def test_checkpoint_missing_entry_is_format_error(synth_tiny, tmp_path,
                                                  solver, prefix, edit, match):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, solver.removesuffix("-audit"),
                                 tmp_path, audit=solver.endswith("-audit"))
    kept = []
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            if edit is None:
                continue
            line = edit(line)
        kept.append(line)
    with pytest.raises(CheckpointFormatError, match=match) as caught:
        checkpoint_load(io.StringIO("\n".join(kept) + "\n"), problem)
    assert caught.type is CheckpointFormatError


# token `token` of line `line_no` (counting a vec line's `vec` and name) is
# replaced by `value`, and so is each (line, token, value) of `later`; lines
# 12-31 hold the first table's rows, 33-52 phi's. A NaN, an infinity and a
# token float.hex never writes for a finite float, which float.fromhex would
# read as another number (1e3 as 483) or overflow on, are each a bad float
# literal, refused at the first such line in the file
@pytest.mark.parametrize("solver,line_no,token,value,later", [
    pytest.param(solver, line_no, token, value, later, id=f"{solver}-{line_no}-{value}")
    for solver, line_no, token, value, later in [
        ("finito", 9, 2, "nan", ()),
        ("finito", 10, 4, "-inf", ()),
        ("finito", 17, 1, "inf", ()),
        ("finito-audit", 40, 0, "nan", ()),
        ("sag", 31, 2, "-inf", ()),
        ("full-gradient", 6, 3, "inf", ()),
        *(("finito", line_no, token, value, ())
          for line_no, token in ((9, 2), (17, 1))
          for value in ("0x1p+1024", "1e3", "1.5", "0X1P3")),
        # a NaN in table p two rows above a decimal: the NaN's row is the one
        ("finito", 12, 0, "nan", ((14, 2, "1e3"),)),
    ]])
def test_checkpoint_refuses_a_non_finite_entry(synth_tiny, tmp_path, solver, line_no,
                                               token, value, later):
    # no run saves one: each step is checked before it is written, and the
    # states refuse a non-finite start, so a resume would diverge at once
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, solver.removesuffix("-audit"),
                                 tmp_path, audit=solver.endswith("-audit"))
    lines = path.read_text().splitlines()
    for at, entry, text in ((line_no, token, value), *later):
        tokens = lines[at - 1].split()
        tokens[entry] = text
        lines[at - 1] = " ".join(tokens)
    message = f"line {line_no}: bad float literal {value!r}"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        checkpoint_load(io.StringIO("\n".join(lines) + "\n"), problem)


# the bytes 0xd9 0xa1 (U+0661, the Arabic-Indic digit one, in UTF-8, which
# float() reads as 1) read as two lone surrogates, refused by the rule of
# the line they stand on; an ASCII decode once named only a byte offset
@pytest.mark.parametrize("line_no,edit,message", [
    pytest.param(12, lambda line: b"\xd9\xa1 " + line.split(b" ", 1)[1],
                 "line 12: bad float literal '\\udcd9\\udca1'", id="table-row"),
    pytest.param(6, lambda line: line + b"\xd9\xa1",
                 "line 6: bad 'sampling' value 'permuted\\udcd9\\udca1'", id="sampling")])
def test_checkpoint_refuses_a_non_ascii_byte_by_its_line(synth_tiny, tmp_path, line_no,
                                                        edit, message):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, "finito", tmp_path)
    lines = path.read_bytes().splitlines()
    lines[line_no - 1] = edit(lines[line_no - 1])
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CheckpointFormatError) as caught:
        checkpoint_load(path, problem)
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", ["finito", "finito-audit", "prox-finito",
                                  "prox-finito-audit", "sag"])
def test_checkpoint_mid_first_pass_finishes_bit_exact(kind):
    # the step kernel subtracts an unseen row as if it were +0.0, so those
    # rows must load back as exactly +0.0
    # only prox-finito steps on an l1 term
    l1 = 0.01 if kind.startswith("prox-finito") else 0.0
    problem, _ = synth_problem(SynthSpec(n=20, d=3, seed=2, l1_weight=l1))
    w0 = np.full(problem.d, 0.25)

    def fresh():
        if kind == "sag":
            return sag_init(problem, w0=w0, first_pass=True), sag_first_pass_step
        state = finito_init(problem, 2.0, w0=w0, first_pass=True,
                            audit=kind.endswith("-audit"),
                            solver_tag=kind.removesuffix("-audit"))
        assert state.proximal == kind.startswith("prox-finito")
        assert state.audit == kind.endswith("-audit")
        return state, finito_first_pass_step

    def saved(state):
        sink = io.StringIO()
        checkpoint_save(state, sink)
        return sink.getvalue()

    whole, step = fresh()
    for k in range(problem.n):
        step(whole, problem, k)
    part, _ = fresh()
    for k in range(7):
        step(part, problem, k)
    part, _ = checkpoint_load(io.StringIO(saved(part)), problem)
    assert part.k == part.seen == 7
    for name in ("p_table", "phi_table", "grad_table"):
        table = getattr(part, name, None)
        if table is not None:
            assert not table[7:].any() and not np.signbit(table[7:]).any()
    for k in range(7, problem.n):
        step(part, problem, k)
    assert part.seen == problem.n
    assert saved(part) == saved(whole)


@pytest.mark.parametrize("solver", ["finito", "sag"])
def test_checkpoint_without_first_pass_before_n_round_trips(solver):
    # without a first pass every row is filled at init: seen == n while k < n
    problem, _ = synth_problem(SynthSpec(n=20, d=3, seed=2))
    if solver == "sag":
        state, step = sag_init(problem, first_pass=False), sag_step
    else:
        state, step = finito_init(problem, 2.0, first_pass=False), finito_step
    for j in (3, 0, 7):
        step(state, problem, j)
    sink = io.StringIO()
    checkpoint_save(state, sink)
    loaded, _ = checkpoint_load(io.StringIO(sink.getvalue()), problem)
    assert (loaded.k, loaded.seen) == (3, problem.n)
    again = io.StringIO()
    checkpoint_save(loaded, again)
    assert again.getvalue() == sink.getvalue()


def test_checkpoint_problem_shape_guard(synth_tiny, tmp_path):
    problem, ref = synth_tiny
    path, _ = run_and_checkpoint(problem, ref, "finito", tmp_path)
    other, _ = synth_problem(SynthSpec(n=10, d=2, seed=0))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path, other)
