"""Any argv the parser's grammar can spell exits 0, 1, 2 or 3, never through
an escaping exception: argv is built from `cli.build_parser()` itself, every
subcommand and flag, with values drawn from pools of edge values."""

import argparse
import contextlib
import io
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import finito.cli as cli  # noqa: E402
import finito.solvers  # noqa: E402

# per kind of flag: (sane values, edge values); an argv takes edge values
# for at most one flag, so that most of them get past the parser
INTS = (("0", "1", "2"), ("-1", "nan", "inf", "-inf", "1e308"))
FLOATS = (("2", "3", "0.5"), ("0", "-1", "nan", "inf", "-inf", "1e308", "-1e308",
                              "1e-308"))
# flags that size the work are always given, tiny or invalid
SIZING = {"--n": (("3",), ("1", "2", "0", "-1")),
          "--d": (("1", "2"), ("0", "nan")),
          "--draws": (("1", "2"), ("0", "-5")),
          "--epochs": (("1", "2"), ("0", "-1", "1e308")),
          "--seeds": (("1", "2", "0,2"), ("0", "-1", "nan", "1e308"))}
CONFIGS = (("finito", "sag:uniform", "prox-finito:permuted:alpha=3", "miso:cyclic",
            "full-gradient:cyclic"),
           ("finito::step=nan", "finito:uniform:alpha=1e308", "sag:uniform:step=1e308",
            "bogus", "finito:bogus", "finito:uniform:foo=1", "finito:uniform:alpha"))


# the objective flags, once also synth keys, keep the values the spec drew
OBJECTIVE = {"--s": (("0.01", "0.1"), FLOATS[1]), "--l1": (("0", "0.01"), FLOATS[1])}


def synth_specs(edge):
    # an edge spec may still spell an objective setting there, which exits 1
    extra = (tuple(f"{key}={value}" for key in ("beta", "noise")
                   for value in FLOATS[1]) + ("seed=-1", "bogus=1", "n", "l1=0.01")
             if edge else ("beta=2", "seed=2", "noise=0.1"))
    return st.builds(lambda n, d, more: ",".join([f"n={n}", f"d={d}", *more]),
                     st.sampled_from(("1", "2", "3") if edge else ("3",)),
                     st.sampled_from(("0", "1") if edge else ("1", "2")),
                     st.lists(st.sampled_from(extra), max_size=2))


@pytest.fixture(scope="module", autouse=True)
def quick_stall():
    # an argv whose problem the reference solve cannot finish (s = 0, or a
    # tiny beta) fails in milliseconds instead of after 500 000 iterations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finito.solvers, "REFERENCE_MAX_ITER", 5000)
        yield


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "tiny.svm"
    data.write_text("1 1:0.5 2:-1\n-1 2:2\n1 1:1\n", encoding="ascii")
    checkpoint = root / "tiny.ckpt"
    assert cli.main(["run", "--synth", "n=3,d=1", "--epochs", "1", "--save-state",
                     str(checkpoint), "--out", str(root / "trace.csv")]) == 0
    return {"dir": root, "data": str(data), "checkpoint": str(checkpoint),
            "missing": str(root / "missing")}


def flag_values(files, action, edge: bool):
    """Strategy for one flag's sane or edge values, from what the parser
    says of the flag."""
    flag = action.option_strings[0]
    if flag == "--synth":
        return synth_specs(edge)
    pools = {"--data": ((files["data"],), (files["missing"],)),
             "--resume": ((files["checkpoint"],), (files["missing"],)),
             "--fstar": (("auto", "none", "0"),
                         ("nan", "-inf", "1e308", files["missing"])),
             "--configs": CONFIGS,
             "--out": (("-",), (str(files["dir"] / "out.csv"),)),
             "--out-dir": ((str(files["dir"] / "traces"),),) * 2,
             "--save-state": ((str(files["dir"] / "saved.ckpt"),),) * 2}
    if flag in SIZING:
        pool = SIZING[flag]
    elif flag in OBJECTIVE:
        pool = OBJECTIVE[flag]
    elif action.choices is not None:
        pool = (tuple(action.choices), ("bogus",))
    else:
        pool = {int: INTS, float: FLOATS}.get(action.type) or pools[flag]
    values = st.sampled_from(pool[edge])
    if flag == "--configs":
        return st.lists(values, min_size=1, max_size=2).map(",".join)
    return values


@st.composite
def argvs(draw, files):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    name = draw(st.sampled_from(sorted(commands)))
    sub = commands[name]
    # the required flags and one flag of each required exclusive group
    # (--data or --synth); one argv in ten breaks these rules
    chosen = {draw(st.sampled_from(group._group_actions)).dest
              for group in sub._mutually_exclusive_groups}
    unruly = draw(st.integers(0, 9)) == 0
    present = []
    for action in sub._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        grouped = any(action in group._group_actions
                      for group in sub._mutually_exclusive_groups)
        if grouped:
            if action.dest not in chosen and not unruly:
                continue
        elif action.required or action.option_strings[0] in SIZING:
            if unruly and draw(st.booleans()):
                continue
        elif not draw(st.booleans()):
            continue
        present.append(action)
    edge = draw(st.sampled_from([None] + present))
    argv = [name]
    for action in present:
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(flag_values(files, action, action is edge)))
    if unruly and draw(st.booleans()):
        argv.append("--bogus")
    return argv


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_with_a_contract_code(files, data):
    argv = data.draw(argvs(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
