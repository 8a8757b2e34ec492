"""The exit-code contract on extreme scales: every catalog case under verify
with psi, lift on each fibre chart, and limit, with --ell, --c or --ells set
to a number at the edge of the float range; and a property over whole argvs.

Each argv exits 0, 1, 2 or 3 and raises no warning.  An exit of 2 or 3
prints exactly one ``error:`` line on stderr and nothing on stdout; an exit
of 0 or 1 prints a strict JSON report (no NaN or Infinity) whose verdict
matches the exit code, and nothing on stderr.
"""
import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import cli, errors, jets
from ewbench.cli import CHARTS, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, EXIT_SAMPLING, KEYS, main
from ewbench.expr import Bin, Call, Neg, Var, to_source
from ewbench.families import CASES

from conftest import EXPRS

VALUES = (
    "0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e150", "1e154", "1e200",
    "1e300", "-1e300", "1e308", "-1e308",
)


def _argvs():
    """(argv prefix, flag, how a value becomes the flag's argument)."""
    for case in sorted(CASES):
        c = case.replace("_", "-")
        verify = ("verify", "--case", c, "--checks", "gt,psi", "--points", "3")
        lifts = [("lift", "--case", c, "--chart", chart, "--points", "3") for chart in CHARTS]
        for base in [verify] + lifts:
            yield base, "--ell", str
            yield base, "--c", str
        yield ("limit", "--case", c), "--ells", lambda v: f"100,{v}"
        yield ("limit", "--case", c), "--c", str


GRID = list(_argvs())


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _assert_contract(argv):
    code, out, err, caught = _run(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_SAMPLING), (argv, code, err)
    assert caught == [], (argv, caught)
    assert "Warning" not in err, (argv, err)
    if code in (EXIT_CONFIG, EXIT_SAMPLING):
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)
        report = json.loads(out, parse_constant=_strict)
        assert report["verdict"] == ("pass" if code == EXIT_PASS else "fail"), argv


@pytest.mark.parametrize(
    "base, flag, arg", GRID, ids=[" ".join(base + (flag,)) for base, flag, _ in GRID]
)
def test_an_extreme_scale_keeps_the_exit_code_contract(base, flag, arg):
    for value in VALUES:
        _assert_contract(list(base) + [flag, arg(value)])


def _renamed(e, names):
    """The expression ``e`` in x and y with x renamed to the first of
    ``names`` and y to the last."""
    if isinstance(e, Var):
        return Var(names[0] if e.name == "x" else names[-1])
    if isinstance(e, Neg):
        return Neg(_renamed(e.arg, names))
    if isinstance(e, Bin):
        return Bin(e.op, _renamed(e.left, names), _renamed(e.right, names))
    if isinstance(e, Call):
        return Call(e.func, _renamed(e.arg, names))
    return e


NUMBERS = st.sampled_from(VALUES + ("1", "-1", "0.5", "-0.5"))


@st.composite
def whole_argvs(draw):
    """A verify, lift or limit argv: a catalog case, at most 5 points, and
    some of the other flags the subcommand reads, each given an offered
    value, expression data in the case's variables, an extreme number, or
    the empty value."""
    command = draw(st.sampled_from(("verify", "lift", "limit")))
    case = draw(st.sampled_from(sorted(CASES)))
    row = CASES[case]
    values = {
        "case": st.just(case.replace("_", "-")),
        "checks": st.lists(
            st.sampled_from(cli.OFFERED_CHECKS.get(command, ())), min_size=1, max_size=3, unique=True
        ).map(",".join),
        "points": st.integers(1, 5).map(str),
        "seed": st.integers(0, 3).map(str),
        "tol": NUMBERS,
        "ell": NUMBERS,
        "c": NUMBERS,
        "ells": st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
        "chart": st.sampled_from(CHARTS),
        "f": EXPRS.map(lambda e: to_source(_renamed(e, row.chart))),
    }
    for flag, (_, names) in row.exprs.items():
        values[flag] = EXPRS.map(lambda e, names=names: to_source(_renamed(e, names)))
    argv = [command, f"--case={draw(values.pop('case'))}"]
    for key, value in values.items():
        if command in KEYS[key].commands and (key == "points" or draw(st.booleans())):
            empty = draw(st.integers(0, 7)) == 7
            argv.append(f"--{key}={'' if empty else draw(value)}")
    return argv


def _assert_usage_error(argv):
    """argparse's own usage error, the one exception to a single error line
    that README's exit codes name: exit 2, nothing on stdout, and the usage
    text above one error line, for a typed flag given the empty value."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert (exc.value.code, out.getvalue()) == (EXIT_CONFIG, "")
    usage, *_, last = err.getvalue().splitlines()
    assert usage.startswith(f"usage: ewbench {argv[0]} "), err.getvalue()
    found = re.fullmatch(rf"ewbench {argv[0]}: error: argument --(\w+): invalid .*: ''( \(choose .*\))?", last)
    assert found, err.getvalue()
    key = found.group(1)
    assert f"--{key}=" in argv and (KEYS[key].type or KEYS[key].choices), (argv, last)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=whole_argvs())
def test_a_whole_argv_keeps_the_exit_code_contract(argv):
    try:
        _assert_contract(argv)
    except SystemExit:
        _assert_usage_error(argv)


# an integer that no float holds, where the float range ends
HUGE = int("1" + "0" * 399)


@pytest.mark.parametrize(
    "command, values",
    [
        ("lift", {"ell": HUGE}),
        ("lift", {"c": HUGE}),
        ("lift", {"tol": HUGE}),
        ("lift", {"points": HUGE}),
        ("verify", {"points": -HUGE}),
        ("limit", {"ells": [100, HUGE]}),
        ("limit", {"ells": [-HUGE, 100]}),
    ],
    ids=lambda v: v if isinstance(v, str) else next(iter(v)),
)
def test_a_config_integer_past_the_float_range_is_a_config_error(tmp_path, command, values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values))
    key = next(iter(values))
    code, out, err, caught = _run([command, "--case", "heisenberg", "--config", str(path)])
    assert (code, out, caught) == (EXIT_CONFIG, "", [])
    assert err == f"error: {key} must lie in the float range (magnitude at most 1.79769e+308)\n"


@pytest.mark.parametrize("ell, v", [("5e-324", "inf"), ("-5e-324", "-inf")])
def test_an_overflowing_v_is_a_sampling_exit_under_lift_and_limit(ell, v):
    """heisenberg's V = 2/ell overflows: lift's sign rule and limit's gauge
    check both refuse the value as not finite, limit naming the ell."""
    runs = [
        (["lift", "--case", "heisenberg", "--ell", ell, "--points", "3"],
         f"error: V is not finite at the probe: V = {v} for ell = {ell}\n"),
        (["limit", "--case", "heisenberg", "--ells", f"100,{ell}"],
         f"error: ell = {ell}: check 'lift.gauge' is "),
    ]
    for argv, err in runs:
        code, out, got, caught = _run(argv)
        assert (code, out, caught) == (EXIT_SAMPLING, "", []), (argv, got)
        assert got.startswith(err), (argv, got)


# a guard on constant data that fails everywhere: the exhaustion is certain
# after the first batch, and reads as if every draw up to the cap was made
CERTAIN_EXHAUSTION = {
    "verify --case class-b --F 1e-3 --points 2": "F^2 > 1e-4",
    "lift --case class-b --F 1e-3 --points 2": "F^2 > 1e-4",
    "verify --case from-G --points 2 --A p": "G_pp^2 > 1e-6",
}


@pytest.mark.parametrize("argv", list(CERTAIN_EXHAUSTION))
def test_a_guard_constant_that_rejects_exhausts_after_one_batch(monkeypatch, argv):
    calls, screen = [], jets._screen

    def counted(domain, rows):
        calls.append(len(rows))
        return screen(domain, rows)

    monkeypatch.setattr(jets, "_screen", counted)
    code, out, err, caught = _run(argv.split())
    assert (code, out, caught) == (EXIT_SAMPLING, "", [])
    assert err == (
        "error: acceptance rate 0/1000448 below 1% after 1000448 draws; "
        f"rejected by {CERTAIN_EXHAUSTION[argv]}: 1000448\n"
    )
    assert len(calls) == 1 and calls[0] <= 512


def test_a_mean_whose_sum_overflows_is_finite():
    # every row is finite, and the sum of 50 of them is not
    argv = ["verify", "--case", "from-H", "--H", "2e153*x*y", "--checks", "hypercr", "--points", "50"]
    _assert_contract(argv)
    code, out, _, _ = _run(argv)
    check = json.loads(out)["checks"]["hypercr"]
    assert code == EXIT_FAIL
    assert 1e307 < check["mean"] <= check["max"] < math.inf


def test_a_points_flag_past_the_float_range_is_a_config_error():
    code, out, err, caught = _run(["verify", "--case", "heisenberg", "--points", str(HUGE)])
    assert (code, out, caught) == (EXIT_CONFIG, "", [])
    assert err == "error: points must lie in the float range (magnitude at most 1.79769e+308)\n"


# every EwbenchError class, the exit code of the CLI when it is raised, and
# the arguments it is raised with
EXIT_CODES = {
    errors.EwbenchError: (EXIT_CONFIG, ("boom",)),
    errors.ConfigError: (EXIT_CONFIG, ("boom",)),
    errors.ExprError: (EXIT_CONFIG, ("boom",)),
    errors.ExprSyntaxError: (EXIT_CONFIG, ("boom", 3)),
    errors.UnknownIdentifierError: (EXIT_CONFIG, ("q", 3)),
    errors.DomainError: (EXIT_SAMPLING, ("boom", "1/x")),
    errors.JetOrderError: (EXIT_CONFIG, ("boom",)),
    errors.SamplingExhaustedError: (EXIT_SAMPLING, ("boom",)),
    errors.SingularFrameError: (EXIT_SAMPLING, ("boom",)),
    errors.SingularMetricError: (EXIT_SAMPLING, ("boom",)),
    errors.DegenerateLegendreError: (EXIT_CONFIG, ("boom",)),
    errors.HeatResidualError: (EXIT_CONFIG, ("boom",)),
    errors.GaugeViolationError: (EXIT_CONFIG, ("boom",)),
    errors.PsiResidualError: (EXIT_CONFIG, ("boom",)),
}


def _subclasses(cls):
    return [cls] + [s for sub in cls.__subclasses__() for s in _subclasses(sub)]


def test_the_table_holds_every_error_class():
    assert set(_subclasses(errors.EwbenchError)) == set(EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code(monkeypatch, cls):
    code, args = EXIT_CODES[cls]
    exc = cls(*args)

    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "_run", raising)
    got, out, err, caught = _run(["verify", "--case", "heisenberg"])
    assert (got, out, caught) == (code, "", [])
    assert cls.exit_code == code
    assert err == f"error: {exc}\n" and err.count("\n") == 1
