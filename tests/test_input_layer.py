"""The input layer: the ``cli.KEYS`` table, the flags argparse hands over,
and the expression reader, with properties over expression text and
float flags in exponent form.

Every run keeps the exit-code contract: it exits 0, 1, 2 or 3; on 2 or 3
stderr holds one ``error:`` line and stdout is empty; on 0 or 1 stdout is
strict JSON (no NaN or Infinity) whose verdict matches the exit code.
"""
import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewbench import cli as cli_mod
from ewbench import expr as ex
from ewbench import jets
from ewbench.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, EXIT_SAMPLING, KEYS, main
from ewbench.errors import ConfigError, ExprError
from ewbench.families import CASES


def subparsers():
    parser = cli_mod.make_parser()
    return parser, parser.commands


def run(argv):
    """(exit code, stdout, stderr, warnings) of one in-process ``main``;
    an argparse usage error gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def assert_contract(argv, reports=True):
    code, out, err, caught = run(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_SAMPLING), (argv, code, err)
    assert caught == [], (argv, caught)
    if code in (EXIT_CONFIG, EXIT_SAMPLING):
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        return
    assert err == "", (argv, err)
    report = json.loads(out, parse_constant=_strict)
    if reports:
        assert report["verdict"] == ("pass" if code == EXIT_PASS else "fail"), argv


# --- the KEYS table ---------------------------------------------------------------

COMMANDS = ("verify", "lift", "limit")
FLAGS = {f"--{key}" for key, row in KEYS.items() if row.commands}


@pytest.mark.parametrize("key", ["command", "ell_used", "sign_fixed", "bogus"])
def test_a_config_key_that_no_flag_sets_is_unknown(tmp_path, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: None}))
    code, out, err, _ = run(["verify", "--case", "heisenberg", "--config", str(path)])
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: unknown config key {key!r}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_each_parser_takes_the_flag_of_every_key_row(command):
    _, subs = subparsers()
    assert set(subs[command]._option_string_actions) == {"-h", "--help", "--config"} | FLAGS


@pytest.mark.parametrize("command, flags", [
    ("verify", "--case --ell --checks --points --seed --tol --beta --F --K --H --A --B --c --f"),
    ("lift", "--case --ell --checks --points --seed --tol --beta --F --K --H --A --B --c --chart"),
    ("limit", "--case --checks --tol --c --ells"),
])
def test_help_names_exactly_the_flags_a_subcommand_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    named = re.findall(r"^  (--[a-zA-Z]+)", capsys.readouterr().out, flags=re.M)
    assert exc.value.code == 0
    assert named == flags.split() + ["--out", "--config"]
    assert set(named) == {f"--{k}" for k, row in KEYS.items() if command in row.commands} | {
        "--config"
    }


# a value each flag parses
VALUES = {float: "2", int: "3", None: "x"}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", sorted(f[2:] for f in FLAGS))
def test_a_subcommand_reads_the_flags_whose_rows_name_it(command, key):
    row = KEYS[key]
    value = row.choices[0] if row.choices else VALUES[row.type]
    parser, _ = subparsers()
    args = parser.parse_args([command, "--case", "heisenberg", f"--{key}", value])
    refusal = f"--{key} is not used by {command}"
    try:
        cli_mod.merge_config(args)
        message = None
    except ConfigError as exc:
        message = str(exc)
    if command in row.commands:
        assert message != refusal
    else:
        assert message == refusal


# --- flags argparse hands over as a list ------------------------------------------

BASES = {
    "verify": ("verify", "--case", "heisenberg", "--points", "3"),
    "lift": ("lift", "--case", "heisenberg", "--points", "3"),
    "limit": ("limit", "--case", "heisenberg"),
    "eval": ("eval", "--expr", "x", "--at", "x=1"),
}


def _option_strings():
    _, subs = subparsers()
    for command, sub in subs.items():
        for option, action in sub._option_string_actions.items():
            yield command, option, action.nargs == 0


@pytest.mark.parametrize("command, option, bare", list(_option_strings()))
def test_an_option_given_the_end_of_options_marker_is_a_usage_error(command, option, bare):
    # argparse strips "--" from an option's value, which would leave a list
    code, out, err, _ = run(BASES[command] + (f"{option}=--",))
    assert (code, out) == (EXIT_CONFIG, "")
    if not bare:
        assert f"error: argument {option}: expected one argument\n" in err
        assert err.startswith(f"usage: ewbench {command}")


# --- the sample size bound --------------------------------------------------------


@pytest.fixture
def no_sampling(monkeypatch):
    def never(domain):
        raise AssertionError("sampled before --points was refused")

    monkeypatch.setattr(cli_mod, "sample", never)
    monkeypatch.setattr(jets, "sample", never)


def test_points_past_the_draw_budget_from_a_flag_are_refused(no_sampling):
    code, out, err, _ = run(["verify", "--case", "heisenberg", "--points", str(10**14)])
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: points must be at most {jets._MAX_DRAWS}\n")


def test_points_past_the_draw_budget_from_a_file_are_refused(no_sampling, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"points": 10**7}))
    code, out, err, _ = run(["lift", "--case", "heisenberg", "--config", str(path)])
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: points must be at most {jets._MAX_DRAWS}\n")


def test_points_at_the_draw_budget_are_accepted():
    parser, _ = subparsers()
    args = parser.parse_args(["verify", "--case", "heisenberg", "--points", str(jets._MAX_DRAWS)])
    assert cli_mod.merge_config(args)["points"] == jets._MAX_DRAWS


# --- expression text --------------------------------------------------------------

# the coordinates of every case chart and expression parameter, and the
# fibre chart names
NAMES = sorted(
    {n for row in CASES.values() for n in row.chart}
    | {n for row in CASES.values() for _, names in row.exprs.values() for n in names}
    | set(cli_mod.CHARTS)
)
PIECES = (
    list("0123456789.eE+-*/^() ")
    + NAMES
    + sorted(ex.FUNCTIONS)
    + ["²", "٣", "½", "é"]
    + ["1e999", "1e308", "5e-324", "1" + "0" * 399]
)
TEXT = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
POINT = ",".join(f"{n}={0.3 + 0.4 * i}" for i, n in enumerate(NAMES))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=TEXT)
@example("y^²")
@example("x^1e999")
def test_text_parses_to_a_tree_that_prints_back_to_itself(text):
    try:
        tree = ex.parse(text, NAMES)
    except ExprError:
        return
    assert ex.parse(ex.to_source(tree), NAMES) == tree


def test_a_number_is_ascii_digits():
    assert ex.parse("2.5e-3", ()) == ex.Const(2.5e-3)
    assert ex.parse("1.", ()) == ex.Const(1.0)
    with pytest.raises(ExprError, match="unexpected 'e' at offset 1"):
        ex.parse("2e", ("e",))  # no digits follow the e: the number is 2
    with pytest.raises(ExprError, match="unknown identifier '²'"):
        ex.parse("y^²", ("y",))
    with pytest.raises(ExprError, match="unexpected character '٣'"):
        ex.parse("٣", ())
    assert ex.to_source(ex.parse("x^1e999", ("x",))) == "x^1e999"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--case", "from-H", "--H", "x^1e999", "--points", "3"),
        ("verify", "--case", "class-b", "--F", "1e999/1e-320", "--points", "3"),
        ("lift", "--case", "class-b", "--F", "1e9999/1e-320", "--points", "3",
         "--checks", "em,maxwell,invariants", "--c", "0.5"),
    ],
)
def test_an_infinite_literal_in_a_failing_subexpression_is_one_error_line(argv):
    assert_contract(argv)


def test_a_failing_subexpression_names_its_infinite_literal():
    code, out, err, _ = run(["verify", "--case", "class-b", "--F", "1e999/1e-320", "--points", "3"])
    assert (code, out) == (EXIT_SAMPLING, "")
    assert err == "error: reciprocal of 1e-320 leaves the float range in '1e999/1e-320'\n"


# each expression flag of each case under verify and lift, and verify's --f
CONSTANT_FLAGS = [
    (command, case.replace("_", "-"), flag)
    for command in ("verify", "lift")
    for case, row in sorted(CASES.items())
    for flag in row.exprs
] + [("verify", "heisenberg", "f")]


@pytest.mark.parametrize("command, case, flag", CONSTANT_FLAGS, ids=lambda v: v)
@pytest.mark.parametrize(
    "text, shown", [("1e999", "inf"), ("-1e999", "-inf"), ("1e999-1e999", "nan")]
)
def test_a_constant_that_is_not_finite_is_refused_naming_its_flag(command, case, flag, text, shown):
    code, out, err, caught = run([command, "--case", case, f"--{flag}={text}", "--points", "3"])
    assert (code, out, caught) == (EXIT_CONFIG, "", [])
    assert err == f"error: {flag} must be finite, got {shown}\n"


# the cases that read expression text, each with its flag
READERS = (("from-H", "H"), ("class-b", "F"), ("class-a", "beta"))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=TEXT)
@example("y^²")
@example("x^1e999")
def test_expression_text_keeps_the_exit_code_contract(text):
    runs = [(("eval", f"--expr={text}", f"--at={POINT}", "--order=3"), False)]
    runs += [
        (("verify", "--case", case, f"--{flag}={text}", "--points", "3"), True)
        for case, flag in READERS
    ]
    for argv, reports in runs:
        if text == "--":  # argparse strips it: the usage error pinned above
            assert run(argv)[:2] == (EXIT_CONFIG, "")
        else:
            assert_contract(argv, reports)


FLOAT_KEYS = sorted(key for key, row in KEYS.items() if row.type is float)
# a negative number in exponent form, with a float flag it is given to
NEGATIVE_EXPONENT_FORMS = st.builds(
    "-{}e{}{}".format,
    st.sampled_from(["0", "1", "2.5", "4.9", "9.99"]),
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 400),
)
RUNS = {
    "verify": ("verify", "--case", "heisenberg", "--checks", "gt,psi", "--points", "3"),
    "lift": ("lift", "--case", "heisenberg", "--points", "3"),
    "limit": ("limit", "--case", "heisenberg", "--ells", "100,200"),
}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(key=st.sampled_from(FLOAT_KEYS), command=st.sampled_from(COMMANDS), value=NEGATIVE_EXPONENT_FORMS)
def test_a_float_flag_in_exponent_form_keeps_the_exit_code_contract(key, command, value):
    assert_contract(RUNS[command] + (f"--{key}", value))
