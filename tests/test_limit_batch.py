"""Every ell of a limit family in one pass: the (N,) arrays that field
algebra takes as constants with one number per row, the array of ells
that ``lift.flat_limit``'s pass builds its family at, and ``flat_limit``
against the per-ell oracle."""
import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from ewbench import jets
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_PASS, main
from ewbench.errors import ConfigError, DomainError, EwbenchError
from ewbench.families import CASES, class_b, heisenberg, psi_const
from ewbench.jets import ChartPoint, Field, PointBatch, evaluation_scope
from ewbench.lift import (
    LIMIT_ROWS,
    LiftConfig,
    assemble,
    default_probes,
    fibre_chart,
    flat_limit,
    limit_family,
)

from oracle import flat_limit_per_ell
from test_exit_codes import VALUES as EXTREMES

XY = ("x", "y")
ROWS = [[0.5, -1.0], [2.0, 0.25], [-3.0, 4.0]]
BATCH = PointBatch(XY, ROWS)
ELLS = [100.0, -200.0, 1e-300]


# --- a constant of one number per row -------------------------------------------


def test_a_batch_of_its_points_is_the_batch():
    again = PointBatch.of(list(BATCH))
    assert again == BATCH and hash(again) == hash(BATCH)
    assert PointBatch.of(tuple(BATCH[1:])) == BATCH[1:]


def test_a_parameter_has_zero_derivative_parts():
    ell = Field.const(np.array(ELLS))
    jet = ell(BATCH, 3)
    assert jet.value.tolist() == ELLS
    assert all(not np.any(part) for part in jet.parts[1:])
    assert ell.d("x").number == 0.0 and ell.d("y").number == 0.0


def test_arithmetic_with_numbers_runs_as_numbers():
    """A constant of an array folds with numbers, when it is built, row by
    row as the constant of each row's number folds; an array on either
    side of a field is its constant."""
    ell = Field.const(np.array(ELLS))
    built = ((ell - 1.5) * 3.0 / 7.0, -ell * ell, 2.0 - ell)
    for i, e in enumerate(ELLS):
        alone = ((Field.const(e) - 1.5) * 3.0 / 7.0, -Field.const(e) * e, 2.0 - Field.const(e))
        assert [f.number[i] for f in built] == [f.number for f in alone]
    x = Field.coordinate("x")
    numbers = np.array(ELLS)
    for got, want in [(numbers * x, x * numbers), (numbers - x, -x + numbers)]:
        assert got.value(BATCH).tolist() == want.value(BATCH).tolist()
    assert (numbers / x).value(BATCH).tolist() == [e / q[0] for e, q in zip(ELLS, ROWS)]


def test_a_pair_that_does_not_fold_in_some_row_is_evaluated():
    """1 / F folds only where the jet of 1/x at F is finite through order 3.
    An array with a row where it is not builds, as that row's number does,
    unfolded, and evaluating it raises what the number's evaluation
    raises; a family built at such an array ends a limit pass with the
    error of the ell that fails alone."""
    assert (1.0 / Field.const(np.array(ELLS[:2]))).number.tolist() == [0.01, -0.005]
    inv = 1.0 / Field.const(np.array([100.0, 1e-300]))
    alone = 1.0 / Field.const(1e-300)
    assert inv.number is None and alone.number is None
    # its value is finite, and its jet through order 3 is not
    big = 1.0 / 1e-300
    assert alone.value(BATCH[0]) == big and inv.value(BATCH[:2]).tolist() == [0.01, big]
    for field, pt in [(alone, BATCH[0]), (inv, BATCH[:2])]:
        with pytest.raises(DomainError, match="^reciprocal of .* leaves the float range$"):
            field(pt, 3)
    # class B at F = ell/4 with a zero row, and heisenberg where 4/ell overflows
    for family, scales, ells in [
        (class_b, [25.0, 0.0, 25.0], [100.0, 0.0, 100.0]),
        (heisenberg, [100.0, 5e-324], [100.0, 5e-324]),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            family(np.array(scales))
        factory, _ = limit_family(family.__name__, 0.0)
        with np.errstate(all="ignore"), pytest.raises(EwbenchError) as want:
            flat_limit_per_ell(factory, ells)
        with pytest.raises(EwbenchError) as got:
            flat_limit(factory, ells)
        assert type(got.value) is type(want.value)
        assert str(got.value) == f"ell = {ells[1]!r}: {want.value}"


def test_an_array_fold_is_silent_where_the_float_fold_is():
    """Where a row overflows, or its reciprocal's jet is not finite, an
    array folds as each row's float does, with no numpy warning."""
    big, small = np.array([1e308, 1.0]), np.array([1e-320, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (Field.const(big) * 10.0).number.tolist() == [math.inf, 10.0]
        assert (Field.const(big) + Field.const(big)).number.tolist() == [math.inf, 2.0]
        assert (1.0 / Field.const(small)).number is None
        assert [(Field.const(v) * 10.0).number for v in big] == [math.inf, 10.0]
        assert [(Field.const(v) + Field.const(v)).number for v in big] == [math.inf, 2.0]
        assert (1.0 / Field.const(1e-320)).number is None


def _bytes(jet, row=None):
    """The parts of a jet, or of its row ``row`` of a batch (a part without
    the batch axis serves every row), as bytes."""
    parts = [p if row is None or np.ndim(p) == k else p[row] for k, p in enumerate(jet.parts)]
    return tuple(np.asarray(p, dtype=float).tobytes() for p in parts)


def _family_fields(family, scale):
    """Fields of a limit family's base and p-chart lift at ``scale``."""
    base, ell = CASES[family].limit(scale)
    data = assemble(LiftConfig(base, psi_const(base, 0.5), ell), "p")
    forms = (base.omega, data.g, data.potential)
    return data.chart, [base.V] + [f for form in forms for f in form.comps.values()]


@pytest.mark.parametrize("family", ["heisenberg", "class_b"])
def test_each_row_equals_the_build_at_its_number(family):
    ells = [100.0, -3.0, 1e150, 7.5]
    chart = fibre_chart("p", CASES[family].chart)
    rows = np.random.default_rng(5).uniform(0.2, 0.8, size=(len(ells), 4))
    batch = PointBatch(chart, rows)
    _, fields = _family_fields(family, np.array(ells))
    with evaluation_scope():
        batched = [f(batch, 2) for f in fields]
    for i, ell in enumerate(ells):
        _, scalar_fields = _family_fields(family, ell)
        with evaluation_scope():
            scalar = [_bytes(f(ChartPoint.make(chart, rows[i]), 2)) for f in scalar_fields]
        assert [_bytes(jet, i) for jet in batched] == scalar


# --- the scale of flat_limit's one pass ------------------------------------------


def _pass_scale(case, ells):
    """The scale that ``flat_limit``'s one pass over ``ells`` hands the
    factory of ``case``, and the base chart of the family."""
    factory, _ = limit_family(case, 0.0)
    scales = []

    def spied(scale):
        scales.append(scale)
        return factory(scale)

    flat_limit(spied, ells)
    return scales[0], CASES[case].chart


@pytest.mark.parametrize("case", ["heisenberg", "class_b"])
def test_the_pass_scale_is_the_ell_of_each_limit_row(case):
    ells = [100.0, -200.0, 1000.0]
    scale, chart = _pass_scale(case, ells)
    want = np.repeat(ells, len(LIMIT_ROWS)).tolist()
    assert type(scale) is np.ndarray and scale.tolist() == want
    # its constant reads at the tiled rows, or the batch of their points
    tiled = PointBatch(chart, np.tile(LIMIT_ROWS[:, 1:], (len(ells), 1)))
    assert Field.const(scale).value(tiled).tolist() == want
    assert Field.const(scale).value(PointBatch.of(list(tiled))).tolist() == want


@pytest.mark.parametrize("untiled", ["point", "slice", "probes"])
def test_the_pass_scale_refuses_points_it_did_not_tile(untiled):
    """What ``run_check`` reads point by point ends the pass with an exit-3
    error, never an internal error: a field of the scale, a constant of it
    or a field that such a constant acts on, raises the same DomainError at
    a point, at a slice and at another batch."""
    ells = [100.0, -200.0]
    scale, chart = _pass_scale("heisenberg", ells)
    tiled = PointBatch(chart, np.tile(LIMIT_ROWS[:, 1:], (len(ells), 1)))
    pt = {"point": tiled[0], "slice": tiled[1:], "probes": default_probes(chart)}[untiled]
    base = heisenberg(-scale)
    for field in (Field.const(scale), base.V, base.u):
        with pytest.raises(DomainError, match="only at the batches its pass tiles"):
            field.value(pt)


# --- flat_limit in one pass ----------------------------------------------------


@pytest.mark.parametrize(
    "ells", ["100,200,1000,10000", "200,100", "-100,-200", "1,1e154", "1,1e300"]
)
@pytest.mark.parametrize("c", [0.0, -0.0, 0.5])
@pytest.mark.parametrize("case", ["heisenberg", "class_b"])
def test_the_batched_report_is_the_per_ell_report(case, c, ells):
    factory, _ = limit_family(case, c)
    ells = [float(e) for e in ells.split(",")]
    got, want = flat_limit(factory, ells), flat_limit_per_ell(factory, ells)
    assert got == want and repr(got) == repr(want)


def _outcome(limit, factory, ells):
    """The report of ``limit``, or the type and text of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return repr(limit(factory, ells))
    except EwbenchError as exc:
        return type(exc).__name__, str(exc)


def _first_failing(factory, ells):
    """The first of ``ells`` whose lone run raises."""
    for ell in ells:
        if isinstance(_outcome(flat_limit_per_ell, factory, [ell, ell]), tuple):
            return ell
    raise AssertionError(f"no lone run of {ells} fails")


def _unprefixed(factory, ells):
    """The outcome of ``flat_limit``, with the ``ell = <repr>: `` prefix of
    an error split off after checking that it names the first ell whose
    lone run fails."""
    got = _outcome(flat_limit, factory, ells)
    if isinstance(got, str):
        return got
    prefix = f"ell = {_first_failing(factory, ells)!r}: "
    assert got[1].startswith(prefix)
    return got[0], got[1][len(prefix):]


@pytest.mark.parametrize("order", ["first", "last"])
@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("case", ["heisenberg", "class_b"])
def test_an_extreme_scale_gives_what_each_ell_gives_alone(case, value, order):
    """The scales of tests/test_exit_codes.py, where the batched pass meets
    constants that do not fold, non-finite rows and failing ells."""
    factory, _ = limit_family(case, 0.5)
    ells = [float(value), 100.0] if order == "first" else [100.0, float(value)]
    assert _unprefixed(factory, ells) == _outcome(flat_limit_per_ell, factory, ells)


@pytest.mark.parametrize(
    "case, ells",
    [
        ("heisenberg", [100.0, 0.0, 5e-324]),
        ("heisenberg", [100.0, 5e-324, 0.0]),
        ("class_b", [100.0, 0.0, 1e-300]),
        ("class_b", [100.0, 1e-300, 0.0]),
    ],
)
def test_the_first_failing_ell_is_the_one_reported(case, ells):
    """Two ells that fail with different errors: the job raises what the
    first of them raises alone, whichever comes first, and names it."""
    factory, _ = limit_family(case, 0.0)
    with np.errstate(all="ignore"), pytest.raises(EwbenchError) as want:
        flat_limit_per_ell(factory, ells)
    with np.errstate(all="ignore"), pytest.raises(EwbenchError) as got:
        flat_limit(factory, ells)
    assert type(got.value) is type(want.value)
    assert str(got.value) == f"ell = {ells[1]!r}: {want.value}"
    with np.errstate(all="ignore"), pytest.raises(EwbenchError) as other:
        flat_limit_per_ell(factory, [ells[0], ells[2], ells[1]])
    assert (type(other.value), str(other.value)) != (type(want.value), str(want.value))


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, re.sub(r'^ *"wall_time_s": .*\n', "", out.getvalue(), flags=re.M)


def test_a_limit_without_a_case_echoes_the_family_that_ran():
    code, out = _report(["limit", "--ells", "100,200"])
    assert code == EXIT_PASS
    assert json.loads(re.sub(r",(\s*[}\]])", r"\1", out))["config"]["case"] == "heisenberg"
    assert (code, out) == _report(["limit", "--case", "heisenberg", "--ells", "100,200"])



def _spy_columns(monkeypatch):
    """The ells of every ``lift._limit_columns`` call, in order."""
    calls, columns = [], lift_mod._limit_columns

    def spied(factory, ells):
        calls.append(list(ells))
        return columns(factory, ells)

    monkeypatch.setattr(lift_mod, "_limit_columns", spied)
    return calls


@pytest.mark.parametrize("case", ["heisenberg", "class_b"])
def test_a_failed_pass_merges_the_columns_of_each_ell_alone(monkeypatch, case):
    """A pass that raises runs again one ell at a time, and the report is
    the per-ell report."""
    family, _ = limit_family(case, 0.5)

    def factory(scale):
        if type(scale) is np.ndarray:
            raise DomainError("this family is built at numbers only")
        return family(scale)

    calls = _spy_columns(monkeypatch)
    ells = [100.0, 200.0, 1000.0]
    got = flat_limit(factory, ells)
    assert calls == [ells, [100.0], [200.0], [1000.0]]
    want = flat_limit_per_ell(factory, ells)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("run", ["one-pass", "one-ell", "fallback"])
@pytest.mark.parametrize("case", ["heisenberg", "class_b"])
def test_the_lift_is_validated_at_the_base_of_the_limit_rows(monkeypatch, case, run):
    """The probes ``lift.validate_config`` gets are the base columns of
    LIMIT_ROWS tiled once per ell of the pass, where the lift is evaluated:
    in the one pass, in a one-ell pass, and in each pass of the fallback."""
    probes = []
    validate = lift_mod.validate_config

    def spied(cfg):
        probes.append(cfg.probes)
        return validate(cfg)

    monkeypatch.setattr(lift_mod, "validate_config", spied)
    family, _ = limit_family(case, 0.5)

    def factory(scale):
        if run == "fallback" and type(scale) is np.ndarray:
            raise DomainError("this family is built at numbers only")
        return family(scale)

    ells = [100.0, -200.0, 1000.0]
    if run == "one-ell":
        lift_mod._limit_columns(factory, ells[:1])
        passes = [1]
    else:
        flat_limit(factory, ells)
        passes = [3] if run == "one-pass" else [1, 1, 1]
    base = fibre_chart("p", CASES[case].chart)[1:]
    assert [(p.chart, p.rows.tolist()) for p in probes] == [
        (base, np.tile(LIMIT_ROWS[:, 1:], (n, 1)).tolist()) for n in passes
    ]


@pytest.mark.parametrize("case, ells", [("heisenberg", [0.0, 1.0]), ("class_b", [1.0, 0.0])])
def test_a_zero_ell_of_a_library_factory_is_a_config_error_naming_it(case, ells):
    """``flat_limit`` called with a zero ell (the CLI refuses one before any
    pass) raises what that ell raises alone, with no numpy warning."""
    factory, _ = limit_family(case, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"^ell = 0\.0: "):
            flat_limit(factory, ells)


@pytest.mark.parametrize("zero", ["0", "-0.0"])
def test_a_zero_ell_is_refused_before_any_pass(capsys, monkeypatch, tmp_path, zero):
    """From text or a config-file list, one line that both families share,
    and no pass runs."""
    calls = _spy_columns(monkeypatch)
    path = tmp_path / "limit.json"
    path.write_text(f'{{"ells": [100, {zero}]}}')
    runs = [
        (["--ells", f"100,200,{zero}"], f"100,200,{zero}"),
        (["--config", str(path)], json.loads(f"[100, {zero}]")),
    ]
    for args, raw in runs:
        for case in ("heisenberg", "class-b"):
            assert main(["limit", "--case", case] + args) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"error: ells must be nonzero, got {raw!r}\n")
    assert calls == []
