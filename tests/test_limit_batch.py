"""Every ell of a limit family in one pass: the Params that stand for
numbers, the scale that ``lift.flat_limit``'s pass reads from the batches it
tiles, and ``flat_limit`` against the per-ell oracle."""
import contextlib
import io
import json
import re

import numpy as np
import pytest

from ewbench import jets
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_PASS, main
from ewbench.errors import DomainError, EwbenchError
from ewbench.families import CASES, psi_const
from ewbench.jets import ChartPoint, Field, Param, PointBatch, evaluation_scope
from ewbench.lift import (
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


def given(batch, numbers):
    """The Param whose numbers are ``numbers`` over ``batch``, its row i at
    point i alone, and over each leading slice of it the numbers of its rows."""
    held = {batch[i]: float(v) for i, v in enumerate(numbers)}
    held.update({batch[:n]: np.array(numbers[:n], dtype=float) for n in range(1, len(batch) + 1)})
    return Param(held.__getitem__)


# --- a Param over given rows --------------------------------------------------


def test_a_batch_of_its_points_is_the_batch():
    again = PointBatch.of(list(BATCH))
    assert again == BATCH and hash(again) == hash(BATCH)
    assert PointBatch.of(tuple(BATCH[1:])) == BATCH[1:]


def test_a_parameter_has_zero_derivative_parts():
    ell = given(BATCH, ELLS)
    jet = ell(BATCH, 3)
    assert jet.value.tolist() == ELLS
    assert all(not np.any(part) for part in jet.parts[1:])
    assert ell(BATCH[1], 2).value == -200.0
    assert ell.d("x").number == 0.0 and ell.d("y").number == 0.0


def test_arithmetic_with_numbers_runs_as_numbers():
    ell = given(BATCH, ELLS)
    for q, e in zip(BATCH, ELLS):
        assert (4.0 / ell).value(q) == 4.0 / e
        assert ((ell - 1.5) * 3.0 / 7.0).value(q) == (e - 1.5) * 3.0 / 7.0
    assert isinstance(4.0 / ell, Param) and isinstance(-ell * ell, Param)
    assert (4.0 / ell).value(BATCH).tolist() == [4.0 / e for e in ELLS]


def test_a_row_whose_constants_would_not_fold_raises():
    """1 / F folds only where the jet of 1/x at F is finite through order 3;
    in a row where it is not, the build at that number would evaluate the
    quotient instead, so the row constant refuses to give a number."""
    inv = 1.0 / Field.const(given(BATCH, ELLS))
    assert inv.value(BATCH[:2]).tolist() == [0.01, -0.005]
    with pytest.raises(DomainError, match="does not fold"):
        inv.value(BATCH)
    assert (1.0 / Field.const(1e-300)).number is None


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
def test_each_row_equals_its_point_alone_and_the_build_at_its_number(family):
    ells = [100.0, -3.0, 1e150, 7.5]
    chart = fibre_chart("p", CASES[family].chart)
    rows = np.random.default_rng(5).uniform(0.2, 0.8, size=(len(ells), 4))
    batch = PointBatch(chart, rows)
    _, fields = _family_fields(family, given(batch, ells))
    with evaluation_scope():
        batched = [f(batch, 2) for f in fields]
    for i, ell in enumerate(ells):
        with evaluation_scope():
            alone = [_bytes(f(batch[i], 2)) for f in fields]
        _, scalar_fields = _family_fields(family, ell)
        with evaluation_scope():
            scalar = [_bytes(f(ChartPoint.make(chart, rows[i]), 2)) for f in scalar_fields]
        assert [_bytes(jet, i) for jet in batched] == alone == scalar


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
def test_the_pass_scale_reads_the_rows_of_each_batch_it_tiled(case):
    ells = [100.0, -200.0, 1000.0]
    scale, chart = _pass_scale(case, ells)
    probes = default_probes(chart)
    # the lookup is by value: an equal batch, or the batch of its points
    tiled = PointBatch(chart, np.tile(probes.rows, (len(ells), 1)))
    want = np.repeat(ells, len(probes)).tolist()
    assert isinstance(scale, Param)
    assert scale.rows(tiled).tolist() == want
    assert scale.rows(PointBatch.of(list(tiled))).tolist() == want


@pytest.mark.parametrize("untiled", ["point", "slice", "probes"])
def test_the_pass_scale_refuses_points_it_did_not_tile(untiled):
    """What ``run_check`` reads point by point ends the pass with an exit-3
    error, never a KeyError (an internal error)."""
    ells = [100.0, -200.0]
    scale, chart = _pass_scale("heisenberg", ells)
    probes = default_probes(chart)
    tiled = PointBatch(chart, np.tile(probes.rows, (len(ells), 1)))
    pt = {"point": tiled[0], "slice": tiled[1:], "probes": probes}[untiled]
    with pytest.raises(DomainError, match="only at the batches its pass tiles"):
        scale.value(pt)


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
        if isinstance(scale, Param):
            raise DomainError("this family is built at numbers only")
        return family(scale)

    calls = _spy_columns(monkeypatch)
    ells = [100.0, 200.0, 1000.0]
    got = flat_limit(factory, ells)
    assert calls == [ells, [100.0], [200.0], [1000.0]]
    want = flat_limit_per_ell(factory, ells)
    assert got == want and repr(got) == repr(want)


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


# --- the row-constant slopes of one pass ----------------------------------------


def _unshared_affine(f, rule, c):
    """``jets._affine`` with no slope kept: a new row constant on every call."""
    if f.slope is None or rule is None:
        return None
    shifts = (jets._shifted, jets._negated)
    rows = isinstance(c, Field) and rule not in shifts

    def slope(name):
        s = f.slope(name)
        if s is None:
            return None
        if rows or (type(s) is jets._RowConstant and rule not in shifts):
            return jets._RowConstant(
                lambda pt: jets._folded(rule, jets.row_numbers(s, pt), jets.row_numbers(c, pt))
            )
        return rule(s, c)

    return slope


def test_a_limit_pass_builds_each_row_constant_slope_once(monkeypatch):
    """Every ``.d`` of a Param-scaled field along one name is one row
    constant, so the scope shares its rows; the report is that of slopes
    built anew on every call."""
    built = {}  # (slope, name) -> the row constants it gave
    affine = jets._affine

    def recorded(f, rule, c):
        slope = affine(f, rule, c)
        if slope is None:
            return None

        def seen(name):
            s = slope(name)
            if type(s) is jets._RowConstant:
                built.setdefault((slope, name), []).append(s)
            return s

        return seen

    argv = ["limit", "--case", "heisenberg"]
    monkeypatch.setattr(jets, "_affine", recorded)
    shared = _report(argv)
    assert any(len(made) > 1 for made in built.values())
    assert all(s is made[0] for made in built.values() for s in made)
    monkeypatch.setattr(jets, "_affine", _unshared_affine)
    assert shared == _report(argv) and shared[0] == EXIT_PASS
