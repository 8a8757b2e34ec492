"""Each fibre chart is one row of ``lift.FIBRES``, and one builder,
``lift.assemble``, makes the lift on either chart.  Its metric and field
strength are bit for bit those of the oracle's ``build_p`` and
``build_alpha``, which write out each chart's formulas, and ``lift.build``
is the one place a lift is validated."""
import contextlib
import io

import numpy as np
import pytest

from ewbench import cli as cli_mod
from ewbench import families as fam
from ewbench import lift as lift_mod
from ewbench.cli import EXIT_PASS, main
from ewbench.curv import field_strength
from ewbench.jets import PointBatch, evaluation_scope, sample
from ewbench.lift import FIBRES, LiftConfig, assemble, fibre_chart, fibre_points

import oracle

# (case, its parameters, ell, c); the lift is assembled unvalidated, so a
# base whose V is not constant (class-b F = 1+p^2, class-c) serves as well
BASES = (
    ("heisenberg", {}, -1.0, 0.5),
    ("class_b", {"F": "1"}, 4.0, 0.5),
    ("class_b", {"F": "1+p^2"}, 4.0, 0.5),
    ("class_c", {}, -2.0, 0.0),
)
REFERENCE = {"alpha": oracle.build_alpha, "p": oracle.build_p}


def _arrays(data, pts):
    """g through order 2 and F = dA through order 1 at ``pts``, in a scope
    of their own."""
    with evaluation_scope():
        return data.g.jets_at(pts, 2) + field_strength(data.potential, pts, 1)


@pytest.mark.parametrize("rows", [5, 1], ids=["batch", "point"])
@pytest.mark.parametrize("chart", sorted(FIBRES))
@pytest.mark.parametrize("case, params, ell, c", BASES, ids=[
    "heisenberg", "class_b_f1", "class_b_f1p2", "class_c",
])
def test_assemble_equals_the_chart_builders_bit_for_bit(case, params, ell, c, chart, rows):
    base, dom = fam.build(case, params, count=5)
    cfg = LiftConfig(base, fam.psi_const(base, c), ell, chart=chart)
    data, want = assemble(cfg, chart), REFERENCE[chart](cfg)
    assert (data.chart, data.ell, data.kind) == (want.chart, want.ell, want.kind)
    pts = fibre_points(data, 3, sample(dom))
    pts = pts if rows == 5 else pts[0]
    got, ref = _arrays(data, pts), _arrays(want, pts)
    assert len(got) == len(ref) == 5
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, ref))


def test_the_fibre_of_a_base_chart_with_a_p_is_q_and_one_with_an_alpha_is_refused():
    assert fibre_chart("p", fam.PYT) == ("q",) + fam.PYT
    assert fibre_chart("alpha", fam.PYT) == ("alpha",) + fam.PYT
    assert fibre_chart("p", ("x", "y", "t")) == ("p", "x", "y", "t")
    with pytest.raises(lift_mod.ConfigError, match="base chart already uses the name 'alpha'"):
        fibre_chart("alpha", ("alpha", "y", "t"))


def test_the_cli_offers_the_rows_of_the_table():
    assert cli_mod.CHARTS == tuple(FIBRES) == ("alpha", "p")
    assert FIBRES["alpha"].ell_max == 1e150 and FIBRES["p"].ell_max is None


def test_an_array_ell_is_held_to_the_alpha_bound_row_by_row():
    """Every row of an array ell is tested against the chart's bound, and
    the first one past it is named as a lone ell would be."""
    base = fam.heisenberg(1.0)
    psi = fam.psi_const(base, 0.0)
    inside = assemble(LiftConfig(base, psi, np.array([1.0, -2.0]), "alpha"), "alpha")
    assert inside.kind == "alpha"
    for ells in ([1.0, -3e150], [-3e150, 1.0], [1.0, np.nan]):
        with pytest.raises(lift_mod.DomainError) as err:
            assemble(LiftConfig(base, psi, np.array(ells), "alpha"), "alpha")
        past = next(e for e in ells if not abs(e) <= 1e150)
        with pytest.raises(lift_mod.DomainError) as alone:
            assemble(LiftConfig(base, psi, past, "alpha"), "alpha")
        assert str(err.value) == str(alone.value)
        assert str(err.value).startswith(f"ell = {past:g} is past the bound |ell| <= 1e+150")


@pytest.mark.parametrize("case", ["heisenberg", "class-b"])
def test_a_limit_one_pass_validates_once(monkeypatch, case):
    """One validation for the ells of the one pass; one per lift job,
    invariants included, is test_cli.py's TestLift::test_job_validates_its_config_once."""
    calls = []
    validate = lift_mod.validate_config

    def counted(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(lift_mod, "validate_config", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["limit", "--case", case, "--ells", "100,200,1000", "--c", "0.5"])
    assert code == EXIT_PASS and len(calls) == 1
    # the one pass validates at the limit rows of every ell at once, six per ell
    assert isinstance(calls[0].probes, PointBatch) and len(calls[0].probes) == 3 * 6
