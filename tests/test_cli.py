import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import (
    ChartPoint,
    LiftConfig,
    MetricField,
    ext_d,
    heisenberg,
    parse_field,
    psi_const,
    ricci,
)
from ewbench import lift as lift_mod
from ewbench.curv import f_squared, kretschmann, scalar_invariants
from ewbench.errors import DomainError, EwbenchError, SingularMetricError
from ewbench.forms import signature
from ewbench.expr import eval_jet, to_source
from ewbench.families import CASES, default_domain
from ewbench.jets import PointBatch, evaluation_scope, sample
from ewbench.lift import build, fix_ell_sign
from ewbench.report import report_json, run_check
from ewbench import cli as cli_mod
from ewbench.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_SAMPLING,
    main,
)

from conftest import COORDS, EXPRS
from oracle import hodge3, signature_at


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def normalize(text):
    return re.sub(r",\n  \"wall_time_s\": [^\n]*", "", text)


# --- verify -----------------------------------------------------------------


class TestVerify:
    def test_heisenberg_full_pass(self, capsys):
        code, rep = run_json(
            capsys,
            "verify", "--case", "heisenberg", "--ell", "1",
            "--checks", "gt,monopole,weyl",
            "--points", "200", "--seed", "7", "--tol", "1e-7",
        )
        assert code == EXIT_PASS
        assert rep["schema"] == 1
        assert rep["verdict"] == "pass"
        assert rep["n_points"] == 200
        assert set(rep["checks"]) == {"gt", "monopole", "weyl"}
        for chk in rep["checks"].values():
            assert chk["verdict"] == "pass"
            assert chk["max"] <= 1e-7
            assert len(chk["worst_point"]) == 3

    def test_report_key_order_is_fixed(self, capsys):
        _, rep = run_json(
            capsys, "verify", "--case", "heisenberg", "--checks", "gt",
            "--points", "10",
        )
        assert list(rep) == [
            "schema", "config", "chart", "n_points",
            "conventions", "checks", "verdict", "wall_time_s",
        ]
        assert list(rep["config"]) == list(DEFAULTS)
        assert list(rep["checks"]["gt"]) == [
            "max", "mean", "worst_point", "tol", "verdict",
        ]

    def test_negative_control_fails(self, capsys):
        code, rep = run_json(
            capsys,
            "verify", "--case", "from-H", "--H", "x*y",
            "--checks", "gt", "--points", "20",
        )
        assert code == EXIT_FAIL
        assert rep["verdict"] == "fail"
        assert rep["checks"]["gt"]["max"] > 1e-3

    def test_psi_preset_check(self, capsys):
        code, rep = run_json(
            capsys,
            "verify", "--case", "heisenberg", "--checks", "psi",
            "--c", "0.5", "--points", "30",
        )
        assert code == EXIT_PASS
        assert rep["config"]["c"] == 0.5

    def test_gauge_flag_preserves_structure_checks(self, capsys):
        code, rep = run_json(
            capsys,
            "verify", "--case", "heisenberg", "--f", "0.1*x",
            "--checks", "gt,monopole", "--points", "30", "--tol", "1e-6",
        )
        assert code == EXIT_PASS

    def test_generator_case(self, capsys):
        code, rep = run_json(
            capsys,
            "verify", "--case", "from-G", "--A", "p^2/2", "--B", "0",
            "--checks", "gt,monopole", "--points", "30",
        )
        assert code == EXIT_PASS


class TestCaseTable:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_case_runs_at_its_defaults(self, capsys, case):
        code, rep = run_json(
            capsys, "verify", "--case", case.replace("_", "-"), "--points", "5", "--checks", "gt",
        )
        assert code == EXIT_PASS
        assert rep["n_points"] == 5

    @pytest.mark.parametrize(
        "command, check",
        [(c, n) for c in ("verify", "lift") for n in cli_mod.OFFERED_CHECKS[c]],
    )
    def test_every_offered_check_runs(self, capsys, command, check):
        code, rep = run_json(
            capsys, command, "--case", "heisenberg", "--points", "5", "--checks", check,
        )
        assert code == EXIT_PASS
        assert list(rep["checks"]) == [check]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_build_case_samples_the_default_domain(self, case):
        cfg = dict(DEFAULTS, command="verify", case=case.replace("_", "-"), seed=3, points=20)
        defaults = {name: default for name, (default, _) in CASES[case].exprs.items()}
        _, dom = cli_mod.build_case(cfg)
        got = sample(dom)
        want = sample(default_domain(case, seed=3, count=20, **defaults))
        assert [(q.chart, q.coords) for q in got] == [(q.chart, q.coords) for q in want]


# --- lift and limit ------------------------------------------------------------


class TestLift:
    def test_class_b_lift_passes(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "class-b", "--F", "1", "--c", "0.5",
            "--checks", "em,maxwell", "--tol", "1e-6",
        )
        assert code == EXIT_PASS
        assert rep["n_points"] == 100
        assert rep["config"]["ell_used"] == 4.0
        assert rep["config"]["sign_fixed"] is False
        assert rep["chart"] == ["q", "p", "y", "t"]

    def test_heisenberg_sign_fix_recorded(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "heisenberg", "--ell", "1",
            "--checks", "em", "--points", "10",
        )
        assert code == EXIT_PASS
        assert rep["config"]["ell_used"] == -1.0
        assert rep["config"]["sign_fixed"] is True

    def test_invariants_check(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "heisenberg", "--checks", "invariants",
            "--points", "6", "--tol", "1e-6",
        )
        assert code == EXIT_PASS

    def test_a_small_v_sets_ell(self, capsys):
        # V = -5e-13 is not 0: ell = -2/V
        code, rep = run_json(capsys, "lift", "--case", "class-b", "--F", "1e12", "--points", "3")
        assert code == EXIT_PASS
        assert rep["config"]["ell_used"] == 4e12

    @pytest.mark.parametrize("chart, draws", [("p", 1), ("alpha", 2)])
    def test_each_chart_draws_its_points_once(self, capsys, monkeypatch, chart, draws):
        charts = []
        fibre_points = lift_mod.fibre_points

        def counted(data, seed, base_pts):
            charts.append(data.chart)
            return fibre_points(data, seed, base_pts)

        monkeypatch.setattr(lift_mod, "fibre_points", counted)
        code, _ = run_cli(
            capsys, "lift", "--case", "heisenberg", "--chart", chart,
            "--checks", "em,maxwell,invariants", "--points", "3",
        )
        assert code == EXIT_PASS
        assert len(charts) == len(set(charts)) == draws

    def test_alpha_chart(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "heisenberg", "--chart", "alpha",
            "--checks", "em", "--points", "6",
        )
        assert code == EXIT_PASS
        assert rep["chart"][0] == "alpha"

    @pytest.mark.parametrize("chart", ["p", "alpha"])
    @pytest.mark.parametrize("ell", ["1e150", "1e160", "1e200", "-1e200", "1e300"])
    def test_a_huge_ell_is_never_an_internal_error(self, capsys, ell, chart):
        # 3/ell^2 overflowed once ell^2 left the float range
        code = main(["lift", "--case", "heisenberg", f"--ell={ell}", "--chart", chart,
                     "--points", "3"])
        err = capsys.readouterr().err
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_SAMPLING)
        assert err.count("error:") <= 1

    @pytest.mark.parametrize(
        "checks, chart, ell", [("em", "alpha", "1e160"), ("invariants", "p", "1e200")]
    )
    def test_the_alpha_chart_refuses_an_ell_past_its_bound(self, capsys, checks, chart, ell):
        # its (ell/sin alpha)^2 terms overflow, so the checks would read NaN
        code = main(["lift", "--case", "heisenberg", "--ell", ell, "--chart", chart,
                     "--checks", checks, "--points", "3"])
        err = capsys.readouterr().err
        assert code == EXIT_SAMPLING
        assert f"ell = -{float(ell):g} is past the bound |ell| <= 1e+150" in err
        assert "alpha chart" in err and err.count("error:") == 1

    def test_a_p_chart_lift_past_the_alpha_bound_passes(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "heisenberg", "--ell", "1e160", "--chart", "p",
            "--checks", "em", "--points", "3",
        )
        assert code == EXIT_PASS
        assert rep["config"]["ell_used"] == -1e160

    @pytest.mark.parametrize("chart", ["p", "alpha"])
    def test_job_validates_its_config_once(self, capsys, monkeypatch, chart):
        calls = []
        validate = lift_mod.validate_config

        def counted(cfg):
            calls.append(cfg)
            return validate(cfg)

        monkeypatch.setattr(lift_mod, "validate_config", counted)
        code, _ = run_cli(
            capsys,
            "lift", "--case", "heisenberg", "--ell", "-1", "--c", "0.5",
            "--chart", chart, "--checks", "em,maxwell,invariants",
            "--points", "2",
        )
        assert code == EXIT_PASS
        assert len(calls) == 1


class TestInvariantsCheck:
    """The invariants check takes K, |F|^2 and the metric of each chart
    from one curvature pass."""

    @staticmethod
    def _check(chart):
        base = heisenberg(1.0)
        cfg = LiftConfig(base, psi_const(base, 0.5), -1.0, chart=chart)
        data_p, fn = lift_mod.invariants_check(cfg, build(cfg))
        data_a = lift_mod.build_alpha(dataclasses.replace(cfg, validate=False))
        rows = np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 4))
        points = [ChartPoint(data_p.chart, tuple(r)) for r in rows.tolist()]
        return data_p, data_a, fn, points

    @pytest.mark.parametrize("chart", ["p", "alpha"])
    def test_each_chart_metric_is_evaluated_once(self, monkeypatch, chart):
        _, _, fn, points = self._check(chart)
        charts = []
        jets_at = MetricField.jets_at

        def counted(g, pt, order):
            charts.append(g.chart[0])
            return jets_at(g, pt, order)

        monkeypatch.setattr(MetricField, "jets_at", counted)
        result = run_check("invariants", fn, points, 1e-6)
        assert result.verdict == "pass"
        assert sorted(charts) == ["alpha", "p"]

    def test_field_and_signature_components_match_the_accessors(self):
        data_p, data_a, fn, points = self._check("p")
        q = PointBatch.of(points)
        qa = lift_mod.matched_alpha_point(q, data_p.ell)
        with evaluation_scope():
            _, fsq, sig = fn(q)
        want = f_squared(data_p.potential, data_p.g, q) - f_squared(
            data_a.potential, data_a.g, qa
        )
        assert np.array_equal(fsq, want)
        plus, minus = signature_at(data_p.g, q)
        assert np.array_equal(sig, np.where((plus == 3) & (minus == 1), 0.0, 1.0))
        for data, at in ((data_p, q), (data_a, qa)):
            k, fsq_one, g0 = scalar_invariants(data.g, data.potential, at)
            assert np.array_equal(k, kretschmann(data.g, at))
            assert np.array_equal(fsq_one, f_squared(data.potential, data.g, at))
            assert np.array_equal(g0, data.g.matrix_at(at))
            assert all(
                np.array_equal(a, b)
                for a, b in zip(signature(g0), signature_at(data.g, at))
            )


class TestLimit:
    def test_heisenberg_flow(self, capsys):
        for ells, used in (("100,200", [-100.0, -200.0]), ("-100,200", [100.0, -200.0])):
            code, rep = run_json(capsys, "limit", "--case", "heisenberg", "--ells", ells)
            assert code == EXIT_PASS
            detail = rep["detail"]
            assert 3.6 <= detail["ratios"][0] <= 4.4
            assert detail["ell_used"] == used

    def test_class_b_flow(self, capsys):
        code, rep = run_json(
            capsys, "limit", "--case", "class-b", "--ells", "100,200,400",
        )
        assert code == EXIT_PASS
        assert not rep["detail"]["diverges"]

    def test_unknown_family(self, capsys):
        code, _ = run_cli(capsys, "limit", "--case", "class-a")
        assert code == EXIT_CONFIG

    def test_underflowing_scales_are_sampling_exit(self, capsys):
        code, out = run_cli(
            capsys, "limit", "--case", "heisenberg", "--ells", "1e-300,1e-301",
        )
        assert code == EXIT_SAMPLING
        assert out == ""

    def test_overflowing_divisors_with_finite_quotients_pass(self, capsys):
        code, _ = run_cli(
            capsys, "limit", "--case", "heisenberg", "--ells", "1e10,1e300",
        )
        assert code == EXIT_PASS

    def test_a_zero_later_gap_has_a_null_ratio(self, capsys):
        code, rep = run_json(
            capsys, "limit", "--case", "class-b", "--ells", "100,1e100",
        )
        assert code == EXIT_PASS
        assert rep["detail"]["form_gap"][1] == 0.0
        assert rep["detail"]["ratios"] == [None]

    @pytest.mark.parametrize("case,ells", [("heisenberg", "1,1e154"), ("class-b", "1,1e300")])
    def test_an_overflowing_ratio_is_null(self, capsys, case, ells):
        code, rep = run_json(capsys, "limit", "--case", case, "--ells", ells)
        assert code == EXIT_PASS
        gaps = rep["detail"]["form_gap"]
        assert gaps[1] > 0.0 and gaps[0] / gaps[1] == math.inf
        assert rep["detail"]["ratios"] == [None]
        assert not rep["detail"]["diverges"]


# --- eval ------------------------------------------------------------------------


class TestEval:
    def test_value_and_gradient(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--expr", "p*ln(p)-p", "--at", "p=1",
        )
        assert code == EXIT_PASS
        assert rep["value"] == pytest.approx(-1.0)
        assert rep["gradient"]["p"] == pytest.approx(0.0)

    def test_hessian_at_order_two(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--expr", "x^2*y", "--at", "x=2,y=3", "--order", "2",
        )
        assert code == EXIT_PASS
        assert rep["value"] == pytest.approx(12.0)
        assert rep["hessian"]["x"]["x"] == pytest.approx(6.0)
        assert rep["hessian"]["x"]["y"] == pytest.approx(4.0)

    def test_third_derivatives_at_order_three(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--expr", "x^3*y", "--at", "x=1,y=2", "--order", "3",
        )
        assert code == EXIT_PASS
        assert list(rep)[-3:] == ["gradient", "hessian", "third"]
        assert rep["third"]["x"]["x"]["x"] == 12
        assert rep["third"]["x"]["x"]["y"] == 6
        assert rep["third"]["x"]["y"]["x"] == rep["third"]["y"]["x"]["x"] == 6
        assert rep["third"]["y"]["y"]["y"] == 0

    def test_an_underflowing_third_derivative_prints_as_zero(self, capsys):
        code, rep = run_json(
            capsys, "eval", "--expr", "1/x", "--at", "x=1e100", "--order", "3",
        )
        assert code == EXIT_PASS
        assert rep["third"] == {"x": {"x": {"x": 0.0}}}

    @pytest.mark.parametrize("order", ["0", "1", "2"])
    def test_below_order_three_there_is_no_third_block(self, capsys, order):
        code, rep = run_json(
            capsys, "eval", "--expr", "x^3*y", "--at", "x=1,y=2", "--order", order,
        )
        assert code == EXIT_PASS and "third" not in rep

    def test_domain_error_is_sampling_exit(self, capsys):
        code, _ = run_cli(capsys, "eval", "--expr", "ln(x)", "--at", "x=-1")
        assert code == EXIT_SAMPLING

    @pytest.mark.parametrize(
        "expr,at,order",
        [
            ("exp(x)", "x=1000", "1"),
            ("sqrt(x)", "x=1e-320", "2"),
            ("ln(x)", "x=1e-320", "3"),
            ("x^2", "x=1e200", "1"),
        ],
    )
    def test_overflow_is_sampling_exit(self, capsys, expr, at, order):
        code, out = run_cli(
            capsys, "eval", "--expr", expr, "--at", at, "--order", order,
        )
        assert code == EXIT_SAMPLING
        assert out == ""

    @pytest.mark.parametrize(
        "expr,at,first_failing_order",
        [
            ("1/x", "x=1e-100", 3),
            ("ln(x)", "x=1e-200", 2),
            ("sqrt(x)", "x=1e-200", 3),
            ("x^0.5", "x=1e-200", 3),
            # a power of the divisor overflows, the quotient only underflows
            ("1/x", "x=1e100", 4),
            ("x^(-2)", "x=1e200", 4),
            ("ln(x)", "x=1e200", 4),
            ("x/1e300", "x=1", 4),
        ],
    )
    def test_only_parts_through_the_order_can_overflow(
        self, capsys, expr, at, first_failing_order
    ):
        codes = [
            run_cli(capsys, "eval", "--expr", expr, "--at", at, "--order", str(k))[0]
            for k in range(4)
        ]
        assert codes == [
            EXIT_PASS if k < first_failing_order else EXIT_SAMPLING for k in range(4)
        ]

    def test_trig_of_an_overflowed_value_is_sampling_exit(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--expr", "sin(x*x)", "--at", "x=1e200", "--order", "0",
        )
        assert code == EXIT_SAMPLING
        assert out == ""

    def test_overflow_writes_only_the_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ewbench", "eval", "--expr", "x^2",
             "--at", "x=1e200", "--order", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_SAMPLING
        assert proc.stdout == ""
        assert proc.stderr == "error: 'x^2' is not finite through order 1\n"

    def test_bad_point_syntax(self, capsys):
        code, _ = run_cli(capsys, "eval", "--expr", "x", "--at", "x:1")
        assert code == EXIT_CONFIG

    def test_order_out_of_range(self, capsys):
        code, _ = run_cli(capsys, "eval", "--expr", "x", "--at", "x=1",
                          "--order", "5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "at, message",
        [
            ("x=1,y=2,x=3", "coordinate 'x' is given more than once"),
            ("x=1, x =1,y=2", "coordinate 'x' is given more than once"),
            ("x=nan,y=2", "coordinate 'x' must be finite, got 'nan'"),
            ("x=1,y=-inf", "coordinate 'y' must be finite, got '-inf'"),
            ("x=1,y=1e400", "coordinate 'y' must be finite, got '1e400'"),
        ],
        ids=["repeated", "repeated-spaced", "nan", "minus-inf", "overflowing"],
    )
    def test_bad_point_is_one_error_line(self, capsys, at, message):
        code = main(["eval", "--expr", "x*y", "--at", at])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("expr,value", [("-x", -1.0), ("-x^2", -1.0), ("--x", 1.0)])
    def test_expression_may_start_with_a_minus(self, capsys, expr, value):
        code, rep = run_json(capsys, "eval", "--expr", expr, "--at", "x=1")
        assert code == EXIT_PASS
        assert rep["expr"] == expr
        assert rep["value"] == value

    @pytest.mark.parametrize("argv", [
        ("--expr", "--at", "x=1"),
        ("--at", "x=1", "--expr"),
        ("--expr", "--ord", "1", "--at", "x=1"),
    ])
    def test_missing_expression_still_expects_one_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["eval", *argv])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --expr: expected one argument" in capsys.readouterr().err

    def test_ells_may_start_with_a_minus(self, capsys):
        code, out = run_cli(capsys, "limit", "--case", "heisenberg", "--ells", "-100,-200")
        joined_code, joined = run_cli(capsys, "limit", "--case", "heisenberg", "--ells=-100,-200")
        assert code == joined_code == EXIT_PASS
        assert normalize(out) == normalize(joined)
        assert json.loads(out)["config"]["ells"] == "-100,-200"

    @pytest.mark.parametrize("argv", [
        ("--ells", "--chart", "p"),
        ("--ells", "--cha", "p"),
        ("--chart", "p", "--ells"),
    ])
    def test_ells_before_an_option_still_expects_one_argument(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--case", "heisenberg", *argv])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --ells: expected one argument" in capsys.readouterr().err

    def test_a_negative_tol_in_exponent_form_is_one_error_line(self, capsys):
        code = main(["verify", "--case", "heisenberg", "--tol", "-1e-9"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "error: tol must be positive and finite\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--case", "heisenberg", "--ell", "-1e-9", "--points", "3"),
        ("lift", "--case", "heisenberg", "--c", "-1e-3", "--points", "3"),
    ], ids=("ell", "c"))
    def test_a_number_in_exponent_form_may_start_with_a_minus(self, capsys, argv):
        flag, value = argv[3:5]
        joined = argv[:3] + (f"{flag}={value}",) + argv[5:]
        code, out = run_cli(capsys, *argv)
        joined_code, joined_out = run_cli(capsys, *joined)
        assert code == joined_code != EXIT_CONFIG
        assert normalize(out) == normalize(joined_out)
        assert json.loads(out)["config"][flag[2:]] == float(value)

    def test_expression_flag_value_may_start_with_a_minus(self, capsys):
        code, rep = run_json(
            capsys, "verify", "--case", "class-b", "--F", "-1/4",
            "--checks", "gt", "--points", "3",
        )
        assert code == EXIT_PASS
        assert rep["config"]["F"] == "-1/4"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def eval_cli(expr, x, y, order):
    """Exit code and stdout of ``eval`` on a rendered expression at (x, y)."""
    out = io.StringIO()
    # the = form, so that an expression starting with "-" is not an option
    argv = ["eval", f"--expr={to_source(expr)}", f"--at=x={x!r},y={y!r}",
            f"--order={order}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestEvalProperties:
    @settings(derandomize=True, deadline=None)
    @given(expr=EXPRS, x=COORDS, y=COORDS, order=st.integers(0, 3))
    def test_exit_code_and_strict_json(self, expr, x, y, order):
        code, out = eval_cli(expr, x, y, order)
        assert code in (EXIT_PASS, EXIT_CONFIG, EXIT_SAMPLING)
        if code == EXIT_PASS:
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert out == ""

    @settings(derandomize=True, deadline=None)
    @given(expr=EXPRS, x=COORDS, y=COORDS)
    def test_lower_orders_repeat_the_order_three_parts(self, expr, x, y):
        code, out = eval_cli(expr, x, y, 3)
        if code != EXIT_PASS:
            return
        top = json.loads(out)
        for order in range(3):
            code, out = eval_cli(expr, x, y, order)
            assert code == EXIT_PASS
            low = json.loads(out)
            # repr tells -0.0 from 0.0
            for key in ("value", "gradient", "hessian")[: order + 1]:
                assert repr(low[key]) == repr(top[key])


ROWS = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=5)


def jet_or_error(expr, q, order):
    try:
        return eval_jet(expr, q, order)
    except EwbenchError as err:
        return err


class TestBatchedJets:
    @settings(derandomize=True, deadline=None)
    @given(expr=EXPRS, rows=ROWS, order=st.integers(0, 3))
    def test_each_row_is_the_single_point_jet(self, expr, rows, order):
        chart = ("x", "y")
        with np.errstate(all="ignore"):
            singles = [jet_or_error(expr, ChartPoint.make(chart, r), order) for r in rows]
            batched = jet_or_error(expr, PointBatch(chart, rows), order)
        raised = [isinstance(j, EwbenchError) for j in singles]
        assert isinstance(batched, EwbenchError) == any(raised)
        if any(raised):
            return
        assert batched.order == order
        for i, single in enumerate(singles):
            for k, (part, want) in enumerate(zip(batched.parts, single.parts)):
                row = np.broadcast_to(part, (len(rows),) + (2,) * k)[i]
                np.testing.assert_array_max_ulp(row, np.asarray(want), maxulp=4)


# --- error paths ---------------------------------------------------------------------


class TestErrorExits:
    @pytest.mark.parametrize(
        "argv",
        (
            ("verify", "--case", "heisenberg", "--checks", "gt,bogus"),
            ("verify", "--case", "torus", "--checks", "gt"),
            ("verify", "--case", "class-a", "--beta", "2*(p", "--points", "5"),
            ("verify", "--case", "class-a", "--beta", "y^2", "--points", "5"),
            ("verify", "--case", "heisenberg", "--checks", "gt", "--tol", "-1"),
            ("verify", "--case", "heisenberg", "--f", "0.1*x",
             "--checks", "hypercr", "--points", "5"),
            ("verify", "--case", "from-G", "--checks", "hypercr",
             "--points", "5"),
            ("lift", "--case", "heisenberg", "--checks", "limit"),
            ("verify", "--case", "heisenberg", "--checks", "em",
             "--points", "5"),
            # a non-finite ell or c is refused before the report echoes it
            ("verify", "--case", "heisenberg", "--ell", "inf", "--points", "2"),
            ("verify", "--case", "heisenberg", "--c", "inf", "--points", "2"),
            ("verify", "--case", "heisenberg", "--ell", "nan"),
            ("lift", "--case", "heisenberg", "--ell=-inf", "--points", "2"),
            ("limit", "--case", "class-b", "--c", "inf"),
        ),
        ids=(
            "unknown-check", "unknown-case", "parse-error", "heat-violation",
            "bad-tol", "hypercr-after-gauge", "hypercr-off-chart",
            "limit-under-lift", "em-under-verify", "ell-inf", "c-inf",
            "ell-nan", "lift-ell-minus-inf", "limit-c-inf",
        ),
    )
    def test_config_errors(self, capsys, argv):
        code, _ = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, command",
        (
            # F = 0 starves the sampler: the check must be refused first
            (("verify", "--case", "class-b", "--F", "0", "--checks", "em"), "verify"),
            # beta = y^2 fails the heat probe when the case is built
            (("verify", "--case", "class-a", "--beta", "y^2", "--checks", "gt,maxwell"), "verify"),
            (("limit", "--case", "heisenberg", "--checks", "gt"), "limit"),
            (("lift", "--case", "class-b", "--F", "0", "--checks", "em,limit"), "lift"),
        ),
        ids=("em-under-verify", "maxwell-before-build", "gt-under-limit", "limit-under-lift"),
    )
    def test_check_refused_before_sampling_or_build(self, capsys, argv, command):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        name = argv[-1].split(",")[-1]
        assert captured.err == f"error: check {name!r} is not available under {command}\n"

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("verify", "--case", "class-a", "--ell", "5"), "--ell is not used by verify --case class-a"),
            (("verify", "--case", "heisenberg", "--c", "5", "--checks", "gt"),
             "--c is not used by verify without the psi check"),
            (("verify", "--case", "heisenberg", "--c", "5"),
             "--c is not used by verify without the psi check"),
            (("verify", "--case", "heisenberg", "--F", "1"), "--F is not used by verify --case heisenberg"),
            (("lift", "--case", "heisenberg", "--beta", "y"), "--beta is not used by lift --case heisenberg"),
            (("lift", "--case", "class-b", "--F", "1", "--K", "s"), "--K is not used by lift --case class-b"),
            (("verify", "--case", "from-G", "--H", "x"), "--H is not used by verify --case from-G"),
            (("verify", "--case", "from-H", "--A", "p"), "--A is not used by verify --case from-H"),
            (("verify", "--case", "class-c", "--B", "y"), "--B is not used by verify --case class-c"),
        ),
    )
    def test_a_flag_the_case_or_checks_do_not_read_is_refused(self, capsys, monkeypatch, argv, message):
        def never(*args):
            raise AssertionError("sampled or built before the flag was refused")

        monkeypatch.setattr(cli_mod, "sample", never)
        monkeypatch.setattr(cli_mod, "build_case", never)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("verify", "--case", "nope"), "unknown case 'nope'"),
            (("limit", "--case", "class-a"), "case 'class-a' has no ell-parameterized lift family"),
            (("lift", "--case", "from-H", "--H", "y", "--points", "3"),
             "V = 0 at the probe; supply --ell explicitly"),
            (("lift", "--case", "class-b", "--F", "1e308", "--points", "3"),
             "ell = -2/V is not finite: V = -5e-309 at the probe"),
        ),
        ids=("unknown-case", "no-limit-family", "lift-v-zero", "lift-ell-overflows"),
    )
    def test_a_case_or_ell_error_is_one_line(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("verify", "--case", "heisenberg", "--points", "0"), "points must be at least 1"),
            (("lift", "--case", "heisenberg", "--points", "0"), "points must be at least 1"),
            (("verify", "--checks", "gt"), "--case is required"),
            (("lift",), "--case is required"),
            (("eval", "--expr", "x", "--at", "x=abc"), "bad coordinate value 'abc'"),
            (("eval", "--expr", "x$y", "--at", "x=1,y=2"), "unexpected character '$' at offset 1"),
            (("eval", "--expr", "x)", "--at", "x=1"), "unexpected ')' at offset 1"),
            (("eval", "--expr", "foo(x)", "--at", "x=1"), "unknown identifier 'foo' at offset 0"),
        ),
        ids=("verify-points-0", "lift-points-0", "verify-no-case", "lift-no-case",
             "eval-bad-value", "eval-bad-character", "eval-unmatched-paren", "eval-unknown-name"),
    )
    def test_an_input_error_is_one_line(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--case", "class-a", "--checks", "gt,hypercr"),
        ("lift", "--case", "class-b", "--checks", "em,hypercr"),
    ], ids=("verify", "lift"))
    def test_hypercr_off_its_chart_is_refused_before_sampling(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("sampled before the check was refused")

        monkeypatch.setattr(cli_mod, "sample", never)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            "error: hydrodynamic residual needs an x coordinate; "
            "chart ('p', 'y', 't') has none\n"
        )

    def test_unexpected_exception_is_internal_exit(self, capsys, monkeypatch):
        def broken(cfg):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli_mod, "cmd_verify", broken)
        code = main(["verify", "--case", "heisenberg", "--points", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        assert captured.out == ""
        assert captured.err == "error: internal error: TypeError: unsupported operand\n"

    def test_guard_starved_domain_exhausts(self, capsys):
        code, _ = run_cli(
            capsys,
            "verify", "--case", "class-a", "--beta", "y-100",
            "--checks", "gt", "--points", "10",
        )
        assert code == EXIT_SAMPLING


# --- config file and output -------------------------------------------------------------


class TestConfigFile:
    def test_file_then_flag_override(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"case": "heisenberg", "checks": "gt", "points": 20, "tol": 1e-7}
        ))
        code, rep = run_json(capsys, "verify", "--config", str(path))
        assert code == EXIT_PASS
        assert rep["n_points"] == 20
        code, rep = run_json(
            capsys, "verify", "--config", str(path), "--points", "10",
        )
        assert rep["n_points"] == 10

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"case": "heisenberg", "mode": "fast"}))
        code, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == EXIT_CONFIG

    def test_reserved_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"case": "heisenberg", "ell_used": 3.0}))
        code, _ = run_cli(capsys, "verify", "--config", str(path))
        assert code == EXIT_CONFIG

    def test_file_keys_the_case_or_checks_do_not_read_are_echoed(self, capsys, tmp_path):
        path = tmp_path / "shared.json"
        path.write_text('{"ell": 5, "c": 0.25, "F": "1", "points": 3}')
        code, rep = run_json(capsys, "verify", "--case", "class-a", "--config", str(path))
        assert code == EXIT_PASS
        assert (rep["config"]["ell"], rep["config"]["c"], rep["config"]["F"]) == (5, 0.25, "1")

    @pytest.mark.parametrize(
        "text, message",
        (
            ("not json{", "config file is not JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "config file must hold a JSON object"),
        ),
        ids=("not-json", "list"),
    )
    def test_a_file_that_is_not_a_json_object_is_one_error_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "run.json"
        path.write_text(text)
        code = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "verify", "--config", str(tmp_path / "absent.json"),
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "value",
        (
            {"points": "5"},
            {"tol": "x"},
            {"seed": 1.5},
            {"c": "a"},
            {"checks": 5},
            {"beta": 3},
            {"ell": "1"},
            {"points": True},
            {"chart": "beta"},
            {"ells": [100, "200"]},
            {"ell": math.inf},
            {"ell": -math.inf},
            {"c": math.nan},
            {"ells": [100, math.inf]},
        ),
        ids=lambda v: json.dumps(v),
    )
    def test_value_must_have_its_flag_type(self, capsys, tmp_path, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(value))
        for command in ("verify", "lift"):
            code = main([command, "--case", "class-a", "--config", str(path)])
            captured = capsys.readouterr()
            assert code == EXIT_CONFIG
            assert captured.out == ""
            assert re.fullmatch(r"error: config key '\w+' must be [^\n]*\n", captured.err)

    @pytest.mark.parametrize(
        "argv",
        (
            ("verify", "--case", "heisenberg", "--seed", "-1"),
            ("lift", "--case", "heisenberg", "--seed", "-1"),
            ("limit", "--case", "heisenberg", "--ells", "abc"),
            ("limit", "--case", "heisenberg", "--ells", "100,x"),
            ("verify", "--case", "heisenberg", "--tol", "inf"),
            ("verify", "--case", "heisenberg", "--ell", "inf", "--points", "2"),
            ("limit", "--case", "heisenberg", "--ells", "100,inf"),
            ("limit", "--case", "heisenberg", "--ells", "nan,200"),
        ),
        ids=("verify-seed", "lift-seed", "ells-word", "ells-item", "tol-inf",
             "ell-inf", "ells-inf", "ells-nan"),
    )
    def test_bad_flag_value_is_one_error_line(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)

    @pytest.mark.parametrize(
        "argv",
        (
            ("verify", "--case", "heisenberg", "--checks", "gt", "--points", "3"),
            ("eval", "--expr", "x^2", "--at", "x=1"),
        ),
        ids=("verify", "eval"),
    )
    def test_an_unwritable_out_prints_only_its_error(self, capsys, tmp_path, argv):
        code = main(list(argv) + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            "verify", "--case", "heisenberg", "--checks", "gt",
            "--points", "10", "--out", str(path),
        )
        assert code == EXIT_PASS
        assert path.read_text() == out


class TestDeterminism:
    ARGS = (
        "verify", "--case", "heisenberg", "--checks", "gt,monopole",
        "--points", "50", "--seed", "11",
    )

    def test_reports_byte_stable(self, capsys):
        _, first = run_cli(capsys, *self.ARGS)
        _, second = run_cli(capsys, *self.ARGS)
        a = hashlib.sha256(normalize(first).encode()).hexdigest()
        b = hashlib.sha256(normalize(second).encode()).hexdigest()
        assert a == b

    def test_shared_hodge_forms_agree_across_threads(self):
        base = heisenberg(1.0)
        ell, _ = fix_ell_sign(base, 1.0)
        data = build(LiftConfig(base, psi_const(base, 0.5), ell))
        pts3 = sample(default_domain("heisenberg", seed=3, count=20))
        pts4 = [ChartPoint.make(data.chart, (0.3,) + q.coords) for q in pts3]
        # the star has values only; the lift's F is read through its gradient
        cases = (
            (hodge3(base.omega, base.frame), pts3, 0),
            (ext_d(data.potential), pts4, 1),
        )

        def evaluate():
            out = []
            for form, pts, order in cases:
                for q in pts:
                    with evaluation_scope():
                        parts = [f(q, order).parts[order] for f in form.comps.values()]
                        out.append([np.ravel(p).tolist() for p in parts])
            return out

        serial = evaluate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(evaluate) for _ in range(4)]
                threaded = [r.result(timeout=120) for r in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == serial for run in threaded)

    def test_reports_do_not_depend_on_numpy_cpu_dispatch(self, capsys):
        # numpy picks its exp, tanh, arctan2, ... loops by CPU feature; with
        # every dispatched feature this CPU has switched off, as on an older
        # CPU, a lift report whose fields use cosh and tanh is unchanged
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
        argv = (
            "lift", "--case", "heisenberg", "--ell", "-1", "--c", "0.5",
            "--checks", "em,maxwell,invariants", "--points", "5",
            "--seed", "1847360141",
        )
        _, here = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "ewbench", *argv],
            capture_output=True, text=True,
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(features)},
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert normalize(proc.stdout) == normalize(here)

    def test_seed_changes_worst_point(self, capsys):
        _, a = run_json(capsys, *self.ARGS)
        _, b = run_json(
            capsys,
            "verify", "--case", "heisenberg", "--checks", "gt,monopole",
            "--points", "50", "--seed", "12",
        )
        assert a["checks"]["gt"]["worst_point"] != b["checks"]["gt"]["worst_point"]


class TestNonFinite:
    POINTS = [ChartPoint.make(("x",), (float(i),)) for i in range(3)]

    @pytest.mark.parametrize(
        "values,shown",
        [([1e-9, math.nan, 1e-9], "nan"), ([1e-9, math.inf, math.nan], "inf")],
    )
    def test_first_non_finite_point_is_a_domain_error(self, values, shown):
        vals = iter(values)
        with pytest.raises(DomainError, match=rf"'gt' is {shown} at \(1\.0,\)"):
            run_check("gt", lambda q: next(vals), self.POINTS, 1e-7)

    def test_nan_in_a_later_component_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"'hypercr' is nan at \(0\.0,\)"):
            run_check("hypercr", lambda q: (1e-9, math.nan), self.POINTS, 1e-7)

    def test_report_json_rejects_nan(self):
        with pytest.raises(ValueError):
            report_json({"max": math.nan})


class TestBatchedRunCheck:
    X = ("x",)

    def test_the_check_runs_once_over_all_points(self):
        calls = []
        f = parse_field("x^2", self.X)

        def fn(q):
            calls.append(q)
            return f(q, 0).value

        pts = [ChartPoint.make(self.X, (v,)) for v in (1.0, 3.0, 2.0)]
        r = run_check("c", fn, pts, 10.0)
        assert calls == [PointBatch(self.X, [[1.0], [3.0], [2.0]])]
        assert (r.max, r.mean, r.worst_point) == (9.0, 14.0 / 3.0, (3.0,))

    @staticmethod
    def alone_and_batched(fn, pts, k):
        """The error of ``fn`` at point k alone, and the error run_check raises."""
        with np.errstate(all="ignore"), pytest.raises(EwbenchError) as alone:
            fn(pts[k])
        with pytest.raises(EwbenchError) as batched:
            run_check("c", fn, pts, 1e-7)
        return alone.value, batched.value

    def test_a_later_point_raises_its_own_error(self):
        f = parse_field("1/x", self.X)
        pts = [ChartPoint.make(self.X, (v,)) for v in (1.0, 2.0, 1e-100, 1e-120)]
        alone, batched = self.alone_and_batched(lambda q: f(q, 3).third, pts, 2)
        assert type(batched) is DomainError
        assert str(batched) == str(alone) == "reciprocal of 1e-100 leaves the float range in '1/x'"

    def test_a_later_singular_metric_names_its_point(self):
        g = MetricField(("x", "y"), {(0, 0): parse_field("x", ("x", "y")), (1, 1): 1.0})
        pts = [ChartPoint.make(("x", "y"), v) for v in ((1.0, 0.5), (2.0, 0.1), (0.0, 0.2))]
        alone, batched = self.alone_and_batched(lambda q: ricci(g, q), pts, 2)
        assert type(batched) is SingularMetricError
        assert str(batched) == str(alone) == "|det g| = 0.000e+00 at (0.0, 0.2)"

    @pytest.mark.parametrize("src,shown", [("x*x*x", "inf"), ("x*x*x - x*x*x", "nan")])
    def test_a_later_non_finite_point_is_named(self, src, shown):
        f = parse_field(src, self.X)
        pts = [ChartPoint.make(self.X, (v,)) for v in (1.0, 2.0, 1e200, 3.0)]
        with pytest.raises(DomainError) as err:
            run_check("c", lambda q: f(q, 0).value, pts, 1.0)
        assert str(err.value) == f"check 'c' is {shown} at (1e+200,)"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ewbench", "verify", "--case", "heisenberg",
         "--checks", "gt", "--points", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
