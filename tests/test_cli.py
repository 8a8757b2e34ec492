import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import (
    ChartPoint,
    LiftConfig,
    ext_d,
    heisenberg,
    hodge3,
    hodge4,
    psi_const,
)
from ewbench import lift as lift_mod
from ewbench.errors import DomainError
from ewbench.expr import FUNCTIONS, Bin, Call, Const, Neg, Var, to_source
from ewbench.families import default_domain
from ewbench.jets import evaluation_scope, sample
from ewbench.lift import build, fix_ell_sign
from ewbench.report import report_json, run_check
from ewbench.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_SAMPLING,
    main,
)


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

    def test_alpha_chart(self, capsys):
        code, rep = run_json(
            capsys,
            "lift", "--case", "heisenberg", "--chart", "alpha",
            "--checks", "em", "--points", "6",
        )
        assert code == EXIT_PASS
        assert rep["chart"][0] == "alpha"

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


class TestLimit:
    def test_heisenberg_flow(self, capsys):
        code, rep = run_json(
            capsys, "limit", "--case", "heisenberg", "--ells", "100,200",
        )
        assert code == EXIT_PASS
        detail = rep["detail"]
        assert 3.6 <= detail["ratios"][0] <= 4.4
        assert detail["ell_used"] == [-100.0, -200.0]

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


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


LEAVES = st.one_of(
    st.sampled_from([Var("x"), Var("y")]),
    st.builds(Const, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e3])),
)
EXPRS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=8,
)
COORDS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([1e-200, -1e-200, 1e200, -1e200]),
)


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
        ),
        ids=(
            "unknown-check", "unknown-case", "parse-error", "heat-violation",
            "bad-tol", "hypercr-after-gauge", "hypercr-off-chart",
            "limit-under-lift", "em-under-verify",
        ),
    )
    def test_config_errors(self, capsys, argv):
        code, _ = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG

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

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "verify", "--config", str(tmp_path / "absent.json"),
        )
        assert code == EXIT_CONFIG

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
        data = build(LiftConfig(base, psi_const(base, 0.5), ell, c=0.5))
        pts3 = sample(default_domain("heisenberg", seed=3, count=20))
        pts4 = [ChartPoint.make(data.chart, (0.3,) + q.coords) for q in pts3]
        cases = (
            (hodge3(base.omega, base.frame), pts3),
            (hodge4(ext_d(data.potential), data.g), pts4),
        )

        def evaluate():
            out = []
            for star, pts in cases:
                for q in pts:
                    with evaluation_scope():
                        out.append([f(q, 1).grad.tolist() for f in star.comps.values()])
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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ewbench", "verify", "--case", "heisenberg",
         "--checks", "gt", "--points", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"
