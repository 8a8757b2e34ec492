"""One scale path through ``lift``: ``fix_ell_sign`` at a number gives a
float and a bool and names the ell as given, ``run_check`` hands back the
value of each point, and ``flat_limit`` runs its one pass and its per-ell
fallback through ``lift.run_check``."""
import contextlib
import io
import json

import numpy as np
import pytest

from ewbench import lift as lift_mod
from ewbench.cli import EXIT_CONFIG, EXIT_PASS, main
from ewbench.errors import DomainError, GaugeViolationError
from ewbench.expr import parse_field
from ewbench.families import class_b, from_uw, heisenberg
from ewbench.jets import Field, PointBatch, row_numbers
from ewbench.lift import LIMIT_KEYS, fix_ell_sign, limit_family
from ewbench.report import run_check

from conftest import PYT, XYT, pt

VALIDATION = ["lift.gauge", "lift.gt", "lift.psi"]
ONE_ELL = VALIDATION + [f"lift.{key}" for key in LIMIT_KEYS]


# --- fix_ell_sign at a number -------------------------------------------------


@pytest.mark.parametrize(
    "make, ell, probe, want",
    [
        (lambda: heisenberg(1.0), 1.0, None, (-1.0, True)),
        (lambda: class_b("1"), 4.0, pt(PYT, 1.0, 0.0, 0.0), (4.0, False)),
        (lambda: class_b("1"), -4, pt(PYT, 1.0, 0.0, 0.0), (4.0, True)),
        (lambda: class_b("1"), 4, pt(PYT, 1.0, 0.0, 0.0), (4.0, False)),
        (lambda: heisenberg(2.0), -2, None, (-2.0, False)),
        (lambda: heisenberg(1e-300), 1e-300, None, (-1e-300, True)),
    ],
    ids=["heisenberg-flips", "class-b", "int-flips", "int-kept", "int-negative", "tiny"],
)
def test_a_number_ell_gets_a_float_and_a_bool(make, ell, probe, want):
    got = fix_ell_sign(make(), ell, probe)
    assert got == want
    assert (type(got[0]), type(got[1])) == (float, bool)


@pytest.mark.parametrize(
    "make, ell, probe, message",
    [
        (lambda: heisenberg(1.0), 3.0, None,
         "no sign of ell = 3.0 gives V = -2/ell; V = 2 at the probe"),
        (lambda: from_uw(parse_field("x^2", XYT), Field.const(0.0)), 1.0, None,
         "no sign of ell = 1.0 gives V = -2/ell; V = 0.696662 at the probe"),
        (lambda: class_b("1"), 1, pt(PYT, 1.0, 0.0, 0.0),
         "no sign of ell = 1 gives V = -2/ell; V = -0.5 at the probe"),
        (lambda: heisenberg(2.0), 5e-324, None,
         "no sign of ell = 5e-324 gives V = -2/ell; V = 1 at the probe"),
    ],
    ids=["magnitude", "nonconstant-v", "int", "subnormal"],
)
def test_a_number_no_sign_fits_names_it_as_given(make, ell, probe, message):
    with pytest.raises(GaugeViolationError) as err:
        fix_ell_sign(make(), ell, probe)
    assert str(err.value) == message


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_an_int_ell_from_a_config_file_is_named_as_an_int(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ell": 1}))
    code, out, err = _run(["lift", "--case", "class-b", "--config", str(path), "--points", "3"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: no sign of ell = 1 gives V = -2/ell; V = -0.5 at the probe\n"
    code, out, err = _run(["lift", "--case", "heisenberg", "--config", str(path), "--points", "3"])
    config = json.loads(out)["config"]
    assert (code, err) == (EXIT_PASS, "")
    assert (config["ell"], config["ell_used"], config["sign_fixed"]) == (1, -1.0, True)
    assert type(config["ell_used"]) is float


# --- run_check hands back each point's value -----------------------------------

BATCH = PointBatch(XYT, [[0.5, -1.5, 0.25], [2.0, 0.75, -3.0], [-0.125, 4.0, 1.0]])


def _per_point(fn):
    return tuple(float(np.max(np.abs(fn(q)))) for q in BATCH)


def test_rows_of_a_batched_residual_are_its_point_values():
    def fn(q):
        return np.stack([q.coords[0] * 2.0, q.coords[1] - q.coords[2]], axis=-1)

    r = run_check("batched", fn, BATCH, 1.0)
    assert r.rows == _per_point(fn) == (1.75, 4.0, 3.0)
    assert (r.max, r.mean) == (max(r.rows), sum(r.rows) / 3)


def test_a_residual_without_a_batch_axis_is_evaluated_once_for_every_row():
    calls = []

    def fn(q):
        # a constant residual, a number and a component array without the batch axis
        calls.append(len(q) if q.shape else 1)
        return (-1.5, np.array([0.25, -0.5]))

    r = run_check("unbatched", fn, BATCH, 1.0)
    assert calls == [3]
    assert r.rows == (1.5, 1.5, 1.5)
    assert r.worst_point == tuple(BATCH.rows[0].tolist())


def test_a_component_without_a_batch_axis_serves_every_row():
    def fn(q):
        return (q.coords[0], 0.75, np.array([[1.0, -1.25]]))

    r = run_check("mixed", fn, BATCH, 1.0)
    each = _per_point(lambda q: np.hstack([np.ravel(c) for c in fn(q)]))
    assert r.rows == each == (1.25, 2.0, 1.25)


def test_a_point_list_gives_the_rows_of_its_batch():
    fn = lambda q: q.coords[0]  # noqa: E731
    assert run_check("list", fn, list(BATCH), 1.0).rows == run_check("batch", fn, BATCH, 1.0).rows


# --- flat_limit: one pass, then each ell alone ----------------------------------


def _limit_calls(monkeypatch, case, ells):
    """The (check name, ells of its points) of every ``lift.run_check`` of
    a limit job, read from the scale the factory was last called at (a
    number, or the array of the one pass), and the error it raised."""
    calls, scales = [], []
    run = lift_mod.run_check

    def spied(name, fn, points, tol):
        rows = np.ravel(row_numbers(scales[-1], points)).tolist()
        calls.append((name, tuple(dict.fromkeys(rows))))
        return run(name, fn, points, tol)

    def factory(scale):
        scales.append(scale)
        return family(scale)

    monkeypatch.setattr(lift_mod, "run_check", spied)
    family, _ = limit_family(case, 0.0)
    with pytest.raises(DomainError) as err:
        lift_mod.flat_limit(factory, ells)
    return calls, str(err.value)


@pytest.mark.parametrize(
    "ells, alone",
    [
        ([1e-300, 1.0], [(VALIDATION[:2], 1e-300)]),
        ([1.0, 1e-300], [(ONE_ELL, 1.0), (VALIDATION[:2], 1e-300)]),
    ],
    ids=["tiny-first", "tiny-last"],
)
def test_a_failing_param_pass_runs_each_ell_alone_in_order(monkeypatch, ells, alone):
    calls, message = _limit_calls(monkeypatch, "heisenberg", ells)
    shared = [c for c in calls if len(c[1]) > 1]
    assert calls[: len(shared)] == shared and shared[0] == ("lift.gauge", tuple(ells))
    assert calls[len(shared):] == [(name, (ell,)) for names, ell in alone for name in names]
    assert message.startswith("ell = 1e-300: check 'lift.gt' is nan at ")


def test_a_passing_job_is_one_run_check_per_check_on_all_ells(monkeypatch):
    calls = []
    run = lift_mod.run_check

    def spied(name, fn, points, tol):
        calls.append((name, len(points)))
        return run(name, fn, points, tol)

    monkeypatch.setattr(lift_mod, "run_check", spied)
    factory, _ = limit_family("class_b", 0.5)
    report = lift_mod.flat_limit(factory, [100.0, 200.0, 1000.0])
    assert calls == [(n, 18) for n in ONE_ELL]
    assert report["ell_used"] == [100.0, 200.0, 1000.0]
