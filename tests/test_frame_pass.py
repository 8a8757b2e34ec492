"""One packing of the frame arrays per job: gt, monopole and psi computed
on the packed arrays of ``ew.frame_arrays`` and ``ew.stars`` equal their
form-algebra definitions bit for bit, raise the same errors, and each job
evaluates every coframe, omega and V component once."""
import contextlib
import importlib.util
import io
import shlex
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from ewbench import cli as cli_mod
from ewbench import ew as ew_mod
from ewbench import expr as ex
from ewbench import families as fam
from ewbench import jets
from ewbench.cli import EXIT_FAIL, EXIT_PASS, main
from ewbench.errors import EwbenchError, SingularFrameError
from ewbench.ew import (
    PAIRS,
    frame_arrays,
    gauge_transform,
    gt_residual,
    monopole_residual,
    psi_residual,
    stars,
)
from ewbench.jets import Field, PointBatch, evaluation_scope, sample, shared_scope
from ewbench.lift import LiftConfig, fix_ell_sign, validate_config
from ewbench.report import run_check

from oracle import Weighted, ext_d, hodge3, scalar_form, star_frame, values_at, wedge, weighted_d


def _bench_jobs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_jobs.py"
    spec = importlib.util.spec_from_file_location("_ewbench_frame_bench_jobs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_JOBS = _bench_jobs()

# --- the oracle: the residuals as forms, evaluated component by component --


def oracle_gt(s, pt):
    """The three 2-forms d e^i - 1/2 omega^e^i + V *e^i, row i in PAIRS order."""
    half_omega = s.omega.scale(0.5)
    forms = [
        ext_d(leg) - wedge(half_omega, leg) + star_frame(s.frame, i).scale(s.V)
        for i, leg in enumerate(s.frame.legs, start=1)
    ]
    return np.stack([values_at(r, pt, PAIRS) for r in forms], axis=-2)


def oracle_monopole(s, pt):
    """*(dV + 1/2 V omega) - 1/2 d omega."""
    arg = ext_d(scalar_form(s.chart, s.V)) + s.omega.scale(s.V * 0.5)
    return values_at(hodge3(arg, s.frame) - ext_d(s.omega).scale(0.5), pt, PAIRS)


def oracle_psi(psi, s, pt):
    """D psi - V * psi, psi of weight -1; for the zero form, hodge3 takes
    the coefficients of frame_expand's zero-form rule."""
    dpsi = weighted_d(Weighted(psi, -1.0), s.omega)
    return values_at(dpsi - hodge3(psi, s.frame).scale(s.V), pt, PAIRS)


def _outcome(fn, pt):
    """The shape and bits of fn(pt) in a scope of its own, or its error.

    A zero counts as +0.0: where a form has no term (an absent component),
    the arrays add an exact zero, which can turn -0.0 into +0.0 and back,
    and no report reads the sign of a zero (each takes |r|)."""
    with evaluation_scope(), np.errstate(all="ignore"):
        try:
            r = np.asarray(fn(pt))
        except EwbenchError as exc:
            return type(exc), str(exc)
    return r.shape, (r + 0.0).tobytes()


def _pairs(s, psi):
    """(name, array residual, oracle) of each frame-pass check of s."""
    return [
        ("gt", lambda q: gt_residual(s, q), lambda q: oracle_gt(s, q)),
        ("monopole", lambda q: monopole_residual(s, q), lambda q: oracle_monopole(s, q)),
        ("psi", lambda q: psi_residual(psi, s, q), lambda q: oracle_psi(psi, s, q)),
    ]


CASES = sorted(fam.CASES)
CS = (0, -0.0, 0.5)


def _structure(case, gauge):
    s, dom = fam.build(case, {}, count=5)
    if gauge:
        s = gauge_transform(s, ex.parse_field("0.3*t", s.chart))
    return s, sample(dom)


@pytest.mark.parametrize("gauge", [False, True], ids=["plain", "gauge"])
@pytest.mark.parametrize("c", CS, ids=repr)
@pytest.mark.parametrize("case", CASES)
def test_the_array_residuals_are_the_forms_bit_for_bit(case, c, gauge):
    s, batch = _structure(case, gauge)
    psi = fam.psi_const(s, c)
    for name, fn, oracle in _pairs(s, psi):
        for q in [batch] + list(batch):
            got, want = _outcome(fn, q), _outcome(oracle, q)
            assert got == want, (name, q)
            assert got[0] == q.shape + ((3, 3) if name == "gt" else (3,))


@pytest.mark.parametrize("case", CASES)
def test_the_checks_of_one_scope_read_one_pass(case):
    s, batch = _structure(case, False)
    psi = fam.psi_const(s, 0.5)
    with evaluation_scope() as memo:
        together = [(fn(batch) + 0.0).tobytes() for _, fn, _ in _pairs(s, psi)]
        assert stars(s, batch) is stars(s, batch)
        assert frame_arrays(s, batch, "frame", 1)[1] is frame_arrays(s, batch, "frame", 1)[1]
        held = {k[0] for k in memo if len(k) == 3 and k[1:] == (s, batch)}
        assert held == {"frame", "omega", "V", "stars"}
    assert together == [_outcome(fn, batch)[1] for _, fn, _ in _pairs(s, psi)]


def test_the_arrays_without_a_scope_are_new_each_call():
    s, batch = _structure("class_b", False)
    assert stars(s, batch) is not stars(s, batch)
    assert frame_arrays(s, batch, "V", 0)[0] is not frame_arrays(s, batch, "V", 0)[0]


def test_the_pass_arrays_are_read_only_and_sliced():
    s, batch = _structure("heisenberg", False)
    with evaluation_scope():
        e, de = frame_arrays(s, batch, "frame", 1)
        assert e.shape == (5, 3, 3) and de.shape == (5, 3, 3, 3)
        assert frame_arrays(s, batch, "frame", 0)[0] is e
        assert not e.flags.writeable and not stars(s, batch).flags.writeable
        v, dv = frame_arrays(s, batch, "V", 1)
        w, dw = frame_arrays(s, batch, "omega", 1)
        assert v.shape == (5,) and dv.shape == (5, 3) and w.shape == (5, 3) and dw.shape == (5, 3, 3)
        for a, leg in enumerate(s.frame.legs):
            for (k,), f in leg.comps.items():
                jet = f(batch, 1)
                assert e[:, a, k].tobytes() == np.broadcast_to(jet.value, (5,)).tobytes()


# --- the error paths -----------------------------------------------------------


def _singular_class_b():
    base = fam.class_b("1e-13")
    probes = PointBatch(fam.PYT, [(1.2, 0.3, 0.4), (1.1, 0.2, 0.5)])
    return base, probes


@pytest.mark.parametrize("c", CS, ids=repr)
def test_a_singular_coframe_raises_the_same_error(c):
    s, probes = _singular_class_b()
    psi = fam.psi_const(s, c)
    message = "coframe determinant -1.000e-13 below tolerance"
    for name, fn, oracle in _pairs(s, psi):
        if name == "gt":
            continue  # gt solves nothing
        for q in (probes, probes[0]):
            got = _outcome(fn, q)
            assert got == _outcome(oracle, q) == (SingularFrameError, message)
    ell, _ = fix_ell_sign(s, None, probes[0])
    with pytest.raises(SingularFrameError, match=message):
        validate_config(LiftConfig(s, psi, ell, probes=probes))


@pytest.mark.parametrize(
    "H,checks",
    [("x^2*(1e308*y-2.5e308)", "psi"), ("x^2*(1e308*y-2.5e308)", "gt"), ("1e308*x^3", "monopole")],
)
def test_a_non_finite_row_names_the_same_point(H, checks):
    s, dom = fam.build("from_H", {"H": H}, count=20)
    batch = sample(dom)
    psi = fam.psi_const(s, 0.5)
    outcomes = []
    for name, fn, oracle in _pairs(s, psi):
        if name == checks:
            for f in (fn, oracle):
                with evaluation_scope():
                    try:
                        outcomes.append(run_check(name, f, batch, 1e-7))
                    except EwbenchError as exc:
                        outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


# --- each field once per job -------------------------------------------------


def _count_component_calls(monkeypatch):
    """{field: [order of each call that returned]} of the coframe, omega
    and V component fields of the structure each job builds, counted on
    the job's batch while its checks run (not on the points that a failing
    check evaluates again one at a time)."""
    calls = defaultdict(list)
    running = []
    build_case, run_checks = cli_mod.build_case, cli_mod._run_checks

    def counted_build(cfg):
        s, dom = build_case(cfg)
        fields = [f for leg in s.frame.legs for f in leg.comps.values()]
        for f in {id(f): f for f in fields + list(s.omega.comps.values()) + [s.V]}.values():
            fn = f.fn

            def counted(pt, order=0, fn=fn, f=f):
                out = fn(pt, order)
                if running and pt.shape:
                    calls[f].append(order)
                return out

            f.fn = counted
        return s, dom

    def counted_run(*args):
        running.append(True)
        try:
            return run_checks(*args)
        finally:
            running.pop()

    monkeypatch.setattr(cli_mod, "build_case", counted_build)
    monkeypatch.setattr(cli_mod, "_run_checks", counted_run)
    return calls


@pytest.mark.parametrize("case", [c.replace("_", "-") for c in CASES])
def test_each_component_is_computed_once_per_job(capsys, monkeypatch, case):
    calls = _count_component_calls(monkeypatch)
    main(["verify", "--case", case, "--checks", "gt,monopole,weyl,psi", "--points", "5"])
    capsys.readouterr()
    assert calls and {f: orders for f, orders in calls.items() if len(orders) != 1} == {}


def _count_reevaluations(monkeypatch):
    """A list that gains one entry each time a field is called at a higher
    order than the jet its scope holds for the same points, so that its
    function runs again."""
    again = []
    call = Field.__call__

    def counted(self, pt, order=0):
        memo = jets._SCOPE.get()
        held = None if memo is None else memo.get((self, pt))
        if held is not None and held.order < order:
            again.append(order)
        return call(self, pt, order)

    monkeypatch.setattr(Field, "__call__", counted)
    return again


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def test_a_verify_3d_cycle_evaluates_no_field_again(monkeypatch):
    again = _count_reevaluations(monkeypatch)
    jobs = BENCH_JOBS.make_jobs("verify-3d", 1, 1)
    assert [_quiet(job.argv) for job in jobs] == [job.expect_rc for job in jobs]
    assert again == []


def test_a_psi_with_components_evaluates_no_omega_again(monkeypatch):
    """psi = c omega packs its psi through 1 after gt read omega at 0: its
    row declares omega at 1, so the job packs omega there first."""
    again = _count_reevaluations(monkeypatch)
    argv = "verify --case class-a --checks gt,psi --c 0.5 --points 5"
    assert _quiet(argv.split()) == EXIT_FAIL  # c omega fails psi on the class-a default
    assert again == []


@pytest.mark.parametrize(
    "argv",
    [
        "limit --case heisenberg",
        "limit --case class-b --ells 100,200,1000",
        "limit --case class-b --ells 100,200 --c 0.7",
        "lift --case heisenberg --c 0.5 --checks gt,monopole,psi,em --points 4",
    ],
)
def test_limit_and_lift_jobs_evaluate_no_field_again(monkeypatch, argv):
    again = _count_reevaluations(monkeypatch)
    assert _quiet(shlex.split(argv)) == EXIT_PASS
    assert again == []


# --- the frame arrays a check declares ---------------------------------------


# the frame arrays a check may declare
FRAME_ARRAYS = ("frame", "omega", "V")


def _record_frame_packs(monkeypatch):
    """[(array, order)] of each packing of a frame array that a check may
    declare while a job's checks run (a lift validates its base in a scope
    of its own before).  Every frame array, those that ``curv.PACKERS``
    packs included, is kept by ``ew.frame_arrays`` through the
    ``scoped_arrays`` of ``ew``, which the recorder wraps."""
    packs, running = [], []
    scoped_arrays, run_checks = ew_mod.scoped_arrays, cli_mod._run_checks

    def recorded(key, order, pack):
        with shared_scope() as memo:
            held = memo.get(key, ())
        if running and len(held) <= order:
            packs.append((key[0], order))
        return scoped_arrays(key, order, pack)

    def counted_run(*args):
        running.append(True)
        try:
            return run_checks(*args)
        finally:
            running.pop()

    monkeypatch.setattr(ew_mod, "scoped_arrays", recorded)
    monkeypatch.setattr(cli_mod, "_run_checks", counted_run)
    return packs


def _packs_what_it_declares(capsys, monkeypatch, command, name, c):
    """--c is given wherever it is read: under lift, and under verify with
    psi, whose psi = c omega reads omega at 1 when c != 0."""
    packs = _record_frame_packs(monkeypatch)
    check = cli_mod.CHECKS[name]
    given = ["--c", c] if command == "lift" or "c" in check.flags else []
    code = main([command, "--case", "heisenberg", "--checks", name, "--points", "4"] + given)
    capsys.readouterr()
    assert code == EXIT_PASS
    declared = check.reads_under({"c": float(c)})
    assert sorted(packs) == sorted((a, o) for a, o in declared.items() if a in FRAME_ARRAYS)


@pytest.mark.parametrize("command", ["verify", "lift"])
@pytest.mark.parametrize("name", cli_mod.OFFERED_CHECKS["verify"])
def test_a_single_check_packs_the_frame_arrays_it_declares(capsys, monkeypatch, command, name):
    _packs_what_it_declares(capsys, monkeypatch, command, name, "0")


@pytest.mark.parametrize("command", ["verify", "lift"])
@pytest.mark.parametrize("name", cli_mod.OFFERED_CHECKS["verify"])
def test_at_a_nonzero_c_a_single_check_packs_what_it_declares(capsys, monkeypatch, command, name):
    _packs_what_it_declares(capsys, monkeypatch, command, name, "0.5")


def test_one_job_packs_each_frame_array_once_at_its_highest_order(capsys, monkeypatch):
    packs = _record_frame_packs(monkeypatch)
    code = main(["verify", "--case", "class-c", "--checks", "gt,psi,monopole,weyl", "--points", "4"])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert packs == [("omega", 1), ("V", 1), ("frame", 1)]
