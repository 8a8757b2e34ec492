"""Each piece of metric work done once: symmetric squares as one product,
one metric pass per (metric, batch) in a scope, and two-operand
contractions."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewbench import curv
from ewbench.curv import (
    MetricPass,
    em_residual,
    f_squared,
    kretschmann,
    maxwell_residual,
    riemann,
)
from ewbench.errors import EwbenchError
from ewbench.expr import parse_field, to_field
from ewbench.families import CASES, build as build_case, heisenberg, psi_const
from ewbench.forms import PForm, coordinate_form, symmetric_product
from ewbench.jets import ChartPoint, Jet, PointBatch, evaluation_scope, sample, shared_scope
from ewbench.lift import LiftConfig, build, invariants_check

from conftest import COORDS, EXPRS

# --- symmetric squares -----------------------------------------------------------


def _count_jet_products(mp):
    """Count Jet + Jet and Jet * Jet while ``mp`` is active."""
    counts = Counter()
    for name in ("__add__", "__mul__"):
        method = getattr(Jet, name)

        def counted(self, other, method=method, name=name):
            counts[name] += isinstance(other, Jet)
            return method(self, other)

        mp.setattr(Jet, name, counted)
    return counts


def _abs_jet(jet):
    return Jet([np.abs(p) for p in jet.parts])


@np.errstate(all="ignore")
def assert_square_is_one_product(a, q):
    """Each component of a (.) a is the one product a_i a_j: evaluating it
    with the legs held adds no jets and multiplies at most one pair, its
    value and gradient are those of 0.5 (a_i a_j + a_j a_i) bit for bit,
    and its order-2 and order-3 parts agree with that to 1e-15 of the
    summed sizes of their Leibniz terms.  The values are compared where the
    average is finite in every row: elsewhere 0.5 * x takes the full
    product with a constant jet, whose zeros turn inf into NaN."""
    square = symmetric_product(a, a)
    # the same component fields in a second form: the averaged product
    averaged = symmetric_product(a, PForm(a.chart, 1, a.comps))
    assert square.comps.keys() == averaged.comps.keys()
    with evaluation_scope():
        try:
            legs = {i: f(q, 3) for (i,), f in a.comps.items()}
        except EwbenchError:
            return
        for (i, j), comp in square.comps.items():
            with pytest.MonkeyPatch.context() as mp:
                counts = _count_jet_products(mp)
                got = comp(q, 3)
            assert counts["__add__"] == 0 and counts["__mul__"] <= 1
            want = averaged.comps[(i, j)](q, 3)
            if not all(np.isfinite(p).all() for p in want.parts):
                continue
            size = _abs_jet(legs[i]) * _abs_jet(legs[j])
            for k, (x, y, s) in enumerate(zip(got.parts, want.parts, size.parts)):
                x, y, s = np.broadcast_arrays(x, y, s)
                if k <= 1:
                    assert x.tobytes() == y.tobytes()
                else:
                    assert np.all(np.abs(x - y) <= 1e-15 * s + np.finfo(float).tiny)


class TestSymmetricSquare:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        comps=st.dictionaries(st.sampled_from([(0,), (1,)]), EXPRS, min_size=1),
        rows=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=4),
        batched=st.booleans(),
    )
    def test_a_square_of_expressions_is_one_product(self, comps, rows, batched):
        chart = ("x", "y")
        a = PForm(chart, 1, {i: to_field(e) for i, e in comps.items()})
        q = PointBatch(chart, rows) if batched else ChartPoint.make(chart, rows[0])
        assert_square_is_one_product(a, q)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_square_of_a_catalog_leg_is_one_product(self, case):
        s, dom = build_case(case, {}, count=3)
        pts = sample(dom)
        for leg in s.frame.legs:
            assert_square_is_one_product(leg, PointBatch.of(pts))
            assert_square_is_one_product(leg, pts[0])


# --- one metric pass per (metric, batch) -------------------------------------------


def heisenberg_lift(chart="p"):
    base = heisenberg(1.0)
    cfg = LiftConfig(base, psi_const(base, 0.5), -1.0, chart=chart)
    return cfg, build(cfg)


def lift_batch(data, count, seed):
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, 4))
    return PointBatch(data.chart, rows)


def lift_checks(cfg, data):
    """The em, maxwell and invariants residuals of a lift, as the CLI runs
    them on its chart."""
    return {
        "em": lambda q: em_residual(data.g, data.potential, data.ell, q),
        "maxwell": lambda q: maxwell_residual(data.potential, data.g, q),
        "invariants": invariants_check(cfg, data)[1],
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedPass:
    def test_det_inverse_and_its_partial_run_once_per_metric(self, monkeypatch):
        cfg, data = heisenberg_lift()
        q = lift_batch(data, 6, 4)
        dets, calls = Counter(), Counter()
        metric_det, inv, inverse_partial = curv.metric_det, np.linalg.inv, curv._inverse_partial

        def counted_det(g0, pt):
            dets[pt.chart[0]] += 1
            return metric_det(g0, pt)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(curv, "metric_det", counted_det)
        monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
        monkeypatch.setattr(curv, "_inverse_partial", counted("dginv", inverse_partial))
        with evaluation_scope():
            for fn in lift_checks(cfg, data).values():
                fn(q)
        # two metrics: the p chart of all three checks, and the alpha chart
        # of the invariants
        assert dets == {"p": 1, "alpha": 1}
        assert calls == {"inv": 2, "dginv": 2}

    @pytest.mark.parametrize("order", [("em", "maxwell", "invariants"),
                                       ("invariants", "maxwell", "em")])
    def test_each_check_in_a_shared_scope_is_its_value_alone(self, order):
        cfg, data = heisenberg_lift()
        q = lift_batch(data, 6, 5)
        checks = lift_checks(cfg, data)
        with evaluation_scope():
            shared = {name: checks[name](q) for name in order}
        for name, fn in checks.items():
            with evaluation_scope():
                alone = fn(q)
            if name == "invariants":
                assert all(_same_bits(a, b) for a, b in zip(shared[name], alone))
            else:
                assert _same_bits(shared[name], alone)

    def test_the_fd_oracle_neither_reads_nor_fills_the_pass(self):
        _, data = heisenberg_lift()
        q = lift_batch(data, 2, 6)
        with evaluation_scope():
            fresh = riemann(data.g, q, method="fd")
            with shared_scope() as memo:
                assert not any(type(v) is MetricPass for v in memo.values())
        with evaluation_scope():
            jet = riemann(data.g, q)
            fd = riemann(data.g, q, method="fd")
        assert _same_bits(fd, fresh)
        assert not np.array_equal(fd, jet)
        assert np.allclose(fd, jet, rtol=0.0, atol=1e-4)


# --- two-operand contractions -----------------------------------------------------


def einsum_inverse_partial(ginv, dg):
    return -np.einsum("...af,...efh,...hb->...eab", ginv, dg, ginv)


def einsum_f_contract(fm, ginv):
    return np.einsum("...ab,...ac,...bd,...cd->...", fm, ginv, ginv, fm)


def einsum_maxwell(A, g, q):
    """maxwell_residual with each contraction one multi-operand einsum."""
    g0, dg = g.jets_at(q, 1)
    vol = np.sqrt(np.abs(np.linalg.det(g0)))
    ginv = np.linalg.inv(g0)
    dginv = einsum_inverse_partial(ginv, dg)
    fm, dfm = curv.field_strength(A, q, 1)
    f_up = np.einsum("...ea,...ab,...db->...ed", ginv, fm, ginv)
    df_up = (
        np.einsum("...cea,...ab,...db->...ced", dginv, fm, ginv)
        + np.einsum("...ea,...cab,...db->...ced", ginv, dfm, ginv)
        + np.einsum("...ea,...ab,...cdb->...ced", ginv, fm, dginv)
    )
    dlog_vol = 0.5 * np.einsum("...ab,...eab->...e", ginv, dg)
    div = np.einsum("...e,...ed->...d", dlog_vol, f_up) + np.einsum("...eed->...d", df_up)
    j_up = vol[..., None] * div
    return np.stack((j_up[..., 3], -j_up[..., 2], j_up[..., 1], -j_up[..., 0]), axis=-1)


def einsum_em(g, A, ell, q):
    """em_residual with its stress and |F|^2 each one multi-operand einsum."""
    g0 = g.matrix_at(q)
    ginv = np.linalg.inv(g0)
    fm = curv.field_strength(A, q, 0)[0]
    stress = np.einsum("...ac,...bd,...dc->...ab", fm, fm, ginv)
    fsq = einsum_f_contract(fm, ginv)
    ric = curv.ricci(g, q)
    return ric + (3.0 / ell**2) * g0 + 2.0 * stress - 0.5 * fsq[..., None, None] * g0


def non_solution(data):
    """The potential of a lift plus x^2 sin(t) dy: d star dA is of order 1."""
    extra = coordinate_form(data.chart, "y").scale(parse_field("x^2*sin(t)", data.chart))
    return data.potential + extra


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestContractions:
    @pytest.mark.parametrize("chart", ["p", "alpha"])
    def test_pairwise_matches_the_multi_operand_einsum(self, chart):
        _, data = heisenberg_lift(chart)
        rows = np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 4))
        if chart == "alpha":
            rows[:, 0] = np.random.default_rng(8).uniform(0.3, 2.8, size=20)
        q = PointBatch(data.chart, rows)
        A = non_solution(data)
        g0, dg = data.g.jets_at(q, 1)
        ginv = np.linalg.inv(g0)
        fm = curv.field_strength(A, q, 0)[0]
        assert_close(curv._inverse_partial(ginv, dg), einsum_inverse_partial(ginv, dg))
        assert_close(curv._f_contract(fm, ginv), einsum_f_contract(fm, ginv))
        assert_close(f_squared(A, data.g, q), einsum_f_contract(fm, ginv))
        assert_close(maxwell_residual(A, data.g, q), einsum_maxwell(A, data.g, q))
        # a wrong ell leaves an em residual of order 1
        assert_close(em_residual(data.g, A, 2.0, q), einsum_em(data.g, A, 2.0, q))

    def test_batch_rows_are_their_points_alone(self):
        _, data = heisenberg_lift()
        q = lift_batch(data, 1000, 9)
        A = non_solution(data)

        def residuals(at):
            return (
                em_residual(data.g, A, data.ell, at),
                maxwell_residual(A, data.g, at),
                kretschmann(data.g, at),
            )

        with evaluation_scope():
            batch = residuals(q)
        for i, row in enumerate(q.rows.tolist()):
            with evaluation_scope():
                alone = residuals(ChartPoint(data.chart, tuple(row)))
            assert all(_same_bits(b[i], a) for b, a in zip(batch, alone)), i
