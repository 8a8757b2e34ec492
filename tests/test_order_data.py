"""The jet order is data: every derivative part is exactly symmetric, and
the index tables of an order above ``MAX_ORDER`` give exact derivatives
with the same code (checked against sympy; ``src/`` does not import it).
The Leibniz and Faa di Bruno tables equal, bit for bit, the tables built
from every labelling of their blocks (``oracle.sum_table_by_labellings``)."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from ewbench import families as fam
from ewbench import jets
from ewbench.ew import frame_arrays
from ewbench.jets import MAX_ORDER, Jet, evaluation_scope, sample
from oracle import sum_table_by_labellings

ORDER = 4


def asymmetric_entries(part, axes):
    """How many entries of ``part`` differ, bit for bit, from an entry that
    a permutation of its derivative ``axes`` maps them to."""
    bits = part.view(np.uint64)
    bad = np.zeros(part.shape, dtype=bool)
    for perm in itertools.permutations(axes):
        order = list(range(part.ndim))
        for a, b in zip(axes, perm):
            order[a] = b
        bad |= bits != np.transpose(bits, order)
    return int(np.count_nonzero(bad))


def assert_symmetric(jet):
    for k, part in enumerate(jet.parts[2:], 2):
        part = np.asarray(part, dtype=float)
        assert asymmetric_entries(part, range(part.ndim - k, part.ndim)) == 0, k


def random_jets(rng, dim, batch):
    """Polynomials and smooth functions of the coordinates at a random point
    or batch, through order 3."""
    coords = rng.uniform(0.5, 1.5, size=(dim,) if batch is None else (batch, dim))
    xs = [Jet.variable(c, i, dim) for i, c in enumerate(np.moveaxis(coords, -1, 0))]
    out = []
    for _ in range(6):
        a, b = (sum(rng.uniform(-1, 1) * xs[i] * xs[j] for i, j in rng.integers(0, dim, (3, 2)))
                for _ in range(2))
        out += [a * b, jets.sin(a) * b, (a * a + 2.0).reciprocal()]
        out.append(jets.exp(b).compose(1.0, 2.0, 3.0, 4.0))
    return out


@pytest.mark.parametrize("batch", [None, 7], ids=["point", "batch"])
@pytest.mark.parametrize("dim", [3, 4])
def test_products_and_compositions_are_exactly_symmetric(dim, batch):
    rng = np.random.default_rng(dim)
    for jet in random_jets(rng, dim, batch):
        assert_symmetric(jet)
        assert_symmetric(jet.partial(dim - 1))


@pytest.mark.parametrize("case", ["from_H", "class_a"])
def test_the_packed_coframe_derivatives_are_exactly_symmetric(case):
    """dd E[..., b, c, i, a] of the default structure at its 200 default
    points: d_b d_c E_ia, the same entry as d_c d_b E_ia."""
    s, dom = fam.build(case, {})
    pts = sample(dom)
    assert len(pts) == 200
    with evaluation_scope():
        ddE = frame_arrays(s, pts, "frame", 2)[2]
    assert ddE.size == 16200
    assert asymmetric_entries(ddE, (1, 2)) == 0


# --- order 4: the tables of an order above the cap ----------------------------


def jet4(values, dim):
    """The jets of the coordinates at ``values`` through order 4, made from
    the tables of (dim, 4) without raising ``MAX_ORDER``."""
    t = jets._tables(dim, ORDER)
    return [jets._jet(float(v), t.units[i], t) for i, v in enumerate(values)]


def _derivative(expr, along):
    return sp.diff(expr, *along) if along else expr


def assert_exact(jet, expr, symbols, at):
    """Every part of ``jet`` is sympy's derivative of ``expr`` at ``at``."""
    subs = dict(zip(symbols, at))
    assert jet.order == ORDER
    for k, part in enumerate(jet.parts):
        part = np.asarray(part)
        for idx in itertools.product(range(len(symbols)), repeat=k):
            want = float(_derivative(expr, [symbols[i] for i in idx]).subs(subs))
            got = part[idx] if k else float(part)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-13), (k, idx, got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_the_order_4_tables_give_exact_products_compositions_and_partials(dim):
    assert MAX_ORDER == 3
    symbols = sp.symbols(f"x0:{dim}")
    at = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)][:dim]
    x = jet4(at, dim)
    X = symbols
    # a polynomial: products only, exact in floats at these points
    poly = x[0] * x[1] * x[1] * x[-1] + x[0] * x[0] * x[0] * x[0]
    Poly = X[0] * X[1] ** 2 * X[-1] + X[0] ** 4
    assert_exact(poly, Poly, symbols, at)
    u, U = x[0] * x[1] + x[-1] * x[-1] * 0.5 + 2.0, X[0] * X[1] + X[-1] ** 2 / 2 + 2
    assert_exact(jets.exp(u), sp.exp(U), symbols, at)
    assert_exact(jets.sin(u), sp.sin(U), symbols, at)
    assert_exact(u.reciprocal(), 1 / U, symbols, at)
    assert_exact(jets.exp(u) * u.reciprocal(), sp.exp(U) / U, symbols, at)
    # partial: order 3 of the derivative, from the order-4 jet
    for i in range(dim):
        d = (jets.sin(u) * poly).partial(i)
        assert d.order == ORDER - 1
        want = sp.diff(sp.sin(U) * Poly, X[i])
        subs = dict(zip(symbols, at))
        for k, part in enumerate(d.parts):
            for idx in itertools.product(range(dim), repeat=k):
                value = float(_derivative(want, [X[j] for j in idx]).subs(subs))
                got = np.asarray(part)[idx] if k else float(part)
                assert math.isclose(got, value, rel_tol=1e-13, abs_tol=1e-13)


def test_a_batch_at_order_4_is_its_points_alone():
    rows = np.array([[0.5, -0.7, 1.1], [1.3, 0.2, -0.4]])
    t = jets._tables(3, ORDER)

    def f(values):
        x = [jets._jet(v, t.units[i], t) for i, v in enumerate(values)]
        u = x[0] * x[1] + x[2] * x[2] + 2.0
        return jets.exp(u) * u.reciprocal() * jets.sin(x[0])
    batch = f([np.ascontiguousarray(c) for c in rows.T])
    for r, row in enumerate(rows):
        alone = f([float(v) for v in row])
        assert batch.value[r].tobytes() == np.float64(alone.value).tobytes()
        assert batch.derivs[r].tobytes() == alone.derivs.tobytes()


# --- the sum tables: each set partition once ------------------------------


def assert_same_table(got, want):
    """Two ``_sum_table`` results hold the same factor positions, weights
    and starts, entry for entry and with the same dtypes (or both None)."""
    (factors, weights, starts), (factors0, weights0, starts0) = got, want
    pairs = [*zip(factors, factors0), (weights, weights0), (starts, starts0)]
    assert len(factors) == len(factors0)
    for a, b in pairs:
        assert (a is None) == (b is None)
        assert a is None or (a.dtype == b.dtype and np.array_equal(a, b))


@pytest.mark.parametrize(
    "dim,order", [(n, k) for n in range(1, 5) for k in range(1, 6) if (n, k) != (4, 5)]
)
def test_the_partition_tables_are_the_labelling_tables(dim, order):
    """The product (Leibniz) and chain (Faa di Bruno) tables of every
    (dim, order) through (3, 5) and (4, 4) are the labelling tables."""
    t = jets._tables(dim, order)
    pos = {a: i for i, a in enumerate(t.alphas)}
    if order < 2:
        assert t.product is False and t.chain == []
        return
    assert_same_table(t.product, sum_table_by_labellings(pos, t.alphas[dim:], 2, ordered=True))
    assert [k for k, _, _ in t.chain] == list(range(order, 1, -1))
    for k, start, table in t.chain:
        assert start == t.offset[k]
        assert_same_table(table, sum_table_by_labellings(pos, t.alphas[start:], k, ordered=False))
