import numpy as np
import pytest
from hypothesis import strategies as st

from ewbench import ChartPoint, SampleDomain, sample
from ewbench.expr import FUNCTIONS, Bin, Call, Const, Neg, Var

XYT = ("x", "y", "t")
PYT = ("p", "y", "t")


def box_points(chart, lo, hi, count, seed):
    """Plain uniform points in a box, no guard."""
    dim = len(chart)
    dom = SampleDomain(tuple(chart), ((lo, hi),) * dim, None, seed, count)
    return sample(dom)


def pt(chart, *coords):
    return ChartPoint.make(tuple(chart), coords)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260825)


# expressions in x and y, and coordinates for them, for property tests
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
