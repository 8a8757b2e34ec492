"""Order-3 kernel microbenchmarks on fixed random inputs drawn from the seed.

Each timing is the median over repeats of a loop's mean per-call time.  Beside
each one the operation count and bytes moved are computed from array sizes
(no hardware counters are read), for an order-3 jet at dimension n that
holds 1 + n + n^2 + n^3 doubles.
"""
from __future__ import annotations

import random
from statistics import median
from time import perf_counter

from ewbench.curv import riemann
from ewbench.forms import MetricField
from ewbench.jets import ChartPoint, Field, Jet

REPEATS = 5


def jet_doubles(n):
    return 1 + n + n * n + n**3


def mul_flops(n):
    # value 1, grad 3n, hess 7n^2 (four products, three sums), third 15n^3
    return 1 + 3 * n + 7 * n * n + 15 * n**3


def compose_flops(n):
    # grad n, hess 4n^2, third 12n^3 (g x g x g, two sym(H x g), three sums)
    return n + 4 * n * n + 12 * n**3


# the curvature contractions riemann() runs on packed arrays, with operand counts
_RIEMANN_EINSUMS = (
    ("bdc->dbc", 1), ("cdb->dbc", 1), ("ad,dbc->abc", 2), ("af,efh,hb->eab", 3),
    ("ebdc->edbc", 1), ("ecdb->edbc", 1), ("edbc->edbc", 1), ("ead,dbc->eabc", 2),
    ("ad,edbc->eabc", 2), ("cadb->abcd", 1), ("dacb->abcd", 1),
    ("ace,edb->abcd", 2), ("ade,ecb->abcd", 2),
)


def riemann_flops(n):
    """Products and sums of the contractions, one flop per operand per
    index combination: an upper bound for numpy's unoptimized einsum."""
    total = 0
    for spec, operands in _RIEMANN_EINSUMS:
        indices = set(spec.replace(",", "").replace("->", ""))
        total += operands * n ** len(indices)
    return total


def random_jet(rng, n):
    """Order-3 jet of a random cubic polynomial, built with public Jet ops."""
    xs = [Jet.variable(rng.uniform(-1, 1), i, n) for i in range(n)]
    j = Jet.constant(rng.uniform(1.5, 2.5), n)
    for a in range(n):
        j = j + rng.uniform(-0.3, 0.3) * xs[a]
        for b in range(a, n):
            j = j + rng.uniform(-0.3, 0.3) * (xs[a] * xs[b])
            for c in range(b, n):
                j = j + rng.uniform(-0.3, 0.3) * (xs[a] * xs[b] * xs[c])
    return j


def packed_metric(rng):
    """A Lorentzian 4D metric whose components return fixed random jets, so
    that riemann() spends its time on the packed arrays, and a point."""
    chart = ("q", "x", "y", "t")
    comps = {}
    for a in range(4):
        for b in range(a, 4):
            base = (-1.0 if a == 0 else 1.0) if a == b else 0.0
            jet = 0.05 * random_jet(rng, 4) + base
            comps[(a, b)] = Field(lambda pt, order=0, _jet=jet: _jet)
    return MetricField(chart, comps), ChartPoint.make(chart, (0.0,) * 4)


def loop_us(fn, loops):
    t0 = perf_counter()
    for _ in range(loops):
        fn()
    return (perf_counter() - t0) / loops * 1e6


def per_call_us(fn, loops):
    return median(loop_us(fn, loops) for _ in range(REPEATS))


def riemann_kernel_us(g, pt, loops):
    """riemann() minus the jets_at() packing it starts with, paired per repeat."""
    return median(
        loop_us(lambda: riemann(g, pt), loops) - loop_us(lambda: g.jets_at(pt, 2), loops)
        for _ in range(REPEATS)
    )


def run_kernels(seed, rescale):
    """{metric: (microseconds, computed-cost note)} for the jet and curvature
    kernels, timed through the ``bench_speed.Rescaler`` given."""
    rng = random.Random(seed)
    a3, b3 = random_jet(rng, 3), random_jet(rng, 3)
    a4, b4 = random_jet(rng, 4), random_jet(rng, 4)
    f = [rng.uniform(-1, 1) for _ in range(4)]
    v = rng.uniform(-1, 1)
    g, pt = packed_metric(rng)
    bytes3, bytes4 = 8 * jet_doubles(3), 8 * jet_doubles(4)

    def timed(fn, loops):
        us, _, factor = rescale.time(lambda: per_call_us(fn, loops))
        return us * factor

    out = {
        "jets.mul_us.d3": (timed(lambda: a3 * b3, 400),
                           f"{mul_flops(3)} flop, {3 * bytes3} B"),
        "jets.mul_us.d4": (timed(lambda: a4 * b4, 400),
                           f"{mul_flops(4)} flop, {3 * bytes4} B"),
        "jets.compose_us.d4": (timed(lambda: a4.compose(*f), 400),
                               f"{compose_flops(4)} flop, {2 * bytes4} B"),
        "jets.reciprocal_us.d4": (timed(a4.reciprocal, 400),
                                  f"{compose_flops(4) + 8} flop, {2 * bytes4} B"),
        "jets.const0_us.d3": (timed(lambda: Jet.constant(v, 3, 0), 2000),
                              f"0 flop, {bytes3} B allocated"),
    }
    us, _, factor = rescale.time(lambda: riemann_kernel_us(g, pt, 200))
    n = 4
    packed = 8 * (n * n + n**3 + n**4)
    out["curv.riemann_kernel_us.d4"] = (
        us * factor,
        f"riemann() minus jets_at(): <= {riemann_flops(n)} flop, {packed} B of packed g, dg, ddg",
    )
    return out
