"""Fewer numpy calls, the same bits: the report writer gives the text of
``json.dumps``, the draws are those of ``rng.uniform``, the jet product
is the Leibniz rule on full derivative tensors, and an
expression literal gives the parts of its constant jet, zero signs and
error texts included."""
import contextlib
import enum
import io
import itertools
import json
import re

import numpy as np
import pytest

from ewbench import cli as cli_mod
from ewbench.cli import main
from ewbench.errors import DomainError
from ewbench.expr import eval_jet, parse
from ewbench.jets import Jet, SampleDomain, sample
from ewbench.report import report_json

from conftest import pt
from oracle import leibniz_parts


def _dumps(report):
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


# --- the report writer ---------------------------------------------------------


def _reports(monkeypatch, argv):
    """The objects that ``cli.main(argv)`` hands the writer, and its stdout."""
    seen = []

    def recorded(report):
        seen.append(report)
        return report_json(report)

    monkeypatch.setattr(cli_mod, "report_json", recorded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return seen, out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        "verify --case from-H --checks hypercr,gt,monopole --points 4",
        "lift --case heisenberg --checks em,maxwell,invariants --points 3",
        "limit --case class-b --ells 100,200",
        "eval --expr 2*x^3-x/4 --at x=1.5,y=2 --order 3",
    ],
)
def test_the_writer_gives_the_text_of_json_dumps(monkeypatch, argv):
    seen, out = _reports(monkeypatch, argv.split())
    assert len(seen) == 1 and out == _dumps(seen[0]) == report_json(seen[0])


def test_an_eval_payload_has_numpy_leaves(monkeypatch):
    seen, _ = _reports(monkeypatch, "eval --expr x*y --at x=1,y=-2 --order 2".split())
    assert type(seen[0]["gradient"]["x"]) is np.float64


def test_a_non_ascii_out_path_is_echoed_as_json_escapes_it(monkeypatch, tmp_path):
    path = tmp_path / "résumé-ψ.json"
    argv = ["verify", "--case", "heisenberg", "--checks", "gt", "--points", "3", "--out", str(path)]
    seen, out = _reports(monkeypatch, argv)
    assert seen[0]["config"]["out"] == str(path)
    assert out == _dumps(seen[0]) == path.read_text(encoding="utf-8")
    assert "\\u00e9" in out and "\\u03c8" in out


@pytest.mark.parametrize(
    "report",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, ()]},
        {"x": np.float64(0.1), "y": [np.float64(-0.0), 1e-320, 1e300], "n": [1, True, False, None]},
        {"é\t\"q\"": "ψ\n", 2: "int key", 2.5: "float key", None: 0, True: 1},
        ({"nested": ({"deep": [1.5, -2]},)}, "tuple"),
        {"int": enum.IntEnum("N", "A B").B, "str": enum.StrEnum("S", "x").x},
    ],
    ids=["empty-dict", "empty-list", "empty-nests", "numpy-floats", "keys", "tuples", "subclasses"],
)
def test_the_writer_follows_json_on_every_type(report):
    assert report_json(report) == _dumps(report)


@pytest.mark.parametrize(
    "report",
    [
        {"a": [1.0, float("nan")]},
        {"b": np.float64("inf")},
        [{"c": -np.inf}],
        {float("nan"): 1},
        {"d": np.int64(3)},
        {(1, 2): 3},
    ],
)
def test_the_writer_raises_what_json_raises(report):
    with pytest.raises((ValueError, TypeError)) as want:
        _dumps(report)
    with pytest.raises(want.type) as got:
        report_json(report)
    assert str(got.value) == str(want.value)


# --- the draws -------------------------------------------------------------------

BOXES = [
    ((-1.0, 1.0), (2.0, 3.0), (-1.0, 1.0)),
    ((-5.0, -2.0), (-1e-3, -1e-300), (-0.7, 0.2)),
    ((0.5, 2.0), (0.7, 0.7), (-3.0, -3.0)),
]


@pytest.mark.parametrize("box", BOXES, ids=["catalog", "negative", "zero-width"])
def test_the_draws_are_those_of_uniform(box):
    lows, highs = zip(*box)
    for seed in range(20):
        got = sample(SampleDomain(("a", "b", "c"), box, None, seed, 700)).rows
        rng = np.random.default_rng(seed)
        want = np.concatenate([rng.uniform(lows, highs, size=(512, 3)) for _ in range(2)])
        assert got.tobytes() == want[:700].tobytes()


def test_a_box_past_the_float_range_raises_as_uniform_does():
    box = ((-1e308, 1e308), (0.0, 1.0))
    with pytest.raises(OverflowError) as want, np.errstate(all="ignore"):
        np.random.default_rng(1).uniform(*zip(*box), size=(512, 2))
    with pytest.raises(OverflowError) as got:
        sample(SampleDomain(("a", "b"), box, None, 1, 5))
    assert str(got.value) == str(want.value)


# --- the jet product ------------------------------------------------------------------


def _random_parts(rng, batch, dim):
    """The parts of an order-3 jet with small integer entries, symmetric in
    the derivative axes: over a batch, some derivative parts have no batch
    axis (constants); some entries are inf or NaN."""
    parts = [float(rng.integers(-5, 6)) if batch is None else rng.integers(-5, 6, batch) * 1.0]
    for k in (1, 2, 3):
        lead = () if batch is None or rng.random() < 0.3 else (batch,)
        entries = {}
        for alpha in itertools.combinations_with_replacement(range(dim), k):
            entry = rng.integers(-5, 6, lead) * 1.0
            hit = rng.random(lead) < 0.05
            entries[alpha] = np.where(hit, rng.choice([np.inf, -np.inf, np.nan], lead), entry)
        part = np.empty(lead + (dim,) * k)
        for idx in itertools.product(range(dim), repeat=k):
            part[(..., *idx)] = entries[tuple(sorted(idx))]
        parts.append(part)
    return parts


def _bits(x):
    """The bytes of x, every NaN the same NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


@pytest.mark.parametrize("batch", [None, 6], ids=["point", "batch"])
@pytest.mark.parametrize("dim", [3, 4])
def test_one_product_terms_are_the_three_product_formulas(batch, dim):
    """The product of two jets is the Leibniz rule on the full derivative
    tensors (``oracle.leibniz_parts``), bit for bit with zero signs, inf
    and NaN: on integer entries every sum is exact, whatever its order."""
    rng = np.random.default_rng(dim)
    with np.errstate(all="ignore"):
        for _ in range(50):
            a, b = _random_parts(rng, batch, dim), _random_parts(rng, batch, dim)
            got = (Jet(a) * Jet(b)).parts
            for part, want in zip(got, leibniz_parts(a, b)):
                assert _bits(part) == _bits(np.broadcast_to(want, np.shape(part)))


# --- expression literals ------------------------------------------------------------


# eval --order 3 of the expressions where numbers in place of the constant
# jets would flip the sign of a zero: the printed value, gradient, hessian
# and third derivatives, in order, as eval printed them when literals had a
# number path of their own that reproduced the constant jets' zero signs
LITERAL_PARTS = {
    ("2*(-x)", "x=-1,y=0"):
        "2.0 -2.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0",
    ("2*(-sin(y))", "x=-1,y=1"):
        "-1.682941969615793 -0.0 -1.0806046117362795 -0.0 -0.0 -0.0 1.682941969615793"
        " -0.0 -0.0 -0.0 0.0 -0.0 0.0 0.0 1.0806046117362795",
    ("2+(-x)", "x=-1,y=1"):
        "3.0 -1.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0",
    ("1-y", "x=-1,y=1"):
        "0.0 0.0 -1.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0",
    ("y^2", "x=1,y=-1"):
        "1.0 0.0 -2.0 0.0 0.0 0.0 2.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0",
    ("1/(-y)", "x=1,y=-2"):
        "0.5 0.0 0.25 0.0 0.0 0.0 0.25 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.375",
    ("1*(-(y-x))", "x=-1,y=1"):
        "-2.0 1.0 -1.0 0.0 0.0 0.0 -0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 -0.0",
}


def test_a_literal_gives_the_parts_of_its_constant_jet():
    for (source, at), parts in LITERAL_PARTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["eval", "--expr", source, "--at", at, "--order", "3"]) == 0
        text = out.getvalue()
        assert re.findall(r"-?[0-9][0-9.e+-]*", text[text.index('"value"'):]) == parts.split()


@pytest.mark.parametrize(
    "source, text, subexpr",
    [
        ("x/0", "division by zero in 'x/0'", "x/0"),
        ("1/0", "division by zero in '1/0'", "1/0"),
        ("0^-1", "division by zero in '0^(-1)'", "0^(-1)"),
        ("exp(800)*x", "value 800.0 leaves the float range in 'exp(800)'", "exp(800)"),
        ("2*(1/(x-1))", "division by zero in '1/(x-1)'", "1/(x-1)"),
    ],
)
def test_a_literal_keeps_the_error_texts(source, text, subexpr):
    for order in range(4):
        with pytest.raises(DomainError) as err:
            eval_jet(parse(source, ["x"]), pt(("x",), 1.0), order)
        assert (str(err.value), err.value.subexpr) == (text, subexpr)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        main(["eval", "--expr", source, "--at", "x=1", "--order", "3"])
    assert err.getvalue() == f"error: {text}\n"
