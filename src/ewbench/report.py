"""Check aggregation and machine-readable verification reports.

A check maps sample points to residuals; ``run_check`` evaluates it once
over the batch of all its points, in the open evaluation scope, reduces
each point to its largest absolute component and keeps those values, their
maximum, their mean, and the worst point.
Reports are dicts in a fixed key order, written as ``json.dumps`` text by
``report_json``, so two runs with the same configuration and seed are
byte-identical apart from the wall-time field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EwbenchError
from .jets import PointBatch, evaluation_scope, shared_scope

SCHEMA = 1

# conventions that fix otherwise sign-ambiguous quantities
CONVENTIONS = {
    "ricci": "R_bd = R^a_{bad} (contraction on first and third slots)",
    "field_equations": "R_ab + 3 ell^-2 g_ab + 2 F_ac F_b^c - (1/2) F^2 g_ab",
    "orientation": "volume form positive in chart coordinate order",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    max: float
    mean: float
    worst_point: tuple[float, ...]
    # checks whose pass condition is not a plain threshold (convergence
    # studies) set ``failed`` and no ``tol``; None means "max <= tol"
    tol: float | None = None
    failed: bool | None = None
    # the value of each point, in point order
    rows: tuple[float, ...] = ()

    @property
    def verdict(self):
        if self.failed is not None:
            return "fail" if self.failed else "pass"
        return "pass" if self.max <= self.tol else "fail"


def run_check(name, fn, points, tol):
    """Evaluate a residual function over points and aggregate.

    ``points`` is a PointBatch, or a sequence of ChartPoints packed into
    one.  ``fn(q)`` returns the raw residual at q, a PointBatch or a
    ChartPoint: a number, an array of components, or a tuple of
    components.  It is called once on the batch, in the open field
    evaluation scope (so checks over the same points share their field and
    packed-metric evaluations) or in a scope of its own, and each row is
    reduced to its largest absolute component, the point's value in
    ``rows``.  A residual, or a component, is read by its first axis, not
    by numpy broadcasting: one entry per point makes the rows, and any
    other value (a number, or an array with another first axis) gives
    every row its largest absolute entry, so constant data is evaluated
    once.  If fn raises an EwbenchError or a row is not finite, the points
    are evaluated again one at a time in sample order, each in a new
    scope, so the first offending point raises exactly the error it raises
    alone; a non-finite point raises DomainError.  This is the one loop
    that evaluates residuals over sample or probe points.
    """
    if not len(points):
        raise ConfigError(f"check {name!r} received no sample points")
    batch = PointBatch.of(points)
    vals = _row_pass(fn, batch)
    for i in range(len(vals), len(batch)):
        q = batch[i]
        # every value is checked for finiteness
        with evaluation_scope(), np.errstate(all="ignore"):
            v = float(_row_maxima(fn(q), 1)[0])
        if not math.isfinite(v):
            raise DomainError(f"check {name!r} is {v} at {q.coords}")
        vals.append(v)
    top = max(vals)
    return CheckResult(
        name=name,
        max=top,
        mean=mean_of(vals),
        worst_point=tuple(batch.rows[vals.index(top)].tolist()),
        tol=float(tol),
        rows=tuple(vals),
    )


def mean_of(vals):
    """The mean of finite values: their sum over their count or, where that
    sum overflows, the sum of each value over the count, which is finite."""
    mean = sum(vals) / len(vals)
    return mean if math.isfinite(mean) else sum(v / len(vals) for v in vals)


@np.errstate(all="ignore")  # every value is checked for finiteness below
def _row_pass(fn, batch):
    """The value of every row from one call ``fn(batch)``, in row order,
    each the largest absolute component of its row's residual; none when
    fn raises an EwbenchError or some row is not finite.  fn runs in the
    open field evaluation scope, or in a scope of its own."""
    try:
        with shared_scope():
            r = fn(batch)
    except EwbenchError:
        return []
    rows = _row_maxima(r, len(batch))
    return rows.tolist() if np.isfinite(rows).all() else []


def _row_maxima(r, n):
    """Largest absolute component of each of the n rows of a batch
    residual.  A residual, or one of its components, whose first axis does
    not have n entries gives its largest absolute entry to every row."""
    if type(r) is np.ndarray and r.shape[:1] == (n,):  # one array: two numpy calls
        return np.abs(r.reshape(n, -1)).max(axis=1, initial=0.0)
    rows = np.zeros(n)
    for c in r if isinstance(r, tuple) else (r,):
        c = np.abs(c)
        c = c.reshape(n if c.shape[:1] == (n,) else 1, -1)  # one row serves every row
        rows = np.maximum(rows, c.max(axis=1, initial=0.0))
    return rows


def build_report(config, chart, n_points, results, detail=None):
    """Assemble the report dict in its fixed key order.

    ``config`` is echoed as given (the caller builds it with a stable key
    order); ``detail`` is an optional extra block, e.g. a limit study.
    The caller may add ``wall_time_s`` afterwards; every other field is a
    pure function of config and seed.
    """
    checks = {}
    for r in results:
        checks[r.name] = {
            "max": r.max,
            "mean": r.mean,
            "worst_point": list(r.worst_point),
            "tol": r.tol,
            "verdict": r.verdict,
        }
    report = {
        "schema": SCHEMA,
        "config": config,
        "chart": list(chart),
        "n_points": n_points,
        "conventions": dict(CONVENTIONS),
        "checks": checks,
        "verdict": "pass" if all(r.verdict == "pass" for r in results) else "fail",
    }
    if detail is not None:
        report["detail"] = detail
    return report


def report_json(report):
    """``json.dumps(report, indent=2, allow_nan=False)`` and one newline:
    json's ValueError for NaN or inf and TypeError for a value it cannot
    write, and a float subclass (``numpy.float64``) written as its value."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
