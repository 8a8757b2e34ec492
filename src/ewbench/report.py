"""Check aggregation and machine-readable verification reports.

A check maps sample points to residuals; ``run_check`` evaluates it once
over the batch of all its points, reduces each point to its largest
absolute component and keeps the maximum, the mean, and the worst point.
Reports serialize to JSON with a fixed key order so that two runs with the
same configuration and seed are byte-identical apart from the wall-time
field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, EwbenchError
from .jets import PointBatch, evaluation_scope

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
    tol: float
    # checks whose pass condition is not a plain threshold (convergence
    # studies) set this explicitly; None means "max <= tol"
    failed: bool | None = None

    @property
    def verdict(self):
        if self.failed is not None:
            return "fail" if self.failed else "pass"
        return "pass" if self.max <= self.tol else "fail"


@np.errstate(all="ignore")  # every value is checked for finiteness below
def run_check(name, fn, points, tol):
    """Evaluate a residual function over points and aggregate.

    ``fn(q)`` returns the raw residual at q: a number, an array of
    components, or a tuple of components.  It is called once, in one field
    evaluation scope, on the PointBatch of all the points, where each
    component carries the batch axis first, and each row is reduced to its
    largest absolute component.  If that call raises an EwbenchError or a
    row is not finite, the points are evaluated again one at a time in
    sample order, each in its own scope, so the first offending point
    raises exactly the error it raises alone; a non-finite point raises
    DomainError.  A residual without the batch axis (fn did not vectorize,
    e.g. it returned a constant) is taken as the first point's, and the
    other points are evaluated one at a time.  This is the one loop that
    evaluates residuals over sample or probe points.
    """
    points = list(points)
    if not points:
        raise ConfigError(f"check {name!r} received no sample points")
    vals = []
    try:
        with evaluation_scope():
            r = fn(PointBatch.of(points))
    except EwbenchError:
        pass  # the loop below finds the first point that raises
    else:
        rows = _row_maxima(r, len(points))
        if rows is None:
            vals.append(_point_max(name, points[0], r))
        elif np.isfinite(rows).all():
            vals = rows.tolist()
    for q in points[len(vals):]:
        with evaluation_scope():
            vals.append(_point_max(name, q, fn(q)))
    worst = max(range(len(vals)), key=vals.__getitem__)
    return CheckResult(
        name=name,
        max=vals[worst],
        mean=sum(vals) / len(vals),
        worst_point=tuple(points[worst].coords),
        tol=float(tol),
    )


def _row_maxima(r, n):
    """Largest absolute component of each of the n rows of a batch
    residual, or None when the residual has no leading batch axis."""
    comps = np.broadcast_arrays(*(r if isinstance(r, tuple) else (r,)))
    if not comps or comps[0].shape[:1] != (n,):
        return None
    flat = np.concatenate([np.abs(c).reshape(n, -1) for c in comps], axis=1)
    return np.max(flat, axis=1, initial=0.0)


def _point_max(name, q, r):
    v = float(np.max(np.abs(r), initial=0.0))
    if not math.isfinite(v):
        raise DomainError(f"check {name!r} is {v} at {q.coords}")
    return v


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
    return json.dumps(report, indent=2, sort_keys=False, allow_nan=False) + "\n"
