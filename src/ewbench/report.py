"""Check aggregation and machine-readable verification reports.

A check maps sample points to residuals; ``run_check`` reduces each point to
its largest absolute component and keeps the maximum, the mean, and the worst
point.  Reports serialize to JSON with a fixed key order so that two runs
with the same configuration and seed are byte-identical apart from the
wall-time field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .jets import evaluation_scope

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


def run_check(name, fn, points, tol):
    """Evaluate a residual function over points and aggregate.

    ``fn(q)`` returns the raw residual at a point: a number or an array of
    components.  Each point is evaluated in its own field evaluation scope
    and reduced to its largest absolute component there.  A non-finite
    component raises DomainError at the first such point in sample order.
    This is the one loop that evaluates residuals over sample or probe
    points.
    """
    points = list(points)
    if not points:
        raise ConfigError(f"check {name!r} received no sample points")
    vals = []
    for q in points:
        with evaluation_scope():
            v = float(np.max(np.abs(fn(q)), initial=0.0))
        if not math.isfinite(v):
            raise DomainError(f"check {name!r} is {v} at {q.coords}")
        vals.append(v)
    worst = max(range(len(vals)), key=vals.__getitem__)
    return CheckResult(
        name=name,
        max=vals[worst],
        mean=sum(vals) / len(vals),
        worst_point=tuple(points[worst].coords),
        tol=float(tol),
    )


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
