"""Test-local oracles: the form-algebra definitions that no command reaches,
kept so that tests can pin the packed-array code against them.

``hodge3`` is the 3D Hodge star as a form, with ``frame_expand`` giving its
coefficients; ``weighted_d`` is D psi = d psi - (m/2) omega ^ psi.  The
rest are small readers of a form, a metric, the alpha fibre chart and a
sampling domain.
"""
import math

import numpy as np

from ewbench.errors import ConfigError, GuardViolationError, JetOrderError
from ewbench.forms import MetricField, ext_d, frame_solve, signature, star_frame, wedge
from ewbench.jets import Field, Jet


def max_abs_at(form, pt):
    """Largest absolute component value of ``form`` at ``pt`` (per row of a
    batch); NaN if any is NaN."""
    return np.max(np.abs(form.values_at(pt, form.comps)), axis=-1, initial=0.0)


def from_value_matrix(chart, matrix):
    """The constant metric of a symmetric value matrix on ``chart``."""
    matrix = np.asarray(matrix, dtype=float)
    n = len(chart)
    if matrix.shape != (n, n):
        raise ValueError("matrix shape does not match chart")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise ValueError("metric matrix must be symmetric")
    matrix = 0.5 * (matrix + matrix.T)
    comps = {
        (a, b): Field.const(matrix[a, b])
        for a in range(n)
        for b in range(a, n)
        if matrix[a, b] != 0.0
    }
    return MetricField(chart, comps)


def signature_at(metric, pt):
    """(positive, negative) eigenvalue counts of ``metric`` at ``pt``, per
    row of a batch."""
    return signature(metric.matrix_at(pt))


def frame_expand(a, frame, pt):
    """Expand a 1-form or 2-form in the coframe basis at a point.

    Degree 1 returns coefficients against (e1, e2, e3); degree 2 against
    (e1^e2, e1^e3, e2^e3).  Values only, along the last axis (batch axis
    first), by ``forms.frame_solve`` against the basis values.
    """
    legs = frame.legs
    if a.degree == 1:
        idxs, forms = ((0,), (1,), (2,)), legs
    elif a.degree == 2:
        idxs = ((0, 1), (0, 2), (1, 2))
        forms = [wedge(legs[i], legs[j]) for i, j in idxs]
    else:
        raise ValueError("frame expansion supports degree 1 and 2 only")
    m = np.stack([f.values_at(pt, idxs) for f in forms], axis=-1)
    values = (lambda: a.values_at(pt, idxs)) if a.comps else None
    return frame_solve(m, values)


def hodge3(a, frame):
    """Hodge star of a 1-form a = sum_i c_i e^i: the sum of c_i star e^i
    over the legs i = 1, 2, 3 in that order, with each star e^i from
    ``forms.star_frame``.

    Only degree 1 -> 2 is defined.  The coefficients c_i are values: the
    components of the star answer order 0 and raise JetOrderError above it.
    """
    if a.degree != 1:
        raise ValueError("hodge3 is defined for 1-forms only")
    if a.chart != frame.chart:
        raise ValueError("chart mismatch in hodge3")

    # one solve per scope serves all three coefficients
    @Field
    def coeffs(pt, order=0):
        if order:
            raise JetOrderError(f"hodge3 has values only; order {order} was asked")
        return frame_expand(a, frame, pt)

    def coeff(i):
        return Field(lambda pt, order=0: Jet([coeffs(pt, order)[..., i - 1]]))

    star = star_frame(frame, 1).scale(coeff(1))
    for i in (2, 3):
        star = star + star_frame(frame, i).scale(coeff(i))
    return star


def weighted_d(psi, omega):
    """Weighted exterior derivative D psi = d psi - (m/2) omega ^ psi."""
    return ext_d(psi.form) - wedge(omega.scale(0.5 * psi.weight), psi.form)


def p_of_alpha(alpha, ell):
    """The fibre coordinate p of angle ``alpha``, the inverse of
    ``lift.alpha_of_p``."""
    if not 0.0 < alpha < math.pi:
        raise ConfigError("alpha must lie in (0, pi)")
    return ell * math.atanh(math.cos(alpha))


def dalpha_dp(p, ell):
    return -1.0 / (ell * math.cosh(p / ell))


def require_guards(domain, pt):
    """Raise GuardViolationError if ``pt`` fails any guard of ``domain``."""
    for g in domain.guards:
        if not g.accepts(pt):
            label = g.label or "guard"
            raise GuardViolationError(f"point {pt.coords} violates {label}")
