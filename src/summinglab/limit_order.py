"""Closed-form limit orders, scaling exponents, and log-log fitting.

The limit order of an operator ideal is the infimal exponent governing the
growth of the ideal norm of l_u^n -> l_v^n identities. For the
Gaussian-summing ideal the closed form is piecewise linear on reciprocal
coordinates and convex there for u <= 2, which the convexity checker
exercises. Empirical exponents are least-squares slopes on log-log points;
finite-n data can only ever be reported as consistent with a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import parse_exponent


def gaussian_limit_order(u, v) -> float:
    """Limit order of the Gaussian-summing ideal, a value in [0, 1].

    1/v for u >= 2, max(0, 1/2 + 1/v - 1/u) for u <= 2; the two branches
    agree on the seam u = 2.
    """
    ue, ve = parse_exponent(u), parse_exponent(v)
    if ue.recip <= 0.5:
        return ve.recip
    return max(0.0, 0.5 + ve.recip - ue.recip)


def pi2_limit_order(u, v) -> float:
    """2-summing limit order on the range v <= 2 where it matches the Gaussian one."""
    if parse_exponent(v).recip < 0.5:
        raise ValueError("the 2-summing limit order is only registered for v <= 2")
    return gaussian_limit_order(u, v)


def schatten_gaussian_exponent(u, v) -> float:
    """Growth exponent of the Gaussian-summing norm of S_u^n -> S_v^n.

    Implemented directly from its own piecewise display (1/2 + 1/v for
    u >= 2, 1/2 + max(0, 1/2 + 1/v - 1/u) for u <= 2); identically equal to
    1/2 plus the sequence-space limit order, which the tests assert.
    """
    ue, ve = parse_exponent(u), parse_exponent(v)
    if ue.recip <= 0.5:
        return 0.5 + ve.recip
    return 0.5 + max(0.0, 0.5 + ve.recip - ue.recip)


def limit_order_table(ideal: str, u_grid, v_grid) -> np.ndarray:
    """Closed-form limit orders on a grid; rows follow u, columns follow v."""
    ideal = ideal.lower()
    if ideal == "gamma":
        fn = gaussian_limit_order
    elif ideal == "pi2":
        fn = pi2_limit_order
    else:
        raise ValueError(f"no closed-form table for ideal {ideal!r}")
    u_list = [parse_exponent(x) for x in u_grid]
    v_list = [parse_exponent(x) for x in v_grid]
    return np.array([[fn(ue, ve) for ve in v_list] for ue in u_list])


# ---------------------------------------------------------------------------
# empirical exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    max_rel_residual: float


def fit_exponent(points) -> ExponentFit:
    """Least-squares slope of log(value) against log(n).

    Needs at least 3 points with distinct n and finite positive values;
    reports the worst relative deviation of the fitted power law from the data.
    """
    pts = tuple((float(n), float(v)) for n, v in points)
    if len(pts) < 3:
        raise ValueError("exponent fits need at least 3 points")
    ns = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(ns)) and np.all(np.isfinite(vals))):
        raise ValueError("exponent fits need finite sizes and values")
    if len(set(ns.tolist())) != len(ns):
        raise ValueError("sample sizes must be distinct")
    if np.any(vals <= 0) or np.any(ns <= 0):
        raise ValueError("exponent fits need positive sizes and values")
    x = np.log(ns)
    y = np.log(vals)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = np.exp(intercept + slope * x)
    max_rel = float(np.max(np.abs(fitted - vals) / vals))
    return ExponentFit(pts, float(slope), float(intercept), max_rel)


# ---------------------------------------------------------------------------
# convexity of limit orders under exponent interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityReport:
    slack: float
    passed: bool
    lhs: float
    rhs: float


def limit_order_convexity_check(pair0, pair1, theta: float, value0: float,
                                value1: float, value_mid: float,
                                tol: float = 0.0) -> ConvexityReport:
    """Check value_mid <= (1-theta) value0 + theta value1 at interpolated exponents.

    The (u, v) pairs name the endpoints; the hypothesis requires both domain
    exponents at most 2, and pairs outside that range are rejected. Slack is
    RHS minus LHS; pass iff >= -tol.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    for u, _ in (pair0, pair1):
        if parse_exponent(u).recip < 0.5:
            raise ValueError("convexity hypothesis needs domain exponents u <= 2")
    rhs = (1.0 - theta) * value0 + theta * value1
    slack = rhs - value_mid
    return ConvexityReport(slack, slack >= -tol, value_mid, rhs)
