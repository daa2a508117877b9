"""Complex-interpolation parameter arithmetic and the inequality auditor.

Interpolating l_p or Schatten couples acts linearly on reciprocal
exponents, which the Exponent representation makes exact. The auditor
checks a certified midpoint lower bound against the product of the couple
constant and the certified endpoint upper bounds; heuristic inputs are
rejected because a bound audited with two guesses proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimates import Certainty, NormEstimate
from .spaces import Exponent, SpaceKind, parse_exponent


# Assumed constant of the [S_1, S_2] couple: finite, but no value is published.
SCHATTEN_S1_S2 = 2.0


class CertificationError(ValueError):
    """An audit input carries the wrong certification kind."""


class UnregisteredCoupleError(KeyError):
    """No couple constant is registered for this interpolation couple."""


def interp_exponent(e0, e1, theta: float) -> Exponent:
    """Interpolated exponent: reciprocal (1-theta)/p0 + theta/p1, exactly."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    r0, r1 = parse_exponent(e0).recip, parse_exponent(e1).recip
    return Exponent((1.0 - theta) * r0 + theta * r1)


@dataclass(frozen=True)
class DThetaBound:
    """Couple constant: the norm of the natural operator-space comparison map."""

    value: float
    exact: bool
    note: str

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("couple constants are positive")
        if not self.note:
            raise ValueError("a provenance note is required")


def dtheta_lookup(kind: SpaceKind, e0, e1) -> DThetaBound:
    """Registered constant of the couple [X_e0, X_e1] of spaces of ``kind``.

    Trivial couples give 1. Sequence couples with both endpoints <= 2 give
    sqrt(2) exactly. The [S_1, S_2] couple is finite with no published
    value; SCHATTEN_S1_S2 is used and echoed in the note.
    Anything else (in particular sequence couples with an endpoint > 2) is
    rejected rather than guessed.
    """
    r0, r1 = parse_exponent(e0).recip, parse_exponent(e1).recip
    if r0 == r1:
        return DThetaBound(1.0, True, "trivial couple, identity retraction")
    if kind is SpaceKind.SEQUENCE and r0 >= 0.5 and r1 >= 0.5:
        return DThetaBound(math.sqrt(2.0), True,
                           "sequence couples with both endpoints <= 2")
    if kind is SpaceKind.SCHATTEN and {r0, r1} == {1.0, 0.5}:
        return DThetaBound(SCHATTEN_S1_S2, False,
                           f"finite but unpublished constant for the trace-class/Hilbert-Schmidt "
                           f"couple; assumed value {SCHATTEN_S1_S2:g}")
    raise UnregisteredCoupleError(
        f"no registered couple constant for [{kind.value}, "
        f"1/p0={r0:g}, 1/p1={r1:g}]")


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    slack: float
    bound: float
    lower: float
    stderr: float
    theta: float
    dtheta: DThetaBound


def interpolation_audit(midpoint_lower: NormEstimate, end0_upper: NormEstimate,
                        end1_upper: NormEstimate, theta: float,
                        dtheta: DThetaBound) -> AuditReport:
    """Audit: midpoint lower <= dtheta * upper0^(1-theta) * upper1^theta.

    Endpoint estimates must be exact or certified upper bounds and the
    midpoint exact or a certified lower bound. Slack is the bound minus the
    lower value; pass iff slack >= -3 propagated stderr.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    if midpoint_lower.certainty not in (Certainty.EXACT, Certainty.LOWER):
        raise CertificationError("the midpoint estimate must be exact or a certified lower bound")
    for est in (end0_upper, end1_upper):
        if est.certainty not in (Certainty.EXACT, Certainty.UPPER):
            raise CertificationError("endpoint estimates must be exact or certified upper bounds")
    u0, u1 = end0_upper.value, end1_upper.value
    if u0 <= 0 or u1 <= 0:
        raise ValueError("endpoint bounds must be positive")
    bound = dtheta.value * u0 ** (1.0 - theta) * u1 ** theta
    slack = bound - midpoint_lower.value
    s_mid = midpoint_lower.stderr or 0.0
    s0 = end0_upper.stderr or 0.0
    s1 = end1_upper.stderr or 0.0
    var = s_mid ** 2
    var += (bound * (1.0 - theta) / u0 * s0) ** 2
    var += (bound * theta / u1 * s1) ** 2
    stderr = math.sqrt(var)
    return AuditReport(slack >= -3.0 * stderr, slack, bound,
                       midpoint_lower.value, stderr, theta, dtheta)
