"""Interpolation arithmetic, couple constants, and the inequality auditor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summinglab import (Certainty, CertificationError, DThetaBound,
                        NormEstimate, SpaceKind, UnregisteredCoupleError,
                        dtheta_lookup, interp_exponent, interpolation_audit,
                        parse_exponent)


def _est(value, certainty, stderr=None):
    return NormEstimate(value, certainty, stderr=stderr, method="test")


# ---------------------------------------------------------------------------
# parameter arithmetic
# ---------------------------------------------------------------------------

def test_interp_exponent_examples():
    assert interp_exponent(1, 2, 0.5).value == pytest.approx(4 / 3)
    assert interp_exponent(2, "inf", 0.5).value == pytest.approx(4.0)
    assert interp_exponent(3, 3, 0.7).value == pytest.approx(3.0)


def test_interp_exponent_rejects_bad_theta():
    for theta in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            interp_exponent(1, 2, theta)


def _theta_back(e0, e1, mid):
    # interpolation is linear on reciprocals, so theta is recovered linearly
    return (mid.recip - e0.recip) / (e1.recip - e0.recip)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_interp_and_theta_mutually_inverse(r0, r1, theta):
    # recovering theta divides by the endpoint gap, so the reachable
    # accuracy is ~1e-16/gap; nearly degenerate couples cannot do better
    # in double precision
    if abs(r1 - r0) < 0.05:
        return
    e0, e1 = type(parse_exponent(1))(r0), type(parse_exponent(1))(r1)
    mid = interp_exponent(e0, e1, theta)
    if not (min(r0, r1) < mid.recip < max(r0, r1)):
        return  # rounding hit an endpoint
    theta_back = _theta_back(e0, e1, mid)
    assert theta_back == pytest.approx(theta, abs=1e-14)
    assert interp_exponent(e0, e1, theta_back).recip == pytest.approx(mid.recip, abs=1e-14)


def test_interp_inverse_on_1000_random_triples():
    rng = np.random.default_rng(12)
    count = 0
    while count < 1000:
        r0, r1 = rng.uniform(0.0, 1.0, size=2)
        if abs(r1 - r0) < 0.05:
            continue
        theta = rng.uniform(0.01, 0.99)
        e0 = type(parse_exponent(1))(r0)
        e1 = type(parse_exponent(1))(r1)
        mid = interp_exponent(e0, e1, theta)
        if not (min(r0, r1) < mid.recip < max(r0, r1)):
            continue
        back = _theta_back(e0, e1, mid)
        assert abs(back - theta) <= 1e-14
        count += 1


def test_reiteration_consistency():
    # interpolating twice equals one interpolation at the composed parameter
    e0, e1 = parse_exponent(1), parse_exponent("inf")
    t1, t2 = 0.25, 0.5
    first = interp_exponent(e0, e1, t1)
    second = interp_exponent(first, e1, t2)
    composed = t1 * (1 - t2) + 1.0 * t2  # position along [e0, e1]
    direct = interp_exponent(e0, e1, composed)
    assert second.recip == pytest.approx(direct.recip, abs=1e-15)


# ---------------------------------------------------------------------------
# couple constants
# ---------------------------------------------------------------------------

def test_dtheta_sequence_low_exponents():
    bound = dtheta_lookup(SpaceKind.SEQUENCE, 1, 2)
    assert bound.exact
    assert bound.value == pytest.approx(np.sqrt(2))


def test_dtheta_trivial_couple():
    assert dtheta_lookup(SpaceKind.SEQUENCE, 2, 2).value == 1.0
    assert dtheta_lookup(SpaceKind.SCHATTEN, 4, 4).value == 1.0


def test_dtheta_schatten_assumed_value():
    bound = dtheta_lookup(SpaceKind.SCHATTEN, 1, 2)
    assert not bound.exact
    assert bound.value == 2.0
    assert "assumed value 2" in bound.note


def test_dtheta_unregistered_couples():
    with pytest.raises(UnregisteredCoupleError):
        dtheta_lookup(SpaceKind.SEQUENCE, 2, 4)
    with pytest.raises(UnregisteredCoupleError):
        dtheta_lookup(SpaceKind.SCHATTEN, 2, "inf")


# ---------------------------------------------------------------------------
# the auditor
# ---------------------------------------------------------------------------

def test_audit_trivial_pass():
    report = interpolation_audit(_est(1.0, Certainty.EXACT), _est(1.0, Certainty.EXACT),
                                 _est(1.0, Certainty.EXACT), 0.5,
                                 DThetaBound(np.sqrt(2), True, "test"))
    assert report.passed
    assert report.slack == pytest.approx(np.sqrt(2) - 1.0)


def test_audit_adversarial_fail():
    report = interpolation_audit(_est(10.0, Certainty.LOWER), _est(1.0, Certainty.UPPER),
                                 _est(1.0, Certainty.UPPER), 0.5,
                                 DThetaBound(1.0, True, "test"))
    assert not report.passed
    assert report.slack < 0


def test_audit_monotone_in_dtheta():
    args = (_est(1.3, Certainty.LOWER), _est(1.0, Certainty.UPPER),
            _est(2.0, Certainty.UPPER), 0.5)
    small = interpolation_audit(*args, DThetaBound(0.5, True, "test"))
    large = interpolation_audit(*args, DThetaBound(2.0, True, "test"))
    assert large.slack > small.slack
    if small.passed:
        assert large.passed


def test_audit_rejects_wrong_certainties():
    good_l = _est(1.0, Certainty.LOWER)
    good_u = _est(1.0, Certainty.UPPER)
    bad = _est(1.0, Certainty.HEURISTIC)
    with pytest.raises(CertificationError):
        interpolation_audit(bad, good_u, good_u, 0.5, DThetaBound(1.0, True, "t"))
    with pytest.raises(CertificationError):
        interpolation_audit(good_l, bad, good_u, 0.5, DThetaBound(1.0, True, "t"))
    with pytest.raises(CertificationError):
        # two lower bounds prove nothing
        interpolation_audit(good_l, good_l, good_u, 0.5, DThetaBound(1.0, True, "t"))


def test_audit_stderr_gives_slack_room():
    noisy = _est(1.45, Certainty.LOWER, stderr=0.2)
    report = interpolation_audit(noisy, _est(1.0, Certainty.EXACT),
                                 _est(1.0, Certainty.EXACT), 0.5,
                                 DThetaBound(1.0, True, "test"))
    # bound 1.0 < lower 1.45, but within 3 stderr
    assert report.slack < 0
    assert report.passed


def test_audit_proof_configuration_at_fixed_size():
    # endpoint uppers sqrt(n) each, lower O(1): passes with room
    import summinglab as sl

    n = 16
    lower = sl.summing_norm_search(
        sl.identity_map(sl.sequence_space("4/3", n), sl.sequence_space(4, n)),
        sl.gaussian_system(), samples=4000, seed=5)
    u0 = sl.pivot_upper(sl.identity_map(sl.sequence_space(1, n), sl.sequence_space(2, n)))
    u1 = sl.pivot_upper(sl.identity_map(sl.sequence_space(2, n), sl.sequence_space("inf", n)))
    report = interpolation_audit(lower, u0, u1, 0.5, dtheta_lookup(SpaceKind.SEQUENCE, 1, 2))
    assert report.passed
    assert report.bound == pytest.approx(np.sqrt(2) * np.sqrt(n), rel=1e-12)
