"""Closed-form limit orders, scaling exponents, fits, and convexity."""

import numpy as np
import pytest

from summinglab import (fit_exponent, gaussian_limit_order,
                        identity_map, limit_order_convexity_check,
                        limit_order_table, parse_exponent, pi2_limit_order,
                        schatten_gaussian_exponent, sequence_space)
from summinglab.summing import ell_norm_mc


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u,v,expected", [
    ("inf", "inf", 0.0),
    (1, 2, 0.0),
    (1, 1, 0.5),
    (2, 4, 0.25),
    (2, 1, 1.0),
    (4, "4/3", 0.75),
])
def test_gaussian_limit_order_values(u, v, expected):
    assert gaussian_limit_order(u, v) == pytest.approx(expected, abs=1e-15)


def test_limit_order_table_three_by_three():
    table = limit_order_table("gamma", [1, 2, "inf"], [1, 2, "inf"])
    expected = np.array([[0.5, 0.0, 0.0],
                         [1.0, 0.5, 0.0],
                         [1.0, 0.5, 0.0]])
    assert np.array_equal(table, expected)


def test_limit_order_table_empty_and_single():
    assert limit_order_table("gamma", [], []).size == 0
    assert limit_order_table("gamma", [2], [4])[0, 0] == pytest.approx(0.25)


def test_pi2_limit_order_range():
    assert pi2_limit_order(1, 2) == gaussian_limit_order(1, 2)
    assert pi2_limit_order(4, "4/3") == pytest.approx(0.75)
    with pytest.raises(ValueError):
        pi2_limit_order(1, 4)
    with pytest.raises(ValueError):
        limit_order_table("pi2", [1], [4])


@pytest.mark.parametrize("u,v,expected", [
    (2, "inf", 0.5),
    (1, 4, 0.5),
    (1, 1, 1.0),
    ("inf", 1, 1.5),
])
def test_schatten_exponent_values(u, v, expected):
    assert schatten_gaussian_exponent(u, v) == pytest.approx(expected, abs=1e-15)


def test_schatten_exponent_identity_with_limit_order():
    grid = np.linspace(0.0, 1.0, 50)
    for ru in grid:
        for rv in grid:
            u = type(parse_exponent(1))(ru)
            v = type(parse_exponent(1))(rv)
            lhs = schatten_gaussian_exponent(u, v)
            rhs = 0.5 + gaussian_limit_order(u, v)
            assert abs(lhs - rhs) <= 1e-14


def test_branch_seam_continuity():
    # at u = 2 both branches coincide for every v; exact equality on a
    # dyadic 100-point grid (where the arithmetic itself is exact)
    for k in range(100):
        rv = k / 128.0
        v = type(parse_exponent(1))(rv)
        assert gaussian_limit_order(2, v) == max(0.0, 0.5 + rv - 0.5) == rv


def test_limit_order_monotonicity():
    rgrid = np.linspace(0.0, 1.0, 21)
    for ru in rgrid:
        u = type(parse_exponent(1))(ru)
        vals = [gaussian_limit_order(u, type(parse_exponent(1))(rv)) for rv in rgrid]
        assert 0.0 <= min(vals) and max(vals) <= 1.0  # limit orders lie in [0, 1]
        assert np.all(np.diff(vals) >= -1e-15)  # nondecreasing in 1/v
    for rv in rgrid:
        v = type(parse_exponent(1))(rv)
        vals = [gaussian_limit_order(type(parse_exponent(1))(ru), v) for ru in rgrid]
        assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing as u shrinks towards 1


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    fit = fit_exponent([(4, 2), (16, 4), (64, 8)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.max_rel_residual < 1e-12


def test_fit_absorbs_constant():
    ns = [8, 16, 32, 64]
    c = 3.7
    fit = fit_exponent([(n, c * n ** 0.75) for n in ns])
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(c, rel=1e-10)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_exponent([(4, 2), (16, 4)])
    with pytest.raises(ValueError):
        fit_exponent([(4, 2), (4, 4), (16, 8)])
    with pytest.raises(ValueError):
        fit_exponent([(4, 2), (16, -4), (64, 8)])


def test_fit_recovers_mc_hilbert_slope():
    ns = [4, 16, 64, 256]
    points = []
    for i, n in enumerate(ns):
        est = ell_norm_mc(identity_map(sequence_space(2, n), sequence_space(2, n)),
                          samples=20_000, seed=100 + i, allow_exact=False)
        points.append((n, est.value))
    fit = fit_exponent(points)
    assert fit.slope == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------

def test_convexity_proof_configuration_zero_slack():
    lam = gaussian_limit_order
    u = parse_exponent("4/3")
    theta = 2.0 * (1.0 - u.recip)  # theta = 2/u'
    from summinglab import interp_exponent
    v_mid = interp_exponent(2, "inf", theta)
    u_mid = interp_exponent(1, 2, theta)
    assert u_mid.recip == pytest.approx(u.recip, abs=1e-15)
    report = limit_order_convexity_check((1, 2), (2, "inf"), theta,
                                         lam(1, 2), lam(2, "inf"),
                                         lam(u_mid, v_mid))
    assert report.passed
    assert abs(report.slack) <= 1e-12


def test_convexity_symmetric_example():
    lam = gaussian_limit_order
    report = limit_order_convexity_check((1, 1), (2, 2), 0.5,
                                         lam(1, 1), lam(2, 2),
                                         lam("4/3", "4/3"))
    assert report.lhs == pytest.approx(0.5)
    assert report.rhs == pytest.approx(0.5)
    assert abs(report.slack) <= 1e-15


def test_convexity_random_triples_nonnegative_slack():
    rng = np.random.default_rng(42)
    lam = lambda ru, rv: gaussian_limit_order(type(parse_exponent(1))(ru),
                                              type(parse_exponent(1))(rv))
    for _ in range(1000):
        ru0, ru1 = rng.uniform(0.5, 1.0, size=2)
        rv0, rv1 = rng.uniform(0.0, 1.0, size=2)
        theta = rng.uniform(0.01, 0.99)
        ru_mid = (1 - theta) * ru0 + theta * ru1
        rv_mid = (1 - theta) * rv0 + theta * rv1
        report = limit_order_convexity_check(
            (1.0 / ru0, 1.0 / rv0 if rv0 > 0 else "inf"),
            (1.0 / ru1, 1.0 / rv1 if rv1 > 0 else "inf"),
            theta, lam(ru0, rv0), lam(ru1, rv1), lam(ru_mid, rv_mid))
        assert report.slack >= -1e-12


def test_convexity_rejects_large_u():
    with pytest.raises(ValueError):
        limit_order_convexity_check((4, 2), (2, "inf"), 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        limit_order_convexity_check((1, 2), (2, "inf"), 1.5, 0.0, 0.0, 0.0)


def test_convexity_detects_violation():
    report = limit_order_convexity_check((1, 2), (2, "inf"), 0.5, 0.0, 0.0, 0.4)
    assert not report.passed
    assert report.slack == pytest.approx(-0.4)
