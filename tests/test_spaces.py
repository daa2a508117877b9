"""Exponent arithmetic, element norms, inclusion norms, weak-l2 families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summinglab import (Certainty, Exponent, UnitFamily, VectorSystem,
                        identity_map, inclusion_norm, lp_norm, parse_exponent,
                        schatten_space, sequence_space, weak_l2_norm)
from summinglab.kernels import lp_norms, schatten_norm_batch
from summinglab.spaces import norms_of_stack, parse_space


def _rng(seed=0):
    return np.random.default_rng(seed)


def _norm(x, space):
    """Norm of one element: a one-row stack."""
    return norms_of_stack(x.reshape(1, -1), space)[0]


def _random_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_exponent_validation():
    with pytest.raises(ValueError):
        Exponent(1.5)
    with pytest.raises(ValueError):
        parse_exponent(0.5)


def test_parse_exponent_forms():
    assert parse_exponent("inf").recip == 0.0
    assert parse_exponent("4/3").recip == 0.75
    assert parse_exponent(4).recip == 0.25
    assert parse_space("l2:16") == sequence_space(2, 16)
    assert parse_space("s4/3:8") == schatten_space("4/3", 8)


# ---------------------------------------------------------------------------
# element norms and singular values
# ---------------------------------------------------------------------------

def test_lp_norms_edge_rows():
    rows = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    assert np.array_equal(lp_norms(rows, 2), [0.0, 5.0])
    assert np.array_equal(lp_norms(rows, np.inf), [0.0, 4.0])
    assert np.array_equal(lp_norms(rows, 1), [0.0, 7.0])
    assert np.array_equal(lp_norms(np.zeros((2, 0)), 4), [0.0, 0.0])
    # the peak is factored out: neither 1e200^2 nor 1e-200^2 is formed
    assert lp_norms(np.array([1e200, 1e200]), 2) == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)
    assert lp_norms(np.array([1e-200, 1e-200]), 2) == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-15)


@pytest.mark.parametrize("u", [1, "4/3", 2, 4, 1000, "inf"])
def test_norms_of_stack_diagonal_matches_sequence(u):
    # one reduction for both kinds: a stack of diagonal matrices has the
    # sequence norms of its diagonals, also at exponents where an unscaled
    # p-sum of singular values overflows
    rng = _rng(12)
    diags = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    diags[0] *= 40.0
    mats = np.zeros((5, 6, 6), dtype=np.complex128)
    mats[:, np.arange(6), np.arange(6)] = diags
    expected = norms_of_stack(diags, sequence_space(u, 6))
    got = norms_of_stack(mats.reshape(5, -1), schatten_space(u, 6))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

def test_schatten_identity_norm():
    for n, u in [(3, 2), (5, 1), (4, "inf")]:
        space = schatten_space(u, n)
        expected = n ** space.exponent.recip
        assert _norm(np.eye(n), space) == pytest.approx(expected, rel=1e-12)


def test_schatten_diag_euclidean():
    assert _norm(np.diag([3.0, 4.0]), schatten_space(2, 2)) == pytest.approx(5.0)


def test_s1_norm_against_independent_svd():
    # oracle: eigenvalue route, independent of the SVD used by the library
    rng = _rng(1)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0)).sum()
    assert _norm(m, schatten_space(1, 8)) == pytest.approx(oracle, rel=1e-10)


def test_singular_values_examples():
    # Schatten norms of diag(1, 2, 3) are the l_u norms of its singular values
    d = np.diag([1.0, 2.0, 3.0])
    assert _norm(d, schatten_space("inf", 3)) == pytest.approx(3.0, rel=1e-12)
    assert _norm(d, schatten_space(1, 3)) == pytest.approx(6.0, rel=1e-12)
    # a rank-one u v* has the single singular value |u| |v| = 1
    rank_one = np.zeros((3, 3))
    rank_one[0, :2] = [0.6, 0.8]
    for u in (1, 3, "inf"):
        assert _norm(rank_one, schatten_space(u, 3)) == pytest.approx(1.0, rel=1e-12)


def test_singular_values_frobenius_identity():
    # S_2 reduces the entries with no SVD; the SVD path must agree
    rng = _rng(2)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    frobenius = np.sqrt((np.abs(m) ** 2).sum())
    assert _norm(m, schatten_space(2, 6)) == pytest.approx(frobenius, rel=1e-12)
    assert schatten_norm_batch(m[None], 2.0)[0] == pytest.approx(frobenius, rel=1e-12)


def test_singular_values_unitary_invariance():
    rng = _rng(3)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    uu = _random_unitary(7, rng)
    vv = _random_unitary(7, rng)
    for u in (1, "4/3", 2, 3, "inf"):
        space = schatten_space(u, 7)
        assert _norm(uu @ m @ vv, space) == pytest.approx(_norm(m, space),
                                                                  rel=1e-10)


def test_element_norm_shape_mismatch():
    with pytest.raises(ValueError):
        _norm(np.ones(3), sequence_space(2, 4))
    with pytest.raises(ValueError):
        _norm(np.ones((3, 3)), sequence_space(2, 3))


def test_norm_zero_iff_zero_and_homogeneous():
    rng = _rng(4)
    for space in (sequence_space("4/3", 6), schatten_space(3, 4)):
        zero = np.zeros(space.element_shape)
        assert _norm(zero, space) == 0.0
        x = rng.standard_normal(space.element_shape) + 1j * rng.standard_normal(space.element_shape)
        n1 = _norm(x, space)
        assert n1 > 0
        assert _norm(2.5 * x, space) == pytest.approx(2.5 * n1, rel=1e-12)


def test_exponent_monotonicity_both_kinds():
    # u <= v implies ||x||_v <= ||x||_u, spot-tested on 1000 random elements
    rng = _rng(5)
    recips = rng.uniform(0.0, 1.0, size=(1000, 2))
    for i in range(500):
        ru, rv = sorted(recips[i])[::-1]  # ru >= rv means u <= v
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        nu = lp_norm(x, Exponent(ru))
        nv = lp_norm(x, Exponent(rv))
        assert nv <= nu * (1 + 1e-12)
    for i in range(500, 1000):
        ru, rv = sorted(recips[i])[::-1]
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        nu = _norm(m, schatten_space(Exponent(ru).value, 4))
        nv = _norm(m, schatten_space(Exponent(rv).value, 4))
        assert nv <= nu * (1 + 1e-12)


def test_diagonal_consistency():
    rng = _rng(6)
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for u in (1, "4/3", 2, 5, "inf"):
        mat_norm = _norm(np.diag(d), schatten_space(u, 6))
        vec_norm = _norm(d, sequence_space(u, 6))
        assert mat_norm == pytest.approx(vec_norm, rel=1e-12)


# ---------------------------------------------------------------------------
# inclusion norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u,v,n,expected", [
    (1, 2, 10, 1.0),
    ("inf", 1, 10, 10.0),
    (4, 2, 8, 8 ** 0.25),
])
def test_inclusion_norm_values(u, v, n, expected):
    assert inclusion_norm(parse_exponent(u), parse_exponent(v), n) == pytest.approx(expected, rel=1e-12)


def test_inclusion_norm_brute_force():
    # no candidate ratio ||x||_v / ||x||_u may beat the closed form, and the
    # extremal candidate attains it
    rng = _rng(7)
    n = 8
    for u, v in [(4, 2), (1, 2), ("inf", 1), (2, "4/3")]:
        ue, ve = parse_exponent(u), parse_exponent(v)
        bound = inclusion_norm(ue, ve, n)
        candidates = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(200)]
        extremal = np.ones(n) if ve.recip >= ue.recip else np.eye(n)[0]
        candidates.append(extremal)
        best = max(lp_norm(x, ve) / lp_norm(x, ue) for x in candidates)
        assert best <= bound * (1 + 1e-12)
        ratio = lp_norm(extremal, ve) / lp_norm(extremal, ue)
        assert ratio == pytest.approx(bound, rel=1e-12)


def test_inclusion_norm_attained_schatten():
    n = 6
    for u, v in [(1, 4), (2, 1), ("inf", 2)]:
        ue, ve = parse_exponent(u), parse_exponent(v)
        bound = inclusion_norm(ue, ve, n)
        extremal = np.eye(n) if ve.recip >= ue.recip else np.diag([1.0] + [0.0] * (n - 1))
        ratio = (_norm(extremal, schatten_space(v, n))
                 / _norm(extremal, schatten_space(u, n)))
        assert ratio == pytest.approx(bound, rel=1e-12)


# ---------------------------------------------------------------------------
# weak-l2 norms
# ---------------------------------------------------------------------------

def _units(space, elements):
    return UnitFamily(space, np.asarray(elements))


def _dense(family):
    """The family's elements as a dense (m, flat_dim) array."""
    dense = np.zeros((family.size, family.space.flat_dim))
    for i, row in enumerate(family.elements):
        dense[i, row] = 1.0
    return dense


def test_weak_l2_orthonormal_coordinates():
    fam = _units(sequence_space(2, 6), np.arange(4)[:, None])
    est = weak_l2_norm(fam)
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(1.0, rel=1e-14)


def test_weak_l2_coordinates_in_linf():
    fam = _units(sequence_space("inf", 5), np.arange(5)[:, None])
    assert weak_l2_norm(fam).value == pytest.approx(1.0, rel=1e-14)


def test_weak_l2_rank_one_grid_s1():
    n = 4
    fam = _units(schatten_space(1, n), np.arange(n * n)[:, None])
    est = weak_l2_norm(fam)
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)
    # brute-force oracle: no random coefficient direction beats sup ||A||_S1
    # over ||A||_F = 1 (attained at a unitary / sqrt(n))
    rng = _rng(8)
    best = 0.0
    for _ in range(2000):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.linalg.norm(a)
        best = max(best, _norm(a, schatten_space(1, n)))
    assert best <= est.value * (1 + 1e-12)
    assert _norm(np.eye(n) / np.sqrt(n), schatten_space(1, n)) == pytest.approx(est.value, rel=1e-12)


def test_weak_l2_disjoint_weight_formula():
    # m disjoint elements of norm w in l_v: w for v >= 2, w m^(1/v - 1/2) for v < 2
    elems = np.arange(6).reshape(3, 2)
    w_exp = 1.0 / (0.75 - 0.5)
    for space, expected in ((sequence_space("4/3", 6), 2 ** 0.75 * 3 ** (1 / w_exp)),
                            (sequence_space(4, 6), 2 ** 0.25)):
        fam = _units(space, elems)
        weights = norms_of_stack(_dense(fam), space)
        assert weak_l2_norm(fam).value == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(
            lp_norm(weights, Exponent(max(0.0, space.exponent.recip - 0.5))), rel=1e-12)


def test_weak_l2_certified_dominates_sampled_ratios():
    # the closed form bounds every sampled unit coefficient vector and is
    # attained: by equal coefficients for v <= 2, by one coefficient for v >= 2
    rng = _rng(9)
    n = 6
    for u in ("4/3", 2, 4):
        space = sequence_space(u, n)
        fam = _units(space, np.arange(n).reshape(3, 2))
        bound = weak_l2_norm(fam).value
        dense = _dense(fam)
        coeffs = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        combos = coeffs @ dense
        ratios = norms_of_stack(combos, space)
        assert ratios.max() <= bound * (1 + 1e-10)
        extremal = np.vstack([np.ones((1, 3)) / np.sqrt(3), np.eye(3)[:1]]) @ dense
        assert norms_of_stack(extremal, space).max() == pytest.approx(bound, rel=1e-12)


def test_weak_l2_generic_hilbert_exact():
    rng = _rng(10)
    elems = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    fam = VectorSystem(sequence_space(2, 6), elems)
    est = weak_l2_norm(fam)
    assert est.certainty is Certainty.EXACT
    oracle = np.linalg.svd(elems.T, compute_uv=False)[0]
    assert est.value == pytest.approx(oracle, rel=1e-12)


def test_weak_l2_generic_upper_vs_heuristic_lower():
    # the heuristic lower bound is the best of sampled unit coefficient
    # vectors, each attained by its combination of the family
    rng = _rng(11)
    elems = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fam = VectorSystem(sequence_space(1, 5), elems)
    upper = weak_l2_norm(fam)
    assert upper.certainty is Certainty.UPPER
    coeffs = rng.standard_normal((10_000, 3)) + 1j * rng.standard_normal((10_000, 3))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    lower = norms_of_stack(coeffs @ elems, fam.space).max()
    assert 0.0 < lower <= upper.value * (1 + 1e-10)


def test_vector_system_validation():
    with pytest.raises(ValueError):
        VectorSystem(sequence_space(2, 4), np.ones((2, 5)))
    for space, bad in ((sequence_space(2, 4), [[0, 1], [1, 2]]),    # shared coordinate
                       (sequence_space(2, 4), [[2], [1]]),           # not increasing
                       (sequence_space(2, 4), [[3, 4]]),             # outside l_2^4
                       (sequence_space(2, 4), [[-1]]),
                       (sequence_space(2, 4), [[0.0]]),              # not integer
                       (sequence_space(2, 4), np.zeros((0, 1), dtype=int)),
                       (schatten_space(1, 3), [[0, 1]])):            # two units in one element
        with pytest.raises(ValueError):
            _units(space, bad)
    # same row, distinct columns: the 1x2 grid {0} x {0, 1}
    fam = _units(schatten_space(1, 3), [[0], [1]])
    assert weak_l2_norm(fam).value == pytest.approx(1.0, rel=1e-12)
    bad = _units(schatten_space(1, 3), [[0], [1], [3]])
    with pytest.raises(ValueError):
        weak_l2_norm(bad)  # L-shaped pattern has no closed form


def test_identity_map_requires_matching_shape():
    with pytest.raises(ValueError):
        identity_map(sequence_space(2, 4), sequence_space(2, 5))
    with pytest.raises(ValueError):
        identity_map(sequence_space(2, 4), schatten_space(2, 4))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=64))
def test_lp_norm_scales(recip, n):
    rng = _rng(n)
    x = rng.standard_normal(n)
    e = Exponent(recip)
    assert lp_norm(3.0 * x, e) == pytest.approx(3.0 * lp_norm(x, e), rel=1e-12)
