"""Character systems, exact moments, Lambda(p) and Sidon constants."""

import numpy as np
import pytest

from summinglab import (AscentConfig, Certainty, CharacterGroup, CharacterSet,
                        SpanElement, UnitFamily, character_system, cyclic_group,
                        full_character_set, gaussian_system,
                        kp_constant_lower, kp_growth_profile,
                        lacunary_character_set, lp_norm_of_span,
                        parse_exponent, second_moment, sequence_space,
                        sidon_constant_lower)
from summinglab.systems import _mc_second_moment

CFG = AscentConfig(seed=7)
FAST = AscentConfig(seed=7, restarts=24, steps=250)


def _charset(n, freqs):
    return CharacterSet(cyclic_group(n), tuple((f,) for f in freqs))


def _basis(space, m):
    """The first m coordinate vectors of a sequence space."""
    return UnitFamily(space, np.arange(m)[:, None])


# ---------------------------------------------------------------------------
# exhaustive phase-quantized oracles for tiny frequency sets
# ---------------------------------------------------------------------------

def _grid_coeffs(m: int, phase_steps: int, magnitude_steps: int) -> np.ndarray:
    """Unit coefficient rows for m = 2 or 3: quantized magnitude profiles on
    the sphere (modulo global scale) times relative phases (modulo global phase)."""
    angles = np.linspace(0.0, np.pi / 2, magnitude_steps)
    phases = np.exp(2j * np.pi * np.arange(phase_steps) / phase_steps)
    if m == 2:
        return np.asarray([np.array([np.cos(t), np.sin(t) * ph])
                           for t in angles for ph in phases])
    return np.asarray([
        np.array([np.cos(t), np.sin(t) * np.cos(s) * ph1, np.sin(t) * np.sin(s) * ph2])
        for t in angles for s in angles for ph1 in phases for ph2 in phases
    ])


def kp_constant_grid(charset: CharacterSet, p, phase_steps: int = 16,
                     magnitude_steps: int = 9) -> float:
    """Exhaustive phase-quantized oracle for |charset| <= 3.

    Enumerates magnitude profiles on the sphere (modulo global scale) and
    quantized relative phases (modulo global phase); returns the best ratio.
    """
    m = charset.size
    if m > 3:
        raise ValueError("the exhaustive oracle only covers up to 3 characters")
    e = parse_exponent(p)
    if m == 1:
        return 1.0
    coeffs = _grid_coeffs(m, phase_steps, magnitude_steps)
    basis = charset.matrix()
    vals = np.abs(basis @ coeffs.T)
    l2 = np.sqrt((vals ** 2).mean(axis=0))
    if e.recip == 0.0:
        num = vals.max(axis=0)
    else:
        pv = 1.0 / e.recip
        num = ((vals ** pv).mean(axis=0)) ** e.recip
    ok = l2 > 0
    return float((num[ok] / l2[ok]).max())


def sidon_constant_grid(charset: CharacterSet, phase_steps: int = 16,
                        magnitude_steps: int = 9) -> float:
    """Exhaustive phase-quantized Sidon oracle for |charset| <= 3."""
    m = charset.size
    if m > 3:
        raise ValueError("the exhaustive oracle only covers up to 3 characters")
    if m == 1:
        return 1.0
    coeffs = _grid_coeffs(m, phase_steps, magnitude_steps)
    basis = charset.matrix()
    sup = np.abs(basis @ coeffs.T).max(axis=0)
    num = np.abs(coeffs).sum(axis=1)
    ok = sup > 0
    return float((num[ok] / sup[ok]).max())


# ---------------------------------------------------------------------------
# groups and characters
# ---------------------------------------------------------------------------

def test_characters_unimodular_and_orthonormal():
    cs = full_character_set(12)
    mat = cs.matrix()
    assert np.allclose(np.abs(mat), 1.0, atol=1e-12)
    gram = mat.conj().T @ mat / cs.group.order
    assert np.allclose(gram, np.eye(cs.size), atol=1e-10)


def test_product_group_enumeration_and_orthonormality():
    cs = CharacterSet(cyclic_group(6), ((0,), (1,), (5,)))
    assert cs.group.order == 6
    two_factor = CharacterSet(CharacterGroup((2, 4)), ((0, 1), (1, 2), (1, 3)))
    mat = two_factor.matrix()
    assert mat.shape == (8, 3)
    gram = mat.conj().T @ mat / 8
    assert np.allclose(gram, np.eye(3), atol=1e-10)


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        _charset(8, [1, 9])  # 9 = 1 mod 8


def test_lacunary_set_requires_room():
    with pytest.raises(ValueError):
        lacunary_character_set(8, 5)
    cs = lacunary_character_set(64, 5)
    assert [f[0] for f in cs.freqs] == [1, 2, 4, 8, 16]


# ---------------------------------------------------------------------------
# span elements and L_p norms
# ---------------------------------------------------------------------------

def test_single_character_all_p():
    cs = _charset(8, [3])
    f = SpanElement(cs, np.array([1.0]))
    for p in (1, 2, 4, "inf"):
        assert lp_norm_of_span(f, p) == pytest.approx(1.0, rel=1e-12)


def test_full_set_point_mass_norms():
    n = 16
    cs = full_character_set(n)
    f = SpanElement(cs, np.ones(n))
    # f is n at the origin and 0 elsewhere
    assert lp_norm_of_span(f, 2) == pytest.approx(np.sqrt(n), rel=1e-12)
    assert lp_norm_of_span(f, 4) == pytest.approx(n ** 0.75, rel=1e-12)


def test_full_set_point_mass_huge_p():
    # n at the origin, 0 elsewhere: ||f||_p = n^(1 - 1/p), finite for every p
    n = 16
    f = SpanElement(full_character_set(n), np.ones(n))
    for p in (400, 1e6):
        value = lp_norm_of_span(f, p)
        assert np.isfinite(value)
        assert value == pytest.approx(n ** (1.0 - 1.0 / p), rel=1e-12)


def test_two_coefficients_parseval():
    cs = _charset(4, [0, 1])
    f = SpanElement(cs, np.array([1.0, 1.0]))
    assert lp_norm_of_span(f, 2) == pytest.approx(np.sqrt(2), rel=1e-12)


def test_parseval_500_random_span_elements():
    rng = np.random.default_rng(0)
    cs = _charset(32, [1, 2, 4, 7, 11])
    coeffs = rng.standard_normal((500, 5)) + 1j * rng.standard_normal((500, 5))
    vals = cs.matrix() @ coeffs.T
    group_l2 = np.sqrt((np.abs(vals) ** 2).mean(axis=0))
    assert np.allclose(group_l2, np.linalg.norm(coeffs, axis=1), rtol=1e-10)


# ---------------------------------------------------------------------------
# second moments
# ---------------------------------------------------------------------------

def test_second_moment_single_element():
    cs = _charset(8, [1])
    est = second_moment(character_system(cs), _basis(sequence_space(2, 4), 1))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    est_g = second_moment(gaussian_system(), _basis(sequence_space(2, 4), 1))
    assert est_g.certainty is Certainty.EXACT
    assert est_g.value == pytest.approx(1.0, rel=1e-12)


def test_second_moment_mc_needs_two_samples():
    # a reported stderr needs at least two samples; the exact paths need none
    with pytest.raises(ValueError, match="samples"):
        second_moment(gaussian_system(), _basis(sequence_space("inf", 4), 2), samples=1, seed=3)
    est = second_moment(gaussian_system(), _basis(sequence_space(2, 4), 2), samples=1, seed=3)
    assert est.certainty is Certainty.EXACT


def test_ascent_config_rejects_empty_budgets():
    with pytest.raises(ValueError, match="restarts"):
        AscentConfig(seed=1, restarts=0)
    with pytest.raises(ValueError, match="steps"):
        AscentConfig(seed=1, steps=-1)
    with pytest.raises(ValueError, match="step size"):
        AscentConfig(seed=1, step_size=0.0)
    assert AscentConfig(seed=1, restarts=1, steps=0).steps == 0


def test_second_moment_characters_orthonormal_basis():
    # cross terms average to zero by orthogonality, so the answer is sqrt(m)
    cs = _charset(8, [0, 1, 2])
    est = second_moment(character_system(cs), _basis(sequence_space(2, 3), 3))
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(np.sqrt(3), abs=1e-12)


def test_second_moment_gaussian_exact_and_mc():
    n = 6
    space = sequence_space(2, n)
    exact = second_moment(gaussian_system(), _basis(space, n))
    assert exact.certainty is Certainty.EXACT
    assert exact.value == pytest.approx(np.sqrt(n), rel=1e-14)
    mc = _mc_second_moment(n, _basis(space, n), space, 20_000, 5, False, "mc-gaussian")
    assert mc.certainty is Certainty.LOWER
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.value - np.sqrt(n)) <= 3 * mc.stderr


def test_second_moment_family_too_large():
    cs = _charset(8, [0, 1])
    with pytest.raises(ValueError):
        second_moment(character_system(cs), _basis(sequence_space(2, 3), 3))


def test_second_moment_complex_normals_flag():
    n = 5
    space = sequence_space(2, n)
    est = _mc_second_moment(n, _basis(space, n), space, 20_000, 9, True, "mc-gaussian")
    assert abs(est.value - np.sqrt(n)) <= 4 * est.stderr


# ---------------------------------------------------------------------------
# Lambda(p) constants
# ---------------------------------------------------------------------------

def test_kp_singleton_is_one():
    est = kp_constant_lower(_charset(16, [3]), 4, CFG)
    assert est.value == 1.0
    assert est.certainty is Certainty.EXACT


def test_kp_p2_is_one_exactly():
    rng = np.random.default_rng(1)
    for _ in range(10):
        size = int(rng.integers(1, 8))
        freqs = rng.choice(32, size=size, replace=False)
        est = kp_constant_lower(_charset(32, freqs.tolist()), 2, CFG)
        assert est.value == 1.0


@pytest.mark.parametrize("n,p", [(8, 4), (16, 4), (8, 8)])
def test_kp_full_set_reaches_point_mass(n, p):
    # oracle: point-mass coefficients attain n^(1/2 - 1/p), and that is the
    # exact maximum for the full frequency set
    est = kp_constant_lower(full_character_set(n), p, CFG)
    truth = n ** (0.5 - 1.0 / p)
    assert est.value <= truth * (1 + 1e-9)
    assert est.value >= truth * 0.95


def test_kp_two_frequencies_against_grid_and_analytic():
    cs = _charset(8, [1, 2])
    est = kp_constant_lower(cs, 4, CFG)
    assert 1.0 <= est.value <= 2 ** 0.25
    grid = kp_constant_grid(cs, 4, phase_steps=24, magnitude_steps=13)
    analytic = 1.5 ** 0.25
    assert est.value == pytest.approx(analytic, rel=1e-6)
    assert grid == pytest.approx(analytic, rel=1e-3)
    assert est.value >= grid * 0.999


def test_kp_lacunary_bounded():
    cs = _charset(64, [1, 2, 4, 8])
    est = kp_constant_lower(cs, 4, CFG)
    assert est.value <= 3.0
    assert est.value >= 1.0


def test_kp_monotone_in_p_on_witness():
    cs = _charset(16, [1, 3, 5])
    est = kp_constant_lower(cs, 4, FAST)
    f = SpanElement(cs, est.witness)
    ratio6 = lp_norm_of_span(f, 6) / lp_norm_of_span(f, 2)
    assert ratio6 >= est.value - 1e-12


def test_kp_monotone_under_set_inclusion():
    small = _charset(16, [1, 3])
    big = _charset(16, [1, 3, 5, 7])
    est = kp_constant_lower(small, 4, FAST)
    embedded = np.zeros(4, dtype=complex)
    embedded[:2] = est.witness
    f = SpanElement(big, embedded)
    ratio = lp_norm_of_span(f, 4) / lp_norm_of_span(f, 2)
    assert ratio == pytest.approx(est.value, rel=1e-12)
    est_big = kp_constant_lower(big, 4, FAST)
    assert est_big.value >= ratio - 1e-9


def test_kp_scaling_and_phase_invariance():
    cs = _charset(16, [1, 2, 5])
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ratio = lambda a: lp_norm_of_span(SpanElement(cs, a), 4) / lp_norm_of_span(SpanElement(cs, a), 2)
    assert ratio(alpha) == pytest.approx(ratio(3.7 * np.exp(0.9j) * alpha), rel=1e-12)


def test_kp_rejects_bad_input():
    with pytest.raises(ValueError):
        kp_constant_lower(_charset(8, [1]), 1.5, CFG)
    with pytest.raises(ValueError):
        kp_constant_lower(CharacterSet(cyclic_group(8), ()), 4, CFG)


def test_kp_inf_full_set():
    est = kp_constant_lower(full_character_set(8), "inf", CFG)
    assert est.value == pytest.approx(np.sqrt(8), rel=1e-6)


# ---------------------------------------------------------------------------
# Sidon constants
# ---------------------------------------------------------------------------

def test_sidon_singleton():
    est = sidon_constant_lower(_charset(8, [2]), CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_sidon_always_at_least_one():
    rng = np.random.default_rng(2)
    for _ in range(5):
        freqs = rng.choice(16, size=3, replace=False)
        est = sidon_constant_lower(_charset(16, freqs.tolist()), FAST)
        assert est.value >= 1.0 - 1e-12


def test_sidon_pair_finite_group_value():
    # on the 8-point group the best phase alignment can fall between sample
    # points: the constant for {0, 1} is 1/cos(pi/16), not 1, and the
    # exhaustive oracle agrees with the ascent
    cs = _charset(8, [0, 1])
    est = sidon_constant_lower(cs, CFG)
    oracle = sidon_constant_grid(cs, phase_steps=64, magnitude_steps=17)
    truth = 1.0 / np.cos(np.pi / 16)
    assert est.value == pytest.approx(truth, rel=1e-4)
    assert oracle == pytest.approx(truth, rel=1e-3)
    # the aligned pair (1, 1) attains ratio exactly 1
    f = SpanElement(cs, np.array([1.0, 1.0]))
    assert np.abs(np.array([1.0, 1.0])).sum() / lp_norm_of_span(f, "inf") == pytest.approx(1.0, rel=1e-12)
    # on a finer group the constant drops towards 1
    est64 = sidon_constant_lower(_charset(64, [0, 1]), FAST)
    assert est64.value <= 1.0 / np.cos(np.pi / 128) * (1 + 1e-6)


def test_sidon_full_set_reports_best_found():
    est = sidon_constant_lower(full_character_set(8), CFG)
    assert est.value >= 1.0
    # consistency: the witness really attains the reported ratio
    f = SpanElement(full_character_set(8), est.witness)
    attained = np.abs(est.witness).sum() / lp_norm_of_span(f, "inf")
    assert attained == pytest.approx(est.value, rel=1e-12)


def test_sidon_scaling_invariance():
    cs = _charset(8, [1, 3])
    rng = np.random.default_rng(4)
    alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ratio = lambda a: np.abs(a).sum() / lp_norm_of_span(SpanElement(cs, a), "inf")
    assert ratio(alpha) == pytest.approx(ratio(0.2 * np.exp(1.3j) * alpha), rel=1e-12)


# ---------------------------------------------------------------------------
# growth profiles
# ---------------------------------------------------------------------------

def test_kp_profile_singleton():
    rows = kp_growth_profile(_charset(8, [1]), [3, 4, 6], FAST)
    for row in rows:
        assert row["estimate"].value == 1.0
        assert row["ratio"] == pytest.approx(1.0 / np.sqrt(row["p"]), rel=1e-12)


def test_kp_profile_full_set():
    rows = kp_growth_profile(full_character_set(16), [4, 8], FAST)
    for row in rows:
        truth = 16 ** (0.5 - 1.0 / row["p"])
        assert row["estimate"].value >= 0.95 * truth


def test_kp_profile_lacunary_ratio_bounded():
    cs = _charset(64, [1, 2, 4, 8])
    rows = kp_growth_profile(cs, [4], FAST)
    assert rows[0]["estimate"].value <= 3.0
