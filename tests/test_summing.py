"""ell-norm estimation, certified family bounds, family search, factorization."""

import numpy as np
import pytest

from summinglab import (Certainty, CharacterSet, FamilyStructure,
                        NormEstimate, SearchConfig, SpaceMap, VectorSystem,
                        character_system, cyclic_group,
                        ell_norm_mc, factorization_upper, gaussian_system,
                        identity_map, kp_summing_bound, schatten_space,
                        sequence_space, second_moment, summing_norm_lower,
                        summing_norm_search)
from summinglab.systems import MC_CHUNK, AscentConfig


def _grid_family(space, n):
    elems = np.zeros((n * n, n, n))
    for j in range(n):
        for k in range(n):
            elems[j * n + k, j, k] = 1.0
    return VectorSystem(space, elems, FamilyStructure.RANK_ONE)


def _power_iteration_opnorm(mat, iters=40):
    # independent largest-singular-value routine (no SVD)
    v = np.ones(mat.shape[1]) / np.sqrt(mat.shape[1])
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        v = w / np.linalg.norm(w)
    return np.linalg.norm(mat @ v)


# ---------------------------------------------------------------------------
# ell-norm
# ---------------------------------------------------------------------------

def test_ell_norm_hilbert_identity_exact():
    est = ell_norm_mc(identity_map(sequence_space(2, 4), sequence_space(2, 4)))
    assert est.certainty is Certainty.EXACT
    assert est.value == 2.0


def test_ell_norm_requires_hilbert_domain():
    with pytest.raises(ValueError):
        ell_norm_mc(identity_map(sequence_space(1, 4), sequence_space(2, 4)), seed=1)


def test_ell_norm_schatten_to_operator_norm():
    # oracle: independent Monte Carlo of E ||G||_op^2 with power iteration
    for n in (16, 32):
        est = ell_norm_mc(identity_map(schatten_space(2, n), schatten_space("inf", n)),
                          samples=3000, seed=11)
        rng = np.random.default_rng(1234 + n)  # PCG64, independent engine
        vals = [_power_iteration_opnorm(rng.standard_normal((n, n))) ** 2
                for _ in range(1500)]
        oracle = np.sqrt(np.mean(vals))
        assert est.value == pytest.approx(oracle, rel=0.05)
        assert est.value == pytest.approx(2.0 * np.sqrt(n), rel=0.08)


def test_ell_norm_linf_log_growth():
    n = 1024
    est = ell_norm_mc(identity_map(sequence_space(2, n), sequence_space("inf", n)),
                      samples=20_000, seed=3)
    ratio = est.value / np.sqrt(2 * np.log(n))
    assert 0.8 <= ratio <= 1.2


def test_ell_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dom, cod = sequence_space(2, n), sequence_space(4, n)
    est_id = ell_norm_mc(SpaceMap(dom, cod, np.eye(n)), samples=20_000, seed=21)
    est_rot = ell_norm_mc(SpaceMap(dom, cod, q), samples=20_000, seed=22)
    combined = np.hypot(est_id.stderr, est_rot.stderr)
    assert abs(est_id.value - est_rot.value) <= 3 * combined


# ---------------------------------------------------------------------------
# family lower bounds
# ---------------------------------------------------------------------------

def test_lower_bound_gaussian_coordinate_basis():
    n = 9
    fam = VectorSystem(sequence_space(2, n), np.eye(n), FamilyStructure.DISJOINT)
    est = summing_norm_lower(identity_map(sequence_space(2, n), sequence_space(2, n)),
                             gaussian_system(), fam)
    assert est.certainty is Certainty.LOWER
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)


def test_lower_bound_rank_one_grid_matches_reference():
    n = 8
    dom, cod = schatten_space(1, n), schatten_space(2, n)
    est = summing_norm_lower(identity_map(dom, cod), gaussian_system(), _grid_family(dom, n))
    assert est.stderr is None  # exact numerator and denominator
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)


def test_lower_bound_characters_exact():
    cs = CharacterSet(cyclic_group(4), ((0,), (1,)))
    fam = VectorSystem(sequence_space(2, 2), np.eye(2), FamilyStructure.DISJOINT)
    est = summing_norm_lower(identity_map(sequence_space(2, 2), sequence_space(2, 2)),
                             character_system(cs), fam)
    assert est.value == pytest.approx(np.sqrt(2), abs=1e-12)


def test_lower_bound_scales_with_map():
    n = 5
    dom, cod = sequence_space(2, n), sequence_space(4, n)
    fam = VectorSystem(dom, np.eye(n), FamilyStructure.DISJOINT)
    base = SpaceMap(dom, cod, np.eye(n))
    est1 = summing_norm_lower(base, gaussian_system(), fam, samples=4000, seed=13)
    est3 = summing_norm_lower(base.scaled(3.0), gaussian_system(), fam, samples=4000, seed=13)
    assert est3.value == pytest.approx(3.0 * est1.value, rel=1e-12)


def test_lower_bound_heuristic_numerator_stays_heuristic(monkeypatch):
    # an exact denominator must not promote an uncertified numerator
    import summinglab.summing as summing

    monkeypatch.setattr(summing, "second_moment",
                        lambda *a, **k: NormEstimate(2.0, Certainty.HEURISTIC, method="guess"))
    n = 4
    fam = VectorSystem(sequence_space(2, n), np.eye(n), FamilyStructure.DISJOINT)
    est = summing_norm_lower(identity_map(sequence_space(2, n), sequence_space(4, n)),
                             gaussian_system(), fam)
    assert est.certainty is Certainty.HEURISTIC
    assert est.value == pytest.approx(2.0, rel=1e-12)


def test_ell_norm_and_second_moment_share_one_loop():
    # a partial last chunk; the identity map draws the same rows as the basis family
    n = 6
    samples = 2 * MC_CHUNK + 1
    ell = ell_norm_mc(identity_map(sequence_space(2, n), sequence_space("inf", n)),
                      samples=samples, seed=29, allow_exact=False)
    mom = second_moment(gaussian_system(), np.eye(n), sequence_space("inf", n),
                        samples=samples, seed=29, allow_exact=False)
    assert ell.certainty is mom.certainty is Certainty.LOWER
    assert ell.value == pytest.approx(mom.value, rel=1e-12)
    assert ell.stderr == pytest.approx(mom.stderr, rel=1e-12)


def test_lower_bound_domain_mismatch():
    fam = VectorSystem(sequence_space(2, 4), np.eye(4), FamilyStructure.DISJOINT)
    with pytest.raises(ValueError):
        summing_norm_lower(identity_map(sequence_space(1, 4), sequence_space(2, 4)),
                           gaussian_system(), fam)


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

def test_search_hilbert_identity_reaches_sqrt_n():
    n = 8
    cfg = SearchConfig(seed=2)
    est = summing_norm_search(identity_map(sequence_space(2, n), sequence_space(2, n)),
                              gaussian_system(), cfg)
    assert est.value >= np.sqrt(n) * (1 - 1e-9)


def test_search_includes_all_ones_singleton():
    # for linf^4 -> l4^4 the all-ones singleton gives exactly 4^(1/4)
    cfg = SearchConfig(seed=2, samples=4000)
    est = summing_norm_search(identity_map(sequence_space("inf", 4), sequence_space(4, 4)),
                              gaussian_system(), cfg)
    assert est.value >= 4 ** 0.25 * (1 - 1e-9)


def test_search_zero_budget_equals_best_seed_family():
    n = 6
    cfg = SearchConfig(seed=4, samples=2000)
    mapping = identity_map(sequence_space(2, n), sequence_space(2, n))
    est = summing_norm_search(mapping, gaussian_system(), cfg)
    # enumerate the same seed families by hand: basis wins with sqrt(n)
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)
    assert "basis" in est.method


def test_search_deterministic_given_seed():
    n = 6
    cfg = SearchConfig(seed=9, samples=2000)
    mapping = identity_map(sequence_space(2, n), sequence_space(4, n))
    a = summing_norm_search(mapping, gaussian_system(), cfg)
    b = summing_norm_search(mapping, gaussian_system(), cfg)
    assert a.value == b.value


# ---------------------------------------------------------------------------
# factorization upper bounds
# ---------------------------------------------------------------------------

def _exact(value, method="ref"):
    return NormEstimate(value, Certainty.EXACT, method=method)


def test_factorization_unit_first_leg():
    n = 8
    dom, mid, cod = sequence_space(1, n), sequence_space(2, n), sequence_space(2, n)
    est = factorization_upper(identity_map(dom, cod), [dom, mid, cod],
                              _exact(np.sqrt(n)), 1)
    assert est.certainty is Certainty.UPPER
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)


def test_factorization_pivot_example():
    # l_{4/3} -> l_inf through the exponent with 1/v = 1/u - 1/2 costs nothing
    m = 16
    dom = sequence_space("4/3", m)
    mid = sequence_space(4, m)
    cod = sequence_space("inf", m)
    base = _exact(7.7, "pivot-leg")
    est = factorization_upper(identity_map(dom, cod), [dom, mid, cod], base, 0)
    # the second leg l_4 -> l_inf contributes m^max(0, 0 - 1/4) = 1
    assert est.value == pytest.approx(7.7, rel=1e-12)


def test_factorization_monotone_under_unit_extension():
    n = 8
    dom, cod = schatten_space(2, n), schatten_space(4, n)
    base = _exact(float(n))
    short = factorization_upper(identity_map(dom, cod), [dom, cod], base, 0)
    extended = factorization_upper(identity_map(dom, cod), [dom, dom, cod], base, 1)
    assert extended.value <= short.value * (1 + 1e-12)


def test_factorization_upper_dominates_direct_mc():
    n = 8
    dom, cod = schatten_space(2, n), schatten_space(4, n)
    pivot = schatten_space(2, n)
    upper = factorization_upper(identity_map(dom, cod), [dom, pivot, cod],
                                _exact(float(n)), 0)
    direct = ell_norm_mc(identity_map(dom, cod), samples=4000, seed=17)
    assert upper.value >= direct.value - 3 * (direct.stderr or 0.0)


def test_factorization_route_validation():
    n = 4
    dom, cod = sequence_space(1, n), sequence_space(2, n)
    mapping = identity_map(dom, cod)
    with pytest.raises(ValueError):
        factorization_upper(mapping, [dom], _exact(1.0), 0)
    with pytest.raises(ValueError):
        factorization_upper(mapping, [cod, dom], _exact(1.0), 0)
    with pytest.raises(ValueError):
        factorization_upper(mapping, [dom, sequence_space(2, n + 1), cod], _exact(1.0), 0)
    with pytest.raises(ValueError):
        factorization_upper(mapping, [dom, cod], _exact(1.0), 5)
    heuristic = NormEstimate(1.0, Certainty.HEURISTIC, method="guess")
    est = factorization_upper(mapping, [dom, cod], heuristic, 0)
    assert est.certainty is Certainty.HEURISTIC


# ---------------------------------------------------------------------------
# sandwich coherence and estimator agreement
# ---------------------------------------------------------------------------

def test_sandwich_lower_below_upper():
    n = 8
    dom, cod = schatten_space(2, n), schatten_space(4, n)
    lower = ell_norm_mc(identity_map(dom, cod), samples=4000, seed=19)
    upper = factorization_upper(identity_map(dom, cod), [dom, dom, cod],
                                _exact(float(n)), 0)
    assert lower.value <= upper.value * (1 + 3 * (lower.stderr or 0.0))


def test_three_estimators_agree_on_hilbert_identity():
    n = 4
    mapping = identity_map(sequence_space(2, n), sequence_space(2, n))
    ell = ell_norm_mc(mapping)
    fam = VectorSystem(sequence_space(2, n), np.eye(n), FamilyStructure.DISJOINT)
    gauss = summing_norm_lower(mapping, gaussian_system(), fam)
    cs = CharacterSet(cyclic_group(16), tuple((k,) for k in range(n)))
    chars = summing_norm_lower(mapping, character_system(cs), fam)
    assert ell.value == pytest.approx(2.0, rel=1e-12)
    assert gauss.value == pytest.approx(2.0, rel=1e-12)
    assert chars.value == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# K_v template
# ---------------------------------------------------------------------------

def test_kp_template_singleton():
    cs = CharacterSet(cyclic_group(8), ((1,),))
    est = kp_summing_bound(cs, 4, 16, AscentConfig(seed=1, restarts=8, steps=100))
    assert est.value == pytest.approx(2.0, rel=1e-12)
    assert est.certainty is Certainty.HEURISTIC


def test_kp_template_full_set():
    cs = CharacterSet(cyclic_group(8), tuple((k,) for k in range(8)))
    est = kp_summing_bound(cs, 4, 8, AscentConfig(seed=1))
    assert est.value == pytest.approx(np.sqrt(8), rel=0.05)


def test_kp_template_infinite_v():
    cs = CharacterSet(cyclic_group(8), ((1,), (2,)))
    cfg = AscentConfig(seed=1, restarts=16, steps=200)
    est = kp_summing_bound(cs, "inf", 64, cfg)
    from summinglab import kp_constant_lower
    assert est.value == pytest.approx(kp_constant_lower(cs, "inf", cfg).value, rel=1e-12)


def test_kp_template_rejects_small_v():
    cs = CharacterSet(cyclic_group(8), ((1,),))
    with pytest.raises(ValueError):
        kp_summing_bound(cs, 2, 8, AscentConfig(seed=1))
