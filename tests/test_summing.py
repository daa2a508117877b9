"""ell-norm estimation, certified family bounds, family search, factorization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from summinglab import (Certainty, CharacterSet, NormEstimate, SearchConfig,
                        UnitFamily, VectorSystem, character_system, cyclic_group,
                        ell_norm_mc, factorization_upper, gaussian_system,
                        identity_map, kp_summing_bound, schatten_space,
                        sequence_space, second_moment, summing_norm_lower,
                        summing_norm_search)
from summinglab import kernels, spaces, summing
from summinglab.spaces import norms_of_stack
from summinglab.rng import make_rng, standard_gaussians, substream
from summinglab.summing import _schatten_candidates, _sequence_candidates
from summinglab.systems import MC_CHUNK, AscentConfig


def _grid_family(space, n):
    return UnitFamily(space, np.arange(n * n)[:, None])


def _basis(space):
    return UnitFamily(space, np.arange(space.dim)[:, None])


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


# ---------------------------------------------------------------------------
# family lower bounds
# ---------------------------------------------------------------------------

def test_lower_bound_gaussian_coordinate_basis():
    n = 9
    fam = _basis(sequence_space(2, n))
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
    fam = _basis(sequence_space(2, 2))
    est = summing_norm_lower(identity_map(sequence_space(2, 2), sequence_space(2, 2)),
                             character_system(cs), fam)
    assert est.value == pytest.approx(np.sqrt(2), abs=1e-12)


def test_lower_bound_heuristic_numerator_stays_heuristic(monkeypatch):
    # an exact denominator must not promote an uncertified numerator
    import summinglab.summing as summing

    monkeypatch.setattr(summing, "second_moment",
                        lambda *a, **k: NormEstimate(2.0, Certainty.HEURISTIC, method="guess"))
    n = 4
    fam = _basis(sequence_space(2, n))
    est = summing_norm_lower(identity_map(sequence_space(2, n), sequence_space(4, n)),
                             gaussian_system(), fam)
    assert est.certainty is Certainty.HEURISTIC
    assert est.value == pytest.approx(2.0, rel=1e-12)


def test_ell_norm_and_second_moment_share_one_loop():
    # a partial last chunk; the identity map draws the same rows as the basis family
    n = 6
    samples = 2 * MC_CHUNK + 1
    ell = ell_norm_mc(identity_map(sequence_space(2, n), sequence_space("inf", n)),
                      samples=samples, seed=29)
    mom = second_moment(gaussian_system(), _basis(sequence_space("inf", n)),
                        samples=samples, seed=29)
    assert ell.certainty is mom.certainty is Certainty.LOWER
    assert ell.value == pytest.approx(mom.value, rel=1e-12)
    assert ell.stderr == pytest.approx(mom.stderr, rel=1e-12)


def _unit_families():
    # every candidate family the searches build, with non-Hilbert codomains
    # on each side of the Schatten kernel's path choice (S_4 and S_inf take
    # the Gram, S_3 the SVD)
    seq = [(fam, sequence_space(v, 8))
           for _, fam in _sequence_candidates(sequence_space(1, 8), 1 << 30)
           for v in (4, "inf")]
    sch = [(fam, schatten_space(v, 4))
           for _, fam in _schatten_candidates(schatten_space(1, 4), 1 << 30)
           for v in (3, 4, "inf")]
    return seq + sch


def _materialize(family):
    """The family's elements as a dense real (m, flat_dim) array."""
    dense = np.zeros((family.size, family.space.flat_dim))
    for i, row in enumerate(family.elements):
        dense[i, row] = 1.0
    return dense


def _dense_second_moment(dense, space, samples, seed):
    """Chunked (E ||g @ dense||^2)^(1/2) and its stderr, as the Monte Carlo loop draws g."""
    q = np.concatenate([
        norms_of_stack(standard_gaussians(make_rng(substream(seed, k)),
                                          (min(MC_CHUNK, samples - start), dense.shape[0]),
                                          False) @ dense, space) ** 2
        for k, start in enumerate(range(0, samples, MC_CHUNK))])
    value = np.sqrt(q.mean())
    return value, np.sqrt(max((q * q).mean() - q.mean() ** 2, 0.0) / samples) / (2 * value)


def test_unit_family_gather_matches_dense_product():
    # every unit candidate's second moment (gather, or closed form for one
    # element) against the dense product on the materialized family, over a
    # partial last chunk
    samples = 2 * MC_CHUNK + 1
    for fam, space in _unit_families():
        est = second_moment(gaussian_system(), replace(fam, space=space),
                            samples=samples, seed=31)
        dense = _materialize(fam)
        if fam.size == 1:
            assert est.certainty is Certainty.EXACT
            assert est.value == pytest.approx(norms_of_stack(dense, space)[0], rel=1e-12)
            continue
        value, stderr = _dense_second_moment(dense, space, samples, 31)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


def test_generic_family_takes_dense_product():
    # the comb is the one dense family: its character average is the dense
    # product of the character table with its elements
    cs = CharacterSet(cyclic_group(16), tuple((k,) for k in range(8)))
    system = character_system(cs)
    space = sequence_space(4, 8)
    (tag, comb), = summing._comb_candidates(sequence_space(2, 8), system, cs.size)
    assert tag == "comb" and isinstance(comb, VectorSystem)
    est = second_moment(system, replace(comb, space=space))
    vals = cs.matrix() @ comb.elements
    oracle = np.sqrt(np.mean(np.sum(np.abs(vals) ** 4, axis=1) ** 0.5))
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(oracle, rel=1e-12)


def test_real_families_take_real_norm_kernels(monkeypatch):
    # unit families are real: with real normals they reach the Schatten
    # kernel as real stacks, with complex normals as complex ones
    seen = []

    def spy(mats, p):
        seen.append(np.iscomplexobj(mats))
        return kernels.schatten_norm_batch(mats, p)

    monkeypatch.setattr(spaces, "schatten_norm_batch", spy)
    space = schatten_space(4, 4)
    for _, fam in _schatten_candidates(schatten_space(1, 4), 1 << 30):
        second_moment(gaussian_system(), replace(fam, space=space), samples=100, seed=3)
    assert seen and not any(seen)
    second_moment(gaussian_system(True), replace(fam, space=space), samples=100, seed=3)
    assert seen[-1]


def test_search_family_memory_is_index_sized():
    # S_1^64 -> S_2^64: the grid of 4096 units is 32 KiB of indices
    tracemalloc.start()
    try:
        est = summing_norm_search(identity_map(schatten_space(1, 64), schatten_space(2, 64)),
                                  gaussian_system(), SearchConfig(seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.value == 8.0
    assert peak < 8 * 2 ** 20


def test_lower_bound_domain_mismatch():
    fam = _basis(sequence_space(2, 4))
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
    fam = _basis(sequence_space(2, n))
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
