"""ell-norm estimation, certified family bounds, family search, the Hilbert-pivot bound."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from summinglab import (Certainty, CharacterSet, NormEstimate, SpaceKind, UnitFamily,
                        VectorSystem, character_system, ell_norm_mc,
                        gaussian_system, identity_map, kp_constant_lower,
                        kp_summing_bound, parse_space, pivot_upper,
                        schatten_space, sequence_space, second_moment,
                        summing_norm_lower, summing_norm_search)
from summinglab import kernels, summing, systems
from summinglab.systems import MC_BLOCK, MC_CONTROL_SAMPLES
from summinglab.spaces import norms_of_stack, sequence_copy
from summinglab.rng import gaussian_bidiagonal, make_rng, standard_gaussians, substream
from summinglab.summing import _schatten_candidates, _sequence_candidates
from summinglab.systems import AscentConfig


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


def test_one_hilbert_closed_form():
    # the ell-norm and the basis family's second moment share one closed
    # form, math.sqrt(m s); 2921 ** 0.5 is one ulp below it
    space = sequence_space(2, 2921)
    ell = ell_norm_mc(identity_map(space, space))
    basis = second_moment(gaussian_system(), UnitFamily(space, np.arange(2921)[:, None]))
    assert ell.value == basis.value == math.sqrt(2921)
    assert ell.method == basis.method == "gaussian-orthogonality"


@pytest.mark.parametrize("target", ["l2", "linf"])
def test_huge_ell_norm_is_settled_before_the_basis_is_built(target):
    # l_2^(10^8) -> l_v^(10^8): the exact value, or the refused Monte Carlo
    # working set, comes before the 800 MB coordinate basis exists
    space_map = identity_map(sequence_space(2, 10 ** 8), parse_space(f"{target}:100000000"))
    tracemalloc.start()
    try:
        if target == "l2":
            assert ell_norm_mc(space_map, samples=16, seed=1).value == 10000.0
        else:
            with pytest.raises(ValueError, match="Monte Carlo chunk working set"):
                ell_norm_mc(space_map, samples=16, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


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
    cs = CharacterSet(4, (0, 1))
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
    # a partial last block; the identity map draws the same rows as the basis family
    n = 6
    samples = 32 * MC_BLOCK + 1
    ell = ell_norm_mc(identity_map(sequence_space(2, n), sequence_space("inf", n)),
                      samples=samples, seed=29)
    mom = second_moment(gaussian_system(), _basis(sequence_space("inf", n)),
                        samples=samples, seed=29)
    assert ell.certainty is mom.certainty is Certainty.LOWER
    assert ell.value == pytest.approx(mom.value, rel=1e-12)
    assert ell.stderr == pytest.approx(mom.stderr, rel=1e-12)


@pytest.mark.parametrize("u,v", [("l2:16", "linf:16"), ("s2:8", "sinf:8")])
def test_ell_norm_builds_no_basis(monkeypatch, u, v):
    # the loop integrates the codomain itself: no coordinate basis is built,
    # and the floats are those of the basis's second moment (scale 1)
    def refuse(*args, **kwargs):
        raise AssertionError("built a candidate family")

    codomain = parse_space(v)
    basis = UnitFamily(codomain, np.arange(codomain.flat_dim)[:, None])
    mom = second_moment(gaussian_system(), basis, samples=3000, seed=23)
    monkeypatch.setattr(summing, "_family", refuse)
    ell = ell_norm_mc(identity_map(parse_space(u), codomain), samples=3000, seed=23)
    assert (ell.value, ell.stderr, ell.method) == (mom.value, mom.stderr, mom.method)


def _unit_families():
    # every candidate family the searches build, with non-Hilbert codomains
    # on each side of the bidiagonal route's choice (S_4 and S_inf reduce in
    # O(n), S_3 materializes for the SVD)
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


def _controlled_moment(y, controls, means):
    """(value, stderr) of (E Y)^(1/2) from the samples of Y and of its
    controls (rows of ``controls``, of exact ``means``): from
    MC_CONTROL_SAMPLES samples on, the least-squares fit on all of them
    (``np.linalg.lstsq``, intercept and residual variance over
    samples - k - 1), without the last while it is rank deficient or its
    intercept not positive; under MC_CONTROL_SAMPLES samples, and with no
    control left, the plain mean and its variance over samples - 1."""
    samples = len(y)
    k = len(controls) if samples >= MC_CONTROL_SAMPLES else 0
    for k in range(k, -1, -1):
        design = np.column_stack([np.ones(samples)]
                                 + [b - mu for b, mu in zip(controls[:k], means[:k])])
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank == k + 1 and (coef[0] > 0 or not k):
            resid = y - design @ coef
            value = np.sqrt(coef[0])
            return value, np.sqrt(resid @ resid / (samples - k - 1) / samples) / (2 * value)


def _dense_second_moment(dense, space, samples, seed, mu_z=None):
    """Blocked (E ||g @ dense||^2)^(1/2) and its stderr, as the Monte Carlo loop
    draws g, controlled by each row's squared Frobenius norm and, given its
    mean mu_z, its ||row||_v^v."""
    rows = np.concatenate([
        standard_gaussians(make_rng(substream(seed, k)),
                           (min(MC_BLOCK, samples - start), dense.shape[0])) @ dense
        for k, start in enumerate(range(0, samples, MC_BLOCK))])
    norms = norms_of_stack(rows, space)
    controls, means = [np.sum(rows ** 2, axis=1)], [np.sum(dense ** 2)]
    if mu_z is not None:
        controls, means = controls + [norms ** space.exponent.value], means + [mu_z]
    return _controlled_moment(norms ** 2, controls, means)


def _bidiagonal_second_moment(space, samples, seed):
    """Blocked (E ||B||^2)^(1/2) and its stderr, with the bidiagonal B drawn as
    the Monte Carlo loop draws a full grid's, materialized, reduced by
    ``norms_of_stack`` and controlled by tr T, tr T^2 and tr T^3 of the dense
    T = B^T B."""
    n = space.dim
    on = np.arange(n)
    dense = np.zeros((samples, n, n))
    for k, start in enumerate(range(0, samples, MC_BLOCK)):
        count = min(MC_BLOCK, samples - start)
        chis = gaussian_bidiagonal(make_rng(substream(seed, k)), count, n)
        dense[start:start + count, on, on] = chis[:, :n]
        dense[start:start + count, on[:-1], on[1:]] = chis[:, n:]
    gram = dense.transpose(0, 2, 1) @ dense
    controls = [np.trace(np.linalg.matrix_power(gram, k), axis1=1, axis2=2) for k in (1, 2, 3)]
    return _controlled_moment(norms_of_stack(dense.reshape(samples, -1), space) ** 2, controls,
                              systems._trace_means(n))


def test_unit_family_gather_matches_dense_product():
    # every unit candidate's second moment (scaled l_v^m basis, or closed
    # form for one element) against the dense product on the materialized
    # family, over a partial last block; the full grid of a Schatten space
    # draws bidiagonals, so its reference reduces the same draws as dense
    # matrices
    samples = 32 * MC_BLOCK + 1
    for fam, space in _unit_families():
        est = second_moment(gaussian_system(), replace(fam, space=space),
                            samples=samples, seed=31)
        dense = _materialize(fam)
        if fam.size == 1:
            assert est.certainty is Certainty.EXACT
            assert est.value == pytest.approx(norms_of_stack(dense, space)[0], rel=1e-12)
            continue
        if space.kind is SpaceKind.SCHATTEN and fam.size == space.flat_dim:
            value, stderr = _bidiagonal_second_moment(space, samples, 31)
        else:
            # m blocks of s ones: ||x||_v^v = s ||g||_v^v, a control where the
            # loop takes ||g||_v^v on l_v^m as one (``_controls``)
            m, s = sequence_copy(replace(fam, space=space)).elements.shape
            means = systems._controls(sequence_space(space.exponent, m))[1]
            mu_z = s * means[1] if len(means) == 2 else None
            value, stderr = _dense_second_moment(dense, space, samples, 31, mu_z)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("samples", [2, 3, MC_BLOCK + 1])
def test_no_monte_carlo_numerator_has_a_zero_stderr(monkeypatch, samples):
    # summing_norm_lower drops a zero stderr, so a Monte Carlo row with one
    # would read as if it had none; a control fitted through two points
    # leaves no residual, and every candidate of the Gaussian searches here
    # (sequences, sequence copies, S_4 and S_inf grids, the S_3 SVD) keeps a
    # positive stderr at 2, 3 and more samples
    seen = []

    def spy(*args, **kwargs):
        est = second_moment(*args, **kwargs)
        if est.method == "mc-gaussian":
            seen.append(est.stderr)
        return est

    monkeypatch.setattr(summing, "second_moment", spy)
    for u, v in [("l2:6", "linf:6"), ("l1:6", "l4:6"), ("s2:3", "sinf:3"), ("s1:3", "s4:3"),
                 ("s2:3", "s3:3")]:
        summing_norm_search(identity_map(parse_space(u), parse_space(v)), gaussian_system(),
                            samples=samples, seed=5)
    assert len(seen) >= 10 and all(s > 0 for s in seen)


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("v", [3, 4, "inf"])
def test_bidiagonal_draws_match_dense_gaussian_matrices(n, v):
    # the full grid's bidiagonal draws against n x n matrices of normals
    # reduced densely: two estimates of one second moment, on disjoint seeds,
    # within four combined standard errors
    space = schatten_space(v, n)
    samples = 32 * MC_BLOCK + 1
    est = second_moment(gaussian_system(), _grid_family(space, n), samples=samples, seed=37)
    assert est.method == "mc-gaussian"
    value, stderr = _dense_second_moment(np.eye(n * n), space, samples, 41,
                                         systems._trace_means(n)[1] if v == 4 else None)
    assert abs(est.value - value) <= 4.0 * math.hypot(est.stderr, stderr)


def test_generic_family_takes_dense_product():
    # the comb is the one dense family: its character average is the dense
    # product of the character table with its elements
    cs = CharacterSet(16, tuple(range(8)))
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
    # unit families are real: with real draws they reach the Schatten kernel
    # as real stacks. The one Monte Carlo route that forms matrices is the
    # full grid's away from S_4 and S_inf, which materializes its bidiagonal
    # blocks (the S_3^4 grid here)
    seen = []
    batch = kernels.schatten_norm_batch

    def spy(mats, p):
        seen.append((mats.shape[1:], np.iscomplexobj(mats)))
        return batch(mats, p)

    monkeypatch.setattr(kernels, "schatten_norm_batch", spy)
    second_moment(gaussian_system(), _grid_family(schatten_space(3, 4), 4), samples=100, seed=3)
    assert seen and all(item == ((4, 4), False) for item in seen)


def test_search_family_memory_is_index_sized():
    # S_1^64 -> S_2^64: the grid of 4096 units is 32 KiB of indices
    tracemalloc.start()
    try:
        est = summing_norm_search(identity_map(schatten_space(1, 64), schatten_space(2, 64)),
                                  gaussian_system(), samples=4000, seed=1)
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
    est = summing_norm_search(identity_map(sequence_space(2, n), sequence_space(2, n)),
                              gaussian_system(), samples=4000, seed=2)
    assert est.value >= np.sqrt(n) * (1 - 1e-9)


def test_search_includes_all_ones_singleton():
    # for linf^4 -> l4^4 the all-ones singleton gives exactly 4^(1/4)
    est = summing_norm_search(identity_map(sequence_space("inf", 4), sequence_space(4, 4)),
                              gaussian_system(), samples=4000, seed=2)
    assert est.value >= 4 ** 0.25 * (1 - 1e-9)


def test_search_zero_budget_equals_best_seed_family():
    n = 6
    mapping = identity_map(sequence_space(2, n), sequence_space(2, n))
    est = summing_norm_search(mapping, gaussian_system(), samples=2000, seed=4)
    # enumerate the same seed families by hand: basis wins with sqrt(n)
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)
    assert "basis" in est.method


def test_character_search_of_unit_families_makes_no_group_table(monkeypatch):
    # l_1^16 -> l_2^16 over the lacunary 16 of Z_65536 has no comb, and its
    # unit families take the closed form: nothing gathers N rows of values
    def synthesize(*args, **kwargs):
        raise AssertionError("gathered a unit family's values over the group")

    monkeypatch.setattr(UnitFamily, "synthesize", synthesize)
    cs = CharacterSet(65536, tuple(2 ** k for k in range(16)))
    est = summing_norm_search(identity_map(sequence_space(1, 16), sequence_space(2, 16)),
                              character_system(cs), samples=2, seed=1)
    assert est.value == 1.0


def test_character_comb_still_takes_the_group_average(monkeypatch):
    # on an l_2 domain the comb is dense: its values at the group's points
    # are still the character table times its elements, block by block
    shapes = []
    synthesize = VectorSystem.synthesize

    def spy(self, coeffs):
        shapes.append(coeffs.shape)
        return synthesize(self, coeffs)

    monkeypatch.setattr(VectorSystem, "synthesize", spy)
    cs = CharacterSet(4096, tuple(2 ** k for k in range(12)))
    est = summing_norm_search(identity_map(sequence_space(2, 12), sequence_space(4, 12)),
                              character_system(cs), samples=2, seed=1)
    assert est.certainty is Certainty.LOWER
    assert shapes and all(columns == 12 for _, columns in shapes)
    # every scoring of the comb (the search's and the leader's) covers the group once
    assert sum(rows for rows, _ in shapes) in (4096, 2 * 4096) and max(shapes)[0] < 4096


@pytest.mark.parametrize("u,v", [("l4/3:8", "l4:8"), ("s4/3:4", "s4:4")])
def test_search_ranks_on_control_samples(monkeypatch, u, v):
    # candidate i is scored on MC_CONTROL_SAMPLES samples of substream(seed, i),
    # spawn key (i,); only the leader's report run, on substream(seed, count),
    # takes them all
    calls = []

    def spy(system, family, *, samples, seed):
        calls.append((samples, seed.spawn_key))
        return second_moment(system, family, samples=samples, seed=seed)

    monkeypatch.setattr(summing, "second_moment", spy)
    mapping = identity_map(parse_space(u), parse_space(v))
    summing_norm_search(mapping, gaussian_system(), samples=20_000, seed=7)
    count = len(calls) - 1
    assert count >= 3
    assert calls == [(MC_CONTROL_SAMPLES, (i,)) for i in range(count)] + [(20_000, (count,))]
    calls.clear()
    summing_norm_search(mapping, gaussian_system(), samples=500, seed=7)
    assert [samples for samples, _ in calls] == [500] * (count + 1)


def _full_sample_search(mapping, samples, seed):
    """The family search with every candidate scored on ``samples``."""
    make = (_sequence_candidates if mapping.domain.kind is SpaceKind.SEQUENCE
            else _schatten_candidates)
    families = [fam for _, fam in make(mapping.domain, 1 << 30)]
    scores = [summing_norm_lower(mapping, gaussian_system(), fam, samples=samples,
                                 seed=substream(seed, i)).value
              for i, fam in enumerate(families)]
    leader = families[scores.index(max(scores))]
    return summing_norm_lower(mapping, gaussian_system(), leader, samples=samples,
                              seed=substream(seed, len(families)))


@pytest.mark.parametrize("u,v", [("l4/3:8", "l4:8"), ("s4/3:8", "s4:8")])
def test_screening_leaves_the_search_result_unchanged(u, v):
    # ranking on fewer samples picks the same leader here, and the reported
    # draw is the leader's own: the same floats as scoring every candidate in full
    mapping = identity_map(parse_space(u), parse_space(v))
    est = summing_norm_search(mapping, gaussian_system(), samples=4096, seed=3)
    full = _full_sample_search(mapping, 4096, 3)
    assert est.stderr is not None
    assert (est.value, est.stderr) == (full.value, full.stderr)


def test_search_deterministic_given_seed():
    n = 6
    mapping = identity_map(sequence_space(2, n), sequence_space(4, n))
    a = summing_norm_search(mapping, gaussian_system(), samples=2000, seed=9)
    b = summing_norm_search(mapping, gaussian_system(), samples=2000, seed=9)
    assert a.value == b.value


# ---------------------------------------------------------------------------
# Hilbert-pivot upper bound
# ---------------------------------------------------------------------------

def test_factorization_unit_first_leg():
    n = 8
    dom, cod = sequence_space(1, n), sequence_space(2, n)
    est = pivot_upper(identity_map(dom, cod))
    assert est.certainty is Certainty.UPPER
    assert est.value == pytest.approx(np.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("space,u,v", [
    (schatten_space, 1, 2), (schatten_space, 2, 1), (schatten_space, "inf", 4),
    (schatten_space, "4/3", "inf"), (sequence_space, 1, "inf"), (sequence_space, 4, 1),
])
def test_pivot_upper_closed_form(space, u, v):
    # sqrt(flat dim) n^max(0, 1/2 - 1/u) n^max(0, 1/v - 1/2), in that order
    n = 8
    dom, cod = space(u, n), space(v, n)
    est = pivot_upper(identity_map(dom, cod))
    factor = n ** max(0.0, 0.5 - dom.exponent.recip) * n ** max(0.0, cod.exponent.recip - 0.5)
    assert est.value == math.sqrt(dom.flat_dim) * factor
    assert est.certainty is Certainty.UPPER and est.stderr is None


def test_factorization_upper_dominates_direct_mc():
    n = 8
    dom, cod = schatten_space(2, n), schatten_space(4, n)
    upper = pivot_upper(identity_map(dom, cod))
    direct = ell_norm_mc(identity_map(dom, cod), samples=4000, seed=17)
    assert upper.value >= direct.value - 3 * (direct.stderr or 0.0)


# ---------------------------------------------------------------------------
# sandwich coherence and estimator agreement
# ---------------------------------------------------------------------------

def test_sandwich_lower_below_upper():
    n = 8
    dom, cod = schatten_space(2, n), schatten_space(4, n)
    lower = ell_norm_mc(identity_map(dom, cod), samples=4000, seed=19)
    upper = pivot_upper(identity_map(dom, cod))
    assert lower.value <= upper.value * (1 + 3 * (lower.stderr or 0.0))


def test_three_estimators_agree_on_hilbert_identity():
    n = 4
    mapping = identity_map(sequence_space(2, n), sequence_space(2, n))
    ell = ell_norm_mc(mapping)
    fam = _basis(sequence_space(2, n))
    gauss = summing_norm_lower(mapping, gaussian_system(), fam)
    cs = CharacterSet(16, tuple(range(n)))
    chars = summing_norm_lower(mapping, character_system(cs), fam)
    assert ell.value == pytest.approx(2.0, rel=1e-12)
    assert gauss.value == pytest.approx(2.0, rel=1e-12)
    assert chars.value == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# K_v template
# ---------------------------------------------------------------------------

def test_kp_template_singleton():
    cs = CharacterSet(8, (1,))
    est = kp_summing_bound(cs, 4, 16, AscentConfig(seed=1, restarts=8, steps=100))
    assert est.value == pytest.approx(2.0, rel=1e-12)
    assert est.certainty is Certainty.HEURISTIC


def test_kp_template_full_set():
    cs = CharacterSet(8, tuple(range(8)))
    est = kp_summing_bound(cs, 4, 8, AscentConfig(seed=1))
    assert est.value == pytest.approx(np.sqrt(8), rel=0.05)


def test_kp_template_infinite_v():
    cs = CharacterSet(8, (1, 2))
    cfg = AscentConfig(seed=1, restarts=16, steps=200)
    est = kp_summing_bound(cs, "inf", 64, cfg)
    assert est.value == math.sqrt(2)
    assert est.value == kp_constant_lower(cs, "inf", cfg).value


def test_kp_template_rejects_small_v():
    cs = CharacterSet(8, (1,))
    with pytest.raises(ValueError):
        kp_summing_bound(cs, 2, 8, AscentConfig(seed=1))
