"""Character systems, exact moments, Lambda(p) and Sidon constants."""

import concurrent.futures
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from summinglab import (AscentConfig, Certainty, CharacterSet, SpaceKind, SpanElement,
                        UnitFamily, VectorSystem, character_system, full_character_set,
                        gaussian_system,
                        kp_constant_lower, kp_growth_profile,
                        lacunary_character_set, lp_norm_of_span,
                        parse_exponent, schatten_space, second_moment, sequence_space,
                        sidon_constant_lower, kernels, spaces, summing, systems)
from summinglab.kernels import SpectralRun, bidiagonal_schatten_norms, bidiagonal_traces
from summinglab.rng import gaussian_bidiagonal, make_rng, standard_gaussians, substream
from summinglab.spaces import lp_norm, norms_of_stack
from summinglab.systems import MC_BLOCK, MC_CONTROL_SAMPLES, _mc_second_moment

CFG = AscentConfig(seed=7)
FAST = AscentConfig(seed=7, restarts=24, steps=250)


def _charset(n, freqs):
    return CharacterSet(n, tuple(freqs))


def _basis(space, m):
    """The first m coordinate vectors (matrix units, row by row, on a Schatten space)."""
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
    gram = mat.conj().T @ mat / cs.order
    assert np.allclose(gram, np.eye(cs.size), atol=1e-10)


def test_product_group_enumeration_and_orthonormality():
    cs = CharacterSet(6, (0, 1, 5))
    assert cs.order == 6


def test_duplicate_frequencies_rejected():
    with pytest.raises(ValueError):
        _charset(8, [1, 9])  # 9 = 1 mod 8


def test_huge_full_character_set_is_refused_before_its_frequencies_exist():
    # Z_(8 * 10^6): the character-matrix refusal, the message the table
    # itself would raise, before the 8 * 10^6 frequencies are built
    order = 8_000_000
    with pytest.raises(ValueError) as table:
        systems.check_array_bytes("character matrix", (order, order), np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            full_character_set(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == str(table.value)
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("order,freqs", [
    (1, (0,)), (32, tuple(range(32))), (97, (0, 5, 96)),
    (4096, tuple(2 ** k for k in range(12))), (65536, tuple(2 ** k for k in range(16))),
    (65536, tuple(range(40)))])
def test_character_table_is_the_exp_of_its_phases(order, freqs):
    # the table gathered from the N roots of unity is, bit for bit, the exp
    # of every entry's phase at its exact integer residue
    k = np.asarray(freqs, dtype=np.int64)
    phases = np.exp(2j * np.pi * ((np.outer(np.arange(order), k) % order) / order))
    assert _charset(order, freqs).matrix().tobytes() == phases.tobytes()


def test_lacunary_set_requires_room():
    with pytest.raises(ValueError):
        lacunary_character_set(8, 5)
    cs = lacunary_character_set(64, 5)
    assert cs.freqs == (1, 2, 4, 8, 16)


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
    # on l_2 the squared norm is its own Frobenius control, so the
    # controlled mean is n up to rounding
    mc = _mc_second_moment(space, 20_000, 5)
    assert mc.certainty is Certainty.LOWER
    assert mc.value == pytest.approx(np.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("seed", [5, 23])
def test_second_moment_gaussian_linf2_is_its_closed_form(seed):
    # E max(g_1^2, g_2^2) = 1 + E|g_1^2 - g_2^2| / 2 = 1 + 2/pi; the control
    # g_1^2 + g_2^2 is not the squared norm, so a stderr is left
    mc = _mc_second_moment(sequence_space("inf", 2), 20_000, seed)
    assert mc.stderr > 0
    assert abs(mc.value - math.sqrt(1 + 2 / math.pi)) <= 3 * mc.stderr


def test_second_moment_family_too_large():
    cs = _charset(8, [0, 1])
    with pytest.raises(ValueError):
        second_moment(character_system(cs), _basis(sequence_space(2, 3), 3))


# the search's unit families on l_u^8 (count, size) and the diagonal units
# of S_u^8, which it takes as the l_u^8 basis
UNIT_FAMILIES = {"singleton": (1, 1), "ones": (1, 8), "basis": (8, 1),
                 "blocks:2": (4, 2), "blocks:4": (2, 4), "diag": (8, 1)}

CLOSED_FORM_SETS = {"lacunary": lacunary_character_set(1024, 8),
                    "full": full_character_set(8),
                    "random": _charset(97, make_rng(5).choice(97, 10, replace=False))}


@pytest.mark.parametrize("cset", sorted(CLOSED_FORM_SETS))
@pytest.mark.parametrize("u", [1, "4/3", 2, 4, "inf"])
def test_character_moment_of_unit_families_is_the_closed_form(u, cset):
    # the first m characters gathered onto each family's coordinates at
    # every point of the group, reduced by norms_of_stack and averaged
    cs = CLOSED_FORM_SETS[cset]
    for kind, (count, size) in UNIT_FAMILIES.items():
        if kind == "diag":
            fam = UnitFamily(schatten_space(u, 8), (np.arange(8) * 9)[:, None])
        else:
            fam = UnitFamily(sequence_space(u, 8), np.arange(count * size).reshape(count, size))
        est = second_moment(character_system(cs), fam)
        vals = np.zeros((cs.order, fam.space.flat_dim), dtype=np.complex128)
        vals[:, fam.elements] = cs.matrix()[:, :count, None]
        oracle = np.sqrt(np.mean(norms_of_stack(vals, fam.space) ** 2))
        assert est.certainty is Certainty.EXACT, kind
        assert est.value == pytest.approx(oracle, rel=1e-12), kind


def _one_table_average(cs, fam):
    # the group average from the whole (N, m) character table and the whole
    # (N, flat_dim) table of values
    vals = fam.synthesize(cs.matrix()[:, :fam.size])
    return lp_norm(norms_of_stack(vals, fam.space), parse_exponent(2)) / math.sqrt(cs.order)


def _comb(cs, v):
    # the comb on l_2^m that thm1 scores, as a family of l_v^m
    system = character_system(cs)
    ((_, comb),) = summing._comb_candidates(sequence_space(2, cs.size), system, cs.size)
    return system, VectorSystem(sequence_space(v, cs.size), comb.elements)


@pytest.mark.parametrize("v", [4, "inf"])
def test_blocked_comb_average_is_the_one_table_reduction(v):
    # lacunary 16 of Z_65536, thm1's largest comb: 32 blocks of 2048 points
    cs = lacunary_character_set(65536, 16)
    system, fam = _comb(cs, v)
    est = second_moment(system, fam)
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(_one_table_average(cs, fam), rel=1e-12)


def test_blocked_schatten_grid_average_is_the_one_table_reduction():
    # the complex matrices of the S_3^4 unit grid at the points of Z_10007,
    # 16 characters: 5 blocks of 2048 points, the last one partial
    cs = _charset(10007, [1, 3, 8, 20, 55, 144, 377, 987, 2584, 6765, 17, 99, 500,
                          1234, 4321, 9999])
    fam = UnitFamily(schatten_space(3, 4), np.arange(16)[:, None])
    est = second_moment(character_system(cs), fam)
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(_one_table_average(cs, fam), rel=1e-12)


def test_comb_average_builds_no_group_table():
    # the (65536, 16) complex table of characters or values is 16.8 MB; the
    # blocked average holds the N roots of unity and the N norms, and a
    # block's tables
    cs = lacunary_character_set(65536, 16)
    system, fam = _comb(cs, "inf")
    second_moment(system, fam)  # modules imported on first use are not the average's
    tracemalloc.start()
    try:
        second_moment(system, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cs.order * cs.size * 16 // 4


# matrix units in distinct rows and columns of S^5: the diagonal, the
# anti-diagonal permutation, and three units of a partial permutation
BI_DISJOINT = {"diag": [[0], [6], [12], [18], [24]],
               "anti-diag": [[4], [8], [12], [16], [20]],
               "partial": [[4], [11], [15]]}


def _unit_matrices(family, coeffs):
    """The (rows, n, n) matrices sum_i coeffs[r, i] x_i, gathered densely."""
    n = family.space.dim
    rows, cols = np.divmod(family.elements[:, 0], n)
    mats = np.zeros((len(coeffs), n, n), dtype=coeffs.dtype)
    mats[:, rows, cols] = coeffs
    return mats


def _svd_norms(mats, u):
    """Schatten u-norms, one np.linalg.svd call per matrix."""
    p = parse_exponent(u).value
    out = []
    for mat in mats:
        s = np.linalg.svd(mat, compute_uv=False)
        out.append(s[0] if p == np.inf else np.sum(s ** p) ** (1.0 / p))
    return np.array(out)


def _controlled_moment(y, controls, means):
    """(value, stderr) of (E Y)^(1/2) from the samples of Y and of its
    controls (rows of ``controls``, of exact ``means``). From
    MC_CONTROL_SAMPLES samples on, the least-squares fit of Y on
    (1, controls - means) (``np.linalg.lstsq`` on the raw samples), whose
    intercept is the controlled mean, with the residual variance over
    samples - k - 1 for k controls; where that design is rank deficient or
    the intercept not positive, the same fit without the last control.
    Under MC_CONTROL_SAMPLES samples, and with no control left, the plain
    mean and its variance over samples - 1."""
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


def _gathered_moment(family, u, samples, seed):
    """(value, stderr) of the Monte Carlo loop's Gaussian rows, gathered into
    dense matrices block by block, reduced by ``_svd_norms`` and controlled
    by the matrices' squared Frobenius norms and, where the loop takes
    E ||g||_u^u on the l_u^m that the units are a copy of as a control
    (``_controls``), by the sum of the singular values' u-th powers."""
    mats = np.concatenate([
        _unit_matrices(family, standard_gaussians(
            make_rng(substream(seed, k)), (min(MC_BLOCK, samples - start), family.size)))
        for k, start in enumerate(range(0, samples, MC_BLOCK))])
    norms, p = _svd_norms(mats, u), parse_exponent(u).value
    means = list(systems._controls(sequence_space(u, family.size))[1])
    controls = [np.sum(mats ** 2, axis=(1, 2)), norms ** p][:len(means)]
    return _controlled_moment(norms ** 2, controls, means)


@pytest.mark.parametrize("u", ["4/3", 3, 4, "inf"])
@pytest.mark.parametrize("kind", sorted(BI_DISJOINT))
def test_gaussian_moment_of_bi_disjoint_units_is_a_sequence_moment(kind, u):
    # the same coefficient rows from the same substreams, reduced as l_u^m
    # sequences: equal to the l_u^m basis call bit for bit, and within 1e-12
    # of the matrices gathered densely and reduced one SVD at a time (two
    # controls at u <= 4, over enough samples for their fit)
    samples, seed = 4 * MC_BLOCK + 5, 17
    fam = UnitFamily(schatten_space(u, 5), np.array(BI_DISJOINT[kind]))
    est = second_moment(gaussian_system(), fam, samples=samples, seed=seed)
    seq = second_moment(gaussian_system(), _basis(sequence_space(u, fam.size), fam.size),
                        samples=samples, seed=seed)
    assert (est.value, est.stderr, est.method) == (seq.value, seq.stderr, seq.method)
    value, stderr = _gathered_moment(fam, u, samples, seed)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("u", ["4/3", 3, 4, "inf"])
@pytest.mark.parametrize("kind", sorted(BI_DISJOINT))
def test_character_moment_of_bi_disjoint_units_is_the_group_average(kind, u):
    # the modulus-one closed form of the l_u^m copy against the dense
    # matrices' group average over the first m characters
    cs = _charset(12, [0, 1, 3, 4, 7, 9])
    fam = UnitFamily(schatten_space(u, 5), np.array(BI_DISJOINT[kind]))
    est = second_moment(character_system(cs), fam)
    norms = _svd_norms(_unit_matrices(fam, cs.matrix()[:, :fam.size]), u)
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(np.sqrt(np.mean(norms ** 2)), rel=1e-12)


@pytest.mark.parametrize("system", [gaussian_system(), character_system(_charset(4096, range(8)))],
                         ids=["gaussian", "characters"])
def test_other_schatten_unit_families_are_refused(system):
    # two units in row 0 are neither a sequence copy nor the full grid: one
    # line of ValueError, raised before any array above a few KiB exists
    # (a Monte Carlo slot is 10 KiB a thread here, the group's roots 64 KiB)
    fam = UnitFamily(schatten_space(4, 3), np.array([[0], [1], [5]]))

    def refusal():
        try:
            second_moment(system, fam, samples=4 * MC_BLOCK + 3, seed=19)
        except ValueError as exc:
            return str(exc)

    refusal()  # modules imported on first use are not the check's
    tracemalloc.start()
    try:
        message = refusal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message.startswith("3 matrix units of s4:3 are neither") and "\n" not in message
    assert peak < 8 * 2 ** 10


@pytest.mark.parametrize("u", [3, 4, "inf"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("system", [gaussian_system(), character_system(_charset(64, range(64)))],
                         ids=["gaussian", "characters"])
def test_every_search_family_is_integrated(system, n, u):
    # every unit family the searches build, and the full basis or grid,
    # sequence and Schatten, mapped to a codomain of each route:
    # second_moment takes it (a new candidate that needs another Schatten
    # route fails here)
    max_size = system.charset.size if system.charset else 1 << 30
    for kind in (sequence_space, schatten_space):
        candidates = (summing._sequence_candidates if kind is sequence_space
                      else summing._schatten_candidates)
        families = [fam for _, fam in candidates(kind(1, n), max_size)]
        families.append(summing._family(kind(2, n), kind(2, n).flat_dim, 1))
        for fam in families:
            est = second_moment(system, UnitFamily(kind(u, n), fam.elements), samples=8,
                                seed=3)
            assert est.value > 0


def _mc_family(space, kind):
    """The full basis or grid, the diagonal matrix units (a copy of the
    l_u^n basis), or pairs of ones on the even coordinates of a sequence
    space (twice the l_v^(n/2) basis)."""
    if kind == "diag":
        return UnitFamily(space, (np.arange(space.dim) * (space.dim + 1))[:, None])
    if kind == "blocks":
        return UnitFamily(space, np.arange(0, space.flat_dim, 2).reshape(-1, 2))
    return _basis(space, space.flat_dim)


def _mc_space(space, kind):
    """The space whose standard Gaussian vector the Monte Carlo loop
    integrates for ``_mc_family(space, kind)``: S_v^n for the full grid,
    else l_v^m for its m elements (the diagonal units span the l_v^n basis,
    and m blocks of s ones s^(1/v) times it)."""
    family = _mc_family(space, kind)
    if family.size == space.flat_dim:
        return space
    return sequence_space(space.exponent, family.size)


def _serial_second_moment(space, samples, seed):
    """The one-thread Monte Carlo loop on ``space``: draw and reduce each
    block in turn into the rows (1, Y, controls): each row's squared
    Frobenius norm, a bidiagonal's tr T^2 and tr T^3 (S_v^n draws bidiagonal
    chi entries, reduced at S_inf by a one-block SpectralRun), or ||g||_v^v
    where that has a closed-form mean; shifted as the loop shifts them,
    summed block by block in the loop's own float order and fitted by
    ``systems._controlled_moment``."""
    v = space.exponent.value
    shift, means = systems._controls(space)
    totals = 0.0
    for index, start in enumerate(range(0, samples, MC_BLOCK)):
        count = min(MC_BLOCK, samples - start)
        rng = make_rng(substream(seed, index))
        block = np.empty((2 + len(means), count))
        block[0] = 1.0
        if space.kind is SpaceKind.SCHATTEN:
            n = space.dim
            chis = gaussian_bidiagonal(rng, count, n)
            block[2] = np.einsum("ij,ij->i", chis, chis)
            block[3:] = bidiagonal_traces(chis[:, :n], chis[:, n:])
            if v == 4:
                block[1] = np.sqrt(block[3])
            elif v == np.inf:
                run = SpectralRun(n, count)
                run.append(chis[:, :n], chis[:, n:], np.empty((2, count)))
                block[1] = run.norms() ** 2
            else:
                block[1] = bidiagonal_schatten_norms(chis[:, :n], chis[:, n:], v) ** 2
        else:
            rows = standard_gaussians(rng, (count, space.dim))
            block[2] = np.einsum("ij,ij->i", rows, rows)
            block[1] = norms_of_stack(rows, space) ** 2
            if len(means) == 2:
                block[3] = block[1] ** (v / 2)
        block[1] -= shift
        block[2:] -= means[:, None]
        totals = totals + np.einsum("ik,jk->ij", block, block)
    mean, stderr = systems._controlled_moment(totals, shift)
    value = float(np.sqrt(mean))
    return value, float(stderr / (2.0 * value)) if value > 0 else 0.0


# Samples in blocks: a partial last block of one row (33 blocks, odd, so
# not a multiple of the width), under one block, 97 blocks on four threads,
# exactly one block, a last block of half the rows, and one thread. The
# S_inf^16 grid draws bidiagonals reduced in runs of several blocks (11,
# 6 and 3 at widths 1, 2 and 4) whose last run is short and ends in a block
# of three rows.
@pytest.mark.parametrize("space,family,samples,width", [
    (schatten_space(4, 6), "basis", 32 * MC_BLOCK + 1, 2),
    (schatten_space("inf", 6), "basis", 32 * MC_BLOCK + 1, 2),
    (schatten_space("4/3", 6), "basis", 32 * MC_BLOCK + 1, 2),
    (sequence_space("inf", 6), "basis", 32 * MC_BLOCK + 1, 2),
    (schatten_space(4, 6), "grid", 32 * MC_BLOCK + 1, 2),
    (schatten_space(4, 6), "grid", 5, 2),
    (schatten_space("inf", 6), "basis", 96 * MC_BLOCK + 7, 4),
    (schatten_space("inf", 6), "basis", MC_BLOCK, 2),
    (schatten_space(4, 6), "basis", MC_BLOCK + MC_BLOCK // 2, 2),
    (sequence_space(4, 12), "blocks", 32 * MC_BLOCK + 1, 2),
    (schatten_space("inf", 6), "basis", 32 * MC_BLOCK + 1, 1),
    (schatten_space("inf", 16), "basis", 22 * MC_BLOCK + 3, 1),
    (schatten_space("inf", 16), "basis", 22 * MC_BLOCK + 3, 2),
    (schatten_space("inf", 16), "basis", 22 * MC_BLOCK + 3, 4),
], ids=["s4", "sinf", "s4-3-svd", "linf", "s4-grid", "s4-grid-one-chunk",
        "sinf-4-threads", "sinf-one-chunk-2-threads", "s4-last-chunk-under-a-block",
        "l4-blocks", "sinf-1-thread", "sinf16-runs-1-thread", "sinf16-runs-2-threads",
        "sinf16-runs-4-threads"])
def test_pooled_mc_loop_equals_serial_loop(monkeypatch, space, family, samples, width):
    # one pool task per run of MC_BLOCK-row blocks, sums in block order:
    # the same floats as the one-thread loop, value and stderr, also with
    # more threads than cores and a short switch interval
    monkeypatch.setattr(systems, "MC_WIDTH", width)
    space = _mc_space(space, family)
    if space.dim == 16:
        runs = {1: 11, 2: 6, 4: 3}[width]
        assert systems._mc_width(space, samples) == (width, runs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = _mc_second_moment(space, samples, 13)
    finally:
        sys.setswitchinterval(interval)
    value, stderr = _serial_second_moment(space, samples, 13)
    assert (est.value, est.stderr) == (value, stderr)


def test_block_family_is_the_scaled_basis_bit_for_bit():
    # three blocks of two ones on l_4^12 are 2^(1/4) times the l_4^3 basis:
    # second_moment scales the loop's value and stderr on l_4^3, the same
    # floats as that call, also over a partial last block
    samples, seed = 8 * MC_BLOCK + 5, 13
    family = _mc_family(sequence_space(4, 12), "blocks")
    assert family.elements.shape == (3, 2)
    est = second_moment(gaussian_system(), family, samples=samples, seed=seed)
    basis = _mc_second_moment(sequence_space(4, 3), samples, seed)
    scale = 2.0 ** (1 / 4)
    assert (est.value, est.stderr) == (scale * basis.value, scale * basis.stderr)
    assert est.method == basis.method == "mc-gaussian"


@pytest.mark.parametrize("space,elements,controls", [
    (sequence_space(4, 12), "blocks", 2),
    (sequence_space(3, 12), "basis", 2),
    (schatten_space(4, 6), "basis", 3),
    (schatten_space("inf", 5), "diag", 1),
    (schatten_space("inf", 16), "basis", 3),
    (schatten_space("inf", 6), "basis", 3),
    (sequence_space("inf", 12), "basis", 1),
    (schatten_space(3, 6), "basis", 3),
], ids=["l4-blocks", "l3-basis", "s4-bidiagonal", "sequence-copy", "sinf-run",
        "sinf-6", "linf-basis", "s3-svd"])
def test_control_never_widens_the_stderr(monkeypatch, space, elements, controls):
    # on every route, the controlled stderr of the mean is positive and at
    # most the plain one, sqrt(Var(Y) / (samples - 1) / samples), from the
    # same sums; where there are more controls than C (||x||_v^v on l_4 and
    # l_3; tr T^2 and tr T^3 on the full grid at S_4, S_inf and
    # S_3), their fit's stderr is below the fit on C alone, from the first
    # three rows of the same sums; l_inf and S_inf sub-families take C alone
    seen = []

    def spy(moments, shift=0.0):
        out = controlled(moments, shift)
        seen.append((moments, shift, out))
        return out

    controlled = systems._controlled_moment
    monkeypatch.setattr(systems, "_controlled_moment", spy)
    family = _mc_family(space, elements)
    second_moment(gaussian_system(), family, samples=8 * MC_BLOCK + 5, seed=7)
    (moments, shift, (_, stderr)), = seen
    assert moments.shape == (controls + 2,) * 2
    samples, s_y, s_yy = moments[0, 0], moments[0, 1], moments[1, 1]
    plain = math.sqrt((s_yy / samples - (s_y / samples) ** 2) / (samples - 1))
    one = controlled(moments[:3, :3], shift)[1]
    assert 0 < stderr <= one <= plain
    if controls > 1:
        assert stderr < one


def _moments(y, controls, shift, means):
    """The moments ``_block_moments`` adds, from whole sample arrays."""
    rows = np.array([np.ones_like(y), y - shift] + [b - mu for b, mu in zip(controls, means)])
    return np.einsum("ik,jk->ij", rows, rows)


def test_controlled_moment_falls_back_to_the_plain_mean():
    # the plain mean and its variance over samples - 1: under
    # MC_CONTROL_SAMPLES samples however well a control fits, for a constant
    # control, and where the corrected mean is not positive; otherwise the
    # fit of Y = C / 10 is exact and leaves no residual
    y = np.random.default_rng(5).random(MC_CONTROL_SAMPLES) + 1.0

    def moment(c, mu, samples=MC_CONTROL_SAMPLES):
        return systems._controlled_moment(_moments(y[:samples], [c[:samples]], 0.0, [mu]))

    for samples in (2, 3, MC_CONTROL_SAMPLES - 1):
        plain = (y[:samples].mean(), math.sqrt(y[:samples].var(ddof=1) / samples))
        assert moment(10 * y, 10 * y.mean(), samples) == pytest.approx(plain, rel=1e-12)
    plain = (y.mean(), math.sqrt(y.var(ddof=1) / y.size))
    assert moment(np.full(y.size, 5.0), 5.0) == pytest.approx(plain, rel=1e-12)
    assert moment(10 * y, -1e6) == pytest.approx(plain, rel=1e-12)
    assert moment(10 * y, 15.0) == pytest.approx((1.5, 0.0), abs=1e-12)


def test_controls_are_dropped_until_the_fit_holds():
    # the fit drops its last control until it holds, on the same moments:
    # under MC_CONTROL_SAMPLES samples (3, and one short of it) none is
    # fitted; at MC_CONTROL_SAMPLES samples of controls that are not lines
    # in each other all three are, each narrowing the stderr; where the last
    # is a line in the others (positive definite only by rounding), and
    # where its known mean turns the corrected mean negative, the fit is
    # the one on the first two
    rng = np.random.default_rng(3)
    g = rng.standard_normal((MC_CONTROL_SAMPLES, 4))
    y = np.sum(g ** 4, axis=1) ** 0.5
    c, z, w = np.sum(g ** 2, axis=1), np.sum(g ** 4, axis=1), np.sum(g ** 6, axis=1)
    shift, means = 12.0 ** 0.5, [4.0, 12.0, 60.0]

    def fits(last, samples=MC_CONTROL_SAMPLES, mu_last=means[2]):
        moments = _moments(y[:samples], [c[:samples], z[:samples], last[:samples]], shift,
                           means[:2] + [mu_last])
        return [systems._controlled_moment(moments[:k + 2, :k + 2], shift) for k in range(4)]

    for samples in (3, MC_CONTROL_SAMPLES - 1):
        plain, one, two, three = fits(w, samples)
        assert one == two == three == plain
    plain, one, two, three = fits(w)
    assert three[1] < two[1] < one[1] < plain[1]
    assert fits(0.1 * c - 0.2 * z + 0.3, mu_last=0.1 * 4.0 - 0.2 * 12.0 + 0.3)[3] == two
    design = np.column_stack([np.ones(c.size), c, z, w])
    beta_w = np.linalg.lstsq(design, y, rcond=None)[0][3]
    assert fits(w, mu_last=-math.copysign(1e9, beta_w))[3] == two and two[0] > 0


def test_three_control_fit_is_the_least_squares_fit():
    # on the S_inf^6 grid's bidiagonal draws, the loop's value and stderr
    # against np.linalg.lstsq on (1, C, tr T^2, tr T^3), within 1e-12
    space, samples, seed = schatten_space("inf", 6), 4 * MC_BLOCK + 7, 23
    est = second_moment(gaussian_system(), _mc_family(space, "basis"), samples=samples,
                        seed=seed)
    chis = np.concatenate([gaussian_bidiagonal(make_rng(substream(seed, k)),
                                               min(MC_BLOCK, samples - start), 6)
                           for k, start in enumerate(range(0, samples, MC_BLOCK))])
    mats = np.zeros((samples, 6, 6))
    mats[:, np.arange(6), np.arange(6)] = chis[:, :6]
    mats[:, np.arange(5), np.arange(1, 6)] = chis[:, 6:]
    gram = mats.transpose(0, 2, 1) @ mats
    controls = [np.trace(np.linalg.matrix_power(gram, k), axis1=1, axis2=2) for k in (1, 2, 3)]
    value, stderr = _controlled_moment(_svd_norms(mats, "inf") ** 2, controls,
                                       systems._trace_means(6))
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("n,means", [(1, (1, 3, 15)), (2, (4, 20, 144))])
def test_trace_means_of_small_wisharts(n, means):
    assert systems._trace_means(n) == means


@pytest.mark.parametrize("n", [3, 8])
def test_trace_means_are_the_bidiagonal_draws_means(n):
    # E tr T, E tr T^2 and E tr T^3 of T = B^T B against the loop's
    # bidiagonal draws (40 000, fixed seed), each within 4 stderr; the
    # kernel's traces are those of the dense products
    chis = gaussian_bidiagonal(make_rng(37), 40_000, n)
    traces = bidiagonal_traces(chis[:, :n], chis[:, n:])
    mats = np.zeros((len(chis), n, n))
    mats[:, np.arange(n), np.arange(n)] = chis[:, :n]
    mats[:, np.arange(n - 1), np.arange(1, n)] = chis[:, n:]
    gram = mats.transpose(0, 2, 1) @ mats
    for k, draws in enumerate((np.sum(chis ** 2, axis=1), *traces), 1):
        assert draws == pytest.approx(np.trace(np.linalg.matrix_power(gram, k), axis1=1,
                                               axis2=2), rel=1e-12)
        mean = systems._trace_means(n)[k - 1]
        assert abs(mean - draws.mean()) <= 4 * draws.std() / math.sqrt(draws.size)


@pytest.mark.parametrize("v", [1, "4/3", 3, 4, 6])
def test_power_mean_of_sequence_families(v):
    # E|g|^v against the mean of 400 000 fixed-seed draws of |g|^v, within 4
    # stderr ((v - 1)!! exactly at even v); on l_v^m the loop's controls are
    # C, of mean m, and up to v = 4 Z = ||g||_v^v, of mean m E|g|^v, by whose
    # power 2/v Y is shifted; above v = 4 C alone, and no shift
    p = parse_exponent(v).value
    draws = np.abs(np.random.default_rng(23).standard_normal(400_000)) ** p
    moment = systems._gaussian_abs_moment(p)
    assert abs(moment - draws.mean()) <= 4 * draws.std() / math.sqrt(draws.size)
    if p % 2 == 0:
        assert moment == math.prod(range(1, int(p), 2))
    for m in (5, 12):
        shift, means = systems._controls(sequence_space(v, m))
        if p <= 4:
            assert means.tolist() == [m, m * moment] and shift == (m * moment) ** (2 / p)
        else:
            assert means.tolist() == [m] and shift == 0.0
    shift, means = systems._controls(sequence_space(4, 4))
    assert means.tolist() == [4, 12] and shift == 12 ** 0.5
    shift, means = systems._controls(sequence_space("inf", 5))
    assert means.tolist() == [5] and shift == 0.0


@pytest.mark.parametrize("n,elements,mean", [
    (4, [[0], [5], [10], [15]], 12),
    (3, "grid", 63),
    (8, "grid", 1088),
], ids=["diagonal", "grid-3", "grid-8"])
def test_power_mean_of_schatten_families_at_s4(n, elements, mean):
    # E ||X||_4^4 = E tr (X X^T)^2 of the two Schatten shapes the loop takes,
    # against its mean over fixed-seed draws, within 4 stderr: diagonal units
    # as the Z control of their l_4^n copy (3n), over Gaussian units
    # gathered densely, and S_4^n, E tr T^2 = n^2 (2n + 1) (``_trace_means``),
    # over the loop's bidiagonal draws; S_v^n's controls are its traces at
    # every v, with no power control
    space = schatten_space(4, n)
    rng = make_rng(31)
    if elements == "grid":
        assert systems._trace_means(n)[1] == mean
        for v in (3, 4):
            means = systems._controls(schatten_space(v, n))[1]
            assert means.tolist() == list(systems._trace_means(n))
        chis = gaussian_bidiagonal(rng, 40_000, n)
        mats = np.zeros((len(chis), n, n))
        mats[:, np.arange(n), np.arange(n)] = chis[:, :n]
        mats[:, np.arange(n - 1), np.arange(1, n)] = chis[:, n:]
    else:
        family = UnitFamily(space, np.array(elements))
        assert systems._controls(spaces.sequence_copy(family).space)[1][1] == mean
        mats = _unit_matrices(family, standard_gaussians(rng, (200_000, family.size)))
    w = mats @ mats.transpose(0, 2, 1)
    z = np.sum(w * w, axis=(1, 2))
    assert abs(mean - z.mean()) <= 4 * z.std() / math.sqrt(z.size)


def test_mc_width_is_what_fits_under_the_cap(monkeypatch):
    # a thread of the S_3 grid materializes its bidiagonal block for the SVD:
    # at S_3^64 that is 541 rows of 32 KiB (17.7 MB), so all sixteen threads
    # fit under the 2 GiB cap; at S_3^240 it is 519 rows of 450 KiB (239 MB),
    # and eight threads fit, nine do not, whatever the CPU count (such
    # working sets are far above MC_RUN_BYTES, so each task takes one block)
    space = schatten_space(3, 64)
    monkeypatch.setattr(systems, "MC_WIDTH", 16)
    assert systems._mc_working_set(space) == (541, 4096)
    assert systems._mc_width(space, 320 * MC_BLOCK) == (16, 1)
    assert systems._mc_working_set(schatten_space(3, 240)) == (519, 240 ** 2)
    assert systems._mc_width(schatten_space(3, 240), 320 * MC_BLOCK) == (8, 1)
    # never more threads than blocks
    assert systems._mc_width(space, 5 * MC_BLOCK) == (5, 1)
    assert systems._mc_width(space, MC_BLOCK) == (1, 1)
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    assert systems._mc_width(space, 320 * MC_BLOCK) == (2, 1)


def test_mc_runs_are_what_fits_under_the_run_budget(monkeypatch):
    # a task takes as many blocks as keep its working set within
    # MC_RUN_BYTES, and at most a 2 * width-th of them: at S_inf^64 four
    # blocks (1982 rows of 127 entries, 2.01 MB; five would be 2.31 MB),
    # at S_inf^16 eleven; a working set that does not grow with the run
    # (a sequence space's basis) takes the 2 * width-th whenever one block
    # fits (one that does not takes one block: the test above)
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    sinf64, sinf16 = schatten_space("inf", 64), schatten_space("inf", 16)
    assert systems._mc_width(sinf64, 20_000) == (2, 4)
    assert systems._mc_working_set(sinf64, 4) == (1982, 127)
    assert systems._mc_working_set(sinf64, 5)[0] * 127 * 8 > systems.MC_RUN_BYTES
    assert systems._mc_width(sinf16, 20_000) == (2, 11)
    assert systems._mc_width(sinf16, 9 * MC_BLOCK) == (2, 3)
    assert systems._mc_width(sequence_space("inf", 16), 100_000) == (2, 98)


def test_mc_working_set_of_the_bidiagonal_route():
    # the full grid draws rows of 2n - 1 chi entries: at S_4 a block of
    # them, its five moment rows and the traces' 3n + 128 entries per matrix
    # (912 rows of 127 at n = 64); at S_inf a block of them, 2n + 6 entries
    # per matrix of the run (its tridiagonal, peak, bound and moment rows),
    # and the larger of 3n + 128 per matrix of the block and what the
    # iteration holds (1172 rows of 127 for a one-block run at n = 64; 931
    # rows of 1023, 7.6 MB, at n = 512, where the dense block alone would be
    # 537 MB); any other exponent materializes the block, in rows of n^2, and
    # holds one block more for the SVD's copy of it, and the traces'
    # temporaries
    assert systems._mc_working_set(schatten_space("inf", 64)) == (1172, 127)
    assert systems._mc_working_set(schatten_space("inf", 64), 4) == (1982, 127)
    assert systems._mc_working_set(schatten_space(4, 64)) == (912, 127)
    assert systems._mc_working_set(schatten_space(4, 64), 4) == (912, 127)
    assert systems._mc_working_set(schatten_space("inf", 512)) == (931, 1023)
    assert systems._mc_working_set(schatten_space(3, 64)) == (541, 4096)
    # so one thread of the S_3^520 grid holds 515 rows of 270400 (1.04 GiB),
    # under the cap
    assert systems._mc_working_set(schatten_space(3, 520)) == (515, 520 ** 2)
    assert systems._mc_width(schatten_space(3, 520), 4096) == (1, 1)
    # a sequence space's full basis draws its rows
    assert systems._mc_working_set(sequence_space("inf", 64)) == (788, 64)


@pytest.mark.parametrize("space,family,samples,threads", [
    (schatten_space("inf", 64), "basis", 17 * MC_BLOCK + 1, 2),
    (sequence_space("inf", 512), "blocks", 32 * MC_BLOCK + 1, 2),
    (schatten_space(4, 64), "basis", 17 * MC_BLOCK + 1, 2),
    (schatten_space("inf", 2), "basis", 17 * MC_BLOCK + 1, 2),
    (schatten_space(3, 16), "basis", 17 * MC_BLOCK + 1, 2),
    (schatten_space(3, 32), "basis", 5 * MC_BLOCK + 1, 2),
    (schatten_space(3, 64), "basis", 5 * MC_BLOCK + 1, 2),
    (schatten_space("inf", 16), "basis", 52 * MC_BLOCK + 1, 2),
    (sequence_space(4, 32), "basis", 32 * MC_BLOCK + 1, 1),
    (sequence_space(4, 32), "basis", 32 * MC_BLOCK + 1, 2),
], ids=["sinf64-basis", "linf-blocks", "s4-64-basis", "sinf2-basis",
        "s3-16-basis", "s3-32-basis", "s3-64-basis", "sinf16-long-runs",
        "l4-32-1-thread", "l4-32-2-threads"])
def test_mc_loop_peak_stays_under_its_projection(monkeypatch, space, family, samples, threads):
    # what numpy allocates during the loop, on every thread, stays under the
    # working set _mc_width checks against the cap for its run length (11
    # blocks a task for the S_inf^16 grid) with numpy's staging buffers
    # (``_STAGED`` entries a thread, in whole rows), and holds at least one
    # block of the rows the route draws or reduces. On l_4^32 the staging
    # buffer of the norm's ``mags / peak`` (8192 entries) is a third of a
    # block's working set, above what the block's own rows leave spare
    monkeypatch.setattr(systems, "MC_WIDTH", threads)
    space = _mc_space(space, family)
    width, run = systems._mc_width(space, samples)
    rows, length = systems._mc_working_set(space, run)
    rows += -(-systems._STAGED // length)
    _mc_second_moment(space, 2, 5)  # imports on first use are not the loop's
    tracemalloc.start()
    try:
        _mc_second_moment(space, samples, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert width == threads
    assert MC_BLOCK * length * 8 <= peak <= width * rows * length * 8


def test_full_grid_gather_is_the_identity():
    # the full grid is the one unit family synthesized; any other raises
    space = schatten_space(4, 3)
    coeffs = np.arange(18.0).reshape(2, 9)
    assert UnitFamily(space, np.arange(9)[:, None]).synthesize(coeffs) is coeffs
    with pytest.raises(ValueError, match="full basis or grid"):
        UnitFamily(space, np.array([[0], [4], [8]])).synthesize(coeffs[:, :3])


def _fail_reduction(monkeypatch, at_call):
    """Make the at_call-th norm reduction off the main thread raise a
    RuntimeWarning (an error under the test settings); returns the list
    that the raised exception is put in."""
    raised = []
    calls = itertools.count()

    def norms(rows, space):
        if threading.current_thread() is not threading.main_thread() and next(calls) == at_call:
            try:
                warnings.warn("overflow in the reduction", RuntimeWarning)
            except RuntimeWarning as exc:
                raised.append(exc)
                raise
        return norms_of_stack(rows, space)

    monkeypatch.setattr(systems, "norms_of_stack", norms)
    return raised


@pytest.mark.parametrize("at_call", [0, 40], ids=["first-block", "late-block"])
def test_pool_worker_error_ends_the_call(monkeypatch, at_call):
    # a RuntimeWarning raised while a pool thread reduces a block, the first
    # or the 41st of 64 (runs of 16, all four tasks in flight, every slot
    # reused), is the exception the caller sees; no task waits on a slot,
    # and every pool thread has ended when the call returns. The call runs in a thread
    # joined with a deadline, so a hang fails this test alone.
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    raised = _fail_reduction(monkeypatch, at_call)
    caught = []

    def call():
        try:
            _mc_second_moment(sequence_space("inf", 4), 64 * MC_BLOCK, 3)
        except RuntimeWarning as exc:
            caught.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the Monte Carlo call hung after a pool error"
    assert raised and len(caught) == 1 and caught[0] is raised[0]
    assert threading.active_count() == before


def test_mc_loop_keeps_at_most_two_blocks_per_thread_in_flight(monkeypatch):
    # a task is in flight from its submit until the caller takes its sums;
    # a loop that submitted every task at once (as Executor.map does) would
    # have all 64 in flight, and hold all their futures. The l_inf^512
    # basis's working set is above MC_RUN_BYTES, so each task is one block
    in_flight = set()
    peak = [0]

    class Taken:
        def __init__(self, future):
            self.future = future

        def result(self, timeout=None):
            in_flight.discard(self)
            return self.future.result(timeout)

        def __getattr__(self, name):
            return getattr(self.future, name)

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            task = Taken(super().submit(fn, *args, **kwargs))
            in_flight.add(task)
            peak[0] = max(peak[0], len(in_flight))
            return task

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    space = sequence_space("inf", 512)
    assert systems._mc_width(space, 64 * MC_BLOCK) == (2, 1)
    est = _mc_second_moment(space, 64 * MC_BLOCK, 3)
    assert not in_flight
    assert 1 <= peak[0] <= 2 * 2  # 2 * width
    assert (est.value, est.stderr) == _serial_second_moment(space, 64 * MC_BLOCK, 3)


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
        kp_constant_lower(CharacterSet(8, ()), 4, CFG)


def test_kp_inf_full_set():
    # K_inf = sqrt(m) for any m characters, attained at a = 1, x = 0; the
    # full group Z_8 and kp-profile's lacunary set of 12 on Z_4096
    for cs in (full_character_set(8), lacunary_character_set(4096, 12)):
        est = kp_constant_lower(cs, "inf", CFG)
        assert est.value == math.sqrt(cs.size)
        assert est.certainty is Certainty.LOWER
        f = SpanElement(cs, est.witness)
        attained = lp_norm_of_span(f, "inf") / lp_norm_of_span(f, 2)
        assert attained == pytest.approx(est.value, rel=1e-12)


def test_kp_inf_builds_no_character_matrix(monkeypatch):
    # three characters of Z_(2^40): the matrix alone would take 4.92e4 GiB
    def touched(*args, **kwargs):
        raise AssertionError("built the character matrix or ran an ascent")

    for name in ("_character_matrix", "lp_ascent"):
        monkeypatch.setattr(systems, name, touched)
    est = kp_constant_lower(_charset(2 ** 40, [1, 2, 5]), "inf", CFG)
    assert est.value == math.sqrt(3)


def test_kp_finite_p_at_most_k_inf():
    # ||f||_p <= ||f||_inf on a probability space, so K_p <= K_inf = sqrt(m)
    rng = np.random.default_rng(6)
    for m in (2, 3, 5, 8):
        cs = _charset(32, rng.choice(32, size=m, replace=False).tolist())
        ceiling = kp_constant_lower(cs, "inf", FAST).value
        for p in (3, 4, 8):
            assert kp_constant_lower(cs, p, FAST).value <= ceiling


# ---------------------------------------------------------------------------
# Sidon constants
# ---------------------------------------------------------------------------

def test_sidon_singleton():
    est = sidon_constant_lower(_charset(8, [2]), CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_sidon_always_at_least_one():
    # with no steps the singleton start decides, and at some x of Z_16 and
    # Z_1000 |gamma_k(x)| rounds above 1; the value is floored at 1 exactly
    for cs in (_charset(16, [1, 2]), _charset(1000, [3, 10])):
        assert sidon_constant_lower(cs, AscentConfig(seed=1, restarts=1, steps=0)).value >= 1.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        freqs = rng.choice(16, size=3, replace=False)
        est = sidon_constant_lower(_charset(16, freqs.tolist()), FAST)
        assert est.value >= 1.0


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
# ascent working set
# ---------------------------------------------------------------------------

# the dense route: at p = 4 these lacunary sets take their sumsets
_ASCENTS = {"kp": lambda cs, cfg: kp_constant_lower(cs, 3, cfg),
            "sidon": sidon_constant_lower}


@pytest.mark.parametrize("ascent", sorted(_ASCENTS))
def test_ascent_peak_stays_under_its_projection(monkeypatch, ascent):
    # what numpy allocates in one ascent, the character matrix built included,
    # stays under the working-set projection and under the matrix plus the
    # blocked scratch: two complex entries a restart per point of a block
    # (its values, and the objective's magnitudes or squares and weights)
    # and numpy's staging buffers for one broadcasting operation (8192
    # entries of two complex operands). The working-set check still refuses
    # a cap just under the peak.
    run = _ASCENTS[ascent]
    cs = lacunary_character_set(4096, 8)
    cfg = AscentConfig(seed=3, restarts=16, steps=30)
    run(cs, cfg)  # modules imported on first use are not the ascent's
    systems._character_matrix.cache_clear()
    tracemalloc.start()
    try:
        run(cs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = cs.order * 16
    assert peak <= (cs.size + 3 * cfg.restarts) * row
    width = min(cs.order, kernels.POINT_BLOCK)
    assert peak <= cs.size * row + (2 * cfg.restarts * width + 2 * 8192) * 16
    monkeypatch.setattr(systems, "MAX_ARRAY_BYTES", peak - 1)
    with pytest.raises(ValueError, match="ascent working set"):
        run(cs, cfg)


@pytest.mark.parametrize("ascent", sorted(_ASCENTS))
def test_ascent_refused_before_the_matrix_or_the_kernel(monkeypatch, ascent):
    # a cap that holds the 512 KiB matrix but not the ascent's working set
    def touched(*args, **kwargs):
        raise AssertionError("touched the matrix or the kernel before the working-set check")

    for name in ("_character_matrix", "lp_ascent", "ratio_ascent"):
        monkeypatch.setattr(systems, name, touched)
    monkeypatch.setattr(systems, "MAX_ARRAY_BYTES", 2 ** 20)
    with pytest.raises(ValueError, match=r"ascent working set of shape \(62, 4096\)"):
        _ASCENTS[ascent](lacunary_character_set(4096, 8), AscentConfig(seed=3, restarts=16))


def test_sumset_ascent_peak_stays_under_its_projection(monkeypatch):
    # what numpy allocates in an ascent on the sumsets holds every level and
    # the largest step's products and gather per restart, and the
    # working-set check refuses a cap just under it, and one 128 KiB above
    # it: the projection leaves room for a ufunc's staging buffers
    cs = lacunary_character_set(4096, 12)
    cfg = AscentConfig(seed=3, restarts=16, steps=30)
    assert kp_constant_lower(cs, 6, cfg).method == "projected-ascent[sumsets]"
    tracemalloc.start()
    try:
        kp_constant_lower(cs, 6, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gathers = systems._sumsets(cs, 3, cfg.restarts).gathers
    levels = cs.size + sum(g.shape[1] for g in gathers)
    step = gathers[0].shape[1] * cs.size + 1 + gathers[1].size
    assert peak >= cfg.restarts * (levels + step) * 16
    for cap in (peak - 1, peak + 128 * 1024):
        monkeypatch.setattr(systems, "MAX_ARRAY_BYTES", cap)
        with pytest.raises(ValueError, match="ascent working set"):
            kp_constant_lower(cs, 6, cfg)


def test_sumset_tables_refused_before_they_are_made(monkeypatch):
    # 400 characters of Z_(2^40) at p = 4: the first table, 400 x 400
    # indices, is 1.22 MiB; under a 1 MiB cap it is refused in one line
    # before any table, matrix or ascent
    def touched(*args, **kwargs):
        raise AssertionError("built the character matrix or ran an ascent")

    for name in ("_character_matrix", "lp_ascent"):
        monkeypatch.setattr(systems, name, touched)
    monkeypatch.setattr(systems, "MAX_ARRAY_BYTES", 2 ** 20)
    cs = _charset(2 ** 40, range(1, 401))
    cfg = AscentConfig(seed=1, restarts=4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^sumset table of shape \(400, 400\) would take "
                                             r"[^\n]* GiB cap$"):
            kp_constant_lower(cs, 4, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 400 * 8 // 4


# ---------------------------------------------------------------------------
# the even-p route rule
# ---------------------------------------------------------------------------

def test_sumsets_are_taken_where_they_form_at_most_n_products():
    # sum_(i<k) |L_i| m against N = 4096: 144 (p = 4), 1080 (p = 6) and
    # 4668 (p = 8) for kp-profile's lacunary set of 12
    lac = lacunary_character_set(4096, 12)
    assert systems._sumsets(lac, 2, 64) is not None
    assert systems._sumsets(lac, 3, 64) is not None
    assert systems._sumsets(lac, 4, 64) is None
    assert systems._sumsets(full_character_set(256), 2, 64) is None  # 256^2 > 256
    fast = AscentConfig(seed=2, restarts=2, steps=5)
    sumsets, points = "projected-ascent[sumsets]", "projected-ascent"
    for cs, p, method in ((lac, 4, sumsets), (lac, 6, sumsets), (lac, 8, points),
                          (full_character_set(256), 4, points), (lac, 3, points),
                          (lac, "5/2", points)):
        assert kp_constant_lower(cs, p, fast).method == method
    # p = 98 is stored as the reciprocal 1 / 98, whose inverse is not 98
    pair = _charset(2 ** 40, [1, 2])
    assert kp_constant_lower(pair, 98, fast).method == "projected-ascent[sumsets]"
    # a direction's squared norm is bounded by m^p = 2^p: finite up to p = 1022
    assert systems._sumsets(pair, 511, 2) is not None
    assert systems._sumsets(pair, 512, 2) is None


def test_kp_even_p_builds_no_character_matrix(monkeypatch):
    # three characters of Z_(2^40) at p = 4; on Z_64 the same sums arise
    # (none wraps), and there the ratio is the dense group average's
    small = kp_constant_lower(_charset(64, [1, 2, 5]), 4, CFG)
    f = SpanElement(_charset(64, [1, 2, 5]), small.witness)
    assert small.value == pytest.approx(lp_norm_of_span(f, 4) / lp_norm_of_span(f, 2), rel=1e-12)

    def touched(*args, **kwargs):
        raise AssertionError("built the character matrix")

    monkeypatch.setattr(systems, "_character_matrix", touched)
    est = kp_constant_lower(_charset(2 ** 40, [1, 2, 5]), 4, CFG)
    assert 1.0 <= est.value <= math.sqrt(3)
    assert est.value == pytest.approx(small.value, rel=1e-12)
    assert est.certainty is Certainty.LOWER


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
