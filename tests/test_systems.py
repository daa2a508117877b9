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
                        UnitFamily, character_system, full_character_set,
                        gaussian_system,
                        kp_constant_lower, kp_growth_profile,
                        lacunary_character_set, lp_norm_of_span,
                        parse_exponent, schatten_space, second_moment, sequence_space,
                        sidon_constant_lower, kernels, spaces, systems)
from summinglab.kernels import bidiagonal_schatten_norms
from summinglab.rng import gaussian_bidiagonal, make_rng, standard_gaussians, substream
from summinglab.spaces import norms_of_stack
from summinglab.systems import MC_BLOCK, _mc_second_moment

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
    mc = _mc_second_moment(_basis(space, n), 20_000, 5)
    assert mc.certainty is Certainty.LOWER
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.value - np.sqrt(n)) <= 3 * mc.stderr


def test_second_moment_family_too_large():
    cs = _charset(8, [0, 1])
    with pytest.raises(ValueError):
        second_moment(character_system(cs), _basis(sequence_space(2, 3), 3))


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


def _gathered_moment(family, u, samples, seed):
    """(value, stderr) of the Monte Carlo loop's Gaussian rows, gathered into
    dense matrices block by block and reduced by ``_svd_norms``."""
    q = np.concatenate([
        _svd_norms(_unit_matrices(family, standard_gaussians(
            make_rng(substream(seed, k)), (min(MC_BLOCK, samples - start), family.size))), u) ** 2
        for k, start in enumerate(range(0, samples, MC_BLOCK))])
    value = np.sqrt(q.mean())
    return value, np.sqrt(max((q * q).mean() - q.mean() ** 2, 0.0) / samples) / (2 * value)


@pytest.mark.parametrize("u", ["4/3", 3, 4, "inf"])
@pytest.mark.parametrize("kind", sorted(BI_DISJOINT))
def test_gaussian_moment_of_bi_disjoint_units_is_a_sequence_moment(kind, u):
    # the same coefficient rows from the same substreams, reduced as l_u^m
    # sequences: equal to the l_u^m basis call bit for bit, and within 1e-12
    # of the matrices gathered densely and reduced one SVD at a time
    samples, seed = 3 * MC_BLOCK + 5, 17
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
    # the exact group average of the first m characters, as l_u^m
    # sequences, against the dense matrices' average
    cs = _charset(12, [0, 1, 3, 4, 7, 9])
    fam = UnitFamily(schatten_space(u, 5), np.array(BI_DISJOINT[kind]))
    est = second_moment(character_system(cs), fam)
    norms = _svd_norms(_unit_matrices(fam, cs.matrix()[:, :fam.size]), u)
    assert est.certainty is Certainty.EXACT
    assert est.value == pytest.approx(np.sqrt(np.mean(norms ** 2)), rel=1e-12)


def test_units_sharing_a_row_reach_the_dense_kernel(monkeypatch):
    # two units in row 0: no sequence copy, so the gathered matrices go to
    # the Schatten kernel, and the moment still matches the dense reduction
    seen = []

    def spy(mats, p):
        seen.append(mats.shape)
        return kernels.schatten_norm_batch(mats, p)

    monkeypatch.setattr(spaces, "schatten_norm_batch", spy)
    fam = UnitFamily(schatten_space(4, 3), np.array([[0], [1], [5]]))
    samples, seed = MC_BLOCK + 3, 19
    est = second_moment(gaussian_system(), fam, samples=samples, seed=seed)
    assert seen and all(shape[1:] == (3, 3) for shape in seen)
    assert est.value == pytest.approx(_gathered_moment(fam, 4, samples, seed)[0], rel=1e-12)


def _mc_family(space, kind):
    """The full basis or grid (its gather is the identity), the diagonal
    matrix units, or pairs of ones on the even coordinates of a sequence
    space (a gather that leaves the odd ones zero)."""
    if kind == "diag":
        return UnitFamily(space, (np.arange(space.dim) * (space.dim + 1))[:, None])
    if kind == "blocks":
        return UnitFamily(space, np.arange(0, space.flat_dim, 2).reshape(-1, 2))
    return _basis(space, space.flat_dim)


def _serial_second_moment(family, samples, seed):
    """The one-thread Monte Carlo loop: draw, gather and reduce each block in
    turn; a Schatten space's full grid draws bidiagonal chi entries instead."""
    space = family.space
    total = 0.0
    total_sq = 0.0
    for index, start in enumerate(range(0, samples, MC_BLOCK)):
        count = min(MC_BLOCK, samples - start)
        rng = make_rng(substream(seed, index))
        if space.kind is SpaceKind.SCHATTEN and family.size == space.flat_dim:
            n = space.dim
            chis = gaussian_bidiagonal(rng, count, n)
            q = bidiagonal_schatten_norms(chis[:, :n], chis[:, n:], space.exponent.value) ** 2
        else:
            rows = standard_gaussians(rng, (count, family.size))
            q = norms_of_stack(family.synthesize(rows), space) ** 2
        total += float(q.sum())
        total_sq += float((q * q).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    value = float(np.sqrt(mean))
    stderr = float(np.sqrt(var / samples) / (2.0 * value)) if value > 0 else 0.0
    return value, stderr


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
    (schatten_space("inf", 6), "diag", 32 * MC_BLOCK + 1, 2),
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
], ids=["s4", "sinf", "s4-3-svd", "linf", "sinf-diag", "s4-grid", "s4-grid-one-chunk",
        "sinf-4-threads", "sinf-one-chunk-2-threads", "s4-last-chunk-under-a-block",
        "l4-blocks", "sinf-1-thread", "sinf16-runs-1-thread", "sinf16-runs-2-threads",
        "sinf16-runs-4-threads"])
def test_pooled_mc_loop_equals_serial_loop(monkeypatch, space, family, samples, width):
    # one pool task per run of MC_BLOCK-row blocks, sums in block order:
    # the same floats as the one-thread loop, value and stderr, also with
    # more threads than cores and a short switch interval
    monkeypatch.setattr(systems, "MC_WIDTH", width)
    family = _mc_family(space, family)
    if space.dim == 16:
        runs = {1: 11, 2: 6, 4: 3}[width]
        assert systems._mc_width(family.size, space, samples) == (width, runs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = _mc_second_moment(family, samples, 13)
    finally:
        sys.setswitchinterval(interval)
    value, stderr = _serial_second_moment(family, samples, 13)
    assert (est.value, est.stderr) == (value, stderr)


def test_mc_width_is_what_fits_under_the_cap(monkeypatch):
    # a thread that gathers holds a block, its squared norms, the
    # coefficients it gathers from and three blocks for the SVD kernel: for
    # 64 units of S_inf^64 that is 1029 rows of 32 KiB (34 MB), so all
    # sixteen threads fit under the 2 GiB cap; at S_inf^180 it is 1027 rows of
    # 253 KiB (266 MB), and eight threads fit, nine do not, whatever the CPU count
    # (such working sets are far above MC_RUN_BYTES, so each task takes one
    # block)
    space = schatten_space("inf", 64)
    monkeypatch.setattr(systems, "MC_WIDTH", 16)
    assert systems._mc_working_set(64, space) == (1029, 4096)
    assert systems._mc_width(64, space, 320 * MC_BLOCK) == (16, 1)
    assert systems._mc_width(180, schatten_space("inf", 180), 320 * MC_BLOCK) == (8, 1)
    # never more threads than blocks
    assert systems._mc_width(64, space, 5 * MC_BLOCK) == (5, 1)
    assert systems._mc_width(64, space, MC_BLOCK) == (1, 1)
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    assert systems._mc_width(64, space, 320 * MC_BLOCK) == (2, 1)


def test_mc_runs_are_what_fits_under_the_run_budget(monkeypatch):
    # a task takes as many blocks as keep its working set within
    # MC_RUN_BYTES, and at most a 2 * width-th of them: at S_inf^64 four
    # blocks (1942 rows of 127 entries, 1.97 MB; five would be 2.24 MB),
    # at S_inf^16 eleven; a working set that does not grow with the run
    # (a sequence space's basis) takes the 2 * width-th whenever one block
    # fits (one that does not takes one block: the test above)
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    sinf64, sinf16 = schatten_space("inf", 64), schatten_space("inf", 16)
    assert systems._mc_width(4096, sinf64, 20_000) == (2, 4)
    assert systems._mc_working_set(4096, sinf64, 4) == (1942, 127)
    assert systems._mc_working_set(4096, sinf64, 5)[0] * 127 * 8 > systems.MC_RUN_BYTES
    assert systems._mc_width(256, sinf16, 20_000) == (2, 11)
    assert systems._mc_width(256, sinf16, 9 * MC_BLOCK) == (2, 3)
    assert systems._mc_width(16, sequence_space("inf", 16), 100_000) == (2, 98)


def test_mc_working_set_of_the_bidiagonal_route():
    # the full grid draws rows of 2n - 1 chi entries: at S_4 a block of
    # them, its squared norms and 12n + 32 entries per matrix (1872 rows of
    # 127 at n = 64); at S_inf a block of them, 2n + 1 entries per matrix of
    # the run, and the larger of 3n + 128 per matrix of the block and what
    # the iteration holds (1162 rows of 127 for a one-block run at n = 64;
    # 929 rows of 1023, 7.6 MB, at n = 512, where the dense block alone would
    # be 537 MB); any other exponent materializes the block, in rows of n^2
    # as the gather route counts
    assert systems._mc_working_set(4096, schatten_space("inf", 64)) == (1162, 127)
    assert systems._mc_working_set(4096, schatten_space("inf", 64), 4) == (1942, 127)
    assert systems._mc_working_set(4096, schatten_space(4, 64)) == (1872, 127)
    assert systems._mc_working_set(4096, schatten_space(4, 64), 4) == (1872, 127)
    assert systems._mc_working_set(512 ** 2, schatten_space("inf", 512)) == (929, 1023)
    assert systems._mc_working_set(4096, schatten_space(3, 64)) == (1033, 4096)
    # a sequence space's full basis still draws its rows
    assert systems._mc_working_set(64, sequence_space("inf", 64)) == (772, 64)


@pytest.mark.parametrize("space,family,samples", [
    (schatten_space("inf", 64), "basis", 17 * MC_BLOCK + 1),
    (schatten_space(4, 32), "diag", 32 * MC_BLOCK + 1),
    (sequence_space("inf", 512), "blocks", 32 * MC_BLOCK + 1),
    (schatten_space(4, 64), "basis", 17 * MC_BLOCK + 1),
    (schatten_space("inf", 2), "basis", 17 * MC_BLOCK + 1),
    (schatten_space(3, 16), "basis", 17 * MC_BLOCK + 1),
    (schatten_space("inf", 16), "basis", 52 * MC_BLOCK + 1),
], ids=["sinf64-basis", "s4-32-diag", "linf-blocks", "s4-64-basis", "sinf2-basis",
        "s3-16-basis", "sinf16-long-runs"])
def test_mc_loop_peak_stays_under_its_projection(monkeypatch, space, family, samples):
    # what numpy allocates during the loop, on every thread, stays under the
    # working set _mc_width checks against the cap for its run length (11
    # blocks a task for the S_inf^16 grid), and holds at least one block of
    # the rows the route draws or reduces
    monkeypatch.setattr(systems, "MC_WIDTH", 2)
    family = _mc_family(space, family)
    width, run = systems._mc_width(family.size, space, samples)
    rows, length = systems._mc_working_set(family.size, space, run)
    _mc_second_moment(family, 2, 5)  # imports on first use are not the loop's
    tracemalloc.start()
    try:
        _mc_second_moment(family, samples, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert MC_BLOCK * length * 8 <= peak <= width * rows * length * 8


def test_full_grid_gather_is_the_identity():
    space = schatten_space(4, 3)
    coeffs = np.arange(18.0).reshape(2, 9)
    assert UnitFamily(space, np.arange(9)[:, None]).synthesize(coeffs) is coeffs
    diag = UnitFamily(space, np.array([[0], [4], [8]])).synthesize(coeffs[:, :3])
    assert np.array_equal(diag, [[0, 0, 0, 0, 1, 0, 0, 0, 2], [9, 0, 0, 0, 10, 0, 0, 0, 11]])


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
            _mc_second_moment(_basis(sequence_space("inf", 4), 4), 64 * MC_BLOCK, 3)
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
    # have all 64 in flight, and hold all their futures. The S_4^32 diagonal
    # units' working set is above MC_RUN_BYTES, so each task is one block
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
    family = _mc_family(schatten_space(4, 32), "diag")
    assert systems._mc_width(family.size, family.space, 64 * MC_BLOCK) == (2, 1)
    est = _mc_second_moment(family, 64 * MC_BLOCK, 3)
    assert not in_flight
    assert 1 <= peak[0] <= 2 * 2  # 2 * width
    assert (est.value, est.stderr) == _serial_second_moment(family, 64 * MC_BLOCK, 3)


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
    # holds the matrix and a round's trial values and magnitudes, and the
    # working-set check refuses a cap just under it
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
    assert peak >= (cs.size + 2 * cfg.restarts) * row
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
    with pytest.raises(ValueError, match=r"ascent working set of shape \(56, 4096\)"):
        _ASCENTS[ascent](lacunary_character_set(4096, 8), AscentConfig(seed=3, restarts=16))


def test_sumset_ascent_peak_stays_under_its_projection(monkeypatch):
    # what numpy allocates in an ascent on the sumsets holds every level and
    # the largest step's products and gather per restart, and the
    # working-set check refuses a cap just under it
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
    monkeypatch.setattr(systems, "MAX_ARRAY_BYTES", peak - 1)
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
