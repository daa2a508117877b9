"""Orthonormal systems: Gaussian sequences and characters on the cyclic group Z_N.

Character systems integrate exactly: a unit family on a sequence space
(matrix units that ``spaces.sequence_copy`` takes as one included) by the
modulus-one closed form, any other family by the normalized counting
average over the group. The Gaussian system integrates by seeded Monte
Carlo, in one loop whose MC_BLOCK-row blocks are drawn, gathered and
reduced on a pool of at most ``MC_WIDTH`` threads, each from its own
substream, one pool task per run of consecutive blocks, and whose sums are
added in block order, so the result depends neither on the core count nor
on how blocks are grouped in runs. Each sample's squared Frobenius norm,
whose mean is known exactly, is its control variate, and so is its
||x||_v^v on sequence spaces up to v = 4 and at S_4, where that mean is
closed too: the estimate is the sample mean corrected along the fitted
regression on them, with fallbacks to one control and to the plain mean
(``_mc_second_moment``). A Schatten space's full grid of matrix
units draws each sample as the 2n - 1 chi entries of a bidiagonal matrix
with a Gaussian matrix's singular values; at S_inf a run's blocks are
reduced together. On top of the systems sit the Lambda(p)-constant and
Sidon-constant estimators, which are nonconvex maximizations shipped as
ascent-with-restarts giving certified lower bounds.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .estimates import Certainty, NormEstimate
from .kernels import (SpectralRun, Sumsets, bidiagonal_schatten_norms, lp_ascent,
                      ratio_ascent)
from .rng import gaussian_bidiagonal, make_rng, standard_gaussians, substream
from .spaces import (Exponent, SpaceDescriptor, SpaceKind, UnitFamily, VectorSystem,
                     _ones_norm, lp_norm, norms_of_stack, parse_exponent, sequence_copy)

# Largest array a configuration may make the lab allocate, in bytes (2 GiB).
# Not a setting.
MAX_ARRAY_BYTES = 2 ** 31


def check_array_bytes(what: str, shape, dtype) -> None:
    """Raise ValueError before allocating an array above MAX_ARRAY_BYTES."""
    shape = tuple(int(d) for d in shape)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} of shape {shape} would take {nbytes / 2 ** 30:.3g} GiB, "
                         f"above the {MAX_ARRAY_BYTES / 2 ** 30:g} GiB cap")


# ---------------------------------------------------------------------------
# characters of the cyclic group Z_N
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterSet:
    """Distinct frequencies k of Z_N: the characters x -> exp(2 pi i k x / N)."""

    order: int
    freqs: tuple[int, ...]

    def __post_init__(self):
        order = int(self.order)
        if order < 1:
            raise ValueError(f"the group order must be a positive integer, got {order}")
        freqs = tuple(int(k) % order for k in self.freqs)
        if len(set(freqs)) != len(freqs):
            raise ValueError("frequencies must be distinct modulo the group order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "freqs", freqs)

    @property
    def size(self) -> int:
        return len(self.freqs)

    def matrix(self) -> np.ndarray:
        """Character table slice, shape (order, size): column k = gamma_k(x)."""
        return _character_matrix(self.order, self.freqs)


def _roots_of_unity(order: int) -> np.ndarray:
    """The N-th roots of unity exp(2 pi i r / N), r = 0..N-1, from one exp call."""
    return np.exp(2j * np.pi * (np.arange(order) / order))


def _characters_at(roots: np.ndarray, freqs, points) -> np.ndarray:
    """gamma_k(x) for rows x of ``points`` and columns k of ``freqs``.

    ``roots`` holds the N-th roots of unity (``_roots_of_unity``), gathered
    at the exact integer residues (x k) % N.
    """
    residues = np.outer(np.asarray(points, dtype=np.int64), np.asarray(freqs, dtype=np.int64))
    residues %= len(roots)
    return roots[residues]


@lru_cache(maxsize=64)
def _character_matrix(order: int, freqs: tuple[int, ...]) -> np.ndarray:
    check_array_bytes("character matrix", (order, len(freqs)), np.complex128)
    mat = _characters_at(_roots_of_unity(order), freqs, np.arange(order))
    mat.flags.writeable = False
    return mat


def full_character_set(n: int) -> CharacterSet:
    # every use takes the n x n table: refuse it before the n frequencies exist
    check_array_bytes("character matrix", (n, n), np.complex128)
    return CharacterSet(n, tuple(range(n)))


def lacunary_character_set(n: int, count: int) -> CharacterSet:
    """Lacunary (Sidon) frequencies 2^0, 2^1, ..., 2^(count-1) inside Z_n."""
    freqs = [2 ** k for k in range(count)]
    if max(freqs) >= n:
        raise ValueError("group too small to keep lacunary frequencies distinct")
    return CharacterSet(n, tuple(freqs))


# ---------------------------------------------------------------------------
# span elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanElement:
    """f = sum_k coeffs[k] * gamma_k over a character set."""

    charset: CharacterSet
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.charset.size,):
            raise ValueError("coefficient vector length must match the character set")
        object.__setattr__(self, "coeffs", c)

    def values(self) -> np.ndarray:
        return self.charset.matrix() @ self.coeffs


def lp_norm_of_span(f: SpanElement, p) -> float:
    """L_p norm of f under the normalized counting measure on the group."""
    e = parse_exponent(p)
    vals = f.values()
    return lp_norm(vals, e) * len(vals) ** -e.recip


# ---------------------------------------------------------------------------
# orthonormal systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthonormalSystem:
    """Gaussian system (Monte Carlo integration) or character system (exact).

    Character systems integrate exactly (see ``second_moment``); the
    Gaussian system takes its sample count and seed per call.
    """

    kind: str
    charset: CharacterSet | None = None

    def __post_init__(self):
        if self.kind == "characters":
            if self.charset is None:
                raise ValueError("character systems need a character set")
        elif self.kind == "gaussian":
            if self.charset is not None:
                raise ValueError("the Gaussian system carries no character set")
        else:
            raise ValueError(f"unknown system kind {self.kind!r}")


def gaussian_system() -> OrthonormalSystem:
    return OrthonormalSystem("gaussian")


def character_system(charset: CharacterSet) -> OrthonormalSystem:
    return OrthonormalSystem("characters", charset)


# Gaussian samples per Monte Carlo block, the loop's one unit of draws and
# of work, drawn from its own substream; the kernel gets one block per call.
MC_BLOCK = 256

# Most threads in one Monte Carlo loop: the CPU count this process may run
# on (the whole machine's where the OS cannot say). Not a setting; each loop
# narrows it to what its work and its working set leave room for.
MC_WIDTH = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _draws_bidiagonal(dim: int, space: SpaceDescriptor) -> bool:
    """Whether a Monte Carlo block of a ``dim``-element unit family draws bidiagonals.

    The full grid of matrix units of a Schatten space turns a Gaussian row
    into an n x n Gaussian matrix, whose Schatten norms depend on its
    singular values alone; ``rng.gaussian_bidiagonal`` draws them in 2n - 1
    chi variates instead of n^2 normals.
    """
    return space.kind is SpaceKind.SCHATTEN and dim == space.flat_dim


# Bytes to which taking more blocks per pool task may grow a thread's
# projected working set: four S_inf bidiagonal blocks at n = 64 (1.98 MB),
# whose iteration then acts on about a thousand rows a numpy call. Not a
# setting.
MC_RUN_BYTES = 2 ** 21


def _runs_spectral(dim: int, space: SpaceDescriptor) -> bool:
    """Whether a run of blocks is reduced at once, by one ``kernels.SpectralRun``.

    So it is for bidiagonal draws at S_inf, whose Laguerre iteration makes a
    dozen numpy calls per matrix entry and iteration, on vectors as long as
    the rows it reduces at once; every other route reduces each block as it
    is drawn.
    """
    return _draws_bidiagonal(dim, space) and space.exponent.value == np.inf


def _mc_working_set(dim: int, space: SpaceDescriptor, run: int = 1) -> tuple[int, int]:
    """(rows, row length) of the float64 entries that one Monte Carlo thread holds.

    For a pool task of ``run`` blocks: its slot, an MC_BLOCK-row block of
    what it draws and the block's Frobenius controls; the block's squared
    norms; and the kernel's arrays, rounded up to whole rows. A family that gathers holds rows of
    flat_dim: the block of the rows the kernel reads, drawn there when the
    gather is the identity (dim == flat_dim), otherwise gathered from the
    slot's own (MC_BLOCK, dim) coefficients, and three blocks more on
    Schatten spaces (a bound on the SVD's singular values, their scaled
    copy and its one-matrix workspace), a magnitude and a scaled copy of the
    block on sequence spaces. A family that draws bidiagonals holds rows of
    its 2n - 1 chi entries at S_4 and S_inf. At S_4,
    ``bidiagonal_schatten_norms`` holds at most twelve n-entry arrays and 32
    more entries per matrix. At S_inf, the ``SpectralRun`` holds 2n + 1
    entries per matrix of the run and the slot one control per matrix of
    the run, until the run's norms are taken; on top, either the
    temporaries of appending a block (3n + 128 entries per matrix of the
    block: three n-entry arrays, and numpy's buffers for the strided
    operands) or the Laguerre iteration's (48 + n/8 entries per matrix of the run for its
    vectors and pivot signs, and 200 per matrix entry for the views it
    makes once), never both at once. At any other exponent, rows of
    flat_dim for the draws, the materialized block and one block more for
    the copy of it that the SVD takes. Only the S_inf route grows with
    ``run``: the others reduce each block in the slot before they draw the
    next.
    """
    flat = space.flat_dim
    if _draws_bidiagonal(dim, space):
        n, entries = space.dim, 2 * space.dim - 1
        if _runs_spectral(dim, space):
            columns = (2 * n + 2) * run * MC_BLOCK
            append = (3 * n + 128) * MC_BLOCK
            iterate = (48 + -(-n // 8)) * run * MC_BLOCK + 200 * n
            return MC_BLOCK + -(-(columns + max(append, iterate)) // entries), entries
        if space.exponent.value == 4.0:
            return (MC_BLOCK + 2 * -(-MC_BLOCK // entries)
                    + -(-(12 * n + 32) * MC_BLOCK // entries)), entries
        return (-(-MC_BLOCK * entries // flat) + 2 * -(-MC_BLOCK // flat)
                + 2 * MC_BLOCK), flat
    rows = MC_BLOCK + 2 * -(-MC_BLOCK // flat)
    if dim < flat:
        rows += -(-MC_BLOCK * dim // flat)
    return rows + (3 if space.kind is SpaceKind.SCHATTEN else 2) * MC_BLOCK, flat


def _mc_width(dim: int, space: SpaceDescriptor, samples: int) -> tuple[int, int]:
    """(threads, blocks per pool task) for one Monte Carlo loop, checked against MAX_ARRAY_BYTES.

    Threads: at most MC_WIDTH, the number of MC_BLOCK-row blocks, and as
    many as ``_mc_working_set`` of one block fits under the cap; a working
    set over the cap even at width 1 is refused before any allocation. A
    task then takes a run of as many consecutive blocks as keep its working
    set within MC_RUN_BYTES (at least one), and at most a 2 * width-th of
    the blocks, so that every thread gets work.
    """
    blocks = -(-samples // MC_BLOCK)
    rows, length = _mc_working_set(dim, space)
    cap = MAX_ARRAY_BYTES // (length * 8)
    width = max(1, min(MC_WIDTH, blocks, cap // rows))
    run = 1
    while (run < -(-blocks // (2 * width))
           and _mc_working_set(dim, space, run + 1)[0] * length * 8 <= MC_RUN_BYTES):
        run += 1
    check_array_bytes("Monte Carlo chunk working set",
                      (width * _mc_working_set(dim, space, run)[0], length), np.float64)
    return width, run


# Fewest samples from which the Monte Carlo loop fits its second control. A
# fit of two controls has a bias of order 1/samples against a standard error
# of order samples^(-1/2): in repeated fits on l_4^8, S_4^3 and S_4^8, 16
# samples left a bias of 0.4-0.5 standard deviations and a stderr 30-40% too
# small, 256 a bias of 0.14-0.2, and from 1024 on the two-sigma coverage
# matched the one-control fit's (0.945-0.952 against 0.953-0.955). Not a
# setting.
MC_SECOND_CONTROL_SAMPLES = 1024


def _gaussian_abs_moment(v: float) -> float:
    """E |g|^v of a standard Gaussian g: 2^(v/2) Gamma((v + 1)/2) / sqrt(pi).

    At even v it is the integer (v - 1)!!, taken exactly.
    """
    if v % 2 == 0:
        return float(math.prod(range(1, int(v), 2)))
    return 2.0 ** (v / 2) * math.gamma((v + 1) / 2) / math.sqrt(math.pi)


def _power_mean(family: UnitFamily) -> float | None:
    """E ||sum_i g_i x_i||_v^v over standard Gaussian g, the loop's second control's mean, or None.

    On a sequence space the power is s sum_i |g_i|^v, of mean ``size``
    E|g|^v (3 size at v = 4). On a Schatten space at v = 4 it is
    tr (X X^T)^2, whose mean counts the pairings that survive:
    sum_j c_j^2 + sum_i r_i^2 + m, for the m units' column and row counts c_j
    and r_i (n^2 (2n + 1) for the full grid, whose bidiagonal keeps the
    singular values). None at any other Schatten exponent, and on sequence
    spaces above v = 4: there the mean rests on ever rarer large draws, and
    at 2000 samples the fit's bias measured 0.17-0.2 standard deviations at
    v = 6 and 8 for a variance cut of 1.5x and 1.2x, and its two-sigma
    coverage 0.8 at v = 16.
    """
    space = family.space
    v = space.exponent.value
    if space.kind is SpaceKind.SEQUENCE and v <= 4:
        return family.elements.size * _gaussian_abs_moment(v)
    if space.kind is SpaceKind.SCHATTEN and v == 4:
        rows, cols = np.divmod(family.elements[:, 0], space.dim)
        return float(np.sum(np.bincount(rows) ** 2) + np.sum(np.bincount(cols) ** 2)
                     + family.size)
    return None


def _block_sums(q, c, shifts=None) -> tuple[float, ...]:
    # a block's sums of Y, Y^2, C, C^2 and Y C, for its norms q (overwritten
    # by Y = q^2) and its controls c. Given shifts (y0, mu_C, mu_Z, v), those
    # of A = Y - y0, A^2, B = C - mu_C, B^2 and A B instead (q and c are
    # overwritten by A and B), then of D = Z - mu_Z, D^2, B D and A D for the
    # second control Z = Y^(v/2) = ||x||_v^v: deviations from known shifts
    # keep the digits that raw moments would cancel.
    np.square(q, out=q)
    if shifts is None:
        return (float(q.sum()), float((q * q).sum()), float(c.sum()), float((c * c).sum()),
                float((q * c).sum()))
    y0, mu_c, mu_z, v = shifts
    d = q ** (v / 2)
    d -= mu_z
    q -= y0
    c -= mu_c
    return (float(q.sum()), float((q * q).sum()), float(c.sum()), float((c * c).sum()),
            float((q * c).sum()), float(d.sum()), float((d * d).sum()), float((c * d).sum()),
            float((q * d).sum()))


def _run_sums(family: UnitFamily, seed, first: int, counts, slots, one_pass,
              shifts=None) -> list[tuple[float, ...]]:
    # On a pool thread: draw blocks first, first + 1, ... (counts[i] rows for
    # block first + i) into a free slot in turn, as bidiagonals or as
    # coefficients gathered there unless the gather is the identity, take
    # each row's control C (the squared Frobenius norm: the chi row's sum of
    # squares, or the element size times the coefficient row's), and reduce
    # each block to its sums (``_block_sums`` with ``shifts``, the second
    # control's where it has one). At S_inf the bidiagonal blocks go to the
    # slot's SpectralRun instead, which reduces them all at once while it
    # holds the one_pass lock; their controls wait in the slot. The pool's
    # threads are as many as the slots, so get() never waits.
    slot = rows, coeffs, spectral, controls = slots.get()
    try:
        space, sums, held = family.space, [], 0
        for index, count in enumerate(counts, first):
            rng = make_rng(substream(seed, index))
            c = controls[held:held + count]
            if _draws_bidiagonal(family.size, space):
                n = space.dim
                chis = gaussian_bidiagonal(rng, count, n, out=rows[:count])
                np.einsum("ij,ij->i", chis, chis, out=c)
                if spectral is not None:
                    spectral.append(chis[:, :n], chis[:, n:])
                    held += count
                    continue
                q = bidiagonal_schatten_norms(chis[:, :n], chis[:, n:], space.exponent.value)
            else:
                drawn = standard_gaussians(rng, (count, family.size),
                                           out=(rows if coeffs is None else coeffs)[:count])
                np.einsum("ij,ij->i", drawn, drawn, out=c)
                c *= family.elements.shape[1]
                q = norms_of_stack(family.synthesize(drawn, out=rows[:count]), space)
            sums.append(_block_sums(q, c, shifts))
        if spectral is not None:
            with one_pass:
                q = spectral.norms()
            cuts = np.cumsum(counts[:-1])
            sums = [_block_sums(*block)
                    for block in zip(np.split(q, cuts), np.split(controls[:held], cuts))]
        return sums
    finally:
        slots.put(slot)


def _controlled_moment(sums, samples: int, mu: float, shift: float = 0.0) -> tuple[float, float]:
    """(mean, stderr of the mean) of Y from the summed block sums, C of known mean mu.

    Five sums (``_block_sums`` without shifts) are those of Y, Y^2, C, C^2
    and YC. Nine are those of A = Y - shift, A^2, B = C - mu, B^2, AB, and
    of the second control's deviation D = Z - mu_Z, D^2, BD and AD. The
    estimator and its fallbacks are ``_mc_second_moment``'s; the variance
    is over the samples less the parameters fitted, the mean counted.
    """
    n = samples
    s_a, s_aa, s_b, s_bb, s_ab = sums[:5]
    mean_a, mean_b = s_a / n, s_b / n
    var_a = s_aa / n - mean_a * mean_a
    var_b = s_bb / n - mean_b * mean_b
    cov_ab = s_ab / n - mean_a * mean_b
    off_b = mean_b - mu if len(sums) == 5 else mean_b
    if len(sums) == 9 and n >= MC_SECOND_CONTROL_SAMPLES:
        s_d, s_dd, s_bd, s_ad = sums[5:]
        mean_d = s_d / n
        var_d = s_dd / n - mean_d * mean_d
        cov_bd = s_bd / n - mean_b * mean_d
        cov_ad = s_ad / n - mean_a * mean_d
        det = var_b * var_d - cov_bd * cov_bd
        # positive definite, and not only by rounding: Z not a line in C
        if var_b > 0 and det > 1e-9 * var_b * var_d:
            beta_b = (var_d * cov_ab - cov_bd * cov_ad) / det
            beta_d = (var_b * cov_ad - cov_bd * cov_ab) / det
            mean = shift + (mean_a - beta_b * off_b - beta_d * mean_d)
            if mean > 0:
                var = max(var_a - beta_b * cov_ab - beta_d * cov_ad, 0.0) * (n / (n - 3))
                return mean, math.sqrt(var / n)
    beta, fitted = 0.0, 1
    if n >= 3 and var_b > 0 and shift + (mean_a - cov_ab / var_b * off_b) > 0:
        beta, fitted = cov_ab / var_b, 2
    mean = shift + (mean_a - beta * off_b)
    var = max(var_a - beta * cov_ab, 0.0) * (n / (n - fitted))
    return mean, math.sqrt(var / n)


def _mc_second_moment(family: UnitFamily, samples: int, seed) -> NormEstimate:
    """(E ||sum_i g_i x_i||^2)^(1/2) over standard Gaussian rows g, x = family.

    Block k is MC_BLOCK samples drawn from ``substream(seed, k)``. A
    family that gathers draws MC_BLOCK Gaussian rows and applies them by
    its gather (``UnitFamily.synthesize``), which keeps real rows real and
    is the identity on a full basis or grid. The full grid of a Schatten
    space (``_draws_bidiagonal``) draws instead, per sample, the 2n - 1 chi
    entries of a bidiagonal with the singular values of the Gaussian
    matrix sum_i g_i x_i, reduced by ``bidiagonal_schatten_norms``, or at
    S_inf by a ``kernels.SpectralRun``. One pool task per run of
    consecutive blocks, on ``_mc_width`` threads with its run length, draws
    (and gathers) each block into a free slot and reduces it to its sums
    (``_block_sums``): of Y = ||sum_i g_i x_i||^2, of its control C, the
    squared Frobenius norm, of their squares and of YC, and, where the
    second control Z = ||sum_i g_i x_i||_v^v has a closed-form mean
    (``_power_mean``), of Z, Z^2, CZ and YZ, as deviations from known
    shifts. Each row's C comes from what the slot
    already holds (the chi row's sum of squares, or the element size times
    the coefficient row's) before the kernel runs, and Z is the power v/2
    of Y. At S_inf the task appends
    each bidiagonal block to the slot's SpectralRun, keeps its controls in
    the slot, and reduces the run in one Laguerre pass, whose numpy calls
    then act on the run's rows instead of one block's (numpy's Philox and
    gamma fills, ``take``, ``matmul`` and LAPACK release the GIL). There is
    one slot per thread, allocated once per call, so nothing block-sized is
    allocated inside the loop but the kernel's temporaries. The caller keeps
    at most two tasks per thread in flight and adds each block's sums in
    block order, so the result is the same float however the tasks
    interleave and however the blocks are grouped into runs. C has the
    exact mean mu = sum_i ||x_i||_2^2 (``family.elements.size``; n^2 for a
    grid, whose bidiagonal keeps the Frobenius norm), so the mean of Y is
    estimated as Ybar - beta (Cbar - mu), beta = Cov(Y, C) / Var(C) fitted
    from the same sums, with the regression's residual variance over
    samples - 2 (Glasserman, Monte Carlo Methods in Financial Engineering,
    2003, section 4.1). Where Z has a mean mu_Z, the sums are taken as
    deviations of C and Z from their means and of Y from mu_Z^(2/v), and
    the two coefficients of Y on (C, Z) come from the 2 x 2 normal
    equations: Ybar - beta_C (Cbar - mu) - beta_Z (Zbar - mu_Z), with the
    residual variance over samples - 3. That fit falls back to the one
    control's under MC_SECOND_CONTROL_SAMPLES samples, where the
    covariance of (C, Z) is not positive definite (Z a line in C), or where
    its mean is not positive; the one-control fit falls back to beta = 0,
    the plain mean with its variance over samples - 1, under 3 samples (a
    line through two points leaves no residual, so the stderr would read
    0), when C does not vary, or when its mean is not positive
    (``_controlled_moment``). The value is a Monte Carlo
    estimate, so it is ``lower`` with a standard error (delta method on the
    square root).
    """
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo integration")
    if samples < 2:
        raise ValueError(f"Monte Carlo integration needs >= 2 samples for a stderr, got {samples}")
    space, dim = family.space, family.size
    width, run = _mc_width(dim, space, samples)
    mu_c, mu_z = float(family.elements.size), _power_mean(family)
    v = space.exponent.value
    shifts = None if mu_z is None else (mu_z ** (2 / v), mu_c, mu_z, v)
    # imported here: concurrent.futures loads logging and queue, about 5 ms
    # of start-up that the commands without Monte Carlo need not pay
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # one array per part for all slots: slot i is (drawn or kernel rows,
    # coefficients, S_inf run, controls)[i]
    row = 2 * space.dim - 1 if _draws_bidiagonal(dim, space) else space.flat_dim
    kernel_rows = np.empty((width, MC_BLOCK, row))
    coeffs = np.empty((width, MC_BLOCK, dim)) if dim < space.flat_dim else [None] * width
    held = run * MC_BLOCK if _runs_spectral(dim, space) else MC_BLOCK
    spectral = ([SpectralRun(space.dim, held) for _ in range(width)]
                if _runs_spectral(dim, space) else [None] * width)
    controls = np.empty((width, held))
    slots = queue.SimpleQueue()
    for slot in zip(kernel_rows, coeffs, spectral, controls):
        slots.put(slot)
    # One Laguerre pass at a time: a pass is thousands of short numpy calls,
    # each of which drops and retakes the GIL on vectors of over 500 rows,
    # so two passes at once mostly hand the GIL to each other; the other
    # threads draw and append their next blocks meanwhile.
    one_pass = threading.Lock()
    blocks = -(-samples // MC_BLOCK)
    sums = []
    running = deque()  # each run's task, in block order
    pool = ThreadPoolExecutor(width)
    try:
        for first in range(0, blocks, run):
            if len(running) == 2 * width:
                sums.extend(running.popleft().result())
            counts = [min(MC_BLOCK, samples - index * MC_BLOCK)
                      for index in range(first, min(first + run, blocks))]
            running.append(pool.submit(_run_sums, family, seed, first, counts, slots, one_pass,
                                       shifts))
        for task in running:
            sums.extend(task.result())
    finally:
        # after an error, drop the queued tasks; the running ones end first
        pool.shutdown(cancel_futures=True)
    totals = [0.0] * len(sums[0])
    for block in sums:
        for i, s in enumerate(block):
            totals[i] += s
    mean, stderr = _controlled_moment(totals, samples, mu_c, 0.0 if shifts is None else shifts[0])
    value = float(np.sqrt(mean))
    stderr = float(stderr / (2.0 * value)) if value > 0 else 0.0
    return NormEstimate(value, Certainty.LOWER, stderr=stderr, method="mc-gaussian")


def second_moment(system: OrthonormalSystem, family: UnitFamily | VectorSystem, *,
                  samples: int = 100_000, seed=None) -> NormEstimate:
    """(average of ||sum_i b_i(omega) y_i||^2)^(1/2) over the system, y = family.

    Matrix units in distinct rows and columns are taken as the l_u^m basis
    they span (``spaces.sequence_copy``), with no matrix formed. Character
    systems pair y_i with the first m characters of the set, exactly
    (certified): a unit family on a sequence space, such a copy included,
    by the closed form (ms)^(1/v), since sum_i gamma_i(x) y_i has ms
    entries of modulus one and zeros elsewhere at every x; any other
    family by the average over the group's N points, computed block by
    block (``_group_norms``). The caps on the (N, flat_dim) values and the
    (N, size) character table bound what the average computes, a block at
    a time; neither table is formed whole. The Gaussian system takes
    unit families: blocked Monte Carlo with a reported standard error,
    except where ``gaussian_closed_form`` gives the value.
    """
    family = sequence_copy(family)
    space, m = family.space, family.size
    if system.kind == "characters":
        cset = system.charset
        if m > cset.size:
            raise ValueError(f"family size {m} exceeds the character set ({cset.size})")
        if isinstance(family, UnitFamily) and space.kind is SpaceKind.SEQUENCE:
            # gamma_i(x) of modulus one on disjoint supports: the same norm at every x
            return NormEstimate(_ones_norm(family.elements.size, space.exponent),
                                Certainty.EXACT, method="modulus-one closed form")
        check_array_bytes("group-average values", (cset.order, space.flat_dim),
                          np.complex128)
        # and capped as the whole character table would be
        check_array_bytes("character matrix", (cset.order, cset.size), np.complex128)
        value = lp_norm(_group_norms(cset, family), Exponent(0.5)) / math.sqrt(cset.order)
        return NormEstimate(value, Certainty.EXACT, method="group-average")

    if not isinstance(family, UnitFamily):
        raise ValueError("the Gaussian system integrates unit families")
    exact = gaussian_closed_form(space, *family.elements.shape)
    if exact is not None:
        return exact
    return _mc_second_moment(family, samples, seed)


# Complex entries in the wider table of a block of the group average, the
# characters or the values it synthesizes. Not a setting.
GROUP_BLOCK_ENTRIES = 2 ** 15


def _group_norms(cset: CharacterSet, family: UnitFamily | VectorSystem) -> np.ndarray:
    """||sum_i gamma_i(x) y_i|| at every point x of the group, for the first m characters.

    Block by block, each of as many points as fit GROUP_BLOCK_ENTRIES, so
    neither the (N, m) characters nor the (N, flat_dim) values are formed
    whole.
    """
    space, order = family.space, cset.order
    freqs = cset.freqs[:family.size]
    roots = _roots_of_unity(order)
    width = max(1, GROUP_BLOCK_ENTRIES // max(space.flat_dim, len(freqs)))
    norms = np.empty(order)
    for start in range(0, order, width):
        points = np.arange(start, min(start + width, order))
        vals = family.synthesize(_characters_at(roots, freqs, points))
        norms[start:start + len(points)] = norms_of_stack(vals, space)
    return norms


def gaussian_closed_form(space: SpaceDescriptor, count: int, size: int) -> NormEstimate | None:
    """The Gaussian second moment of ``count`` disjoint unit elements of ``size`` ones, if closed.

    On a Hilbert space independence gives (count size)^(1/2); a single
    element has norm size^(1/v) (1 for a matrix unit). None otherwise. It
    reads only the family's shape, so a caller can ask before building it.
    """
    if space.exponent.is_hilbert:
        return NormEstimate(math.sqrt(count * size), Certainty.EXACT,
                            method="gaussian-orthogonality")
    if count == 1:
        return NormEstimate(_ones_norm(size, space.exponent), Certainty.EXACT,
                            method="single-element")
    return None


# ---------------------------------------------------------------------------
# Lambda(p) and Sidon constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AscentConfig:
    """Projected-gradient-ascent budget (defaults: 64 restarts, 500 steps)."""

    seed: int
    restarts: int = 64
    steps: int = 500

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"ascent restarts must be >= 1, got {self.restarts}")
        if self.steps < 0:
            raise ValueError(f"ascent steps must be >= 0, got {self.steps}")


def _random_starts(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


def _ascent_basis(charset: CharacterSet, restarts: int) -> np.ndarray:
    """The character matrix, for an ascent.

    Checked first against MAX_ARRAY_BYTES: the matrix alone, then a bound on
    all the ascent holds, in rows of ``order`` complex entries: the matrix
    (m rows; building it takes no more) and three rows per restart. The
    ascent computes its values block by block (``kernels.POINT_BLOCK``
    points), so it holds at most two complex entries per restart and block
    point besides the matrix (the values, and the objective's magnitudes or
    squares and weights): the bound holds with room to spare wherever N is
    larger than a block.
    """
    check_array_bytes("character matrix", (charset.order, charset.size), np.complex128)
    check_array_bytes("ascent working set", (charset.size + 3 * restarts, charset.order),
                      np.complex128)
    return charset.matrix()


def _sumsets(charset: CharacterSet, k: int, restarts: int) -> Sumsets | None:
    """The ``kernels.Sumsets`` of an L_2k ascent, or None where the dense route is due.

    The levels are built one at a time, and the dense route is due as soon
    as the products that one evaluation forms per restart,
    sum_(i<k) |L_i| m, pass N, the points it takes on the dense route, or
    where m^2k, the bound on a direction's squared norm for a unit
    coefficient vector (m^k bounds sum_s |c_k[s]|^2), is not a finite float,
    or where sums of residues may leave int64. Each
    table is checked against MAX_ARRAY_BYTES before it is made, and then all
    the ascent holds, in complex entries: per restart, six rows of m (the
    starts, coefficients, trials and directions ``kernels._sphere_ascent``
    keeps, and two to spare for its per-restart scalars), every level (a
    round's coefficients, the level it gathers from and the one it gathers
    into), and the largest step's products with their padded gather (the
    direction's gather and product take no more); and an entry per table
    index.
    """
    order, m = charset.order, charset.size
    if 2 * k * math.log2(m) >= 1024 or order > 2 ** 62:
        return None
    freqs = np.asarray(charset.freqs, dtype=np.int64)
    level, gathers, products = freqs, [], 0
    for _ in range(k - 1):
        products += len(level) * m
        if products > order:
            return None
        check_array_bytes("sumset table", (len(level), m), np.int64)
        sums = np.add.outer(level, freqs)
        sums %= order
        level, positions = np.unique(sums, return_inverse=True)
        positions = positions.reshape(sums.shape)
        counts = np.bincount(positions.ravel())
        check_array_bytes("sumset table", (counts.max(), len(level)), np.int64)
        # pair t * m + j of each sum, in increasing order, padded with the zero row
        gather = np.full((counts.max(), len(level)), sums.size)
        rank = np.arange(sums.size) - np.repeat(np.cumsum(counts) - counts, counts)
        gather[rank, np.repeat(np.arange(len(level)), counts)] = np.argsort(positions.ravel(),
                                                                             kind="stable")
        gathers.append(gather)
    sizes = [m] + [g.shape[1] for g in gathers]
    step = max(size * m + 1 + g.size for size, g in zip(sizes, gathers))
    indices = positions.size + sum(g.size for g in gathers)
    check_array_bytes("ascent working set", (restarts * (6 * m + sum(sizes) + step) + indices,),
                      np.complex128)
    return Sumsets(gathers, positions)


def kp_constant_lower(charset: CharacterSet, p, cfg: AscentConfig) -> NormEstimate:
    """Best found ratio ||f||_p / ||f||_2 over span(charset), p >= 2.

    A certified lower bound for the Lambda(p) constant: every evaluated
    ratio of exact group averages is attained by its witness coefficients.
    p = 2 returns 1 exactly (Parseval), and p = inf sqrt(m), with no ascent or
    character matrix: sup|f| <= sum|a_k| <= sqrt(m) ||f||_2 (Cauchy-Schwarz),
    with equality at a = 1, x = 0. At p = 2k, where ``_sumsets`` takes the
    coefficient side, the ascent runs on the k-fold sumsets and the ratio
    (sum_s |c_k[s]|^2)^(1/p) / ||a||_2 comes from the witness's coefficients
    (Parseval on Z_N makes it the exact group average), so no character
    matrix is built; every other p takes the ascent on the group's points.
    """
    if charset.size == 0:
        raise ValueError("empty character set")
    e = parse_exponent(p)
    if e.recip > 0.5:
        raise ValueError("the Lambda(p) constant needs p >= 2")
    m = charset.size
    if e.recip == 0.5 or m == 1:
        coeffs = np.zeros(m, dtype=np.complex128)
        coeffs[0] = 1.0
        return NormEstimate(1.0, Certainty.EXACT, method="parseval", witness=coeffs)
    if e.recip == 0.0:
        return NormEstimate(math.sqrt(m), Certainty.LOWER, method="cauchy-schwarz-attained",
                            witness=np.full(m, 1.0 / math.sqrt(m), dtype=np.complex128))
    # p = 2k when the stored reciprocal is 1 / (2k) (1 / (1 / 98) is not 98)
    even = round(e.value)
    sumsets = (_sumsets(charset, even // 2, cfg.restarts)
               if even % 2 == 0 and e.recip == 1.0 / even else None)
    if sumsets is None:
        basis, pv = _ascent_basis(charset, cfg.restarts), 1.0 / e.recip
    else:
        basis, pv = sumsets, even
    starts = _random_starts(make_rng(cfg.seed), cfg.restarts, m)
    vals, coeffs = lp_ascent(basis, pv, starts=starts, max_steps=cfg.steps)
    best = int(np.argmax(vals))
    witness = coeffs[best]
    if sumsets is not None:
        return NormEstimate(float(vals[best] / np.linalg.norm(witness)), Certainty.LOWER,
                            method="projected-ascent[sumsets]", witness=witness)
    f = SpanElement(charset, witness)
    value = lp_norm_of_span(f, e) / lp_norm_of_span(f, 2)
    return NormEstimate(value, Certainty.LOWER, method="projected-ascent", witness=witness)


def sidon_constant_lower(charset: CharacterSet, cfg: AscentConfig) -> NormEstimate:
    """Best found ratio sum_k |a_k| / sup_G |f| over span(charset).

    Certified lower bound for the Sidon constant, floored at 1, which a single
    character attains exactly (|gamma_k(x)| may round above 1).
    """
    if charset.size == 0:
        raise ValueError("empty character set")
    m = charset.size
    basis = _ascent_basis(charset, cfg.restarts)
    starts = _random_starts(make_rng(cfg.seed), cfg.restarts, m)
    starts[0] = 0.0
    starts[0, 0] = 1.0  # singleton witness
    vals, coeffs = ratio_ascent(basis, starts=starts, max_steps=cfg.steps)
    best = int(np.argmax(vals))
    witness = coeffs[best]
    f = SpanElement(charset, witness)
    value = max(1.0, lp_norm(witness, Exponent(1.0)) / lp_norm_of_span(f, "inf"))
    return NormEstimate(value, Certainty.LOWER, method="projected-ascent", witness=witness)


def kp_growth_profile(charset: CharacterSet, p_values, cfg: AscentConfig):
    """Lambda(p) lower bounds across a p-grid, with the K_p / sqrt(p) column.

    Boundedness of that column across the grid is the Sidon criterion to
    eyeball; a singleton gives K_p = 1 and ratios 1/sqrt(p).
    """
    rows = []
    for i, p in enumerate(p_values):
        est = kp_constant_lower(charset, p, replace(cfg, seed=substream(cfg.seed, i)))
        pv = parse_exponent(p).value
        rows.append({"p": float(pv), "estimate": est, "ratio": est.value / np.sqrt(pv)})
    return rows
