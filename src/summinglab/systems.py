"""Orthonormal systems: Gaussian sequences and characters on the cyclic group Z_N.

``second_moment`` integrates unit families of two shapes only: sequence
families, among them the l_u^m basis that matrix units in distinct rows
and columns span (``spaces.sequence_copy``), and a Schatten space's full
grid; it refuses any other Schatten unit family. Character systems
integrate exactly: a sequence family by the modulus-one closed form, the
full grid and dense families by the normalized counting average over the
group. On the Gaussian system, where no closed form applies,
``second_moment`` reduces the family to a space once: sum_i g_i x_i is
the standard Gaussian vector of S_v^n for the full grid, and s^(1/v) times
that of l_v^m for m blocks of s ones. The Monte Carlo loop
(``_mc_second_moment``) takes that space and integrates ||g||^2 over it,
in MC_BLOCK-row blocks drawn and reduced on a pool of at most ``MC_WIDTH``
threads, each from its own substream, one pool task per run of
consecutive blocks, whose moments are added in block order, so the result
depends neither on the core count nor on how blocks are grouped in runs.
On l_v^m a sample is a Gaussian row; on S_v^n it is the 2n - 1 chi
entries of a bidiagonal B with a Gaussian matrix's singular values, and
at S_inf a run's blocks are reduced together. Every control variate has
an exactly known mean (``_controls``): the squared Frobenius norm; on
S_v^n tr T^2 and tr T^3 of T = B^T B too (real-Wishart moments), and on
l_v^m up to v = 4 ||g||_v^v. From 1024 samples on, the estimate is the
sample mean corrected along the least-squares regression on them,
dropping the last control where the fit fails, and below it the plain
mean. On top of the systems sit the Lambda(p)-constant and Sidon-constant
estimators: nonconvex maximizations shipped as ascent-with-restarts
giving certified lower bounds.
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
from .kernels import (SpectralRun, Sumsets, bidiagonal_schatten_norms, bidiagonal_traces,
                      lp_ascent, ratio_ascent)
from .rng import gaussian_bidiagonal, make_rng, standard_gaussians, substream
from .spaces import (Exponent, SpaceDescriptor, SpaceKind, UnitFamily, VectorSystem,
                     _ones_norm, lp_norm, norms_of_stack, parse_exponent, sequence_copy,
                     sequence_space)

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


# Bytes to which taking more blocks per pool task may grow a thread's
# projected working set: four S_inf bidiagonal blocks at n = 64 (1.98 MB),
# whose iteration then acts on about a thousand rows a numpy call. Not a
# setting.
MC_RUN_BYTES = 2 ** 21


def _runs_spectral(space: SpaceDescriptor) -> bool:
    """Whether a run of blocks is reduced at once, by one ``kernels.SpectralRun``.

    So it is for bidiagonal draws at S_inf, whose Laguerre iteration makes a
    dozen numpy calls per matrix entry and iteration, on vectors as long as
    the rows it reduces at once; every other route reduces each block as it
    is drawn.
    """
    return space.kind is SpaceKind.SCHATTEN and space.exponent.value == np.inf


def _mc_working_set(space: SpaceDescriptor, run: int = 1) -> tuple[int, int]:
    """(rows, row length) of the float64 entries that one Monte Carlo thread holds.

    For a pool task of ``run`` blocks: its slot, an MC_BLOCK-row block of
    what it draws and, per matrix, the block's moment rows (a one, the
    squared norm and at most three controls); and the kernel's arrays,
    rounded up to whole rows. On l_v^m, rows of m: the drawn block, and a
    magnitude and a scaled copy of it for the norm. On S_v^n, whose samples
    are bidiagonals, rows of their 2n - 1 chi entries at S_4 and S_inf, and
    ``bidiagonal_traces`` at most three n-entry arrays and 128 more entries
    per matrix (numpy's buffers for its reductions). At S_inf, the
    ``SpectralRun`` holds 2n + 1 entries per matrix of the run and the slot
    its moment rows per matrix of the run, until the run's norms are taken; on top, either the temporaries of
    appending a block (3n + 128 entries per matrix of the block: three
    n-entry arrays, and numpy's buffers for the strided operands or the
    traces' reductions) or the Laguerre iteration's (48 + n/8 entries per
    matrix of the run for its vectors and pivot signs, and 200 per matrix
    entry for the views it makes once), never both at once. At any other
    exponent, rows of flat_dim for the draws, the traces' temporaries, the
    materialized block and one block more for the copy of it that the SVD
    takes. Only the S_inf route grows with ``run``: the others reduce each
    block in the slot before they draw the next. numpy's ufunc staging
    buffers are not counted here but by ``_mc_width``.
    """
    flat, moments = space.flat_dim, 2 + 3
    if space.kind is SpaceKind.SEQUENCE:
        return MC_BLOCK + -(-moments * MC_BLOCK // flat) + 2 * MC_BLOCK, flat
    n, entries = space.dim, 2 * space.dim - 1
    traces = (3 * n + 128) * MC_BLOCK
    if _runs_spectral(space):
        columns = (2 * n + 1 + moments) * run * MC_BLOCK
        append = (3 * n + 128) * MC_BLOCK
        iterate = (48 + -(-n // 8)) * run * MC_BLOCK + 200 * n
        return MC_BLOCK + -(-(columns + max(append, iterate)) // entries), entries
    if space.exponent.value == 4.0:
        return MC_BLOCK + -(-(moments * MC_BLOCK + traces) // entries), entries
    return (-(-MC_BLOCK * entries // flat) + -(-(moments * MC_BLOCK + traces) // flat)
            + 2 * MC_BLOCK), flat


# Entries of numpy's ufunc staging buffers that a working set allows, a
# Monte Carlo thread's or an ascent's: np.getbufsize() per operand a
# broadcasting or casting ufunc stages, for up to three operands. The
# sequence reduction's ``mags / peak`` stages one: a tracemalloc of it on a
# 256 x 32 block peaked at 134 kB, against the 66 kB of its result.
_STAGED = 3 * np.getbufsize()


def _mc_width(space: SpaceDescriptor, samples: int) -> tuple[int, int]:
    """(threads, blocks per pool task) for one Monte Carlo loop, checked against MAX_ARRAY_BYTES.

    Threads: at most MC_WIDTH, the number of MC_BLOCK-row blocks, and as
    many as ``_mc_working_set`` of one block and ``_STAGED`` entries, in
    whole rows, fit under the cap; a working set over the cap even at width
    1 is refused before any allocation. A task then takes a run of as many
    consecutive blocks as keep its working set, without the staged entries,
    within MC_RUN_BYTES (at least one), and at most a 2 * width-th of the
    blocks, so that every thread gets work.
    """
    blocks = -(-samples // MC_BLOCK)
    rows, length = _mc_working_set(space)
    staged = -(-_STAGED // length)
    cap = MAX_ARRAY_BYTES // (length * 8)
    width = max(1, min(MC_WIDTH, blocks, cap // (rows + staged)))
    run = 1
    while (run < -(-blocks // (2 * width))
           and _mc_working_set(space, run + 1)[0] * length * 8 <= MC_RUN_BYTES):
        run += 1
    check_array_bytes("Monte Carlo chunk working set",
                      (width * (_mc_working_set(space, run)[0] + staged), length), np.float64)
    return width, run


# Fewest samples from which the Monte Carlo loop fits its controls; below,
# it takes the plain mean. A fitted control has a bias of order 1/samples
# against a standard error of order samples^(-1/2): in repeated fits on
# l_1^8, l_4/3^8, l_4^8 and l_4^32, one control's two-sigma interval held
# the true value 0.885-0.909 of the time at 16 samples and 0.925-0.947 at
# 64, against the plain mean's 0.924-0.931 and 0.946-0.953; two controls
# on l_4^8, S_4^3 and S_4^8 left a bias of 0.14-0.2 standard deviations at
# 256 samples, and from 1024 on the coverage was 0.945-0.952. Not a
# setting.
MC_CONTROL_SAMPLES = 1024


def _gaussian_abs_moment(v: float) -> float:
    """E |g|^v of a standard Gaussian g: 2^(v/2) Gamma((v + 1)/2) / sqrt(pi).

    At even v it is the integer (v - 1)!!, taken exactly.
    """
    if v % 2 == 0:
        return float(math.prod(range(1, int(v), 2)))
    return 2.0 ** (v / 2) * math.gamma((v + 1) / 2) / math.sqrt(math.pi)


def _trace_means(n: int) -> tuple[int, int, int]:
    """E tr W, E tr W^2 and E tr W^3 of the real Wishart W = G^T G of an n x n Gaussian G.

    n^2, n^2 (2n + 1) and n^2 (5n^2 + 6n + 4) (Letac and Massam, Scand. J.
    Statist. 31, 2004), exact integers.
    """
    return n * n, n * n * (2 * n + 1), n * n * (5 * n * n + 6 * n + 4)


def _controls(space: SpaceDescriptor) -> tuple[float, np.ndarray]:
    """(shift of Y, exact means of the controls) of the Monte Carlo loop on ``space``.

    Every sample's first control is C, the sum of its squared coordinates
    (on S_v^n the Frobenius norm, which the bidiagonal keeps), of mean
    ``space.flat_dim``. On S_v^n the bidiagonal B adds tr T^2 and tr T^3 of
    T = B^T B (``_trace_means``); Y is shifted by Gordon's (2 sqrt n)^2 = 4n
    at S_inf and by E tr T^2 ^ (1/2) at S_4. On l_v^m up to v = 4,
    Z = ||g||_v^v is a control, of mean m E|g|^v (3m at v = 4), and Y is
    shifted by that mean's power 2/v. Above v = 4 Z's mean rests on ever
    rarer large draws: at 2000 samples the fit's bias measured 0.17-0.2
    standard deviations at v = 6 and 8 for a variance cut of 1.5x and 1.2x,
    and its two-sigma coverage 0.8 at v = 16; there C is the one control,
    and Y is not shifted.
    """
    v = space.exponent.value
    if space.kind is SpaceKind.SCHATTEN:
        means = _trace_means(space.dim)
        return ({4.0: means[1] ** 0.5, np.inf: 4.0 * space.dim}.get(v, 0.0),
                np.array(means, dtype=float))
    if v > 4:
        return 0.0, np.array([float(space.flat_dim)])
    mu_z = space.dim * _gaussian_abs_moment(v)
    return mu_z ** (2 / v), np.array([float(space.flat_dim), mu_z])


def _block_moments(block, shift: float, means) -> np.ndarray:
    # A block's sums of the products of its rows (1, Y, controls), taken
    # after Y is shifted by ``shift`` and each control by its exact mean in
    # place: about known shifts, the sums keep the digits that raw moments
    # would cancel. One einsum, no BLAS: the float does not depend on the
    # machine's BLAS or its threads.
    block[1] -= shift
    block[2:] -= means[:, None]
    return np.einsum("ik,jk->ij", block, block)


def _run_sums(space: SpaceDescriptor, seed, first: int, counts, slots, one_pass, shift,
              means) -> list[np.ndarray]:
    # On a pool thread: draw blocks first, first + 1, ... (counts[i] rows for
    # block first + i) into a free slot in turn, as bidiagonals on S_v^n or
    # as Gaussian rows of l_v^m, and write each block's columns of the
    # slot's moment rows (1, Y, controls): C (the sum of squares of the chi
    # row, or of the Gaussian row) before the kernel runs; a bidiagonal's
    # tr T^2 and tr T^3, whose square root at S_4 is Y; and Z = Y^(v/2) where
    # it is a control. Each block is then reduced to its moments
    # (``_block_moments``). At S_inf the bidiagonal blocks go to the slot's
    # SpectralRun instead, which writes their traces and reduces them all
    # at once while it holds the one_pass lock; their moment rows wait in
    # the slot. The pool's threads are as many as the slots, so get() never
    # waits.
    slot = rows, spectral, moments = slots.get()
    try:
        sums, held = [], 0
        v = space.exponent.value
        for index, count in enumerate(counts, first):
            rng = make_rng(substream(seed, index))
            block = moments[:, held:held + count]
            y, c = block[1], block[2]
            if space.kind is SpaceKind.SCHATTEN:
                n = space.dim
                chis = gaussian_bidiagonal(rng, count, n, out=rows[:count])
                np.einsum("ij,ij->i", chis, chis, out=c)
                diag, sup = chis[:, :n], chis[:, n:]
                if spectral is not None:
                    spectral.append(diag, sup, block[3:])
                    held += count
                    continue
                bidiagonal_traces(diag, sup, out=block[3:])
                if v == 4:
                    np.sqrt(block[3], out=y)
                else:
                    np.square(bidiagonal_schatten_norms(diag, sup, v), out=y)
            else:
                drawn = standard_gaussians(rng, (count, space.dim), out=rows[:count])
                np.einsum("ij,ij->i", drawn, drawn, out=c)
                np.square(norms_of_stack(drawn, space), out=y)
                if len(means) == 2:
                    np.power(y, v / 2, out=block[3])
            sums.append(_block_moments(block, shift, means))
        if spectral is not None:
            with one_pass:
                q = spectral.norms()
            np.square(q, out=moments[1, :held])
            sums = [_block_moments(moments[:, start:start + count], shift, means)
                    for start, count in zip(np.cumsum(counts) - counts, counts)]
        return sums
    finally:
        slots.put(slot)


def _coefficients(cov) -> np.ndarray | None:
    # The coefficients of A on the controls from the covariance of
    # (A, controls), or None unless the controls' covariance is positive
    # definite, and not only by rounding: every pivot of its correlation
    # matrix above 1e-9 (for two controls, 1 - rho^2 > 1e-9), so that no
    # control is a line in the others
    scale = np.sqrt(np.diag(cov)[1:])
    if not np.all(scale > 0):
        return None
    corr = cov[1:, 1:] / np.outer(scale, scale)
    try:
        if np.diag(np.linalg.cholesky(corr)).min() ** 2 > 1e-9:
            return np.linalg.solve(corr, cov[1:, 0] / scale) / scale
    except np.linalg.LinAlgError:
        pass
    return None


def _controlled_moment(moments, shift: float = 0.0) -> tuple[float, float]:
    """(mean, stderr of the mean) of Y from the summed block moments.

    ``moments`` is the (k + 2) x (k + 2) sum over the samples of the
    products of (1, A, B_1, ..., B_k), with A = Y - shift and B_i the i-th
    control less its exact mean (``_block_moments``): its corner is the
    sample count. The estimator and its fallbacks are
    ``_mc_second_moment``'s; the variance is over the samples less the
    parameters fitted, the mean counted.
    """
    n = moments[0, 0]
    mean = moments[0, 1:] / n
    cov = moments[1:, 1:] / n - np.outer(mean, mean)
    for k in range(len(mean) - 1 if n >= MC_CONTROL_SAMPLES else 0, -1, -1):
        beta = _coefficients(cov[:k + 1, :k + 1]) if k else np.zeros(0)
        if beta is None:
            continue
        value = shift + (mean[0] - beta @ mean[1:k + 1])
        if value > 0 or not k:
            var = max(cov[0, 0] - beta @ cov[1:k + 1, 0], 0.0) * (n / (n - k - 1))
            return float(value), math.sqrt(var / n)


def _mc_second_moment(space: SpaceDescriptor, samples: int, seed) -> NormEstimate:
    """(E ||g||^2)^(1/2) of the standard Gaussian vector g of ``space``, l_v^m or S_v^n.

    Block k is MC_BLOCK samples drawn from ``substream(seed, k)``. On l_v^m
    a sample is a row of m standard Gaussians. On S_v^n it is the 2n - 1
    chi entries of a bidiagonal B with the singular values of an n x n
    Gaussian matrix (``rng.gaussian_bidiagonal``: 2n - 1 variates instead of
    n^2), reduced at S_4 by ``bidiagonal_traces``, at S_inf by a
    ``kernels.SpectralRun`` and at any other exponent by
    ``bidiagonal_schatten_norms``. One pool task per run of consecutive
    blocks, on ``_mc_width`` threads with its run length, draws each block
    into a free slot, writes each sample's Y = ||g||^2 and its controls
    there, and reduces the block to its moments (``_run_sums``). Every
    control has an exact mean (``_controls``): C = ||g||_2^2 of the
    coordinates (the squared Frobenius norm, which B keeps); on S_v^n
    tr T^2 and tr T^3 of T = B^T B, computed in O(n) from the tridiagonal
    the kernels form, the S_4 value being (tr T^2)^(1/2); on l_v^m up to
    v = 4, Z = ||g||_v^v. At S_inf the task appends each block to the
    slot's SpectralRun, keeps its moment rows in the slot, and reduces the
    run in one Laguerre pass, whose numpy calls then act on the run's rows
    instead of one block's (numpy's Philox and gamma fills and LAPACK
    release the GIL). There is one slot per thread, allocated once per
    call, so nothing block-sized is allocated inside the loop but the
    kernel's temporaries. The caller keeps at most two tasks per thread in
    flight and, as it takes each task's result, adds each block's moments
    to one running total in block order, so the result is the same float
    however the tasks interleave and however the blocks are grouped into
    runs. From MC_CONTROL_SAMPLES samples on, the mean of Y is estimated as
    Ybar - beta . (Bbar - mu), with beta the coefficients of Y on the k
    controls B from their k x k normal equations and the regression's
    residual variance over samples - k - 1 (Glasserman, Monte Carlo Methods
    in Financial Engineering, 2003, section 4.1). Where the controls'
    covariance is not positive definite (one a line in the others) or the
    corrected mean is not positive, the last control is dropped and the fit
    taken again; with none left, and under MC_CONTROL_SAMPLES samples, it
    is the plain mean with its variance over samples - 1
    (``_controlled_moment``). The value is a Monte Carlo estimate, so it is
    ``lower`` with a standard error (delta method on the square root).
    """
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo integration")
    if samples < 2:
        raise ValueError(f"Monte Carlo integration needs >= 2 samples for a stderr, got {samples}")
    width, run = _mc_width(space, samples)
    shift, means = _controls(space)
    # imported here: concurrent.futures loads logging and queue, about 5 ms
    # of start-up that the commands without Monte Carlo need not pay
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # one array per part for all slots: slot i is (drawn rows, S_inf run,
    # moment rows)[i]
    row = 2 * space.dim - 1 if space.kind is SpaceKind.SCHATTEN else space.dim
    kernel_rows = np.empty((width, MC_BLOCK, row))
    held = run * MC_BLOCK if _runs_spectral(space) else MC_BLOCK
    spectral = ([SpectralRun(space.dim, held) for _ in range(width)]
                if _runs_spectral(space) else [None] * width)
    moments = np.empty((width, 2 + len(means), held))
    moments[:, 0] = 1.0
    slots = queue.SimpleQueue()
    for slot in zip(kernel_rows, spectral, moments):
        slots.put(slot)
    # One Laguerre pass at a time: a pass is thousands of short numpy calls,
    # each of which drops and retakes the GIL on vectors of over 500 rows,
    # so two passes at once mostly hand the GIL to each other; the other
    # threads draw and append their next blocks meanwhile.
    one_pass = threading.Lock()
    blocks = -(-samples // MC_BLOCK)
    totals = np.zeros((2 + len(means),) * 2)
    running = deque()  # each run's task, in block order
    pool = ThreadPoolExecutor(width)
    try:
        for first in range(0, blocks, run):
            if len(running) == 2 * width:
                for block in running.popleft().result():
                    totals += block
            counts = [min(MC_BLOCK, samples - index * MC_BLOCK)
                      for index in range(first, min(first + run, blocks))]
            running.append(pool.submit(_run_sums, space, seed, first, counts, slots, one_pass,
                                       shift, means))
        for task in running:
            for block in task.result():
                totals += block
    finally:
        # after an error, drop the queued tasks; the running ones end first
        pool.shutdown(cancel_futures=True)
    mean, stderr = _controlled_moment(totals, shift)
    value = float(np.sqrt(mean))
    stderr = float(stderr / (2.0 * value)) if value > 0 else 0.0
    return NormEstimate(value, Certainty.LOWER, stderr=stderr, method="mc-gaussian")


def second_moment(system: OrthonormalSystem, family: UnitFamily | VectorSystem, *,
                  samples: int = 100_000, seed=None) -> NormEstimate:
    """(average of ||sum_i b_i(omega) y_i||^2)^(1/2) over the system, y = family.

    Matrix units in distinct rows and columns are taken as the l_u^m basis
    they span (``spaces.sequence_copy``), with no matrix formed; any other
    Schatten unit family but the full grid raises ValueError. Character
    systems pair y_i with the first m characters of the set, exactly
    (certified): a unit family on a sequence space, such a copy included,
    by the closed form (ms)^(1/v), since sum_i gamma_i(x) y_i has ms
    entries of modulus one and zeros elsewhere at every x; the full grid
    and dense families by the average over the group's N points, computed
    block by block (``_group_norms``). The caps on the (N, flat_dim) values and the
    (N, size) character table bound what the average computes, a block at
    a time; neither table is formed whole. The Gaussian system takes
    unit families, and where ``gaussian_closed_form`` does not give the
    value, reduces the family to the space whose standard Gaussian vector
    sum_i g_i y_i is: the full grid spans S_v^n, and m blocks of s ones on
    l_v are s^(1/v) times the l_v^m basis. Blocked Monte Carlo
    (``_mc_second_moment``) integrates that space, with a reported standard
    error; a sequence family's value and stderr are scaled by s^(1/v).
    """
    family = sequence_copy(family)
    space, m = family.space, family.size
    if isinstance(family, UnitFamily) and space.kind is SpaceKind.SCHATTEN \
            and m != space.flat_dim:
        raise ValueError(f"{m} matrix units of {space} are neither in distinct rows and "
                         f"columns nor the full grid, the only Schatten unit families integrated")
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
    size = family.elements.shape[1]
    exact = gaussian_closed_form(space, m, size)
    if exact is not None:
        return exact
    if space.kind is SpaceKind.SCHATTEN:
        return _mc_second_moment(space, samples, seed)
    est = _mc_second_moment(sequence_space(space.exponent, m), samples, seed)
    scale = _ones_norm(size, space.exponent)
    return replace(est, value=scale * est.value, stderr=scale * est.stderr)


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
    (m rows; building it takes no more), three rows per restart, and the
    rows that hold numpy's ufunc staging buffers (``_STAGED`` entries). The
    ascent computes its values block by block (``kernels.POINT_BLOCK``
    points), so it holds at most two complex entries per restart and block
    point besides the matrix (the values, and the objective's magnitudes or
    squares and weights): the bound holds with room to spare wherever N is
    larger than a block.
    """
    check_array_bytes("character matrix", (charset.order, charset.size), np.complex128)
    check_array_bytes("ascent working set",
                      (charset.size + 3 * restarts + -(-_STAGED // charset.order), charset.order),
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
    direction's gather and product take no more); an entry per table
    index; and numpy's ufunc staging buffers (``_STAGED`` entries).
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
    check_array_bytes("ascent working set",
                      (restarts * (6 * m + sum(sizes) + step) + indices + _STAGED,), np.complex128)
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
