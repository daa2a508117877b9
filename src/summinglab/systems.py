"""Orthonormal systems: Gaussian sequences and characters on the cyclic group Z_N.

Character systems integrate exactly (normalized counting average over the
group); the Gaussian system integrates by seeded Monte Carlo, in one loop
whose MC_BLOCK-row blocks are drawn, gathered and reduced on a pool of at
most ``MC_WIDTH`` threads, each from its own substream, one pool task per
run of consecutive blocks, and whose sums are added in block order, so the
result depends neither on the core count nor on how blocks are grouped in
runs. A Schatten space's full grid of matrix units draws each sample as the
2n - 1 chi entries of a bidiagonal matrix with a Gaussian matrix's singular
values; at S_inf a run's blocks are reduced together. On top of the systems
sit the Lambda(p)-constant and Sidon-constant estimators, which are
nonconvex maximizations shipped as ascent-with-restarts giving certified
lower bounds.
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


@lru_cache(maxsize=64)
def _character_matrix(order: int, freqs: tuple[int, ...]) -> np.ndarray:
    check_array_bytes("character matrix", (order, len(freqs)), np.complex128)
    # phases as exact integer residues, then one exp call
    k = np.asarray(freqs, dtype=np.int64)
    mat = np.exp(2j * np.pi * ((np.outer(np.arange(order), k) % order) / order))
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

    Character systems always integrate by exact group averages; the
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
# projected working set: four S_inf bidiagonal blocks at n = 64 (1.97 MB),
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
    what it draws; the block's squared norms; and the kernel's arrays,
    rounded up to whole rows. A family that gathers holds rows of
    flat_dim: the block of the rows the kernel reads, drawn there when the
    gather is the identity (dim == flat_dim), otherwise gathered from the
    slot's own (MC_BLOCK, dim) coefficients, and three blocks more on
    Schatten spaces (a bound on the SVD's singular values, their scaled
    copy and its one-matrix workspace), a magnitude and a scaled copy of the
    block on sequence spaces. A family that draws bidiagonals holds rows of
    its 2n - 1 chi entries at S_4 and S_inf. At S_4,
    ``bidiagonal_schatten_norms`` holds at most twelve n-entry arrays and 32
    more entries per matrix. At S_inf, the ``SpectralRun`` holds 2n + 1
    entries per matrix of the run, and on top either the temporaries of
    appending a block (3n + 128 entries per matrix of the block: three
    n-entry arrays, and numpy's buffers for the strided operands) or the
    Laguerre iteration's (48 + n/8 entries per matrix of the run for its
    vectors and pivot signs, and 200 per matrix entry for the views it
    makes once), never both at once. At any other exponent, rows of
    flat_dim for the draws, the materialized block and the three blocks
    more of ``schatten_norm_batch``. Only the S_inf route grows with
    ``run``: the others reduce each block in the slot before they draw the
    next.
    """
    flat = space.flat_dim
    if _draws_bidiagonal(dim, space):
        n, entries = space.dim, 2 * space.dim - 1
        if _runs_spectral(dim, space):
            columns = (2 * n + 1) * run * MC_BLOCK
            append = (3 * n + 128) * MC_BLOCK
            iterate = (48 + -(-n // 8)) * run * MC_BLOCK + 200 * n
            return MC_BLOCK + -(-(columns + max(append, iterate)) // entries), entries
        if space.exponent.value == 4.0:
            return (MC_BLOCK + -(-MC_BLOCK // entries)
                    + -(-(12 * n + 32) * MC_BLOCK // entries)), entries
        return (-(-MC_BLOCK * entries // flat) + -(-MC_BLOCK // flat)
                + 4 * MC_BLOCK), flat
    rows = MC_BLOCK + -(-MC_BLOCK // flat)
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


def _two_sums(q) -> tuple[float, float]:
    # a block's sum of squared norms and of their squares; q is overwritten
    np.square(q, out=q)
    return float(q.sum()), float((q * q).sum())


def _run_sums(family: UnitFamily, seed, first: int, counts, slots,
              one_pass) -> list[tuple[float, float]]:
    # On a pool thread: draw blocks first, first + 1, ... (counts[i] rows for
    # block first + i) into a free slot in turn, as bidiagonals or as
    # coefficients gathered there unless the gather is the identity, and
    # reduce each to its two sums. At S_inf the bidiagonal blocks go to the
    # slot's SpectralRun instead, which reduces them all at once while it
    # holds the one_pass lock. The pool's threads are as many as the slots,
    # so get() never waits.
    slot = rows, coeffs, spectral = slots.get()
    try:
        space, sums = family.space, []
        for index, count in enumerate(counts, first):
            rng = make_rng(substream(seed, index))
            if _draws_bidiagonal(family.size, space):
                n = space.dim
                chis = gaussian_bidiagonal(rng, count, n, out=rows[:count])
                if spectral is not None:
                    spectral.append(chis[:, :n], chis[:, n:])
                    continue
                q = bidiagonal_schatten_norms(chis[:, :n], chis[:, n:], space.exponent.value)
            else:
                drawn = standard_gaussians(rng, (count, family.size),
                                           out=(rows if coeffs is None else coeffs)[:count])
                q = norms_of_stack(family.synthesize(drawn, out=rows[:count]), space)
            sums.append(_two_sums(q))
        if spectral is not None:
            with one_pass:
                q = spectral.norms()
            sums = [_two_sums(part) for part in np.split(q, np.cumsum(counts[:-1]))]
        return sums
    finally:
        slots.put(slot)


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
    (and gathers) each block into a free slot and reduces it to its two
    sums; at S_inf it appends each bidiagonal block to the slot's
    SpectralRun and reduces the run in one Laguerre pass, whose numpy calls
    then act on the run's rows instead of one block's (numpy's Philox and
    gamma fills, ``take``, ``matmul`` and LAPACK release the GIL). There is
    one slot per thread, allocated once per call, so nothing block-sized is
    allocated inside the loop but the kernel's temporaries. The caller keeps
    at most two tasks per thread in flight and adds each block's sums in
    block order, so the result is the same float however the tasks
    interleave and however the blocks are grouped into runs. The value is a
    Monte Carlo estimate, so it is ``lower`` with a standard error (delta
    method on the square root).
    """
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo integration")
    if samples < 2:
        raise ValueError(f"Monte Carlo integration needs >= 2 samples for a stderr, got {samples}")
    space, dim = family.space, family.size
    width, run = _mc_width(dim, space, samples)
    # imported here: concurrent.futures loads logging and queue, about 5 ms
    # of start-up that the commands without Monte Carlo need not pay
    import queue
    from concurrent.futures import ThreadPoolExecutor

    # one array per part for all slots: slot i is (drawn or kernel rows,
    # coefficients, S_inf run)[i]
    row = 2 * space.dim - 1 if _draws_bidiagonal(dim, space) else space.flat_dim
    kernel_rows = np.empty((width, MC_BLOCK, row))
    coeffs = np.empty((width, MC_BLOCK, dim)) if dim < space.flat_dim else [None] * width
    spectral = ([SpectralRun(space.dim, run * MC_BLOCK) for _ in range(width)]
                if _runs_spectral(dim, space) else [None] * width)
    slots = queue.SimpleQueue()
    for slot in zip(kernel_rows, coeffs, spectral):
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
            running.append(pool.submit(_run_sums, family, seed, first, counts, slots, one_pass))
        for task in running:
            sums.extend(task.result())
    finally:
        # after an error, drop the queued tasks; the running ones end first
        pool.shutdown(cancel_futures=True)
    total = 0.0
    total_sq = 0.0
    for s, s2 in sums:
        total += s
        total_sq += s2
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    value = float(np.sqrt(mean))
    stderr = float(np.sqrt(var / samples) / (2.0 * value)) if value > 0 else 0.0
    return NormEstimate(value, Certainty.LOWER, stderr=stderr, method="mc-gaussian")


def second_moment(system: OrthonormalSystem, family: UnitFamily | VectorSystem, *,
                  samples: int = 100_000, seed=None) -> NormEstimate:
    """(average of ||sum_i b_i(omega) y_i||^2)^(1/2) over the system, y = family.

    Matrix units in distinct rows and columns are taken as the l_u^m basis
    they span (``spaces.sequence_copy``), with no matrix formed. Character
    systems pair y_i with the first m characters of the set and average
    exactly over the group (certified). The Gaussian system takes
    unit families: blocked Monte Carlo with a reported standard error,
    except where ``gaussian_closed_form`` gives the value.
    """
    family = sequence_copy(family)
    space, m = family.space, family.size
    if system.kind == "characters":
        cset = system.charset
        if m > cset.size:
            raise ValueError(f"family size {m} exceeds the character set ({cset.size})")
        check_array_bytes("group-average values", (cset.order, space.flat_dim),
                          np.complex128)
        vals = family.synthesize(cset.matrix()[:, :m])
        value = lp_norm(norms_of_stack(vals, space), Exponent(0.5)) / math.sqrt(len(vals))
        return NormEstimate(value, Certainty.EXACT, method="group-average")

    if not isinstance(family, UnitFamily):
        raise ValueError("the Gaussian system integrates unit families")
    exact = gaussian_closed_form(space, *family.elements.shape)
    if exact is not None:
        return exact
    return _mc_second_moment(family, samples, seed)


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

    Checked first against MAX_ARRAY_BYTES: the matrix alone, then all the
    ascent holds, in rows of ``order`` complex entries: the matrix (m rows;
    building it takes no more), and three rows per restart for a round of
    ``kernels._sphere_ascent``: its trial values (a row) and their
    magnitudes (half a row), and as much again for the copies its gradient
    takes of them (the last round's are dropped before the next product).
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
