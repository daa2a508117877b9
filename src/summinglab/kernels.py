"""Hot numeric kernels: coefficient-sphere ascents, l_p norms, batched Schatten norms.

``schatten_norm_batch`` reduces a dense stack by one batched SVD and
``lp_norms`` of the singular values, at every exponent. The Monte Carlo
loop (``systems._mc_second_moment``) forms no such stack from Gaussian
rows: on S_v^n, the space the full grid of matrix units spans, it draws
upper-bidiagonal matrices B with the singular values of a Gaussian matrix,
given by their 2n - 1 entries. ``bidiagonal_traces`` gives tr (B^T B)^2
and tr (B^T B)^3 of each in O(n): the loop's controls, whose means are
exact, and at S_4 its value, ||B||_(S_4)^4 = tr (B^T B)^2. At S_inf the
loop appends a run of consecutive blocks to a ``SpectralRun``, which
writes each block's traces as it is appended and reduces the whole run in
one safeguarded Laguerre iteration on the tridiagonals B^T B, O(n) per
matrix: its numpy calls, a dozen per matrix entry and iteration, then act
on the run's rows instead of one block's, so fewer of them carry the same
work. At any other exponent ``bidiagonal_schatten_norms`` materializes the
matrices for ``schatten_norm_batch``.

Both ascents are one projected-gradient loop, ``_sphere_ascent``, that runs
every restart in lockstep: each round takes one backtracking trial for each
restart still searching, and asks an objective for all the trials' values
at once, and for the directions of the rows that go on. Each restart
follows the same iteration as a single-restart loop would; only the
grouping of the work differs, so values agree with such a loop to
floating-point roundoff. The one exception is ``ratio_ascent``'s sup with
exactly tied maxima (a singleton start on a full group), where roundoff
decides which tied point's subgradient is followed. The objective takes
one of two routes:

- on the group's points (``ratio_ascent``, and ``lp_ascent`` on an
  ``(N, m)`` basis): one pass over the points in blocks of POINT_BLOCK,
  each an ``(R, m) @ (m, POINT_BLOCK)`` product into scratch allocated
  once per ascent, so no round allocates a row of N values. The finite l_p
  objective keeps a running per-row peak of |v|^2 (taken from the real and
  imaginary parts), rescales its running sums when a block raises it, and
  takes every trial row's direction in the same pass, as
  ``conj(conj(w v) @ basis[block])``, with no copy of the basis. Its
  blocks do not depend on R, and a lone row is evaluated as a batch of
  two, so a restart's values do not depend on the other restarts, bit for
  bit. The sup ratio keeps the first point of largest |v| over the blocks;
- on the coefficients (``lp_ascent`` on ``Sumsets``, p = 2k): the k-fold
  convolution of the coefficients over the sumset tables gives
  ||f||_2k^2k = ||f^k||_2^2 (Rudin), in about sum_(i<k) |L_i| m products
  per restart instead of N values, formed in buffers allocated once per
  ascent. ``systems.kp_constant_lower`` takes it where that count is at
  most N. A restart's values there do not depend on the other restarts,
  bit for bit.

``benchmarks/bench_kernels.py`` times the public kernels.
"""

from __future__ import annotations

import math

import numpy as np


def active_backend() -> str:
    """Name of the backend dispatching the hot kernels (numpy is the only one)."""
    return "numpy"


# ---------------------------------------------------------------------------
# projected gradient ascent on the coefficient sphere, all restarts at once
# ---------------------------------------------------------------------------

def _carve(buf, shape):
    # a contiguous view of the first prod(shape) entries of a flat buffer
    return buf[:math.prod(shape)].reshape(shape)


def _row_norms(rows):
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))


# Initial step and convergence tolerance of the projected-gradient ascents.
ASCENT_STEP_SIZE = 0.1
ASCENT_TOL = 1e-8


def _sphere_ascent(starts, evaluate, max_steps):
    # starts: (nrestarts, m) complex. evaluate(coeffs) -> (values (R,),
    # direction) for rows of coefficients, where direction(keep) is the
    # (R', m) ascent direction of the rows that keep (a slice or a mask)
    # selects; it may read the round's scratch, which the next evaluation
    # overwrites, so it is called before that. Each restart maximizes the
    # value over ||a||_2 = 1 with one backtracking line search per step: an
    # improving trial is accepted and the step grows by 1.25, else the step
    # halves until it drops below 1e-7 * ASCENT_STEP_SIZE. A restart stops
    # after max_steps accepted steps, a relative gain <= ASCENT_TOL, a zero
    # gradient, or a failed line search.
    coeffs = starts / _row_norms(starts)[:, None]
    best, direction = evaluate(coeffs)
    grad = direction(slice(None))
    gnorm = _row_norms(grad)
    searching = (gnorm != 0.0) & (max_steps > 0)
    step = np.full(len(coeffs), ASCENT_STEP_SIZE)
    taken = np.zeros(len(coeffs), dtype=np.int64)
    min_step = 1e-7 * ASCENT_STEP_SIZE
    while searching.any():
        rows = np.flatnonzero(searching)
        trial = coeffs[rows] + (step[rows] / gnorm[rows])[:, None] * grad[rows]
        trial /= _row_norms(trial)[:, None]
        tbest, direction = evaluate(trial)
        up = tbest > best[rows]
        lost, won = rows[~up], rows[up]
        step[lost] *= 0.5
        searching[lost] = step[lost] >= min_step
        gain = (tbest[up] - best[won]) / best[won]
        coeffs[won] = trial[up]
        best[won] = tbest[up]
        step[won] *= 1.25
        taken[won] += 1
        more = up.copy()
        more[up] = (gain > ASCENT_TOL) & (taken[won] < max_steps)
        searching[won] = False
        if more.any():
            # gather the round's scratch only when some rows stop here
            nxt = rows[more]
            grad[nxt] = direction(slice(None) if more.all() else more)
            gnorm[nxt] = _row_norms(grad[nxt])
            searching[nxt] = gnorm[nxt] != 0.0
    return best, coeffs


# Points a block of the dense ascents' pass over the group holds. Fixed, not
# sized by the restarts, so that a restart's arithmetic does not depend on
# how many others share its rounds. Not a setting.
POINT_BLOCK = 2048


def _on_points(basis, rows):
    # The dense pass over the group's points: blocks(coeffs) yields
    # (start, part, vals) for POINT_BLOCK points at a time, with
    # part = basis[start:start + POINT_BLOCK] and vals = coeffs @ part.T, an
    # (R, len(part)) view carved whole (so contiguous) from scratch allocated
    # once for `rows` rows and overwritten by the next block.
    npoints = len(basis)
    width = min(npoints, POINT_BLOCK)
    scratch = np.empty(rows * width, dtype=complex)

    def blocks(coeffs):
        for start in range(0, npoints, width):
            part = basis[start:start + width]
            vals = _carve(scratch, (len(coeffs), len(part)))
            yield start, part, np.matmul(coeffs, part.T, out=vals)

    return width, blocks


def _lp_on_points(basis, p, rows):
    # The finite l_p objective on the points, with the direction of every
    # trial row taken in the same pass (most go on to take a step). Per row
    # it keeps the running peak of s = |v|^2 (from the real and imaginary
    # parts: no complex abs), the sum of (s / peak)^(p/2), and the sum of
    # conj(w v) @ basis with w = (s / peak)^(p/2 - 1), the direction's
    # conjugate: numpy's matmul takes no conjugated operand, and so no copy
    # of the basis is needed. When a block raises a row's peak from old to
    # new, the sums are rescaled by (old / new)^(p/2) and (old / new)^(p/2 - 1),
    # so nothing overflows at huge p. For integer p up to 10, w takes
    # multiplications (and a square root at odd p), which cost less than one
    # generic np.power.
    rows = max(rows, 2)  # a lone row is evaluated as two
    width, blocks = _on_points(basis, rows)
    sq, wt = np.empty(rows * width), np.empty(rows * width)
    half = p / 2.0
    whole, odd = divmod(int(p) - 2, 2) if p.is_integer() and 2.0 < p <= 10.0 else (None, None)

    def values(coeffs):
        count, m = coeffs.shape
        peak = np.full(count, np.finfo(float).tiny)  # no 0 / 0 on an all-zero row
        total = np.zeros(count)
        acc = np.zeros((count, m), dtype=complex)
        for _, part, vals in blocks(coeffs):
            s, w = _carve(sq, vals.shape), _carve(wt, vals.shape)
            np.square(vals.real, out=s)
            s += np.square(vals.imag, out=w)
            new = np.maximum(peak, s.max(axis=1))
            shrink = peak / new  # exactly 1 where the peak holds
            total *= shrink ** half
            acc *= (shrink ** (half - 1.0))[:, None]
            peak = new
            s /= peak[:, None]
            if whole is None:
                np.power(s, half - 1.0, out=w)
            elif odd or whole > 1:
                (np.sqrt if odd else np.square)(s, out=w)
                for _ in range(whole if odd else whole - 2):
                    w *= s
            else:
                w = s  # p = 4
            total += np.einsum("ij,ij->i", w, s)
            vals *= w
            acc += np.conj(vals, out=vals) @ part
        return np.sqrt(peak) * total ** (1.0 / p), np.conj(acc)

    def evaluate(coeffs):
        # numpy sends a one-row product to gemv, whose sums round otherwise
        # than gemm's: a lone row is evaluated twice over, so that every row
        # takes gemm's arithmetic whatever the batch
        lone = len(coeffs) == 1
        value, grad = values(np.repeat(coeffs, 2, axis=0) if lone else coeffs)
        if lone:
            value, grad = value[:1], grad[:1]
        return value, grad.__getitem__

    return evaluate


def _ratio_on_points(basis, rows):
    # The Sidon ratio on the points: per row, the first point of largest
    # |v| over the blocks (np.argmax's within a block, the earlier block's
    # on a tie between blocks, so the first maximum over the group) and v
    # there, from which the direction of the rows that go on is taken.
    width, blocks = _on_points(basis, rows)
    scratch = np.empty(rows * width)

    def evaluate(coeffs):
        count = len(coeffs)
        at = np.arange(count)
        den = np.full(count, -1.0)
        idx = np.zeros(count, dtype=np.intp)
        top = np.zeros(count, dtype=complex)
        for start, part, vals in blocks(coeffs):
            mags = np.abs(vals, out=_carve(scratch, vals.shape))
            first = np.argmax(mags, axis=1)
            peak = mags[at, first]
            up = peak > den
            den[up], idx[up], top[up] = peak[up], start + first[up], vals[at[up], first[up]]
        size = np.abs(coeffs)
        num = np.sum(size, axis=1)

        def direction(keep):
            # quotient rule: d(num) ~ phase(a_k), d(den) ~ conj(basis[x*]) * phase(f(x*))
            a, d = coeffs[keep], den[keep]
            phase = np.divide(a, size[keep], out=np.zeros_like(a), where=size[keep] > 1e-14)
            gden = basis[idx[keep]].conj() * (top[keep] / d)[:, None]
            return phase / d[:, None] - (num[keep] / (d * d))[:, None] * gden

        return num / den, direction

    return evaluate


class Sumsets:
    """Index tables of the k-fold sumsets of m distinct frequencies of Z_N.

    L_1 is the frequencies in their order and L_(i+1) the sorted residues of
    L_i + Lambda mod N. ``gathers[i - 1]`` (rmax, |L_(i+1)|), for the steps
    i = 1, ..., k - 1, holds the flat indices t * m + j of the pairs
    (t in L_i, lambda_j) that sum to each element of L_(i+1), in increasing
    order, padded with |L_i| * m (a zero row past the products).
    ``positions`` (|L_(k-1)|, m) holds the index of t + lambda_j in L_k.
    ``systems`` builds them.
    """

    def __init__(self, gathers, positions):
        self.gathers, self.positions = tuple(gathers), positions

    @property
    def k(self) -> int:
        return len(self.gathers) + 1


def _on_sumsets(sumsets, rows):
    # The coefficient-space objective at p = 2k (Rudin): f^k has the
    # coefficients c_k = a * ... * a (k-fold convolution), supported on L_k,
    # and ||f||_2k^2k = sum_s |c_k[s]|^2 over the normalized group, so the
    # value (sum_s |c_k[s]|^2)^(1/p) is the dense one over N^(1/p). Levels
    # are (support, R) columns: c_(i+1) sums the padded columns of the
    # products c_i (x) a, and the direction of a_j is
    # sum_t c_k[t + lambda_j] conj(c_(k-1)[t]), the dense one over N. Every
    # reduction sums along the first axis over at least two trailing entries
    # (the value's over the real and imaginary parts), so numpy adds in
    # order, never pairwise, whatever the number of restarts, and a
    # restart's arithmetic does not depend on the other restarts. The
    # levels, products and gathers are views carved whole from buffers
    # allocated once for `rows` restarts: one per level, and one for the
    # largest step's products followed by their gather. A product's
    # broadcast operand is first copied out whole, into the gather's room
    # (the direction's, into the room after its gather), because numpy's
    # broadcasting multiply stages its operands in buffers of up to 8192
    # entries each, which this working set does not count.
    p = 2.0 * sumsets.k
    m = sumsets.positions.shape[1]
    sizes = [m] + [gather.shape[1] for gather in sumsets.gathers]
    levels = [np.empty(size * rows, dtype=complex) for size in sizes]
    work = np.empty(max(size * m + 1 + gather.size
                        for size, gather in zip(sizes, sumsets.gathers)) * rows, dtype=complex)

    def evaluate(coeffs):
        count = len(coeffs)
        a = _carve(levels[0], (m, count))
        np.copyto(a, coeffs.T)
        prev, level = None, a
        for gather, into in zip(sumsets.gathers, levels[1:]):
            pairs = level.shape[0] * m
            products = _carve(work, (pairs + 1, count))
            products[pairs] = 0.0
            pair = products[:pairs].reshape(len(level), m, count)
            tiled = _carve(work[products.size:], pair.shape)
            np.copyto(pair, level[:, None, :])
            np.copyto(tiled, a)
            np.multiply(pair, tiled, out=pair)
            # every index is in range; 'wrap' skips the copy 'raise' would stage
            taken = np.take(products, gather, axis=0, mode="wrap",
                            out=_carve(work[products.size:], (*gather.shape, count)))
            prev, level = level, taken.sum(axis=0, out=_carve(into, (gather.shape[1], count)))
        squares = _carve(work[products.size:].view(float), (len(level), 2 * count))  # the gather's
        power = np.square(level.view(float), out=squares).sum(axis=0)
        value = (power[0::2] + power[1::2]) ** (1.0 / p)

        def direction(keep):
            # every trial row's, then the kept columns: most rows go on
            grad = np.take(level, sumsets.positions, axis=0, mode="wrap",
                           out=_carve(work, (*sumsets.positions.shape, count)))
            conj = _carve(work[grad.size:], grad.shape)
            np.copyto(conj, prev[:, None, :])
            np.multiply(grad, np.conj(conj, out=conj), out=grad)
            return np.ascontiguousarray(grad.sum(axis=0)[:, keep].T)

        return value, direction

    return evaluate


def lp_ascent(basis, p, starts, max_steps):
    """Maximize the l_p norm (sum |basis @ a|^p)^(1/p) over ||a||_2 = 1, 2 < p < inf.

    One ascent runs from each row of ``starts``, for at most ``max_steps``
    accepted steps. Returns per-restart (values, coefficient rows). The L_p
    mean over the points has the same maximizers; a caller recomputes it
    from the rows. ``basis`` is the (N, m) character matrix, or at p = 2k
    the ``Sumsets`` of the m frequencies, whose values are the L_p means
    themselves (the l_p norms over N^(1/p)), from coefficients alone.
    """
    p = float(p)
    if isinstance(basis, Sumsets):
        if p != 2.0 * basis.k:
            raise ValueError(f"sumsets of {basis.k}-fold sums give p = {2 * basis.k}, not {p:g}")
        return _sphere_ascent(starts, _on_sumsets(basis, len(starts)), int(max_steps))
    return _sphere_ascent(starts, _lp_on_points(basis, p, len(starts)), int(max_steps))


def ratio_ascent(basis, starts, max_steps):
    """Maximize (sum_k |a_k|) / (max_x |(basis @ a)(x)|) over ||a||_2 = 1, as ``lp_ascent``."""
    return _sphere_ascent(starts, _ratio_on_points(basis, len(starts)), int(max_steps))


# ---------------------------------------------------------------------------
# l_p norms of magnitudes, and batched Schatten norms
# ---------------------------------------------------------------------------

def lp_norms(mags, p):
    """l_p norms of non-negative magnitudes along the last axis, 1 <= p <= inf.

    The max at p = inf and the plain sum at p = 1; any other p sums
    (mags / peak)^p with each row's peak factored out, so that no exponent
    overflows or underflows. An empty row has norm 0. Every sequence and span
    norm of the lab, and every Schatten norm of a dense stack, is this
    reduction of some magnitudes.
    """
    mags = np.asarray(mags)
    p = float(p)
    if p == np.inf:
        return mags.max(axis=-1, initial=0.0)
    if p == 1.0:
        return mags.sum(axis=-1)
    peak = mags.max(axis=-1, keepdims=True, initial=0.0)
    peak[peak == 0.0] = 1.0  # all-zero rows
    scaled = mags / peak
    scaled **= p
    return peak[..., 0] * scaled.sum(axis=-1) ** (1.0 / p)


def schatten_norm_batch(mats, p):
    """Schatten p-norms of a (count, n, n) stack. ``p`` may be ``np.inf``.

    One batched LAPACK SVD (numpy's gufunc reuses workspace across the
    stack, and LAPACK scales a matrix whose entries would overflow or
    underflow), then ``lp_norms`` of each matrix's singular values.
    """
    return lp_norms(np.linalg.svd(np.ascontiguousarray(mats), compute_uv=False), p)


# Relative tolerance of the top eigenvalue in ``_tridiagonal_top``, the cap
# on its iterations, and the shift that keeps its pivots off exact zero.
TRIDIAGONAL_TOL = 1e-14
TRIDIAGONAL_MAX_ITER = 200
_PIVMIN = np.finfo(float).eps ** 2


def bidiagonal_schatten_norms(diag, sup, p):
    """Schatten p-norms of upper-bidiagonal real matrices, from the materialized stack.

    Row r of ``diag`` (count, n) is the diagonal a of matrix r and row r of
    ``sup`` (count, n - 1) its superdiagonal b; the (count, n, n) stack goes
    to ``schatten_norm_batch``. The Monte Carlo loop calls it at exponents
    other than 4 and inf: at S_4 it takes (tr T^2)^(1/4) of T = B^T B from
    ``bidiagonal_traces``, and at S_inf the O(n) ``SpectralRun``.
    """
    diag = np.asarray(diag, dtype=float)
    count, n = diag.shape
    mats = np.zeros((count, n, n))
    on = np.arange(n)
    mats[:, on, on] = diag
    mats[:, on[:-1], on[1:]] = sup
    return schatten_norm_batch(mats, p)


def bidiagonal_traces(diag, sup, out=None):
    """tr T^2 and tr T^3 of T = B^T B for upper-bidiagonal B, as the rows of a (2, count) array.

    ``diag`` and ``sup`` are as for ``bidiagonal_schatten_norms``. Each
    matrix is divided by its peak |entry| first, and the scaling undone
    after; T is formed in the same float operations as in
    ``SpectralRun.append``, whose traces are these bit for bit. O(n) per
    matrix; written into ``out`` when given. With T = B^T B tridiagonal, of
    diagonal a_k^2 + b_(k-1)^2 and off-diagonal a_k b_k, tr T^2 is
    ||B||_(S_4)^4.
    """
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    out = np.empty((2, len(diag))) if out is None else out
    # T's diagonal c and squared off-diagonal t for each B divided by its peak
    peak = _row_peaks(diag, sup)
    a = diag / peak[:, None]
    b = sup / peak[:, None]
    c = a * a
    t = np.multiply(a[:, :-1], b, out=a[:, :-1])
    b *= b
    c[:, 1:] += b
    t *= t
    _traces(peak, c, t, out)
    return out


def _traces(peak, c, t2, out):
    # tr T^2 and tr T^3 into out's two rows, from T's peak-scaled diagonal c
    # and squared off-diagonal t2, with the scaling undone; counting the
    # closed walks on a path, tr T^2 = sum c_k^2 + 2 sum t_k^2 and
    # tr T^3 = sum c_k^3 + 3 sum t_k^2 (c_k + c_(k+1))
    squares, cubes = out
    np.einsum("ij,ij->i", c, c, out=squares)
    squares += 2.0 * np.einsum("ij->i", t2)
    np.einsum("ij,ij,ij->i", c, c, c, out=cubes)
    cubes += 3.0 * (np.einsum("ij,ij->i", t2, c[:, :-1]) + np.einsum("ij,ij->i", t2, c[:, 1:]))
    scale = peak * peak
    scale *= scale
    squares *= scale
    scale *= peak * peak
    cubes *= scale


def _row_peaks(diag, sup):
    # each bidiagonal's peak |entry|, 1 for a zero matrix
    peak = np.maximum(np.abs(diag).max(axis=1, initial=0.0), np.abs(sup).max(axis=1, initial=0.0))
    peak[peak == 0.0] = 1.0
    return peak


class SpectralRun:
    """S_inf norms of a run of upper-bidiagonal blocks, reduced in one Laguerre pass.

    ``append(diag, sup, traces)`` takes a block as ``bidiagonal_schatten_norms``
    does and writes the peak-scaled tridiagonal T = B^T B of each matrix as
    one column of two arrays, (n, capacity) for T's diagonal
    a_k^2 + b_(k-1)^2 and (n - 1, capacity) for its squared off-diagonal
    (a_k b_k)^2, plus the matrix's peak and T's Gershgorin bound, and the
    block's ``bidiagonal_traces`` into ``traces`` (2, count), from the same
    T. ``norms()`` returns the norms of every matrix appended since the
    last call, in order, from one ``_tridiagonal_top`` over the columns,
    and empties the run. No row depends on the others, so a block's values
    are those of a one-block run, bit for bit, while the iteration's numpy
    calls act on the whole run.
    """

    def __init__(self, n: int, capacity: int):
        self._diag = np.empty((n, capacity))
        self._off2 = np.empty((n - 1, capacity))
        self._peak = np.empty(capacity)
        self._hi = np.empty(capacity)
        self._size = 0

    def append(self, diag, sup, traces) -> None:
        diag = np.asarray(diag, dtype=float)
        sup = np.asarray(sup, dtype=float)
        count, n = diag.shape
        cols = slice(self._size, self._size + count)
        peak = self._peak[cols]
        peak[:] = _row_peaks(diag, sup)
        a = diag / peak[:, None]
        b = np.empty((count, n))  # b, then b^2, then the Gershgorin bound
        bb = np.divide(sup, peak[:, None], out=b[:, :-1])
        c = a * a
        t = np.multiply(a[:, :-1], bb, out=a[:, :-1])
        bb *= bb
        c[:, 1:] += bb
        self._diag[:, cols] = c.T
        np.abs(t, out=t)
        # row k of T: c_k + |t_k| + |t_(k-1)|, rounded up
        np.add(c[:, :-1], t, out=bb)
        b[:, -1] = c[:, -1]
        b[:, 1:] += t
        np.multiply(b.max(axis=1), 1.0 + 16.0 * np.finfo(float).eps, out=self._hi[cols])
        t *= t
        self._off2[:, cols] = t.T
        self._size = cols.stop
        _traces(peak, c, t, traces)

    def norms(self) -> np.ndarray:
        size, self._size = self._size, 0
        top = _tridiagonal_top(self._diag[:, :size], self._off2[:, :size], self._hi[:size])
        return self._peak[:size] * np.sqrt(top)


def _tridiagonal_top(diag, off2, hi):
    # Top eigenvalue of each symmetric tridiagonal T, given as columns: diag
    # (n, count) holds the diagonals, off2 (n - 1, count) the squared
    # off-diagonals and hi the Gershgorin bounds, all rows at once. Laguerre's
    # method on det(T - lam), from the Gershgorin bound, falls monotonically to
    # the top root of a real-rooted polynomial, cubically at a simple root. The
    # LDL^T pivots d_k of T - lam give the step (p'/p = sum d_k'/d_k and the
    # derivative of that sum, by the pivot recurrence) and a Sturm count: the
    # negative pivots count the eigenvalues below lam. The recurrence keeps
    # the sums running over k, in the order a sum over stored (n, count)
    # arrays would take, and stores only the pivots' signs (one byte each).
    # Each row keeps a certified bracket lo <= top <= hi, from max_k c_k and
    # the Gershgorin bound, and every count narrows it. A Laguerre step is
    # taken only inside the bracket and only from where the count says it
    # heads for the top root (above it, or between it and the next one);
    # otherwise, and once a step shrinks by less than half near the root (a
    # multiple top root converges linearly), the row bisects. A row is done
    # when a step or its bracket falls below TRIDIAGONAL_TOL relative, and
    # stays as it is from then on, so its value does not depend on the other
    # rows. Once half of 512 rows or more are done, the rest move to the front
    # of the columns (diag and off2 are overwritten), so that the numpy calls
    # act on the rows still iterating.
    n, count = diag.shape
    lo = diag.max(axis=0)
    top = np.empty(count)
    live = np.arange(count)  # the run rows that columns [:m] of the arrays hold
    done = hi - lo <= TRIDIAGONAL_TOL * hi
    lam = np.where(done, lo, hi)
    prev = np.full(count, np.inf)
    degree = float(n)
    # Step k writes terms[k % 2] = [d_k'/d_k, d_k''/(2 d_k), (d_(k-1)'/d_(k-1))^2]
    # and adds them to their running sums in one call. The pivots go through
    # chunks of up to `chunk` steps: one call shifts a chunk's c_k - lam into
    # pivots[1:], one takes the chunk's signs, and pivots[0] carries the last
    # pivot to the next chunk. All are carved anew from one buffer whenever m
    # changes, so each stays contiguous.
    chunk = 8
    scratch = np.empty((12 + chunk) * count)
    negative = np.empty((n, count), dtype=bool)  # the pivot signs, for the Sturm count
    one, pivmin = np.array(1.0), np.array(_PIVMIN)  # 0-d: cheaper operands than floats
    m, chunks = count, None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(TRIDIAGONAL_MAX_ITER):
            if done.all() or (m >= 512 and 2 * np.count_nonzero(done) >= m):
                # drop the finished rows: move the others' columns to the front
                # (below 512 rows a numpy call costs about the same however
                # many it has, so shorter vectors would save nothing)
                top[live[done]] = lam[done]
                keep = np.flatnonzero(~done)
                m, chunks = len(keep), None
                if not m:
                    return top
                live, lam, lo, hi, prev = live[keep], lam[keep], lo[keep], hi[keep], prev[keep]
                done = np.zeros(m, dtype=bool)
                for row in (*diag, *off2):
                    row[:m] = row[keep]
            if chunks is None:  # every view the recurrence reads or writes, made once
                terms, rest = np.split(scratch[:(12 + chunk) * m], [6 * m])
                terms = terms.reshape(2, 3, m)
                sums, pivots, (r, tmp) = np.split(rest.reshape(6 + chunk, m), [3, 4 + chunk])
                grad, curv, sq = sums
                neg = negative[:, :m]
                chunks = []
                for k0 in range(1, n, chunk):
                    k1 = min(k0 + chunk, n)
                    steps = [(off2[k - 1, :m], pivots[k - k0 + 1], pivots[k - k0], terms[k % 2],
                              *terms[k % 2], *terms[1 - k % 2, :2]) for k in range(k0, k1)]
                    chunks.append((diag[k0:k1, :m], pivots[1:k1 - k0 + 1], neg[k0:k1],
                                   pivots[k1 - k0], steps))
            np.subtract(diag[0, :m], lam, pivots[0])
            np.subtract(pivots[0], pivmin, pivots[0])
            np.less(pivots[0], 0.0, neg[0])
            np.divide(-1.0, pivots[0], terms[0, 0])
            terms[0, 1] = 0.0
            grad[:] = terms[0, 0]
            curv[:] = 0.0
            sq[:] = 0.0
            for c_chunk, d_chunk, neg_chunk, d_last, steps in chunks:
                np.subtract(c_chunk, lam, d_chunk)
                for e_k, d_k, d_prev, cur, g, h, g_sq, g_prev, h_prev in steps:
                    # d_k = c_k - lam - r with r = t^2 / d_(k-1);
                    # d_k'/d_k = (r d_(k-1)'/d_(k-1) - 1) / d_k and
                    # d_k''/(2 d_k) = r (d_(k-1)''/(2 d_(k-1)) - (d_(k-1)'/d_(k-1))^2) / d_k
                    np.divide(e_k, d_prev, r)
                    np.subtract(d_k, r, d_k)
                    np.subtract(d_k, pivmin, d_k)  # an exact zero pivot counts as negative
                    np.multiply(g_prev, g_prev, g_sq)
                    np.subtract(h_prev, g_sq, tmp)
                    np.multiply(tmp, r, tmp)
                    np.divide(tmp, d_k, h)
                    np.multiply(r, g_prev, tmp)
                    np.subtract(tmp, one, tmp)
                    np.divide(tmp, d_k, g)
                    np.add(sums, cur, sums)
                np.less(d_chunk, 0.0, neg_chunk)
                np.copyto(pivots[0], d_last)
            below = np.count_nonzero(neg, axis=0)
            g_last = terms[(n - 1) % 2, 0]
            sq += g_last * g_last  # sum_k (d_k'/d_k)^2; grad = p'/p
            hess = sq - 2.0 * curv  # -(p'/p)'
            above = below == n
            hi = np.where(above, lam, hi)
            lo = np.where(above, lo, lam)
            root = np.sqrt(np.maximum((degree - 1.0) * (degree * hess - grad * grad), 0.0))
            x = lam - degree / (grad + np.copysign(root, grad))
            step = np.abs(x - lam)
            # from above, down to the bracket (rounding may cross lo); from
            # between the top two roots, up
            ok = np.where(above, x >= lo * (1.0 - TRIDIAGONAL_TOL), (below == n - 1) & (x >= lam))
            ok &= (x <= hi) & ((step <= 0.5 * prev) | (step > 1e-3 * x))
            converged = (ok & (step <= TRIDIAGONAL_TOL * x)) | (hi - lo <= TRIDIAGONAL_TOL * hi)
            lam = np.where(done, lam, np.where(ok, np.maximum(x, lo), 0.5 * (lo + hi)))
            prev = np.where(ok, step, np.inf)
            done |= converged
    top[live] = lam
    return top
