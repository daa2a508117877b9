"""Hot numeric kernels: coefficient-sphere ascents, l_p norms, batched Schatten norms.

``schatten_norm_batch`` reduces a dense stack by one batched SVD and
``lp_norms`` of the singular values, at every exponent. Its Monte Carlo
caller, ``systems._mc_second_moment``, sends it only families that still
gather into matrices: units in distinct rows and columns are reduced as the
l_u^m sequences they span (``spaces.sequence_copy``), and the full grid of
matrix units draws bidiagonals. ``bidiagonal_schatten_norms`` reduces the
full grid's blocks: upper-bidiagonal matrices with the singular values of a
Gaussian matrix, given by their 2n - 1 entries; in O(n) per matrix at S_4
(a closed form) and S_inf (a safeguarded Laguerre iteration on the
tridiagonal B^T B), and through ``schatten_norm_batch`` on the materialized
matrices at every other exponent. At S_inf the Monte Carlo loop appends a
run of consecutive blocks to a ``SpectralRun`` instead, which reduces the
whole run in one iteration: its numpy calls, a dozen per matrix entry and
iteration, then act on the run's rows instead of one block's, so fewer of
them carry the same work.

Both ascents are one projected-gradient loop, ``_sphere_ascent``, that runs
every restart in lockstep: each round takes one backtracking trial for each
restart still searching, with one ``(R, m) @ (m, N)`` product for all trial
values. Each restart follows the same iteration as a single-restart loop
would; only the grouping of the products differs, so values agree with such
a loop to floating-point roundoff. The one exception is ``ratio_ascent``'s
sup with exactly tied maxima (a singleton start on a full group), where
roundoff decides which tied point's subgradient is followed. A round drops
the last round's ``(R, N)`` values before it forms the next product. The
objectives are small value/gradient pairs that read the ``(N, m)`` basis
alone, with no conjugate-transpose copy; the finite l_p value leaves
(|v| / peak)^(p - 2) in the round's magnitude scratch for the gradient, so
a round takes one peak and one power (repeated multiplication at integer p
up to 10). ``benchmarks/bench_kernels.py`` times the public kernels.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the backend dispatching the hot kernels (numpy is the only one)."""
    return "numpy"


# ---------------------------------------------------------------------------
# projected gradient ascent on the coefficient sphere, all restarts at once
# ---------------------------------------------------------------------------

def _row_norms(rows):
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))


# Initial step and convergence tolerance of the projected-gradient ascents.
ASCENT_STEP_SIZE = 0.1
ASCENT_TOL = 1e-8


def _sphere_ascent(basis, starts, value, gradient, max_steps):
    # basis: (npoints, m) synthesis columns; starts: (nrestarts, m) complex.
    # value(coeffs, mags) -> (R,) objective, where mags = |coeffs @ basis.T|;
    # it may leave in mags what gradient needs of it instead.
    # gradient(coeffs, vals, mags) -> (R, m) ascent direction, for rows of the
    # vals and mags that value saw; it may overwrite both, which are the
    # current round's scratch. Each restart maximizes value over
    # ||a||_2 = 1 with one backtracking line search per
    # step: an improving trial is accepted and the step grows by 1.25, else
    # the step halves until it drops below 1e-7 * ASCENT_STEP_SIZE. A restart
    # stops after max_steps accepted steps, a relative gain <= ASCENT_TOL, a
    # zero gradient, or a failed line search.
    synth = basis.T
    coeffs = starts / _row_norms(starts)[:, None]
    vals = coeffs @ synth
    mags = np.abs(vals)
    best = value(coeffs, mags)
    grad = gradient(coeffs, vals, mags)
    gnorm = _row_norms(grad)
    searching = (gnorm != 0.0) & (max_steps > 0)
    step = np.full(len(coeffs), ASCENT_STEP_SIZE)
    taken = np.zeros(len(coeffs), dtype=np.int64)
    min_step = 1e-7 * ASCENT_STEP_SIZE
    while searching.any():
        rows = np.flatnonzero(searching)
        trial = coeffs[rows] + (step[rows] / gnorm[rows])[:, None] * grad[rows]
        trial /= _row_norms(trial)[:, None]
        del vals, mags  # the last round's (R, N) scratch, before the next product
        vals = trial @ synth
        mags = np.abs(vals)
        tbest = value(trial, mags)
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
            # gather the (R, N) trial values only when some rows stop here
            keep = slice(None) if more.all() else more
            nxt = rows[more]
            grad[nxt] = gradient(trial[keep], vals[keep], mags[keep])
            gnorm[nxt] = _row_norms(grad[nxt])
            searching[nxt] = gnorm[nxt] != 0.0
    return best, coeffs


def lp_ascent(basis, p, starts, max_steps):
    """Maximize the l_p norm (sum |basis @ a|^p)^(1/p) over ||a||_2 = 1, 2 < p < inf.

    One ascent runs from each row of ``starts``, for at most ``max_steps``
    accepted steps. Returns per-restart (values, coefficient rows). The L_p
    mean over the points has the same maximizers; a caller recomputes it
    from the rows.
    """
    p = float(p)
    # p - 2 = 2 halves + odd: w = s^odd (s^2)^halves by multiplication for
    # integer p up to 10, where it costs less than one generic np.power
    halves, odd = divmod(int(p) - 2, 2) if p.is_integer() and p <= 10.0 else (None, None)

    def value(coeffs, mags):
        # ||v||_p = peak (sum_x w s^2)^(1/p), with s = |v| / peak and
        # w = s^(p - 2) left in mags for gradient: one peak and one power a
        # round, and no power overflows at huge p
        peak = mags.max(axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0
        np.divide(mags, peak, out=mags)
        sq = mags * mags
        if halves is None:
            np.power(mags, p - 2.0, out=mags)
        else:
            if not odd:
                np.copyto(mags, sq)
            for _ in range(halves - 1 + odd):
                mags *= sq
        return peak[:, 0] * np.einsum("ij,ij->i", mags, sq) ** (1.0 / p)

    def gradient(coeffs, vals, mags):
        # w v = |v|^(p-2) v over a positive per-row factor, which the
        # normalised step ignores. Built in the caller's scratch rows (tall
        # bases), conjugated there to take w @ conj(basis) as
        # conj(conj(w) @ basis): numpy's matmul takes no conjugated operand.
        np.multiply(mags, vals, out=vals)
        return np.conj(np.conj(vals, out=vals) @ basis)

    return _sphere_ascent(basis, starts, value, gradient, int(max_steps))


def ratio_ascent(basis, starts, max_steps):
    """Maximize (sum_k |a_k|) / (max_x |(basis @ a)(x)|) over ||a||_2 = 1, as ``lp_ascent``."""

    def value(coeffs, mags):
        return np.sum(np.abs(coeffs), axis=1) / np.max(mags, axis=1)

    def gradient(coeffs, vals, mags):
        # quotient rule: d(num) ~ phase(a_k), d(den) ~ conj(basis[x*]) * phase(f(x*))
        size = np.abs(coeffs)
        phase = np.divide(coeffs, size, out=np.zeros_like(coeffs), where=size > 1e-14)
        at = np.arange(len(vals))
        idx = np.argmax(mags, axis=1)
        den = mags[at, idx]
        gden = basis[idx].conj() * (vals[at, idx] / den)[:, None]
        num = np.sum(size, axis=1)
        return phase / den[:, None] - (num / (den * den))[:, None] * gden

    return _sphere_ascent(basis, starts, value, gradient, int(max_steps))


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
    """Schatten p-norms of upper-bidiagonal real matrices. ``p`` may be ``np.inf``.

    Row r of ``diag`` (count, n) is the diagonal a of matrix r and row r of
    ``sup`` (count, n - 1) its superdiagonal b. Each row is divided by its
    peak |entry| first and multiplied back after, so no square overflows or
    underflows. With T = B^T B, tridiagonal with diagonal a_k^2 + b_(k-1)^2
    and off-diagonal a_k b_k: at p = 4, ||B||_(S_4)^4 = ||T||_F^2 =
    sum_k (a_k^2 + b_(k-1)^2)^2 + 2 sum_k a_k^2 b_k^2; at p = inf, ||B|| is
    the square root of T's top eigenvalue (a one-block ``SpectralRun``).
    Both take O(n) per matrix. Any other p materializes the (count, n, n)
    stack for ``schatten_norm_batch``.
    """
    diag = np.asarray(diag, dtype=float)
    sup = np.asarray(sup, dtype=float)
    p = float(p)
    count, n = diag.shape
    if p != 4.0 and p != np.inf:
        mats = np.zeros((count, n, n))
        on = np.arange(n)
        mats[:, on, on] = diag
        mats[:, on[:-1], on[1:]] = sup
        return schatten_norm_batch(mats, p)
    if p == np.inf:
        run = SpectralRun(n, count)
        run.append(diag, sup)
        return run.norms()
    peak = _row_peaks(diag, sup)
    a = diag / peak[:, None]
    b = sup / peak[:, None]
    c = a * a
    c[:, 1:] += b * b
    t = a[:, :-1] * b
    del a, b
    return peak * np.sqrt(np.sqrt(np.einsum("ij,ij->i", c, c)
                                  + 2.0 * np.einsum("ij,ij->i", t, t)))


def _row_peaks(diag, sup):
    # each bidiagonal's peak |entry|, 1 for a zero matrix
    peak = np.maximum(np.abs(diag).max(axis=1, initial=0.0), np.abs(sup).max(axis=1, initial=0.0))
    peak[peak == 0.0] = 1.0
    return peak


class SpectralRun:
    """S_inf norms of a run of upper-bidiagonal blocks, reduced in one Laguerre pass.

    ``append(diag, sup)`` takes a block as ``bidiagonal_schatten_norms`` does
    and writes the peak-scaled tridiagonal T = B^T B of each matrix as one
    column of two arrays, (n, capacity) for T's diagonal a_k^2 + b_(k-1)^2
    and (n - 1, capacity) for its squared off-diagonal (a_k b_k)^2, plus the
    matrix's peak and T's Gershgorin bound. ``norms()`` returns the norms of every matrix appended
    since the last call, in order, from one ``_tridiagonal_top`` over the
    columns, and empties the run. No row depends on the others, so a block's
    values are those of ``bidiagonal_schatten_norms(diag, sup, np.inf)``,
    bit for bit, while the iteration's numpy calls act on the whole run.
    """

    def __init__(self, n: int, capacity: int):
        self._diag = np.empty((n, capacity))
        self._off2 = np.empty((n - 1, capacity))
        self._peak = np.empty(capacity)
        self._hi = np.empty(capacity)
        self._size = 0

    def append(self, diag, sup) -> None:
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
