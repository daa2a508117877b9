"""Hot numeric kernels: coefficient-sphere ascents, l_p norms, batched Schatten norms.

``schatten_norm_batch`` picks its path from the exponent: the Gram
Frobenius norm at S_4, the Gram's top eigenvalue at S_inf, and one batched
SVD reduced by ``lp_norms`` at every other exponent; the two Gram paths
run block by block, which keeps their temporaries in cache. Its Monte
Carlo caller, ``systems._mc_second_moment``, applies every family except
the full grid of matrix units by gathering columns instead of
multiplying, so real Gaussian rows reach it as real stacks, and calls it
from pool threads, one ``GRAM_BLOCK``-row Monte Carlo block per call.
``bidiagonal_schatten_norms`` reduces the full grid's blocks: upper-bidiagonal
matrices with the singular values of a Gaussian matrix, given by their
2n - 1 entries; in O(n) per matrix at S_4 (a closed form) and S_inf (a
safeguarded Laguerre iteration on the tridiagonal B^T B), and through
``schatten_norm_batch`` on the materialized matrices at every other exponent.

Both ascents are one projected-gradient loop, ``_sphere_ascent``, that runs
every restart in lockstep: each round takes one backtracking trial for each
restart still searching, with one ``(R, m) @ (m, N)`` product for all trial
values. Each restart follows the same iteration as a single-restart loop
would; only the grouping of the products differs, so values agree with such
a loop to floating-point roundoff. The one exception is ``ratio_ascent``'s
sup with exactly tied maxima (a singleton start on a full group), where
roundoff decides which tied point's subgradient is followed. The objectives
(finite l_p; l1/sup) are small value/gradient pairs that read the
``(N, m)`` basis alone, with no conjugate-transpose copy.
``benchmarks/bench_kernels.py`` times the public kernels.
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
    # gradient(coeffs, vals, mags) -> (R, m) ascent direction; it may overwrite
    # vals and mags, which are the current round's scratch. Each restart
    # maximizes value over ||a||_2 = 1 with one backtracking line search per
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

    def value(coeffs, mags):
        return lp_norms(mags, p)

    def gradient(coeffs, vals, mags):
        # (|v| / peak)^(p-2) v: |v|^(p-2) v over a positive per-row factor,
        # which the normalised step ignores; no power overflows at huge p.
        # Built in the caller's scratch rows (tall bases), conjugated there
        # to take w @ conj(basis) as conj(conj(w) @ basis).
        peak = mags.max(axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0
        np.divide(mags, peak, out=mags)
        np.power(mags, p - 2.0, out=mags)
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
    norm of the lab, and every Schatten norm off the S_4 and S_inf Gram
    paths, is this reduction of some magnitudes.
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


# Matrices per block of the Gram paths: a block's scaled copy and Gram fit
# in a few MB of cache even at n = 64, where a stack of thousands does not.
# Also the Gaussian rows of one Monte Carlo block, the loop's one unit of
# draws and of work, so that the kernel gets one block per call.
GRAM_BLOCK = 256


def schatten_norm_batch(mats, p):
    """Schatten p-norms of a (count, n, n) stack. ``p`` may be ``np.inf``.

    The path follows the exponent. At p = 4, ||A||_{S_4} = ||A^H A||_F^(1/2);
    at p = inf, ||A|| = sqrt of the top eigenvalue of A^H A (``eigvalsh``).
    Both scale each matrix by its peak |entry| before forming the Gram and
    multiply it back after, so no entry of the Gram overflows or underflows.
    Both run over blocks of ``GRAM_BLOCK`` matrices; every step is per
    matrix, so the values are those of the whole stack at once, and the
    temporaries stay a few blocks in size. Any other p takes one batched
    LAPACK SVD (numpy's gufunc reuses workspace across the stack), then
    ``lp_norms`` of each matrix's singular values.
    """
    p = float(p)
    if p != 4.0 and p != np.inf:
        return lp_norms(np.linalg.svd(np.ascontiguousarray(mats), compute_uv=False), p)
    mats = np.asarray(mats)
    out = np.empty(len(mats))
    for start in range(0, len(mats), GRAM_BLOCK):
        _gram_norms(mats[start:start + GRAM_BLOCK], p, out[start:start + GRAM_BLOCK])
    return out


def _gram_norms(mats, p, out):
    # S_4 or S_inf norms of one block, written into out; a private name, so
    # that a wrapper around schatten_norm_batch sees one call per stack
    peak = np.abs(mats).max(axis=(-2, -1), initial=0.0)
    peak[peak == 0.0] = 1.0  # zero matrices
    scaled = mats / peak[:, None, None]
    gram = scaled.swapaxes(-2, -1).conj() @ scaled
    del scaled  # the reduction below needs only the Gram
    if p == np.inf:
        np.multiply(peak, np.sqrt(np.linalg.eigvalsh(gram)[:, -1]), out=out)
    else:
        np.multiply(peak, np.sqrt(np.sqrt(np.einsum("kij,kij->k", gram, gram.conj()).real)),
                    out=out)


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
    the square root of T's top eigenvalue (``_tridiagonal_top``). Both take
    O(n) per matrix. Any other p materializes the (count, n, n) stack for
    ``schatten_norm_batch``.
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
    peak = np.maximum(np.abs(diag).max(axis=1, initial=0.0), np.abs(sup).max(axis=1, initial=0.0))
    peak[peak == 0.0] = 1.0  # zero matrices
    a = diag / peak[:, None]
    b = sup / peak[:, None]
    c = a * a
    c[:, 1:] += b * b
    t = a[:, :-1] * b
    del a, b
    if p == 4.0:
        return peak * np.sqrt(np.sqrt(np.einsum("ij,ij->i", c, c)
                                      + 2.0 * np.einsum("ij,ij->i", t, t)))
    return peak * np.sqrt(_tridiagonal_top(c, t))


def _tridiagonal_top(c, t):
    # Top eigenvalue of each symmetric tridiagonal T, diagonal c (count, n) and
    # off-diagonal t (count, n - 1), all rows at once. Laguerre's method on
    # det(T - lam), from the Gershgorin bound, falls monotonically to the top
    # root of a real-rooted polynomial, cubically at a simple root. The LDL^T
    # pivots d_k of T - lam give the step (p'/p = sum d_k'/d_k and the
    # derivative of that sum, by the pivot recurrence) and a Sturm count: the
    # negative pivots count the eigenvalues below lam. Each row keeps a certified
    # bracket lo <= top <= hi, from max_k c_k and the Gershgorin bound, and
    # every count narrows it. A Laguerre step is taken only inside the bracket
    # and only from where the count says it heads for the top root (above it,
    # or between it and the next one); otherwise, and once a step shrinks by
    # less than half near the root (a multiple top root converges linearly),
    # the row bisects. A row is done when a step or its bracket falls below
    # TRIDIAGONAL_TOL relative, and stays as it is from then on, so its value
    # does not depend on the other rows.
    count, n = c.shape
    bound = c.copy()
    t = np.abs(t)
    bound[:, :-1] += t
    bound[:, 1:] += t
    lo = c.max(axis=1)
    hi = bound.max(axis=1) * (1.0 + 16.0 * np.finfo(float).eps)  # rounded up
    del bound
    diag_t = np.ascontiguousarray(c.T)  # (n, count): row k is every matrix's c_k
    off2 = np.zeros((n, count))
    off2[1:] = (t * t).T  # off2[k] = t_(k-1)^2
    shift = np.empty((n, count))
    piv = np.empty((n, count))   # d_k
    dlog = np.empty((n, count))  # d_k' / d_k
    curv = np.empty((n, count))  # d_k'' / (2 d_k)
    curv[0] = 0.0
    # row views made once: the recurrence below is n steps of (count,) ufuncs
    rows = list(zip(shift[1:], off2[1:], piv, piv[1:], dlog, dlog[1:], curv, curv[1:]))
    r, tmp = np.empty(count), np.empty(count)
    done = hi - lo <= TRIDIAGONAL_TOL * hi
    lam = np.where(done, lo, hi)
    prev = np.full(count, np.inf)
    degree = float(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(TRIDIAGONAL_MAX_ITER):
            if done.all():
                break
            np.subtract(diag_t, lam, out=shift)
            np.subtract(shift[0], _PIVMIN, out=piv[0])
            np.divide(-1.0, piv[0], out=dlog[0])
            for s_k, e_k, d_prev, d, g_prev, g, h_prev, h in rows:
                # d_k = c_k - lam - r with r = t^2 / d_(k-1);
                # d_k'/d_k = (r d_(k-1)'/d_(k-1) - 1) / d_k and
                # d_k''/(2 d_k) = r (d_(k-1)''/(2 d_(k-1)) - (d_(k-1)'/d_(k-1))^2) / d_k
                np.divide(e_k, d_prev, out=r)
                np.subtract(s_k, r, out=d)
                d -= _PIVMIN  # an exact zero pivot counts as negative
                np.multiply(g_prev, g_prev, out=tmp)
                np.subtract(h_prev, tmp, out=tmp)
                tmp *= r
                np.divide(tmp, d, out=h)
                np.multiply(r, g_prev, out=tmp)
                tmp -= 1.0
                np.divide(tmp, d, out=g)
            below = np.count_nonzero(piv < 0.0, axis=0)
            grad = dlog.sum(axis=0)  # p'/p
            hess = np.einsum("ij,ij->j", dlog, dlog) - 2.0 * curv.sum(axis=0)  # -(p'/p)'
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
    return lam
