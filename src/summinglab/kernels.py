"""Hot numeric kernels: coefficient-sphere ascents, l_p norms, batched Schatten norms.

Both ascents are one projected-gradient loop, ``_sphere_ascent``, that runs
every restart in lockstep: each round takes one backtracking trial for each
restart still searching, with one ``(R, m) @ (m, N)`` product for all trial
values. Each restart follows the same iteration as a single-restart loop
would; only the grouping of the products differs, so values agree with such
a loop to floating-point roundoff. The one exception is a sup objective
with exactly tied maxima (a singleton start on a full group), where roundoff
decides which tied point's subgradient is followed. The objectives (L_p mean
or sup, and l1 / sup) are small value/gradient pairs.
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


def _sphere_ascent(basis_t, starts, value, gradient, max_steps, step0, tol):
    # basis_t: (npoints, m) synthesis columns; starts: (nrestarts, m) complex.
    # value(coeffs, mags) -> (R,) objective, where mags = |coeffs @ basis_t.T|;
    # gradient(coeffs, vals, mags) -> (R, m) ascent direction; it may overwrite
    # vals and mags, which are the current round's scratch. Each restart
    # maximizes value over ||a||_2 = 1 with one backtracking line search per
    # step: an improving trial is accepted and the step grows by 1.25, else
    # the step halves until it drops below 1e-7 * step0. A restart stops
    # after max_steps accepted steps, a relative gain <= tol, a zero
    # gradient, or a failed line search.
    synth = basis_t.T
    coeffs = starts / _row_norms(starts)[:, None]
    vals = coeffs @ synth
    mags = np.abs(vals)
    best = value(coeffs, mags)
    grad = gradient(coeffs, vals, mags)
    gnorm = _row_norms(grad)
    searching = (gnorm != 0.0) & (max_steps > 0)
    step = np.full(len(coeffs), step0)
    taken = np.zeros(len(coeffs), dtype=np.int64)
    min_step = 1e-7 * step0
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
        more[up] = (gain > tol) & (taken[won] < max_steps)
        searching[won] = False
        if more.any():
            # gather the (R, N) trial values only when some rows stop here
            keep = slice(None) if more.all() else more
            nxt = rows[more]
            grad[nxt] = gradient(trial[keep], vals[keep], mags[keep])
            gnorm[nxt] = _row_norms(grad[nxt])
            searching[nxt] = gnorm[nxt] != 0.0
    return best, coeffs


def _sup_gradient(basis_h, vals, mags):
    # subgradient of max_x |f(x)|: conj(basis_t[x*]) * phase(f(x*)), plus |f(x*)|
    at = np.arange(len(vals))
    idx = np.argmax(mags, axis=1)
    top = mags[at, idx]
    return basis_h[:, idx].T * (vals[at, idx] / top)[:, None], top


def lp_ascent(basis_t, basis_h, weight, p, starts, max_steps, step0, tol):
    """Maximize (weight * sum |basis_t @ a|^p)^(1/p) over ||a||_2 = 1.

    ``basis_h`` is the contiguous conjugate transpose of ``basis_t``; one
    ascent runs from each row of ``starts``. Returns per-restart (values,
    coefficient rows). ``p`` may be ``np.inf`` (the sup of |basis_t @ a|).
    """
    if np.isfinite(p):
        p = float(p)
        scale = weight ** (1.0 / p)

        def value(coeffs, mags):
            return scale * lp_norms(mags, p)

        def gradient(coeffs, vals, mags):
            # (|v| / peak)^(p-2) v: |v|^(p-2) v over a positive per-row factor,
            # which the normalised step ignores; no power overflows at huge p.
            # Built in the caller's scratch rows (tall bases).
            peak = mags.max(axis=1, keepdims=True)
            peak[peak == 0.0] = 1.0
            np.divide(mags, peak, out=mags)
            np.power(mags, p - 2.0, out=mags)
            return np.multiply(mags, vals, out=vals) @ basis_h.T
    else:
        def value(coeffs, mags):
            return np.max(mags, axis=1)

        def gradient(coeffs, vals, mags):
            return _sup_gradient(basis_h, vals, mags)[0]
    return _sphere_ascent(basis_t, starts, value, gradient, int(max_steps),
                          float(step0), float(tol))


def ratio_ascent(basis_t, basis_h, starts, max_steps, step0, tol):
    """Maximize (sum_k |a_k|) / (max_x |(basis_t @ a)(x)|) over ||a||_2 = 1."""

    def value(coeffs, mags):
        return np.sum(np.abs(coeffs), axis=1) / np.max(mags, axis=1)

    def gradient(coeffs, vals, mags):
        # quotient rule: d(num)/d(conj a_k) ~ phase(a_k), d(den) from the sup
        size = np.abs(coeffs)
        phase = np.divide(coeffs, size, out=np.zeros_like(coeffs), where=size > 1e-14)
        gden, den = _sup_gradient(basis_h, vals, mags)
        num = np.sum(size, axis=1)
        return phase / den[:, None] - (num / (den * den))[:, None] * gden

    return _sphere_ascent(basis_t, starts, value, gradient, int(max_steps),
                          float(step0), float(tol))


# ---------------------------------------------------------------------------
# l_p norms of magnitudes, and batched Schatten norms
# ---------------------------------------------------------------------------

def lp_norms(mags, p):
    """l_p norms of non-negative magnitudes along the last axis, 1 <= p <= inf.

    The max at p = inf and the plain sum at p = 1; any other p sums
    (mags / peak)^p with each row's peak factored out, so that no exponent
    overflows or underflows. An empty row has norm 0. Every norm of the lab
    (sequence, Schatten, span) is this reduction of some magnitudes.
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
    stack), then ``lp_norms`` of each matrix's singular values.
    """
    return lp_norms(np.linalg.svd(np.ascontiguousarray(mats), compute_uv=False), p)
