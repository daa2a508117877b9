"""Restart-batched ascents against a single-restart reference loop."""

import numpy as np
import pytest

from summinglab import AscentConfig, full_character_set, kernels, kp_constant_lower
from summinglab.systems import lacunary_character_set


# ---------------------------------------------------------------------------
# single-restart reference loops (the oracle the batched kernels must match)
# ---------------------------------------------------------------------------

def _lp_ascent_impl(basis_t, basis_h, weight, p, p_is_max, starts, max_steps,
                    step0, tol):
    # basis_t: (npoints, m) synthesis columns, basis_h its conjugate transpose
    # (contiguous). starts: (nrestarts, m) complex. Maximizes
    # (weight * sum |basis_t @ a|^p)^(1/p)  (or max |.| when p_is_max)
    # over the unit sphere ||a||_2 = 1, one backtracking line search per step.
    nrest, m = starts.shape
    out_vals = np.empty(nrest)
    out_coeffs = np.empty_like(starts)
    min_step = 1e-7 * step0
    for r in range(nrest):
        a = starts[r].copy()
        a /= np.sqrt(np.sum(np.abs(a) ** 2))
        v = basis_t @ a
        av = np.abs(v)
        val = np.max(av) if p_is_max else (weight * np.sum(av ** p)) ** (1.0 / p)
        step = step0
        for _ in range(max_steps):
            if p_is_max:
                idx = np.argmax(av)
                g = basis_h[:, idx] * (v[idx] / av[idx])
            else:
                w = av ** (p - 2.0) * v
                g = basis_h @ w
            gn = np.sqrt(np.sum(np.abs(g) ** 2))
            if gn == 0.0:
                break
            improved = False
            while step >= min_step:
                trial = a + (step / gn) * g
                trial /= np.sqrt(np.sum(np.abs(trial) ** 2))
                tv = basis_t @ trial
                tav = np.abs(tv)
                tval = np.max(tav) if p_is_max else (weight * np.sum(tav ** p)) ** (1.0 / p)
                if tval > val:
                    gain = (tval - val) / val
                    a = trial
                    v = tv
                    av = tav
                    val = tval
                    step *= 1.25
                    improved = gain > tol
                    break
                step *= 0.5
            if not improved:
                break
        out_vals[r] = val
        out_coeffs[r] = a
    return out_vals, out_coeffs


def _ratio_ascent_impl(basis_t, basis_h, starts, max_steps, step0, tol):
    nrest, m = starts.shape
    out_vals = np.empty(nrest)
    out_coeffs = np.empty_like(starts)
    min_step = 1e-7 * step0
    for r in range(nrest):
        a = starts[r].copy()
        a /= np.sqrt(np.sum(np.abs(a) ** 2))
        v = basis_t @ a
        av = np.abs(v)
        num = np.sum(np.abs(a))
        idx = np.argmax(av)
        den = av[idx]
        val = num / den
        step = step0
        for _ in range(max_steps):
            # quotient-rule subgradient: d(num)/d(conj a_k) ~ phase(a_k),
            # d(den)/d(conj a_k) ~ conj(basis_t[x*,k]) * phase(v[x*])
            g = np.empty(m, basis_t.dtype)
            for k in range(m):
                ak = np.abs(a[k])
                if ak > 1e-14:
                    g[k] = a[k] / ak
                else:
                    g[k] = 0.0
            gden = basis_h[:, idx] * (v[idx] / av[idx])
            g = g / den - (num / (den * den)) * gden
            gn = np.sqrt(np.sum(np.abs(g) ** 2))
            if gn == 0.0:
                break
            improved = False
            while step >= min_step:
                trial = a + (step / gn) * g
                trial /= np.sqrt(np.sum(np.abs(trial) ** 2))
                tv = basis_t @ trial
                tav = np.abs(tv)
                tidx = np.argmax(tav)
                tval = np.sum(np.abs(trial)) / tav[tidx]
                if tval > val:
                    gain = (tval - val) / val
                    a = trial
                    v = tv
                    av = tav
                    idx = tidx
                    den = tav[tidx]
                    num = np.sum(np.abs(trial))
                    val = tval
                    step *= 1.25
                    improved = gain > tol
                    break
                step *= 0.5
            if not improved:
                break
        out_vals[r] = val
        out_coeffs[r] = a
    return out_vals, out_coeffs


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _pair(mat):
    mat = np.ascontiguousarray(mat)
    return mat, np.ascontiguousarray(mat.conj().T)


def _dft(group, m):
    return _pair(np.exp(2j * np.pi * np.outer(np.arange(group), np.arange(m)) / group))


def _starts(restarts, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((restarts, m)) + 1j * rng.standard_normal((restarts, m))


def _agree(batched, oracle):
    assert np.allclose(batched[0], oracle[0], rtol=1e-12, atol=0)
    assert np.allclose(batched[1], oracle[1], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# batched ascents == single-restart loop
# ---------------------------------------------------------------------------

def test_lp_ascent_matches_single_restart_p4():
    basis, basis_h = _dft(64, 8)
    starts = _starts(16, 8)
    _agree(kernels.lp_ascent(basis, basis_h, 1.0 / 64, 4.0, starts, 200, 0.1, 1e-8),
           _lp_ascent_impl(basis, basis_h, 1.0 / 64, 4.0, False, starts, 200, 0.1, 1e-8))


def test_lp_ascent_matches_single_restart_sup():
    basis, basis_h = _dft(32, 6)
    starts = _starts(8, 6, seed=1)
    _agree(kernels.lp_ascent(basis, basis_h, 1.0 / 32, np.inf, starts, 150, 0.1, 1e-8),
           _lp_ascent_impl(basis, basis_h, 1.0 / 32, 0.0, True, starts, 150, 0.1, 1e-8))


def test_ratio_ascent_matches_single_restart():
    basis, basis_h = _dft(32, 5)
    starts = _starts(8, 5, seed=2)
    _agree(kernels.ratio_ascent(basis, basis_h, starts, 150, 0.1, 1e-8),
           _ratio_ascent_impl(basis, basis_h, starts, 150, 0.1, 1e-8))


def test_ratio_ascent_singleton_start():
    # the Sidon estimator's first start is e_0; its phase gradient is e_0 alone
    basis, basis_h = _dft(8, 8)
    starts = _starts(6, 8, seed=3)
    starts[0] = 0.0
    starts[0, 0] = 1.0
    batched = kernels.ratio_ascent(basis, basis_h, starts, 200, 0.1, 1e-8)
    _agree(batched, _ratio_ascent_impl(basis, basis_h, starts, 200, 0.1, 1e-8))
    assert batched[0][0] >= 1.0


def test_restarts_stop_at_different_steps():
    # a tiny budget, a loose tolerance and a zero-step budget: rows leave the
    # lockstep loop at different rounds, and each matches its own loop
    basis, basis_h = _dft(64, 8)
    starts = _starts(12, 8, seed=4)
    for steps, tol in ((0, 1e-8), (1, 1e-8), (7, 1e-8), (300, 1e-3)):
        batched = kernels.lp_ascent(basis, basis_h, 1.0 / 64, 6.0, starts, steps, 0.1, tol)
        _agree(batched, _lp_ascent_impl(basis, basis_h, 1.0 / 64, 6.0, False, starts,
                                        steps, 0.1, tol))
    vals0, coeffs0 = kernels.lp_ascent(basis, basis_h, 1.0 / 64, 6.0, starts, 0, 0.1, 1e-8)
    assert np.allclose(coeffs0, starts / np.linalg.norm(starts, axis=1)[:, None])


def test_lp_ascent_tall_lacunary_basis():
    charset = lacunary_character_set(65536, 16)
    basis, basis_h = _pair(charset.matrix())
    starts = _starts(4, 16, seed=5)
    for p, p_arg, p_is_max in ((4.0, 4.0, False), (np.inf, 0.0, True)):
        _agree(kernels.lp_ascent(basis, basis_h, 1.0 / 65536, p, starts, 25, 0.1, 1e-8),
               _lp_ascent_impl(basis, basis_h, 1.0 / 65536, p_arg, p_is_max, starts,
                               25, 0.1, 1e-8))


def test_dispatch_matches_active_backend():
    assert kernels.active_backend() == "numpy"
    basis, basis_h = _dft(16, 3)
    starts = _starts(4, 3, seed=5)
    vals, coeffs = kernels.lp_ascent(basis, basis_h, 1.0 / 16, 4.0, starts, 50, 0.1, 1e-8)
    assert vals.shape == (4,)
    assert coeffs.shape == (4, 3)
    assert np.all(vals >= 1.0 - 1e-12)
    assert np.allclose(np.linalg.norm(coeffs, axis=1), 1.0)


def test_numpy_backend_end_to_end():
    est = kp_constant_lower(full_character_set(8), 4, AscentConfig(seed=7, restarts=16, steps=200))
    assert est.value == pytest.approx(8 ** 0.25, rel=1e-6)


# ---------------------------------------------------------------------------
# batched Schatten norms
# ---------------------------------------------------------------------------

def test_schatten_batch_oracle():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((16, 5, 5)) + 1j * rng.standard_normal((16, 5, 5))
    out = kernels.schatten_norm_batch(mats, 1.0)
    for i in range(16):
        sv = np.sqrt(np.maximum(np.linalg.eigvalsh(mats[i].conj().T @ mats[i]), 0))
        assert out[i] == pytest.approx(sv.sum(), rel=1e-10)


def test_schatten_batch_matches_per_matrix_svd():
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((64, 6, 6))
    for p in (1.0, 2.0, 4.0, np.inf):
        sv = [np.linalg.svd(mat, compute_uv=False) for mat in mats]
        ref = [s[0] if p == np.inf else np.sum(s ** p) ** (1.0 / p) for s in sv]
        assert np.allclose(kernels.schatten_norm_batch(mats, p), ref, rtol=1e-12)
