"""Restart-batched ascents against a single-restart reference loop."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from summinglab import (AscentConfig, CharacterSet, full_character_set, kernels,
                        kp_constant_lower, systems)
from summinglab.rng import gaussian_bidiagonal, make_rng, substream
from summinglab.systems import MC_BLOCK, lacunary_character_set


# ---------------------------------------------------------------------------
# single-restart reference loops (the oracle the batched kernels must match)
# ---------------------------------------------------------------------------

def _lp_ascent_impl(basis_t, p, starts, max_steps, step0, tol):
    # basis_t: (npoints, m) synthesis columns. starts: (nrestarts, m) complex.
    # Maximizes (sum |basis_t @ a|^p)^(1/p) over the unit sphere ||a||_2 = 1,
    # one backtracking line search per step along the tangent part of the
    # gradient.
    basis_h = basis_t.conj().T
    nrest, m = starts.shape
    out_vals = np.empty(nrest)
    out_coeffs = np.empty_like(starts)
    min_step = 1e-7 * step0
    for r in range(nrest):
        a = starts[r].copy()
        a /= np.sqrt(np.sum(np.abs(a) ** 2))
        v = basis_t @ a
        av = np.abs(v)
        val = np.sum(av ** p) ** (1.0 / p)
        step = step0
        for _ in range(max_steps):
            w = av ** (p - 2.0) * v
            g = basis_h @ w
            g = g - np.real(np.vdot(a, g)) * a  # the part tangent to the sphere at a
            gn = np.sqrt(np.sum(np.abs(g) ** 2))
            if gn == 0.0:
                break
            improved = False
            while step >= min_step:
                trial = a + (step / gn) * g
                trial /= np.sqrt(np.sum(np.abs(trial) ** 2))
                tv = basis_t @ trial
                tav = np.abs(tv)
                tval = np.sum(tav ** p) ** (1.0 / p)
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


def _ratio_ascent_impl(basis_t, starts, max_steps, step0, tol):
    basis_h = basis_t.conj().T
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
            g = g - np.real(np.vdot(a, g)) * a
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

def _dft(group, m):
    return np.exp(2j * np.pi * np.outer(np.arange(group), np.arange(m)) / group)


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
    basis = _dft(64, 8)
    starts = _starts(16, 8)
    _agree(kernels.lp_ascent(basis, 4.0, starts, 200),
           _lp_ascent_impl(basis, 4.0, starts, 200, 0.1, 1e-8))


def test_ratio_ascent_matches_single_restart():
    basis = _dft(32, 5)
    starts = _starts(8, 5, seed=2)
    _agree(kernels.ratio_ascent(basis, starts, 150),
           _ratio_ascent_impl(basis, starts, 150, 0.1, 1e-8))


def test_ratio_ascent_singleton_start():
    # the Sidon estimator's first start is e_0; its phase gradient is e_0 alone
    basis = _dft(8, 8)
    starts = _starts(6, 8, seed=3)
    starts[0] = 0.0
    starts[0, 0] = 1.0
    batched = kernels.ratio_ascent(basis, starts, 200)
    _agree(batched, _ratio_ascent_impl(basis, starts, 200, 0.1, 1e-8))
    assert batched[0][0] >= 1.0


def test_restarts_stop_at_different_steps(monkeypatch):
    # a tiny budget, a loose tolerance and a zero-step budget: rows leave the
    # lockstep loop at different rounds, and each matches its own loop
    basis = _dft(64, 8)
    starts = _starts(12, 8, seed=4)
    for steps, tol in ((0, 1e-8), (1, 1e-8), (7, 1e-8), (300, 1e-3)):
        monkeypatch.setattr(kernels, "ASCENT_TOL", tol)
        _agree(kernels.lp_ascent(basis, 6.0, starts, steps),
               _lp_ascent_impl(basis, 6.0, starts, steps, 0.1, tol))
    vals0, coeffs0 = kernels.lp_ascent(basis, 6.0, starts, 0)
    assert np.allclose(coeffs0, starts / np.linalg.norm(starts, axis=1)[:, None])


def test_lp_ascent_tall_lacunary_basis():
    basis = lacunary_character_set(65536, 16).matrix()
    starts = _starts(4, 16, seed=5)
    _agree(kernels.lp_ascent(basis, 4.0, starts, 25),
           _lp_ascent_impl(basis, 4.0, starts, 25, 0.1, 1e-8))


def _rising_blocks(blocks, m, seed):
    # unimodular rows scaled by 1, 2, 3, ... block by block (the last block
    # half full): each row's peak |v| first appears in a later block, so
    # every block raises it and rescales the running sums
    rng = np.random.default_rng(seed)
    npoints = (blocks - 1) * kernels.POINT_BLOCK + kernels.POINT_BLOCK // 2
    scale = 1.0 + np.arange(npoints) // kernels.POINT_BLOCK
    return np.exp(2j * np.pi * rng.random((npoints, m))) * scale[:, None]


@pytest.mark.parametrize("p", [4.0, 8.0, 3.0, 2.5])
def test_lp_ascent_over_blocks_matches_single_restart(p):
    basis = _rising_blocks(3, 6, seed=int(4 * p))
    starts = _starts(5, 6, seed=6)
    _agree(kernels.lp_ascent(basis, p, starts, 40),
           _lp_ascent_impl(basis, p, starts, 40, 0.1, 1e-8))


def test_ratio_ascent_singleton_start_over_blocks():
    # the singleton start's values are gamma_3 itself, of modulus 1 or one
    # rounding above it at points of every block: the first maximum over the
    # group, across blocks, gives the single-restart loop's subgradient
    order = 2 * kernels.POINT_BLOCK + 300
    basis = CharacterSet(order, (3, 5, 11, 17, 40)).matrix()
    starts = _starts(6, 5, seed=8)
    starts[0] = 0.0
    starts[0, 0] = 1.0
    batched = kernels.ratio_ascent(basis, starts, 150)
    _agree(batched, _ratio_ascent_impl(basis, starts, 150, 0.1, 1e-8))
    assert batched[0][0] >= 1.0


@pytest.mark.parametrize("seed", [11, 20261])
def test_lp_ascent_reaches_the_b2_closed_form(seed):
    # a B_2 set of m characters has ||f||_4^4 = 2 ||a||_2^4 - sum |a_k|^4, so
    # K_4 = (2 - 1/m)^(1/4), at the flat |a_k| = 1/sqrt(m); the ascent
    # must reach it, not stop short where its steps shrink
    est = kp_constant_lower(lacunary_character_set(4096, 12), 4,
                            AscentConfig(seed=substream(seed, 0)))
    assert est.value == pytest.approx((2.0 - 1.0 / 12) ** 0.25, rel=1e-12, abs=0)


def test_lp_ascent_evaluates_few_rows(monkeypatch):
    # kp-profile's runs on its B_2 set (64 restarts, seed 11): the rows the
    # objective evaluates stay under half of the 6152, 6433 and 6894 that an
    # ascent stepping along the full gradient, radial part and all, takes
    # at p = 4, 6 and 8
    ascent, rows = kernels._sphere_ascent, []

    def counted(starts, evaluate, max_steps):
        def evaluate_counted(coeffs):
            rows[-1] += len(coeffs)
            return evaluate(coeffs)
        return ascent(starts, evaluate_counted, max_steps)

    monkeypatch.setattr(kernels, "_sphere_ascent", counted)
    charset = lacunary_character_set(4096, 12)
    for i, (p, full_gradient) in enumerate(((4, 6152), (6, 6433), (8, 6894))):
        rows.append(0)
        kp_constant_lower(charset, p, AscentConfig(seed=substream(11, i)))
        assert 0 < rows[-1] < full_gradient / 2, (p, rows[-1])


def test_dispatch_matches_active_backend():
    assert kernels.active_backend() == "numpy"
    basis = _dft(16, 3)
    starts = _starts(4, 3, seed=5)
    vals, coeffs = kernels.lp_ascent(basis, 4.0, starts, 50)
    assert vals.shape == (4,)
    assert coeffs.shape == (4, 3)
    # the l_4 norm over 16 points of a unit span element is at least 16^(1/4)
    assert np.all(vals >= 2.0 - 1e-12)
    assert np.allclose(np.linalg.norm(coeffs, axis=1), 1.0)


def test_numpy_backend_end_to_end():
    est = kp_constant_lower(full_character_set(8), 4, AscentConfig(seed=7, restarts=16, steps=200))
    assert est.value == pytest.approx(8 ** 0.25, rel=1e-6)


def test_micro_benchmark_cases_bind_to_their_kernels():
    # nothing else runs benchmarks/bench_kernels.py, so a kernel whose
    # signature changed would break it silently; every case's arguments must
    # bind to its kernel, and every timed kernel keeps a case
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    timed = set()
    for label, fn, args in bench.cases():
        inspect.signature(fn).bind(*args)
        timed.add(fn)
    assert {kernels.lp_ascent, kernels.ratio_ascent, kernels.schatten_norm_batch,
            kernels.bidiagonal_schatten_norms, kernels.bidiagonal_traces} <= timed


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


def _svd_schatten(mat, p):
    # per-matrix SVD, reduced with the top singular value factored out
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0 or p == np.inf:
        return s[0]
    return s[0] * np.sum((s / s[0]) ** p) ** (1.0 / p)


def test_schatten_batch_matches_per_matrix_svd():
    rng = np.random.default_rng(3)
    real = rng.standard_normal((64, 6, 6))
    cplx = real + 1j * rng.standard_normal((64, 6, 6))
    u, v = rng.standard_normal(6), rng.standard_normal(6) + 1j * rng.standard_normal(6)
    zero_rank_one = np.stack([np.zeros((6, 6)), np.outer(u, v), np.outer(v, u.conj())])
    stacks = (real, cplx, rng.standard_normal((8, 1, 1)), cplx[:8, :1, :1], zero_rank_one)
    for mats in stacks:
        for p in (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, np.inf):
            ref = [_svd_schatten(mat, p) for mat in mats]
            assert np.allclose(kernels.schatten_norm_batch(mats, p), ref, rtol=1e-12, atol=0.0)
        for scale in (1e200, 1e-200):
            # entries whose squares would overflow or underflow
            for p in (4.0, np.inf):
                ref = [_svd_schatten(mat, p) for mat in mats * scale]
                out = kernels.schatten_norm_batch(mats * scale, p)
                assert np.allclose(out, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("count", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 600])
def test_schatten_batch_matches_one_matrix_calls(count):
    # one batched SVD reduces every matrix on its own, so a stack's values
    # equal one-matrix calls exactly, zero matrices too
    rng = np.random.default_rng(count)
    real = rng.standard_normal((count, 5, 5))
    real[::7] = 0.0
    cplx = real + 1j * rng.standard_normal((count, 5, 5))
    cplx[::7] = 0.0
    for mats in (real, cplx):
        for p in (1.0, 4.0 / 3.0, 3.0, 4.0, np.inf):
            loop = [kernels.schatten_norm_batch(mat[None], p)[0] for mat in mats]
            assert np.array_equal(kernels.schatten_norm_batch(mats, p), loop)


# ---------------------------------------------------------------------------
# Schatten norms of bidiagonal matrices
# ---------------------------------------------------------------------------

def _materialize_bidiagonal(diag, sup):
    count, n = diag.shape
    mats = np.zeros((count, n, n))
    on = np.arange(n)
    mats[:, on, on] = diag
    mats[:, on[:-1], on[1:]] = sup
    return mats


def _svd_bidiagonal_norms(diag, sup, p):
    # LAPACK SVD of the materialized matrices, 1000 at a time, reduced with
    # the top singular value factored out
    out = []
    for start in range(0, len(diag), 1000):
        s = np.linalg.svd(_materialize_bidiagonal(diag[start:start + 1000],
                                                  sup[start:start + 1000]), compute_uv=False)
        top = s[:, 0]
        if p == np.inf:
            out.append(top)
            continue
        scale = np.where(top > 0.0, top, 1.0)[:, None]
        out.append(top * np.sum((s / scale) ** p, axis=1) ** (1.0 / p))
    return np.concatenate(out)


def _s4_from_traces(diag, sup, p):
    # the Monte Carlo loop's S_4 value of a bidiagonal: (tr T^2)^(1/4)
    assert p == 4.0
    return np.sqrt(np.sqrt(kernels.bidiagonal_traces(diag, sup)[0]))


def _spectral_norms(diag, sup, p):
    # the Monte Carlo loop's S_inf reduction: a one-block SpectralRun
    assert p == np.inf
    run = kernels.SpectralRun(diag.shape[1], len(diag))
    with np.errstate(over="ignore"):  # traces past the float range, which no norm reads
        run.append(diag, sup, np.empty((2, len(diag))))
    return run.norms()


def _assert_bidiagonal_norms_match_svd(diag, sup, p, norms=kernels.bidiagonal_schatten_norms):
    # 1000 rows a call: the SVD fallback materializes its matrices
    out = np.concatenate([norms(diag[start:start + 1000], sup[start:start + 1000], p)
                          for start in range(0, len(diag), 1000)])
    ref = _svd_bidiagonal_norms(diag, sup, p)
    assert np.all(np.isfinite(out))
    err = np.abs(out - ref)
    assert np.all(err <= 1e-13 * ref), float(np.max(err / np.where(ref > 0, ref, 1.0)))


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("p", [3.0, 4.0, np.inf], ids=["svd-p3", "closed-p4", "laguerre-inf"])
def test_bidiagonal_norms_match_dense_svd(n, p):
    # 10^4 draws of the Monte Carlo loop's chi entries, against a dense SVD,
    # reduced as the loop reduces them: at S_4 by the closed form from
    # bidiagonal_traces, at S_inf by a one-block SpectralRun
    chis = gaussian_bidiagonal(make_rng(n), 10_000, n)
    norms = {4.0: _s4_from_traces, np.inf: _spectral_norms}.get(
        p, kernels.bidiagonal_schatten_norms)
    _assert_bidiagonal_norms_match_svd(chis[:, :n], chis[:, n:], p, norms)


def _edge_bidiagonals(n):
    """Named (diag, sup) stacks: zero superdiagonals (diagonal matrices, and
    blocks with a repeated top eigenvalue), equal entries, zero matrices,
    signs, and entries near 1e+-150 (alone and mixed in one matrix)."""
    rng = np.random.default_rng(n)
    diag, sup = rng.random((200, n)), rng.random((200, n - 1))
    sparse = sup * (rng.random(sup.shape) < 0.5)
    alternate = np.ones(n - 1)
    alternate[1::2] = 0.0
    mixed = np.where(rng.random((200, n)) < 0.5, 1e150, 1e-150)
    yield "zero-superdiagonal", diag, np.zeros_like(sup)
    yield "some-zero-superdiagonal", diag, sparse
    yield "zero-diagonal-entries", diag * (rng.random(diag.shape) < 0.5), sparse
    yield "equal-blocks", np.ones((1, n)), alternate[None]
    yield "all-equal", np.full((1, n), 2.0), np.full((1, n - 1), 2.0)
    yield "equal-diagonal", np.ones((1, n)), np.zeros((1, n - 1))
    yield "zero", np.zeros((1, n)), np.zeros((1, n - 1))
    yield "signs", diag * rng.choice([-1.0, 1.0], diag.shape), -sup
    yield "near-1e150", diag * 1e150, sup * 1e150
    yield "near-1e-150", diag * 1e-150, sup * 1e-150
    yield "mixed-1e+-150", diag * mixed, sup * mixed[:, 1:]


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_bidiagonal_norms_edge_cases(n):
    # finite, and within 1e-13 of the dense SVD, at every exponent path (the
    # S_inf one a one-block SpectralRun); the S_4 closed form too where the
    # sixth powers of the entries that tr T^3 holds stay in range (not near
    # 1e+-150)
    for name, diag, sup in _edge_bidiagonals(n):
        paths = [(3.0, kernels.bidiagonal_schatten_norms), (4.0, kernels.bidiagonal_schatten_norms),
                 (np.inf, _spectral_norms)]
        if "150" not in name:
            paths.append((4.0, _s4_from_traces))
        for p, norms in paths:
            try:
                _assert_bidiagonal_norms_match_svd(diag, sup, p, norms)
            except AssertionError as exc:
                raise AssertionError(f"{name}, p = {p}, {norms.__name__}: {exc}") from None


def test_bidiagonal_rows_do_not_depend_on_their_block():
    # every row iterates alone and stops alone: a one-block run's values
    # equal one-row runs exactly, rows with a repeated top eigenvalue
    # included, and so do its traces
    chis = gaussian_bidiagonal(make_rng(5), 300, 16)
    chis[::7, 16::2] = 0.0
    chis[::7, :16] = 1.0
    diag, sup = chis[:, :16], chis[:, 16:]
    loop = [_spectral_norms(diag[i:i + 1], sup[i:i + 1], np.inf)[0] for i in range(len(diag))]
    assert np.array_equal(_spectral_norms(diag, sup, np.inf), loop)
    loop = [kernels.bidiagonal_traces(diag[i:i + 1], sup[i:i + 1])[:, 0] for i in range(len(diag))]
    assert np.array_equal(kernels.bidiagonal_traces(diag, sup).T, loop)
    # a 1024-row run at n = 64, appended block by block from the Monte Carlo
    # loop's one-block slot, equals each block's own run, its traces those
    # of bidiagonal_traces, and the run is empty again after norms()
    n, block = 64, MC_BLOCK
    run = kernels.SpectralRun(n, 4 * block)
    slot = np.empty((block, 2 * n - 1))
    traces = np.empty((2, 4 * block))
    per_block, per_block_traces = [], []
    for k in range(4):
        chis = gaussian_bidiagonal(make_rng(k), block, n, out=slot)
        if k == 2:
            chis[::5, n::3] = 0.0  # rows with decoupled blocks
        per_block.append(_spectral_norms(chis[:, :n], chis[:, n:], np.inf))
        per_block_traces.append(kernels.bidiagonal_traces(chis[:, :n], chis[:, n:]))
        run.append(chis[:, :n], chis[:, n:], traces[:, k * block:(k + 1) * block])
    assert np.array_equal(run.norms(), np.concatenate(per_block))
    assert np.array_equal(traces, np.concatenate(per_block_traces, axis=1))
    run.append(slot[:3, :n], slot[:3, n:], traces[:, :3])
    assert np.array_equal(run.norms(), per_block[-1][:3])
    assert np.array_equal(traces[:, :3], per_block_traces[-1][:, :3])


# ---------------------------------------------------------------------------
# the even-p sumset route against the dense one
# ---------------------------------------------------------------------------

def _sumsets_by_dicts(order, freqs, k):
    # the tables by dictionaries: L_1 = freqs, L_(i+1) = sorted (L_i + freqs) mod order
    m, level, gathers = len(freqs), list(freqs), []
    for _ in range(k - 1):
        pairs = {}
        for t, x in enumerate(level):
            for j, lam in enumerate(freqs):
                pairs.setdefault((x + lam) % order, []).append(t * m + j)
        nxt = sorted(pairs)
        index = {s: i for i, s in enumerate(nxt)}
        positions = np.array([[index[(x + lam) % order] for lam in freqs] for x in level])
        rmax = max(len(flat) for flat in pairs.values())
        gathers.append(np.array([[pairs[s][r] if r < len(pairs[s]) else len(level) * m
                                  for s in nxt] for r in range(rmax)]))
        level = nxt
    return kernels.Sumsets(gathers, positions)


_RANDOM = np.random.default_rng(12)
# kp-profile's lacunary set, random sets of Z_4096, and a set whose sums wrap mod 64
_SUMSET_CASES = {
    "lacunary-12": (4096, tuple(2 ** j for j in range(12))),
    "random-6": (4096, tuple(_RANDOM.choice(4096, 6, replace=False).tolist())),
    "random-12": (4096, tuple(_RANDOM.choice(4096, 12, replace=False).tolist())),
    "wrapping": (64, (1, 31, 33, 62)),
}


def _unit_starts(restarts, m, seed):
    starts = _starts(restarts, m, seed)
    return starts / np.linalg.norm(starts, axis=1)[:, None]


@pytest.mark.parametrize("p", [4, 6, 8])
@pytest.mark.parametrize("case", sorted(_SUMSET_CASES))
def test_sumset_objective_is_the_dense_one_over_the_group(case, p):
    # value * N^(1/p) = (sum_x |f|^p)^(1/p), and the direction is
    # sum_x |f|^(p-2) f conj(gamma_j) / N
    order, freqs = _SUMSET_CASES[case]
    coeffs = _unit_starts(5, len(freqs), seed=p)
    sumsets = _sumsets_by_dicts(order, freqs, p // 2)
    value, direction = kernels._on_sumsets(sumsets, len(coeffs))(coeffs)
    vals = coeffs @ CharacterSet(order, freqs).matrix().T
    mags = np.abs(vals)
    assert np.allclose(value * order ** (1.0 / p), np.sum(mags ** p, axis=1) ** (1.0 / p),
                       rtol=1e-12, atol=0)
    dense = (mags ** (p - 2) * vals) @ CharacterSet(order, freqs).matrix().conj() / order
    got = direction(slice(None))
    scale = np.linalg.norm(dense, axis=1)[:, None]
    assert np.allclose(got / scale, dense / scale, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p", [4, 6])
def test_sumset_tables_match_the_dictionaries(p):
    for order, freqs in _SUMSET_CASES.values():
        built = systems._sumsets(CharacterSet(order, freqs), p // 2, 8)
        if built is None:  # the dense route's
            continue
        oracle = _sumsets_by_dicts(order, freqs, p // 2)
        assert np.array_equal(built.positions, oracle.positions)
        assert len(built.gathers) == len(oracle.gathers)
        for got, want in zip(built.gathers, oracle.gathers):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("case", ["lacunary-12", "wrapping"])
def test_lp_ascent_takes_the_same_steps_on_both_routes(case, p):
    order, freqs = _SUMSET_CASES[case]
    starts = _starts(12, len(freqs), seed=9)
    dense = kernels.lp_ascent(CharacterSet(order, freqs).matrix(), p, starts=starts,
                              max_steps=200)
    coeff = kernels.lp_ascent(_sumsets_by_dicts(order, freqs, p // 2), p, starts=starts,
                              max_steps=200)
    assert np.allclose(coeff[0] * order ** (1.0 / p), dense[0], rtol=1e-12, atol=0)
    assert np.allclose(coeff[1], dense[1], rtol=0, atol=1e-12)


def test_sumset_restart_does_not_depend_on_the_batch():
    # every reduction runs down the support, so a restart alone takes the
    # same floating-point steps as inside a batch of any size
    for case, p in (("lacunary-12", 6), ("wrapping", 4), ("random-12", 4)):
        order, freqs = _SUMSET_CASES[case]
        sumsets = _sumsets_by_dicts(order, freqs, p // 2)
        starts = _starts(9, len(freqs), seed=4)
        vals, coeffs = kernels.lp_ascent(sumsets, p, starts=starts, max_steps=120)
        for rows in (slice(0, 1), slice(4, 5), slice(7, 9)):
            part = kernels.lp_ascent(sumsets, p, starts=starts[rows], max_steps=120)
            assert np.array_equal(part[0], vals[rows])
            assert np.array_equal(part[1], coeffs[rows])


def test_dense_restart_does_not_depend_on_the_batch():
    # the dense route's twin: blocks of a fixed number of points, and a lone
    # row evaluated as in a batch, so a restart alone takes the same
    # floating-point steps as inside a batch of any size
    cases = [(CharacterSet(*_SUMSET_CASES[case]).matrix(), p)
             for case, p in (("lacunary-12", 6), ("wrapping", 4), ("random-12", 3))]
    for basis, p in [*cases, (_rising_blocks(3, 6, seed=2), 2.5)]:
        starts = _starts(9, basis.shape[1], seed=4)
        vals, coeffs = kernels.lp_ascent(basis, p, starts=starts, max_steps=120)
        for rows in (slice(0, 1), slice(4, 5), slice(7, 9)):
            part = kernels.lp_ascent(basis, p, starts=starts[rows], max_steps=120)
            assert np.array_equal(part[0], vals[rows])
            assert np.array_equal(part[1], coeffs[rows])


def test_sumsets_give_one_exponent():
    sumsets = _sumsets_by_dicts(64, (1, 31, 33, 62), 2)
    with pytest.raises(ValueError, match="give p = 4, not 6"):
        kernels.lp_ascent(sumsets, 6.0, starts=_starts(2, 4), max_steps=5)
