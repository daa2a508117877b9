"""Micro-benchmark of the public hot kernels and the Monte Carlo loop.

Times ``lp_ascent`` (on a character matrix and on sumset tables),
``ratio_ascent``, ``schatten_norm_batch``, ``bidiagonal_schatten_norms``
and a ``SpectralRun`` from ``summinglab.kernels``, and the one Monte Carlo loop (runs of 256-sample
blocks drawn, gathered and reduced on a thread pool) through
``summing.ell_norm_mc`` and ``systems.second_moment`` on diagonal
matrix units, on fixed inputs and seeds, and prints the median and quartiles of
the wall time over ``--repeats`` calls, plus the best value each call
returned to 17 digits (a change that moves it changed the numbers, not
just the speed). Usage:

    python benchmarks/bench_kernels.py [--repeats N]

End-to-end timing of the CLI suites lives in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from summinglab import (UnitFamily, gaussian_system, identity_map, kernels,
                        schatten_space, second_moment, summing)
from summinglab.rng import gaussian_bidiagonal, make_rng
from summinglab.systems import MC_BLOCK, _sumsets, lacunary_character_set


def _dft(group, m):
    return np.exp(2j * np.pi * np.outer(np.arange(group), np.arange(m)) / group)


def _starts(restarts, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((restarts, m)) + 1j * rng.standard_normal((restarts, m))


def cases():
    """(label, kernel, args) triples; inputs are built outside the timed calls."""
    group, m, restarts = 256, 32, 32
    yield (f"lp_ascent p=4 (G={group}, m={m}, R={restarts})", kernels.lp_ascent,
           (_dft(group, m), 4.0, _starts(restarts, m, 0), 300))

    group, m, restarts = 65536, 16, 12
    yield (f"lp_ascent p=4 tall lacunary (G={group}, m={m}, R={restarts})",
           kernels.lp_ascent,
           (lacunary_character_set(group, m).matrix(), 4.0, _starts(restarts, m, 3), 150))
    # the same ascent on the coefficient side: the set's 2-fold sumset
    # tables, whose values are the dense ones over G^(1/4)
    yield (f"lp_ascent p=4 tall lacunary, sumsets (G={group}, m={m}, R={restarts})",
           kernels.lp_ascent,
           (_sumsets(lacunary_character_set(group, m), 2, restarts), 4.0,
            _starts(restarts, m, 3), 150))

    group, m, restarts = 128, 16, 32
    yield (f"ratio_ascent (G={group}, m={m}, R={restarts})", kernels.ratio_ascent,
           (_dft(group, m), _starts(restarts, m, 2), 300))

    mats = np.random.default_rng(1).standard_normal((2048, 16, 16))
    yield "schatten_norm_batch p=4 (2048 x 16x16)", kernels.schatten_norm_batch, (mats, 4.0)

    # the SVD at the README's largest thm2 size
    mats = np.random.default_rng(5).standard_normal((4096, 64, 64))
    yield ("schatten_norm_batch p=inf (4096 x 64x64)", kernels.schatten_norm_batch,
           (mats, np.inf))

    # one Monte Carlo block at the README's largest thm2 size, both routes:
    # 256 dense Gaussian matrices, and the bidiagonals the full grid draws
    mats = np.random.default_rng(7).standard_normal((MC_BLOCK, 64, 64))
    yield ("schatten_norm_batch p=inf (256 x 64x64, one block)", kernels.schatten_norm_batch,
           (mats, np.inf))
    chis = gaussian_bidiagonal(make_rng(7), MC_BLOCK, 64)
    for p in (np.inf, 4.0):
        yield (f"bidiagonal_schatten_norms p={p:g} (256 x n=64, one block)",
               kernels.bidiagonal_schatten_norms, (chis[:, :64], chis[:, 64:], p))
    # the S_inf reduction of one run of eight such blocks, appended block by
    # block and reduced in one Laguerre pass
    chis = gaussian_bidiagonal(make_rng(8), 8 * MC_BLOCK, 64)
    yield ("SpectralRun p=inf (2048 x n=64, one 8-block run)", _spectral_run_norms, (chis, 64))

    # the whole loop at the README's largest thm2 size: draws, norms, sums
    for v in ("inf", 4):
        space_map = identity_map(schatten_space(2, 64), schatten_space(v, 64))
        yield (f"ell_norm_mc s2:64 -> s{v}:64 (20000 samples, seed 11)", _ell_norm_value,
               (space_map, 20_000))
    # sixteen blocks, a few per thread
    yield ("ell_norm_mc s2:64 -> sinf:64 (4096 samples, 16 blocks, seed 11)", _ell_norm_value,
           (identity_map(schatten_space(2, 64), schatten_space("inf", 64)), 4096))
    # interp-audit's S_4^32 diagonal matrix units, reduced as the l_4^32 basis
    space = schatten_space(4, 32)
    diag = UnitFamily(space, (np.arange(32) * 33)[:, None])
    yield ("second_moment s4:32 diag as l4:32 (20000 samples, seed 11)", _second_moment_value,
           (diag,))


def _spectral_run_norms(chis, n):
    run = kernels.SpectralRun(n, len(chis))
    for start in range(0, len(chis), MC_BLOCK):
        block = chis[start:start + MC_BLOCK]
        run.append(block[:, :n], block[:, n:])
    return run.norms()


def _ell_norm_value(space_map, samples):
    return summing.ell_norm_mc(space_map, samples=samples, seed=11).value


def _second_moment_value(family):
    return second_moment(gaussian_system(), family, samples=20_000, seed=11).value


def _time(fn, args, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    values = out[0] if isinstance(out, tuple) else out
    return np.percentile(times, [25, 50, 75]), float(np.max(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rows = [(label, *_time(fn, fn_args, args.repeats)) for label, fn, fn_args in cases()]
    width = max(len(label) for label, _, _ in rows)
    print(f"backend {kernels.active_backend()}, {args.repeats} repeats\n")
    print(f"{'kernel':<{width}}  {'median':>10}  {'q25':>10}  {'q75':>10}  {'best value':>24}")
    for label, (q25, med, q75), best in rows:
        print(f"{label:<{width}}  {med * 1e3:8.1f}ms  {q25 * 1e3:8.1f}ms  "
              f"{q75 * 1e3:8.1f}ms  {best:24.17g}")


if __name__ == "__main__":
    main()
