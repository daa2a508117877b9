"""Micro-benchmark of the public hot kernels.

Times ``lp_ascent``, ``ratio_ascent`` and ``schatten_norm_batch`` from
``summinglab.kernels`` on fixed inputs and seeds, and prints the median
and quartiles of the wall time over ``--repeats`` calls, plus the best
value each call returned (a change that moves it changed the numbers, not
just the speed). Usage:

    python benchmarks/bench_kernels.py [--repeats N]

End-to-end timing of the CLI suites lives in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from summinglab import kernels
from summinglab.systems import lacunary_character_set


def _pair(mat):
    mat = np.ascontiguousarray(mat)
    return mat, np.ascontiguousarray(mat.conj().T)


def _dft(group, m):
    return _pair(np.exp(2j * np.pi * np.outer(np.arange(group), np.arange(m)) / group))


def _starts(restarts, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((restarts, m)) + 1j * rng.standard_normal((restarts, m))


def cases():
    """(label, kernel, args) triples; inputs are built outside the timed calls."""
    group, m, restarts = 256, 32, 32
    basis, basis_h = _dft(group, m)
    yield (f"lp_ascent p=4 (G={group}, m={m}, R={restarts})", kernels.lp_ascent,
           (basis, basis_h, 1.0 / group, 4.0, _starts(restarts, m, 0), 300, 0.1, 1e-8))

    group, m, restarts = 65536, 16, 12
    basis, basis_h = _pair(lacunary_character_set(group, m).matrix())
    yield (f"lp_ascent p=4 tall lacunary (G={group}, m={m}, R={restarts})",
           kernels.lp_ascent,
           (basis, basis_h, 1.0 / group, 4.0, _starts(restarts, m, 3), 150, 0.1, 1e-8))

    group, m, restarts = 128, 16, 32
    basis, basis_h = _dft(group, m)
    yield (f"ratio_ascent (G={group}, m={m}, R={restarts})", kernels.ratio_ascent,
           (basis, basis_h, _starts(restarts, m, 2), 300, 0.1, 1e-8))

    mats = np.random.default_rng(1).standard_normal((2048, 16, 16))
    yield "schatten_norm_batch p=4 (2048 x 16x16)", kernels.schatten_norm_batch, (mats, 4.0)


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
    print(f"{'kernel':<{width}}  {'median':>10}  {'q25':>10}  {'q75':>10}  {'best value':>18}")
    for label, (q25, med, q75), best in rows:
        print(f"{label:<{width}}  {med * 1e3:8.1f}ms  {q25 * 1e3:8.1f}ms  "
              f"{q75 * 1e3:8.1f}ms  {best:18.15g}")


if __name__ == "__main__":
    main()
