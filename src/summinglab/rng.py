"""Deterministic counter-based random streams.

All stochastic estimators take an explicit seed. ``substream`` is the one
way to derive further seeds (per task, candidate or Monte Carlo block), and
results reduce in a fixed order, so they are a pure function of
(inputs, seed) no matter how work is scheduled.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        raise ValueError("a seed is required for stochastic paths")
    return np.random.SeedSequence(int(seed))


def make_rng(seed) -> np.random.Generator:
    """Philox generator for the given seed or seed sequence."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


def substream(seed, index: int) -> np.random.SeedSequence:
    """The index-th child stream, independent of how many others exist."""
    root = seed_sequence(seed)
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (index,))


def standard_gaussians(rng: np.random.Generator, shape, out=None):
    """Unit-variance real normals of the given shape.

    Given ``out`` (contiguous float64, of that shape), the normals are
    written into it and it is returned; no array of the output's size is
    allocated.
    """
    return rng.standard_normal(shape, out=out)


def gaussian_bidiagonal(rng: np.random.Generator, count: int, n: int, out=None):
    """Upper-bidiagonal matrices with the singular values of n x n real Gaussian matrices.

    Row r holds one matrix's diagonal chi_n, chi_(n-1), ..., chi_1 followed
    by its superdiagonal chi_(n-1), ..., chi_1: 2n - 1 independent chi
    variates, each sqrt(2 Gamma(k/2)) for its k degrees of freedom. Golub-Kahan
    bidiagonalization of a matrix of standard normals by Householder
    reflections gives this law (J. Silverstein, J. Multivariate Anal. 1985;
    Dumitriu and Edelman, J. Math. Phys. 43, 2002), and the reflections keep
    the singular values, so every Schatten norm has the Gaussian matrix's law.
    Given ``out`` (contiguous float64, shape (count, 2n - 1)), the entries are
    written into it and it is returned.
    """
    shapes = np.concatenate((np.arange(n, 0, -1), np.arange(n - 1, 0, -1))) / 2.0
    out = rng.standard_gamma(shapes, size=(count, 2 * n - 1), out=out)
    out *= 2.0
    return np.sqrt(out, out=out)
