"""Deterministic counter-based random streams.

All stochastic estimators take an explicit seed. ``substream`` is the one
way to derive further seeds (per task, candidate or Monte Carlo chunk), and
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


def standard_gaussians(rng: np.random.Generator, shape, complex_normals: bool, out=None):
    """Unit-variance real (default) or complex normals of the given shape.

    Given ``out`` (contiguous, of that shape and the draw's dtype), the
    normals are written into it and it is returned; no array of the
    output's size is allocated for a real draw. A complex draw takes its
    real parts, then its imaginary parts, through one reused real buffer,
    so it allocates half its output (one and a half outputs without
    ``out``); the values are those of ``(a + 1j * b) / sqrt(2)``.
    """
    if not complex_normals:
        return rng.standard_normal(shape, out=out)
    z = np.empty(shape, dtype=np.complex128) if out is None else out
    buf = np.empty(shape)
    z.real = rng.standard_normal(out=buf)
    z.imag = rng.standard_normal(out=buf)
    z /= np.sqrt(2.0)
    return z
