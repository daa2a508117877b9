"""Deterministic counter-based random streams.

All stochastic estimators take an explicit seed. ``substream`` is the one
way to derive further seeds (per task, candidate or Monte Carlo chunk), and
results reduce in a fixed order, so they are a pure function of
(inputs, seed) no matter how work is scheduled.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.SeedSequence"


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


def standard_gaussians(rng: np.random.Generator, shape, complex_normals: bool):
    """Unit-variance real (default) or complex normals of the given shape."""
    if complex_normals:
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z / np.sqrt(2.0)
    return rng.standard_normal(shape)
