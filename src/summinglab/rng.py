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
