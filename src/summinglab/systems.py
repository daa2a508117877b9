"""Orthonormal systems: Gaussian sequences and characters on finite abelian groups.

Character systems integrate exactly (normalized counting average over the
group); the Gaussian system integrates by seeded Monte Carlo. On top of
the systems sit the Lambda(p)-constant and Sidon-constant estimators,
which are nonconvex maximizations shipped as ascent-with-restarts giving
certified lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .estimates import Certainty, NormEstimate
from .kernels import lp_ascent, ratio_ascent
from .rng import make_rng, standard_gaussians, substream
from .spaces import (Exponent, SpaceDescriptor, UnitFamily, VectorSystem,
                     _ones_norm, lp_norm, norms_of_stack, parse_exponent)

# Largest array a configuration may make the lab allocate, in bytes (2 GiB).
# Not a setting.
MAX_ARRAY_BYTES = 2 ** 31


def check_array_bytes(what: str, shape, dtype) -> None:
    """Raise ValueError before allocating an array above MAX_ARRAY_BYTES."""
    shape = tuple(int(d) for d in shape)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} of shape {shape} would take {nbytes / 2 ** 30:.3g} GiB, "
                         f"above the {MAX_ARRAY_BYTES / 2 ** 30:g} GiB cap")


# ---------------------------------------------------------------------------
# finite abelian groups and their characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterGroup:
    """Product of cyclic groups Z_{N_1} x ... x Z_{N_k}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        if not factors or any(f < 1 for f in factors):
            raise ValueError("group factors must be positive integers")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    def points(self) -> np.ndarray:
        """All group elements, shape (order, num_factors), fixed enumeration."""
        grids = np.meshgrid(*[np.arange(f) for f in self.factors], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def cyclic_group(n: int) -> CharacterGroup:
    return CharacterGroup((n,))


def _normalize_freq(freq, factors) -> tuple[int, ...]:
    if isinstance(freq, (int, np.integer)):
        freq = (int(freq),)
    freq = tuple(int(f) for f in freq)
    if len(freq) != len(factors):
        raise ValueError("frequency tuple length must match the number of group factors")
    return tuple(f % n for f, n in zip(freq, factors))


@dataclass(frozen=True)
class CharacterSet:
    """A finite set of distinct frequencies, i.e. characters of the group."""

    group: CharacterGroup
    freqs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        freqs = tuple(_normalize_freq(f, self.group.factors) for f in self.freqs)
        if len(set(freqs)) != len(freqs):
            raise ValueError("frequencies must be distinct modulo the group")
        object.__setattr__(self, "freqs", freqs)

    @property
    def size(self) -> int:
        return len(self.freqs)

    def matrix(self) -> np.ndarray:
        """Character table slice, shape (order, size): column k = gamma_k(x)."""
        return _character_matrix(self.group.factors, self.freqs)


@lru_cache(maxsize=64)
def _character_matrix(factors: tuple[int, ...], freqs) -> np.ndarray:
    group = CharacterGroup(factors)
    check_array_bytes("character matrix", (group.order, len(freqs)), np.complex128)
    pts = group.points()
    k = np.asarray(freqs, dtype=np.int64)
    n = np.asarray(factors, dtype=np.int64)
    # phases as exact integer residues over each factor, then one exp call
    phase = np.zeros((group.order, len(freqs)))
    for j, nj in enumerate(n):
        phase += ((np.outer(pts[:, j], k[:, j])) % nj) / nj
    mat = np.exp(2j * np.pi * phase)
    mat.flags.writeable = False
    return mat


def full_character_set(n: int) -> CharacterSet:
    return CharacterSet(cyclic_group(n), tuple((k,) for k in range(n)))


def lacunary_character_set(n: int, count: int, ratio: int = 2) -> CharacterSet:
    """Geometric frequencies ratio^0, ratio^1, ... inside Z_n."""
    freqs = [pow(ratio, k) for k in range(count)]
    if max(freqs) >= n:
        raise ValueError("group too small to keep lacunary frequencies distinct")
    return CharacterSet(cyclic_group(n), tuple((f,) for f in freqs))


# ---------------------------------------------------------------------------
# span elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanElement:
    """f = sum_k coeffs[k] * gamma_k over a character set."""

    charset: CharacterSet
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.charset.size,):
            raise ValueError("coefficient vector length must match the character set")
        object.__setattr__(self, "coeffs", c)

    def values(self) -> np.ndarray:
        return self.charset.matrix() @ self.coeffs


def lp_norm_of_span(f: SpanElement, p) -> float:
    """L_p norm of f under the normalized counting measure on the group."""
    e = parse_exponent(p)
    vals = f.values()
    return lp_norm(vals, e) * len(vals) ** -e.recip


# ---------------------------------------------------------------------------
# orthonormal systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthonormalSystem:
    """Gaussian system (Monte Carlo integration) or character system (exact).

    Character systems always integrate by exact group averages; the
    Gaussian system takes its sample count and seed per call.
    """

    kind: str
    charset: CharacterSet | None = None
    complex_normals: bool = False

    def __post_init__(self):
        if self.kind == "characters":
            if self.charset is None:
                raise ValueError("character systems need a character set")
        elif self.kind == "gaussian":
            if self.charset is not None:
                raise ValueError("the Gaussian system carries no character set")
        else:
            raise ValueError(f"unknown system kind {self.kind!r}")


def gaussian_system(complex_normals: bool = False) -> OrthonormalSystem:
    return OrthonormalSystem("gaussian", None, complex_normals)


def character_system(charset: CharacterSet) -> OrthonormalSystem:
    return OrthonormalSystem("characters", charset)


# Gaussian rows per Monte Carlo chunk. Fixed, so that a seed fixes every draw.
MC_CHUNK = 4096


def _mc_second_moment(dim: int, family: UnitFamily | None, space: SpaceDescriptor,
                      samples: int, seed, complex_normals: bool,
                      method: str) -> NormEstimate:
    """(E ||sum_i g_i x_i||^2)^(1/2) over standard Gaussian rows g of length dim.

    ``family`` is a unit family of ``dim`` elements in ``space``, applied to
    each chunk by its gather (``UnitFamily.synthesize``), which keeps real
    rows real; or None for the identity, whose rows are the coordinates
    themselves. Chunk k draws from ``substream(seed, k)`` and the sums run
    in chunk order. The value is a Monte Carlo estimate, so it is ``lower``
    with a standard error (delta method on the square root).
    """
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo integration")
    if samples < 2:
        raise ValueError(f"Monte Carlo integration needs >= 2 samples for a stderr, got {samples}")
    # norms_of_stack holds the chunk, a scaled copy and a Gram (or magnitude)
    # stack at once, and the conjugate of the scaled copy for complex rows
    check_array_bytes("Monte Carlo chunk working set",
                      (4 if complex_normals else 3, min(MC_CHUNK, samples), space.flat_dim),
                      np.complex128 if complex_normals else np.float64)
    total = 0.0
    total_sq = 0.0
    for index, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        rows = standard_gaussians(make_rng(substream(seed, index)), (count, dim), complex_normals)
        if family is not None:
            rows = family.synthesize(rows)
        q = norms_of_stack(rows, space) ** 2
        total += float(q.sum())
        total_sq += float((q * q).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    value = float(np.sqrt(mean))
    stderr = float(np.sqrt(var / samples) / (2.0 * value)) if value > 0 else 0.0
    return NormEstimate(value, Certainty.LOWER, stderr=stderr, method=method)


def second_moment(system: OrthonormalSystem, family: UnitFamily | VectorSystem, *,
                  samples: int = 100_000, seed=None) -> NormEstimate:
    """(average of ||sum_i b_i(omega) y_i||^2)^(1/2) over the system, y = family.

    Character systems pair y_i with the first m characters of the set and
    average exactly over the group (certified). The Gaussian system takes
    unit families: chunked Monte Carlo with a reported standard error,
    except for two closed forms. On a Hilbert codomain independence gives
    (sum_i ||y_i||^2)^(1/2) = (m s)^(1/2), and a single element has norm
    s^(1/v) (1 for a matrix unit).
    """
    space, m = family.space, family.size
    if system.kind == "characters":
        cset = system.charset
        if m > cset.size:
            raise ValueError(f"family size {m} exceeds the character set ({cset.size})")
        check_array_bytes("group-average values", (cset.group.order, space.flat_dim),
                          np.complex128)
        vals = family.synthesize(cset.matrix()[:, :m])
        value = lp_norm(norms_of_stack(vals, space), Exponent(0.5)) / math.sqrt(len(vals))
        return NormEstimate(value, Certainty.EXACT, method="group-average")

    if not isinstance(family, UnitFamily):
        raise ValueError("the Gaussian system integrates unit families")
    if space.exponent.is_hilbert:
        value = _ones_norm(family.elements.size, space.exponent)
        return NormEstimate(value, Certainty.EXACT, method="gaussian-orthogonality")
    if m == 1:
        value = _ones_norm(family.elements.shape[1], space.exponent)
        return NormEstimate(value, Certainty.EXACT, method="single-element")
    return _mc_second_moment(m, family, space, samples, seed, system.complex_normals,
                             "mc-gaussian")


# ---------------------------------------------------------------------------
# Lambda(p) and Sidon constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AscentConfig:
    """Projected-gradient-ascent budget (defaults: 64 restarts, 500 steps)."""

    seed: int
    restarts: int = 64
    steps: int = 500
    step_size: float = 0.1
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"ascent restarts must be >= 1, got {self.restarts}")
        if self.steps < 0:
            raise ValueError(f"ascent steps must be >= 0, got {self.steps}")
        if not self.step_size > 0:
            # a zero step never improves and never shrinks below 1e-7 * itself
            raise ValueError(f"ascent step size must be > 0, got {self.step_size}")


def _random_starts(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


def kp_constant_lower(charset: CharacterSet, p, cfg: AscentConfig) -> NormEstimate:
    """Best found ratio ||f||_p / ||f||_2 over span(charset), p >= 2.

    A certified lower bound for the Lambda(p) constant: every evaluated
    ratio of exact group averages is attained by its witness coefficients.
    p = 2 returns 1 exactly (Parseval).
    """
    if charset.size == 0:
        raise ValueError("empty character set")
    e = parse_exponent(p)
    if e.recip > 0.5:
        raise ValueError("the Lambda(p) constant needs p >= 2")
    m = charset.size
    if e.recip == 0.5 or m == 1:
        coeffs = np.zeros(m, dtype=np.complex128)
        coeffs[0] = 1.0
        return NormEstimate(1.0, Certainty.EXACT, method="parseval", witness=coeffs)
    basis = np.ascontiguousarray(charset.matrix())
    basis_h = np.ascontiguousarray(basis.conj().T)
    starts = _random_starts(make_rng(cfg.seed), cfg.restarts, m)
    pv = np.inf if e.recip == 0.0 else 1.0 / e.recip
    vals, coeffs = lp_ascent(basis, basis_h, 1.0 / basis.shape[0], pv, starts,
                             cfg.steps, cfg.step_size, cfg.tol)
    best = int(np.argmax(vals))
    witness = coeffs[best]
    f = SpanElement(charset, witness)
    value = lp_norm_of_span(f, e) / lp_norm_of_span(f, 2)
    return NormEstimate(value, Certainty.LOWER, method="projected-ascent", witness=witness)


def sidon_constant_lower(charset: CharacterSet, cfg: AscentConfig) -> NormEstimate:
    """Best found ratio sum_k |a_k| / sup_G |f| over span(charset).

    Certified lower bound for the Sidon constant; always >= 1 because the
    single-coefficient witness is included among the starts.
    """
    if charset.size == 0:
        raise ValueError("empty character set")
    m = charset.size
    basis = np.ascontiguousarray(charset.matrix())
    basis_h = np.ascontiguousarray(basis.conj().T)
    starts = _random_starts(make_rng(cfg.seed), cfg.restarts, m)
    starts[0] = 0.0
    starts[0, 0] = 1.0  # singleton witness: ratio exactly 1
    vals, coeffs = ratio_ascent(basis, basis_h, starts, cfg.steps, cfg.step_size, cfg.tol)
    best = int(np.argmax(vals))
    witness = coeffs[best]
    f = SpanElement(charset, witness)
    value = lp_norm(witness, Exponent(1.0)) / lp_norm_of_span(f, "inf")
    return NormEstimate(value, Certainty.LOWER, method="projected-ascent", witness=witness)


def kp_growth_profile(charset: CharacterSet, p_values, cfg: AscentConfig):
    """Lambda(p) lower bounds across a p-grid, with the K_p / sqrt(p) column.

    Boundedness of that column across the grid is the Sidon criterion to
    eyeball; a singleton gives K_p = 1 and ratios 1/sqrt(p).
    """
    rows = []
    for i, p in enumerate(p_values):
        est = kp_constant_lower(charset, p, replace(cfg, seed=substream(cfg.seed, i)))
        pv = parse_exponent(p).value
        rows.append({"p": float(pv), "estimate": est, "ratio": est.value / np.sqrt(pv)})
    return rows
