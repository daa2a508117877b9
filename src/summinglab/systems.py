"""Orthonormal systems: Gaussian sequences and characters on finite abelian groups.

Character systems integrate exactly (normalized counting average over the
group); the Gaussian system integrates by seeded Monte Carlo. On top of
the systems sit the Lambda(p)-constant and Sidon-constant estimators,
which are nonconvex maximizations shipped as ascent-with-restarts giving
certified lower bounds, plus exhaustive phase-quantized oracles for tiny
frequency sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .estimates import Certainty, NormEstimate
from .kernels import lp_ascent, ratio_ascent
from .rng import make_rng, standard_gaussians, substream
from .spaces import SpaceDescriptor, norms_of_stack, parse_exponent


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

    def subset(self, m: int) -> "CharacterSet":
        if m > self.size:
            raise ValueError("subset larger than the character set")
        return CharacterSet(self.group, self.freqs[:m])


@lru_cache(maxsize=64)
def _character_matrix(factors: tuple[int, ...], freqs) -> np.ndarray:
    group = CharacterGroup(factors)
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
    vals = np.abs(f.values())
    if e.recip == 0.0:
        return float(vals.max())
    pv = 1.0 / e.recip
    return float(((vals ** pv).mean()) ** e.recip)


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


def _mc_second_moment(dim: int, matrix: np.ndarray | None, space: SpaceDescriptor,
                      samples: int, seed, complex_normals: bool,
                      method: str) -> NormEstimate:
    """(E ||g @ matrix||^2)^(1/2) over standard Gaussian rows g of length dim.

    ``matrix`` is (dim, space.flat_dim), or None for the identity (no
    product is formed). Chunk k draws from ``substream(seed, k)`` and the
    sums run in chunk order. The value is a Monte Carlo estimate, so it is
    ``lower`` with a standard error (delta method on the square root).
    """
    if seed is None:
        raise ValueError("a seed is required for Monte Carlo integration")
    if samples < 2:
        raise ValueError(f"Monte Carlo integration needs >= 2 samples for a stderr, got {samples}")
    total = 0.0
    total_sq = 0.0
    for index, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        g = standard_gaussians(make_rng(substream(seed, index)), (count, dim), complex_normals)
        q = norms_of_stack(g if matrix is None else g @ matrix, space) ** 2
        total += float(q.sum())
        total_sq += float((q * q).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    value = float(np.sqrt(mean))
    stderr = float(np.sqrt(var / samples) / (2.0 * value)) if value > 0 else 0.0
    return NormEstimate(value, Certainty.LOWER, stderr=stderr, method=method)


def second_moment(system: OrthonormalSystem, elements: np.ndarray,
                  space: SpaceDescriptor, *, samples: int = 100_000,
                  seed=None, allow_exact: bool = True) -> NormEstimate:
    """(average of ||sum_i b_i(omega) y_i||^2)^(1/2) over the system.

    Character systems pair y_i with the first m characters of the set and
    average exactly over the group (certified). The Gaussian system uses
    chunked Monte Carlo with a reported standard error, except for two
    exact shortcuts (kept unless ``allow_exact`` is False): a Hilbert
    codomain, where independence gives (sum_i ||y_i||^2)^(1/2) exactly,
    and a single-element family.
    """
    elements = np.asarray(elements, dtype=np.complex128)
    m = elements.shape[0]
    flat = elements.reshape(m, -1)
    if flat.shape[1] != space.flat_dim:
        raise ValueError("elements do not conform to the codomain space")

    if system.kind == "characters":
        cset = system.charset
        if m > cset.size:
            raise ValueError(f"family size {m} exceeds the character set ({cset.size})")
        basis = cset.matrix()[:, :m]
        vals = basis @ flat
        norms = norms_of_stack(vals, space)
        value = float(np.sqrt((norms ** 2).mean()))
        return NormEstimate(value, Certainty.EXACT, method="group-average")

    if allow_exact and space.exponent.is_hilbert:
        value = float(np.sqrt((np.abs(flat) ** 2).sum()))
        return NormEstimate(value, Certainty.EXACT, method="gaussian-orthogonality")
    if allow_exact and m == 1:
        value = float(norms_of_stack(flat, space)[0])
        return NormEstimate(value, Certainty.EXACT, method="single-element")
    return _mc_second_moment(m, flat, space, samples, seed, system.complex_normals,
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


def _grid_coeffs(m: int, phase_steps: int, magnitude_steps: int) -> np.ndarray:
    """Unit coefficient rows for m = 2 or 3: quantized magnitude profiles on
    the sphere (modulo global scale) times relative phases (modulo global phase)."""
    angles = np.linspace(0.0, np.pi / 2, magnitude_steps)
    phases = np.exp(2j * np.pi * np.arange(phase_steps) / phase_steps)
    if m == 2:
        return np.asarray([np.array([np.cos(t), np.sin(t) * ph])
                           for t in angles for ph in phases])
    return np.asarray([
        np.array([np.cos(t), np.sin(t) * np.cos(s) * ph1, np.sin(t) * np.sin(s) * ph2])
        for t in angles for s in angles for ph1 in phases for ph2 in phases
    ])


def kp_constant_grid(charset: CharacterSet, p, phase_steps: int = 16,
                     magnitude_steps: int = 9) -> float:
    """Exhaustive phase-quantized oracle for |charset| <= 3.

    Enumerates magnitude profiles on the sphere (modulo global scale) and
    quantized relative phases (modulo global phase); returns the best ratio.
    """
    m = charset.size
    if m > 3:
        raise ValueError("the exhaustive oracle only covers up to 3 characters")
    e = parse_exponent(p)
    if m == 1:
        return 1.0
    coeffs = _grid_coeffs(m, phase_steps, magnitude_steps)
    basis = charset.matrix()
    vals = np.abs(basis @ coeffs.T)
    l2 = np.sqrt((vals ** 2).mean(axis=0))
    if e.recip == 0.0:
        num = vals.max(axis=0)
    else:
        pv = 1.0 / e.recip
        num = ((vals ** pv).mean(axis=0)) ** e.recip
    ok = l2 > 0
    return float((num[ok] / l2[ok]).max())


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
    value = float(np.abs(witness).sum() / lp_norm_of_span(f, "inf"))
    return NormEstimate(value, Certainty.LOWER, method="projected-ascent", witness=witness)


def sidon_constant_grid(charset: CharacterSet, phase_steps: int = 16,
                        magnitude_steps: int = 9) -> float:
    """Exhaustive phase-quantized Sidon oracle for |charset| <= 3."""
    m = charset.size
    if m > 3:
        raise ValueError("the exhaustive oracle only covers up to 3 characters")
    if m == 1:
        return 1.0
    coeffs = _grid_coeffs(m, phase_steps, magnitude_steps)
    basis = charset.matrix()
    sup = np.abs(basis @ coeffs.T).max(axis=0)
    num = np.abs(coeffs).sum(axis=1)
    ok = sup > 0
    return float((num[ok] / sup[ok]).max())


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
