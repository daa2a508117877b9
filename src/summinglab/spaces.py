"""Finite-dimensional sequence and Schatten spaces and their norms.

Exponents live on the reciprocal scale (``recip = 1/u``, with ``u = inf``
stored as 0) so that interpolation and weak-l2 exponent arithmetic are plain
linear operations and the infinite endpoint is exact. Spaces are ``l_u^n`` over
complex coordinates and the Schatten classes ``S_u^n`` of n x n complex
matrices normed by the l_u norm of their singular values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .estimates import Certainty, NormEstimate
from .kernels import lp_norms, schatten_norm_batch


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exponent:
    """An extended exponent u in [1, inf], stored by its reciprocal."""

    recip: float

    def __post_init__(self):
        if not (0.0 <= self.recip <= 1.0):
            raise ValueError(f"reciprocal exponent must lie in [0, 1], got {self.recip}")

    @classmethod
    def from_value(cls, u) -> "Exponent":
        if u == np.inf:
            return cls(0.0)
        u = float(u)
        if u < 1.0:
            raise ValueError(f"exponent must satisfy u >= 1, got {u}")
        return cls(1.0 / u)

    @classmethod
    def from_fraction(cls, num: int, den: int) -> "Exponent":
        if den <= 0:
            raise ValueError(f"exponent fraction needs a positive denominator, got {num}/{den}")
        if num < den:
            return cls.from_value(num / den)  # raises a uniform error
        return cls(den / num)

    @property
    def value(self) -> float:
        return np.inf if self.recip == 0.0 else 1.0 / self.recip

    @property
    def is_hilbert(self) -> bool:
        return self.recip == 0.5

    def __repr__(self):
        return f"Exponent(u={format_exponent(self)})"


def parse_exponent(spec) -> Exponent:
    """Accept Exponent, numbers, or strings like '2', '4/3', 'inf'."""
    if isinstance(spec, Exponent):
        return spec
    if isinstance(spec, (int, float)):
        return Exponent.from_value(spec)
    s = str(spec).strip().lower()
    if s in ("inf", "infinity", "oo"):
        return Exponent(0.0)
    try:
        if "/" in s:
            num, den = (int(part) for part in s.split("/", 1))
        else:
            value = float(s)
    except ValueError:
        raise ValueError(f"cannot parse exponent {spec!r}") from None
    return Exponent.from_fraction(num, den) if "/" in s else Exponent.from_value(value)


def format_exponent(e: Exponent) -> str:
    if e.recip == 0.0:
        return "inf"
    u = e.value
    if u == int(u):
        return str(int(u))
    return f"{u:g}"


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

class SpaceKind(str, Enum):
    SEQUENCE = "sequence"
    SCHATTEN = "schatten"


@dataclass(frozen=True)
class SpaceDescriptor:
    kind: SpaceKind
    dim: int
    exponent: Exponent

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    @property
    def element_shape(self) -> tuple:
        if self.kind is SpaceKind.SEQUENCE:
            return (self.dim,)
        return (self.dim, self.dim)

    @property
    def flat_dim(self) -> int:
        return self.dim if self.kind is SpaceKind.SEQUENCE else self.dim * self.dim

    def __str__(self):
        prefix = "l" if self.kind is SpaceKind.SEQUENCE else "s"
        return f"{prefix}{format_exponent(self.exponent)}:{self.dim}"


def sequence_space(u, n: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.SEQUENCE, n, parse_exponent(u))


def schatten_space(u, n: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.SCHATTEN, n, parse_exponent(u))


def parse_space(spec: str) -> SpaceDescriptor:
    """Parse 'l2:16' or 's4/3:8' style descriptors."""
    s = spec.strip().lower()
    unparsed = f"cannot parse space descriptor {spec!r} (expected e.g. 'l2:16', 's1:8')"
    if ":" not in s or s[0] not in ("l", "s"):
        raise ValueError(unparsed)
    head, _, dim = s.partition(":")
    kind = SpaceKind.SEQUENCE if head[0] == "l" else SpaceKind.SCHATTEN
    try:
        dim = int(dim)
    except ValueError:
        raise ValueError(unparsed) from None
    return SpaceDescriptor(kind, dim, parse_exponent(head[1:]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(values: np.ndarray, exponent: Exponent) -> float:
    """l_u norm of a coordinate array (any shape, flattened)."""
    return float(lp_norms(np.abs(np.asarray(values)).ravel(), exponent.value))


def norms_of_stack(flat_rows: np.ndarray, space: SpaceDescriptor) -> np.ndarray:
    """Norms of many elements given as rows of vectorized coordinates.

    Sequence spaces and S_2 (the Frobenius norm, no SVD) reduce the entry
    magnitudes. Other Schatten spaces go to ``schatten_norm_batch``, one
    batched SVD. The Monte Carlo loop (``systems._mc_second_moment``) calls
    it on l_v^m, once per MC_BLOCK-row block of standard Gaussian rows, on a
    pool thread; on S_v^n it reduces bidiagonal chi draws in ``kernels``
    instead. The character average
    (``systems._group_norms``) calls it on the full grid's or a dense
    family's values at the group's points.
    """
    flat_rows = np.asarray(flat_rows)
    if flat_rows.shape[-1] != space.flat_dim:
        raise ValueError("row length does not match the space dimension")
    p = space.exponent.value
    if space.kind is SpaceKind.SEQUENCE or space.exponent.is_hilbert:
        return lp_norms(np.abs(flat_rows), p)
    return schatten_norm_batch(flat_rows.reshape(-1, space.dim, space.dim), p)


def inclusion_norm(u: Exponent, v: Exponent, dim: int) -> float:
    """Operator norm of the identity X_u^n -> X_v^n: n^max(0, 1/v - 1/u).

    The same formula covers coordinate and Schatten spaces; it is attained
    by the all-ones vector / identity matrix when 1/v >= 1/u and by a
    coordinate vector / rank-one matrix otherwise.
    """
    return float(dim) ** max(0.0, v.recip - u.recip)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceMap:
    """The identity between two spaces of one kind and dimension.

    Every statement the lab measures is about such identities
    id: X_u^n -> X_v^n; build them with ``identity_map``.
    """

    domain: SpaceDescriptor
    codomain: SpaceDescriptor

    def __post_init__(self):
        if self.domain.kind != self.codomain.kind or self.domain.dim != self.codomain.dim:
            raise ValueError("identity map requires matching kind and dimension")

    def apply_stack(self, family):
        """Map a family of the domain into the codomain: the same coordinates."""
        if family.space != self.domain:
            raise ValueError("family does not live in the map's domain")
        return replace(family, space=self.codomain)


def identity_map(domain: SpaceDescriptor, codomain: SpaceDescriptor) -> SpaceMap:
    return SpaceMap(domain, codomain)


# ---------------------------------------------------------------------------
# vector families and their weak-l2 norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitFamily:
    """Elements x_1..x_m that are 1 on disjoint supports and 0 elsewhere.

    ``elements`` is an int array of shape (m, s): row i lists the s flat
    coordinates where x_i is 1. Read row by row, the coordinates strictly
    increase, which makes the supports disjoint and is checked in one pass.
    A Schatten family has s = 1: each element is a matrix unit e_jk. Every
    candidate family of the searches except the comb has this form, and
    its weak-l2 norm has a closed form.
    """

    space: SpaceDescriptor
    elements: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.elements)
        if idx.ndim != 2 or 0 in idx.shape or idx.dtype.kind not in "iu":
            raise ValueError("unit family elements must be a non-empty (m, s) integer array")
        if self.space.kind is SpaceKind.SCHATTEN and idx.shape[1] != 1:
            raise ValueError("a Schatten unit family holds one matrix unit per element")
        flat = idx.ravel()
        if flat[0] < 0 or flat[-1] >= self.space.flat_dim or not np.all(flat[1:] > flat[:-1]):
            raise ValueError("unit family coordinates must strictly increase inside the space")
        object.__setattr__(self, "elements", idx)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Rows sum_i coeffs[r, i] x_i of the full basis or grid, flattened: ``coeffs`` itself.

        No other unit family is synthesized (see ``systems.second_moment``).
        """
        if self.size != self.space.flat_dim:
            raise ValueError("only the full basis or grid of units is synthesized")
        return coeffs


@dataclass(frozen=True)
class VectorSystem:
    """A dense family x_1..x_m in one space, shape (m,) + element shape."""

    space: SpaceDescriptor
    elements: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.complex128)
        if arr.ndim != 1 + len(self.space.element_shape) or arr.shape[1:] != self.space.element_shape:
            raise ValueError(f"family elements must have shape (m,)+{self.space.element_shape}")
        object.__setattr__(self, "elements", arr)

    @property
    def size(self) -> int:
        return self.elements.shape[0]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Rows sum_i coeffs[r, i] x_i, flattened: the dense product."""
        return coeffs @ self.elements.reshape(self.size, -1)


def _ones_norm(count: int, exponent: Exponent) -> float:
    """l_u norm of ``count`` ones, count^(1/u), bit for bit as ``lp_norms`` reduces it."""
    return float(count) ** (1.0 / exponent.value)


def sequence_copy(family: UnitFamily | VectorSystem) -> UnitFamily | VectorSystem:
    """The l_u^m basis that m matrix units in distinct rows and columns span, else the family.

    sum_i g_i e_(r_i c_i) has the singular values |g_i|, so its S_u norm is
    ||g||_u: such units are an isometric copy of the basis of l_u^m (element
    i to coordinate i). Any other family comes back as it is; more than n
    units cannot lie in distinct rows, which the shape says before any index.
    """
    space = family.space
    if (not isinstance(family, UnitFamily) or space.kind is not SpaceKind.SCHATTEN
            or family.size > space.dim):
        return family
    m = family.size
    rows, cols = np.divmod(family.elements[:, 0], space.dim)
    if np.unique(rows).size < m or np.unique(cols).size < m:
        return family
    return UnitFamily(sequence_space(space.exponent, m), np.arange(m)[:, None])


def weak_l2_norm(family: UnitFamily | VectorSystem) -> NormEstimate:
    """Weak-l2 norm of a family: the norm of its synthesis map l_2^m -> E.

    Unit families have exact closed forms, read from their supports. With
    1/r = max(0, 1/u - 1/2): m disjoint sequence elements of norm s^(1/u)
    give s^(1/u) m^(1/r), and so do matrix units in distinct rows and
    columns (s = 1), as the l_u^m basis of ``sequence_copy``; the full grid
    of R rows by C columns gives min(R, C)^(1/r). Any other unit pattern
    raises. A dense family must lie in a Hilbert space, where the norm is
    its largest singular value, exactly; elsewhere it raises.
    """
    family = sequence_copy(family)
    u = family.space.exponent
    if isinstance(family, UnitFamily):
        weight = Exponent(max(0.0, u.recip - 0.5))
        m, s = family.elements.shape
        if family.space.kind is SpaceKind.SEQUENCE:
            value = _ones_norm(s, u) * _ones_norm(m, weight)
            return NormEstimate(value, Certainty.EXACT, method="disjoint-support closed form")
        rows, cols = np.divmod(family.elements[:, 0], family.space.dim)
        n_rows, n_cols = np.unique(rows).size, np.unique(cols).size
        if n_rows * n_cols == m:  # m distinct units inside rows x cols fill it
            value = min(n_rows, n_cols) ** weight.recip
            return NormEstimate(value, Certainty.EXACT, method="uniform rank-one grid closed form")
        raise ValueError("matrix-unit family admits no closed form (need distinct rows "
                         "and columns, or a full grid)")
    if not u.is_hilbert:
        raise ValueError("dense families are taken only on Hilbert spaces")
    flat = family.elements.reshape(family.size, -1)
    smax = float(np.linalg.svd(flat.T, compute_uv=False)[0])
    return NormEstimate(smax, Certainty.EXACT, method="synthesis operator norm")
