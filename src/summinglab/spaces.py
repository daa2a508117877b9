"""Finite-dimensional sequence and Schatten spaces and their norms.

Exponents live on the reciprocal scale (``recip = 1/u``, with ``u = inf``
stored as 0) so that duality and interpolation arithmetic are plain linear
operations and the infinite endpoint is exact. Spaces are ``l_u^n`` over
complex coordinates and the Schatten classes ``S_u^n`` of n x n complex
matrices normed by the l_u norm of their singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def dual(self) -> "Exponent":
        """Conjugate exponent: 1/u + 1/u' = 1 (reciprocal complement)."""
        return Exponent(1.0 - self.recip)

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
    if "/" in s:
        num, den = s.split("/")
        return Exponent.from_fraction(int(num), int(den))
    return Exponent.from_value(float(s))


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
    if ":" not in s or s[0] not in ("l", "s"):
        raise ValueError(f"cannot parse space descriptor {spec!r} (expected e.g. 'l2:16', 's1:8')")
    head, _, dim = s.partition(":")
    kind = SpaceKind.SEQUENCE if head[0] == "l" else SpaceKind.SCHATTEN
    return SpaceDescriptor(kind, int(dim), parse_exponent(head[1:]))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(values: np.ndarray, exponent: Exponent) -> float:
    """l_u norm of a coordinate array (any shape, flattened)."""
    return float(lp_norms(np.abs(np.asarray(values)).ravel(), exponent.value))


def element_norm(x: np.ndarray, space: SpaceDescriptor) -> float:
    """Norm of an element in its space: coordinate l_u or Schatten S_u."""
    x = np.asarray(x)
    if x.shape != space.element_shape:
        raise ValueError(f"element shape {x.shape} does not match {space} (expects {space.element_shape})")
    return float(norms_of_stack(x.reshape(1, -1), space)[0])


def norms_of_stack(flat_rows: np.ndarray, space: SpaceDescriptor) -> np.ndarray:
    """Norms of many elements given as rows of vectorized coordinates.

    Sequence spaces and S_2 (the Frobenius norm, no SVD) reduce the entry
    magnitudes; other Schatten spaces reduce singular values.
    """
    flat_rows = np.asarray(flat_rows)
    if flat_rows.shape[-1] != space.flat_dim:
        raise ValueError("row length does not match the space dimension")
    p = space.exponent.value
    if space.kind is SpaceKind.SEQUENCE or space.exponent.is_hilbert:
        return lp_norms(np.abs(flat_rows), p)
    return schatten_norm_batch(flat_rows.reshape(-1, space.dim, space.dim), p)


def inclusion_norm(u: Exponent, v: Exponent, dim: int,
                   kind: SpaceKind = SpaceKind.SEQUENCE) -> float:
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
    """A linear map between two descriptors, acting on vectorized elements.

    ``matrix`` may be None for the identity (domain and codomain must then
    share their vectorized dimension), the cheap case all experiments use.
    """

    domain: SpaceDescriptor
    codomain: SpaceDescriptor
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.matrix is None:
            if self.domain.flat_dim != self.codomain.flat_dim:
                raise ValueError("identity map requires equal vectorized dimensions")
        else:
            m = np.asarray(self.matrix, dtype=np.complex128)
            if m.shape != (self.codomain.flat_dim, self.domain.flat_dim):
                raise ValueError(
                    f"map matrix shape {m.shape} does not match "
                    f"({self.codomain.flat_dim}, {self.domain.flat_dim})")
            object.__setattr__(self, "matrix", m)

    @property
    def is_identity(self) -> bool:
        return self.matrix is None

    def apply_stack(self, elements: np.ndarray) -> np.ndarray:
        """Map a stack (m, *domain_shape) to (m, *codomain_shape)."""
        elements = np.asarray(elements)
        flat = elements.reshape(elements.shape[0], -1)
        if flat.shape[1] != self.domain.flat_dim:
            raise ValueError("elements do not conform to the map's domain")
        out = flat if self.matrix is None else flat @ self.matrix.T
        return out.reshape((elements.shape[0],) + self.codomain.element_shape)

    def scaled(self, t: float) -> "SpaceMap":
        mat = self.matrix if self.matrix is not None else np.eye(self.domain.flat_dim)
        return SpaceMap(self.domain, self.codomain, t * mat)


def identity_map(domain: SpaceDescriptor, codomain: SpaceDescriptor) -> SpaceMap:
    if domain.kind != codomain.kind or domain.dim != codomain.dim:
        raise ValueError("identity map requires matching kind and dimension")
    return SpaceMap(domain, codomain, None)


# ---------------------------------------------------------------------------
# vector families and their weak-l2 norms
# ---------------------------------------------------------------------------

class FamilyStructure(str, Enum):
    GENERIC = "generic"
    DISJOINT = "disjoint-support"
    RANK_ONE = "rank-one"


@dataclass(frozen=True)
class VectorSystem:
    """A finite family x_1..x_m in one space, with a structure tag.

    Structured tags unlock exact weak-l2 norms: DISJOINT requires pairwise
    disjoint supports (sequence spaces), RANK_ONE requires every element to
    be a scalar multiple of a distinct e_j e_k* pattern (Schatten spaces).
    """

    space: SpaceDescriptor
    elements: np.ndarray
    structure: FamilyStructure = FamilyStructure.GENERIC

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.complex128)
        if arr.ndim != 1 + len(self.space.element_shape) or arr.shape[1:] != self.space.element_shape:
            raise ValueError(f"family elements must have shape (m,)+{self.space.element_shape}")
        object.__setattr__(self, "elements", arr)
        if self.structure is FamilyStructure.DISJOINT:
            if self.space.kind is not SpaceKind.SEQUENCE:
                raise ValueError("disjoint-support structure applies to sequence spaces")
            occupied = (np.abs(arr) > 0).sum(axis=0)
            if occupied.max(initial=0) > 1:
                raise ValueError("supports are not pairwise disjoint")
        elif self.structure is FamilyStructure.RANK_ONE:
            if self.space.kind is not SpaceKind.SCHATTEN:
                raise ValueError("rank-one structure applies to Schatten spaces")
            flat = arr.reshape(arr.shape[0], -1)
            nz = np.abs(flat) > 0
            if not np.all(nz.sum(axis=1) == 1):
                raise ValueError("each rank-one element must have exactly one nonzero entry")
            pos = nz.argmax(axis=1)
            if len(set(pos.tolist())) != len(pos):
                raise ValueError("rank-one patterns must be distinct")

    @property
    def size(self) -> int:
        return self.elements.shape[0]


def synthesis_matrix(family: VectorSystem) -> np.ndarray:
    """Matrix of the synthesis map l_2^m -> E, e_i -> x_i (columns = vec x_i)."""
    return family.elements.reshape(family.size, -1).T.copy()


def _rank_one_data(family: VectorSystem):
    flat = family.elements.reshape(family.size, -1)
    pos = np.abs(flat).argmax(axis=1)
    weights = np.abs(flat[np.arange(family.size), pos])
    rows, cols = np.divmod(pos, family.space.dim)
    return rows, cols, weights


def weak_l2_norm(family: VectorSystem) -> NormEstimate:
    """Weak-l2 norm of a family: the norm of its synthesis map l_2^m -> E.

    Exact closed forms for the structured tags; for generic families the
    value is exact on Hilbert spaces (largest singular value) and a
    certified upper bound otherwise. A 0-norm family raises.
    """
    u = family.space.exponent
    weight_recip = max(0.0, u.recip - 0.5)
    if family.structure is FamilyStructure.DISJOINT:
        weights = norms_of_stack(family.elements.reshape(family.size, -1), family.space)
        value = lp_norm(weights, Exponent(weight_recip))
        return NormEstimate(value, Certainty.EXACT, method="disjoint-support closed form")
    if family.structure is FamilyStructure.RANK_ONE:
        rows, cols, weights = _rank_one_data(family)
        bi_disjoint = (len(set(rows.tolist())) == family.size
                       and len(set(cols.tolist())) == family.size)
        if bi_disjoint:
            value = lp_norm(weights, Exponent(weight_recip))
            return NormEstimate(value, Certainty.EXACT, method="bi-disjoint rank-one closed form")
        row_set, col_set = sorted(set(rows.tolist())), sorted(set(cols.tolist()))
        is_grid = family.size == len(row_set) * len(col_set)
        w0 = weights[0]
        if is_grid and w0 > 0 and np.allclose(weights, w0, rtol=1e-9, atol=0.0):
            rank = min(len(row_set), len(col_set))
            value = w0 * rank ** weight_recip
            return NormEstimate(value, Certainty.EXACT, method="uniform rank-one grid closed form")
        raise ValueError(
            "rank-one family admits no closed form (need bi-disjoint patterns "
            "or a uniform-weight grid); tag it generic instead")
    # generic
    smax = float(np.linalg.svd(synthesis_matrix(family), compute_uv=False)[0])
    if u.is_hilbert:
        return NormEstimate(smax, Certainty.EXACT, method="synthesis operator norm")
    elem_norms = norms_of_stack(family.elements.reshape(family.size, -1), family.space)
    upper = min(family.space.dim ** weight_recip * smax, lp_norm(elem_norms, Exponent(0.5)))
    return NormEstimate(upper, Certainty.UPPER, method="exponent-comparison upper bound")


def weak_l2_lower_heuristic(family: VectorSystem, restarts: int = 8,
                            iters: int = 40, *, seed) -> NormEstimate:
    """Heuristic lower bound via nonlinear power ascent over the l_2 sphere."""
    from .rng import make_rng

    X = synthesis_matrix(family)
    space = family.space
    rng = make_rng(seed)
    best = 0.0
    best_a = None
    p = space.exponent.value
    for _ in range(restarts):
        a = rng.standard_normal(family.size) + 1j * rng.standard_normal(family.size)
        a /= np.linalg.norm(a)
        for _ in range(iters):
            y = (X @ a).reshape(space.element_shape)
            # duality map of the codomain norm, pulled back through X; only
            # its direction matters, so magnitudes are scaled by their peak
            # before the power, which keeps it finite at large p
            if space.kind is SpaceKind.SEQUENCE:
                ay = np.abs(y)
                if p == np.inf:
                    z = np.zeros_like(y)
                    j = int(ay.argmax())
                    z[j] = y[j] / ay[j] if ay[j] > 0 else 1.0
                else:
                    z = (ay / (ay.max() or 1.0)) ** (p - 1.0) \
                        * np.where(ay > 0, y / np.where(ay > 0, ay, 1.0), 0.0)
            else:
                uu, sv, vh = np.linalg.svd(y)
                if p == np.inf:
                    f = np.zeros_like(sv)
                    f[0] = 1.0
                else:
                    f = (sv / (sv[0] or 1.0)) ** (p - 1.0)
                z = (uu * f) @ vh
            a_new = X.conj().T @ z.ravel()
            nrm = np.linalg.norm(a_new)
            if nrm == 0:
                break
            a = a_new / nrm
        val = element_norm((X @ a).reshape(space.element_shape), space)
        if val > best:
            best, best_a = val, a
    return NormEstimate(best, Certainty.LOWER, method="power-ascent lower bound", witness=best_a)
