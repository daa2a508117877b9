"""Operator-ideal norm estimators.

For a map with Hilbert domain the Gaussian-summing norm is computed as the
ell-norm (E ||T g||^2)^(1/2) (operational definition; exact Frobenius
shortcut onto Hilbert codomains, Monte Carlo otherwise). For other domains
the module produces certified lower bounds from structured vector families
(exact numerator over character systems, exact closed-form denominators)
and certified upper bounds by factorization through a pivot leg whose ideal
norm is known in closed form. A small registry stores the closed-form
reference values and asymptotic exponents the experiments compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimates import Certainty, NormEstimate
from .limit_order import gaussian_limit_order, schatten_gaussian_exponent
from .rng import substream
from .spaces import (Exponent, FamilyStructure, SpaceDescriptor, SpaceKind,
                     SpaceMap, VectorSystem, inclusion_norm, lp_norm,
                     weak_l2_norm)
from .systems import (OrthonormalSystem, _mc_second_moment, check_array_bytes,
                      second_moment)


# ---------------------------------------------------------------------------
# ell-norm (Gaussian-summing norm on Hilbert domains)
# ---------------------------------------------------------------------------

def ell_norm_mc(space_map: SpaceMap, *, samples: int = 100_000, seed=None,
                complex_normals: bool = False, allow_exact: bool = True) -> NormEstimate:
    """(E ||T g||^2)^(1/2) for a map with Hilbert domain (l_2^n or S_2^n).

    When the codomain is Hilbert as well the value is the Frobenius norm of
    the map matrix, returned exactly. Otherwise chunked Monte Carlo with a
    standard error; the result doubles as a lower bound for the
    Gaussian-summing norm (coordinate family, weak-l2 norm exactly 1).
    """
    domain = space_map.domain
    if not domain.exponent.is_hilbert:
        raise ValueError("the ell-norm needs a Hilbert domain (exponent 2)")
    codomain = space_map.codomain
    d = domain.flat_dim
    if allow_exact and codomain.exponent.is_hilbert:
        if space_map.is_identity:
            value = float(np.sqrt(d))
        else:
            value = lp_norm(space_map.matrix, Exponent(0.5))
        return NormEstimate(value, Certainty.EXACT, method="frobenius")
    matrix = None if space_map.is_identity else space_map.matrix.T
    return _mc_second_moment(d, matrix, codomain, samples, seed, complex_normals,
                             "mc-gaussian-ell")


# ---------------------------------------------------------------------------
# certified lower bounds from vector families
# ---------------------------------------------------------------------------

def summing_norm_lower(space_map: SpaceMap, system: OrthonormalSystem,
                       family: VectorSystem, *, samples: int = 100_000,
                       seed=None) -> NormEstimate:
    """Lower bound: second moment of the mapped family / weak-l2 of the family.

    ``lower`` only when the numerator is exact or a lower bound and the
    denominator exact or an upper bound (structured families, or any family
    on a Hilbert domain); ``heuristic`` otherwise. The numerator contributes
    a standard error on Monte Carlo paths.
    """
    if family.space != space_map.domain:
        raise ValueError("family does not live in the map's domain")
    mapped = space_map.apply_stack(family.elements)
    num = second_moment(system, mapped, space_map.codomain, samples=samples, seed=seed)
    den = weak_l2_norm(family)
    if den.value <= 0:
        raise ValueError("family has zero weak-l2 norm")
    value = num.value / den.value
    stderr = None if num.stderr is None else num.stderr / den.value
    certified = num.certainty in (Certainty.EXACT, Certainty.LOWER) \
        and den.certainty in (Certainty.EXACT, Certainty.UPPER)
    certainty = Certainty.LOWER if certified else Certainty.HEURISTIC
    if stderr == 0.0:
        stderr = None
    return NormEstimate(value, certainty, stderr=stderr,
                        method=f"family ratio ({num.method} / {den.method})",
                        witness=family)


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Family-search budget for certified lower bounds.

    ``samples`` is the Monte Carlo sample count of every evaluation;
    ``budget`` is the number of extra weight-perturbation evaluations on
    the best seed family (0 = return the best seed family untouched).
    """

    seed: int
    samples: int = 4000
    budget: int = 0


def _family(domain: SpaceDescriptor, count: int, entries, structure) -> VectorSystem:
    """``count`` elements, each 1 at its (element, flat coordinate) pairs in ``entries``."""
    shape = (count,) + domain.element_shape
    check_array_bytes("candidate family", shape, np.complex128)
    fam = np.zeros((count, domain.flat_dim), dtype=np.complex128)
    fam[entries] = 1.0
    return VectorSystem(domain, fam.reshape(shape), structure)


def _sequence_candidates(domain: SpaceDescriptor, max_size):
    n = domain.dim
    idx = np.arange(n)
    disjoint = FamilyStructure.DISJOINT
    out = [("singleton", _family(domain, 1, (0, 0), disjoint)),
           ("ones", _family(domain, 1, (0, idx), disjoint))]
    if n <= max_size:
        out.append(("basis", _family(domain, n, (idx, idx), disjoint)))
    block = 2
    while block < n:
        if n % block == 0 and n // block <= max_size:
            out.append((f"blocks:{block}",
                        _family(domain, n // block, (idx // block, idx), disjoint)))
        block *= 2
    return out


def _schatten_candidates(domain: SpaceDescriptor, max_size):
    n = domain.dim
    idx = np.arange(n)
    rank_one = FamilyStructure.RANK_ONE
    out = [("singleton", _family(domain, 1, (0, 0), rank_one))]
    if n <= max_size:
        out.append(("diag", _family(domain, n, (idx, idx * (n + 1)), rank_one)))
    if n * n <= max_size:
        grid = np.arange(n * n)
        out.append(("grid", _family(domain, n * n, (grid, grid), rank_one)))
    return out


def _comb_candidates(domain: SpaceDescriptor, system: OrthonormalSystem, max_size):
    """Translate-sampling families for character systems on l_2 domains.

    x_i = (gamma_i(t_r))_r over evenly spread translates t_r; the synthesis
    map norm is exact (Hilbert domain), so the ratio is certified. For a
    frequency interval this family recovers the sqrt(m) growth that
    witnesses the failure of a uniform Lambda(p) constant.
    """
    if system.kind != "characters" or not domain.exponent.is_hilbert:
        return []
    cset = system.charset
    m = domain.dim
    count = min(cset.size, max_size)
    if count < 1 or len(cset.group.factors) != 1:
        return []
    order = cset.group.order
    translates = (np.arange(m) * (order // m)) % order if order >= m else np.arange(m) % order
    basis = cset.matrix()
    rows = basis[translates, :count]          # (m, count): gamma_i(t_r)
    fam = np.ascontiguousarray(rows.T)        # x_i = (gamma_i(t_r))_r in l_2^m
    return [("comb", VectorSystem(domain, fam, FamilyStructure.GENERIC))]


def summing_norm_search(space_map: SpaceMap, system: OrthonormalSystem,
                        cfg: SearchConfig) -> NormEstimate:
    """Best certified lower bound over the structured candidate families.

    Sequence domains try a singleton, the all-ones vector, the coordinate
    basis, dyadic blocks and (character systems on l_2) translate combs;
    Schatten domains a singleton, the diagonal units and the full unit
    grid. Deterministic given the seed: candidates are enumerated in that
    fixed order, each scored with its own derived substream, and the winner
    is re-evaluated on a fresh one. A nonzero budget additionally runs
    coordinate perturbations on the winner's weights.
    """
    domain = space_map.domain
    max_size = system.charset.size if system.kind == "characters" else 1 << 30
    if domain.kind is SpaceKind.SEQUENCE:
        candidates = (_sequence_candidates(domain, max_size)
                      + _comb_candidates(domain, system, max_size))
    else:
        candidates = _schatten_candidates(domain, max_size)

    scored = []
    for i, (tag, fam) in enumerate(candidates):
        est = summing_norm_lower(space_map, system, fam,
                                 samples=cfg.samples, seed=substream(cfg.seed, i))
        scored.append((est.value, tag, fam))
    scored.sort(key=lambda t: t[0], reverse=True)
    best_value, best_tag, best_fam = scored[0]

    if cfg.budget > 0:
        best_fam, best_value = _refine_weights(space_map, system, best_fam, best_value, cfg)

    final = summing_norm_lower(space_map, system, best_fam,
                               samples=cfg.samples,
                               seed=substream(cfg.seed, len(candidates)))
    return NormEstimate(final.value, final.certainty, stderr=final.stderr,
                        method=f"family-search[{best_tag}]", witness=best_fam)


def _refine_weights(space_map, system, family, value, cfg: SearchConfig):
    """Coordinate ascent on per-element weights, budgeted evaluations."""
    factors = (1.25, 0.8)
    evals = 0
    i = 0
    m = family.size
    current = family
    while evals < cfg.budget:
        idx = i % m
        improved = False
        for f in factors:
            if evals >= cfg.budget:
                break
            scale = np.ones(m)
            scale[idx] = f
            trial_elems = current.elements * scale[(...,) + (None,) * (current.elements.ndim - 1)]
            try:
                trial = VectorSystem(current.space, trial_elems, current.structure)
                est = summing_norm_lower(space_map, system, trial,
                                         samples=cfg.samples,
                                         seed=substream(cfg.seed, 1000 + evals))
            except ValueError:
                evals += 1
                continue
            evals += 1
            if est.value > value:
                current, value = trial, est.value
                improved = True
                break
        if not improved:
            i += 1
            if i >= 2 * m:
                break
    return current, value


# ---------------------------------------------------------------------------
# reference registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceValue:
    """A closed-form value or an asymptotic-order-only exponent."""

    ideal: str
    kind: SpaceKind
    u: Exponent
    v: Exponent
    exponent: float
    exact: bool
    source: str
    value: float | None = None


class UnknownReferenceError(KeyError):
    pass


def reference_norm(ideal: str, kind: SpaceKind, u, v, n: int | None = None) -> ReferenceValue:
    """Registry of closed forms and asymptotic exponents for identity maps.

    Exact entries (constant 1): the ell-norm of a Hilbert identity, and the
    2-summing norm of Schatten identities onto cotype-2 targets (v <= 2).
    Everything else is asymptotic-order-only: the exponent is meaningful,
    the constant is not. Uncovered combinations raise.
    """
    from .spaces import parse_exponent

    u, v = parse_exponent(u), parse_exponent(v)
    ideal = ideal.lower()
    if ideal == "gamma":
        if u.is_hilbert and v.is_hilbert:
            expo = 0.5 if kind is SpaceKind.SEQUENCE else 1.0
            val = None if n is None else float(n) ** expo
            return ReferenceValue("gamma", kind, u, v, expo, True,
                                  "ell-norm of a Hilbert-space identity", val)
        if kind is SpaceKind.SCHATTEN:
            expo = schatten_gaussian_exponent(u, v)
            return ReferenceValue("gamma", kind, u, v, expo, False,
                                  "Gaussian-summing Schatten asymptotics (order only)")
        expo = gaussian_limit_order(u, v).value
        return ReferenceValue("gamma", kind, u, v, expo, False,
                              "Gaussian-summing limit order (order only)")
    if ideal == "pi2":
        if v.recip < 0.5:
            raise UnknownReferenceError(
                "no registered 2-summing reference for codomain exponent v > 2")
        if kind is SpaceKind.SCHATTEN:
            expo = v.recip + min(0.5, 1.0 - u.recip)
            val = None if n is None else float(n) ** expo
            return ReferenceValue("pi2", kind, u, v, expo, True,
                                  "2-summing norm of Schatten identities, cotype-2 range", val)
        expo = gaussian_limit_order(u, v).value
        return ReferenceValue("pi2", kind, u, v, expo, False,
                              "2-summing limit order equals the Gaussian one for v <= 2")
    raise UnknownReferenceError(f"unknown ideal {ideal!r}")


# ---------------------------------------------------------------------------
# factorization upper bounds
# ---------------------------------------------------------------------------

def factorization_upper(space_map: SpaceMap, route: list[SpaceDescriptor],
                        base: NormEstimate, base_leg: int) -> NormEstimate:
    """Upper bound by factoring the identity through a route of inclusions.

    Exactly one leg (``base_leg``) carries the ideal norm; every other leg
    contributes its inclusion operator norm. Certified iff the base is.
    """
    if not space_map.is_identity:
        raise ValueError("factorization routes are defined for identity maps")
    if len(route) < 2:
        raise ValueError("a route needs at least two descriptors")
    if route[0] != space_map.domain or route[-1] != space_map.codomain:
        raise ValueError("route endpoints must match the map")
    dims = {(d.kind, d.dim) for d in route}
    if len(dims) != 1:
        raise ValueError("route legs must share kind and dimension")
    legs = len(route) - 1
    if not (0 <= base_leg < legs):
        raise ValueError("base leg index outside the route")
    factor = 1.0
    for i in range(legs):
        if i == base_leg:
            continue
        factor *= inclusion_norm(route[i].exponent, route[i + 1].exponent,
                                 route[i].dim, route[i].kind)
    certainty = Certainty.UPPER if base.certainty in (Certainty.EXACT, Certainty.UPPER) \
        else Certainty.HEURISTIC
    scaled = base.scaled(factor)
    return NormEstimate(scaled.value, certainty, stderr=scaled.stderr,
                        method=f"factorization x{factor:g} ({base.method})",
                        witness=[str(d) for d in route])


# ---------------------------------------------------------------------------
# K_v template bound for character systems
# ---------------------------------------------------------------------------

def kp_summing_bound(charset, v, m: int, cfg) -> NormEstimate:
    """Template K_v(charset) * m^(1/v) for the summing norm l_u^m -> l_v^m, u >= 2.

    Heuristic: K_v is itself estimated from below, so the product is a
    consistency template, not a certified upper bound. v must exceed 2.
    """
    from .spaces import parse_exponent
    from .systems import kp_constant_lower

    ve = parse_exponent(v)
    if ve.recip >= 0.5:
        raise ValueError("the K_v template needs v > 2")
    est = kp_constant_lower(charset, ve, cfg)
    value = est.value * float(m) ** ve.recip
    return NormEstimate(value, Certainty.HEURISTIC,
                        method="kp-template", witness=est)
