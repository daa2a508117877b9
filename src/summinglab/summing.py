"""Operator-ideal norm estimators.

For an identity with Hilbert domain the Gaussian-summing norm is computed as
the ell-norm (E ||id g||^2)^(1/2) (operational definition; exact Frobenius
shortcut onto Hilbert codomains, Monte Carlo otherwise). For other domains
the module produces certified lower bounds from structured vector families
(exact numerator over character systems, exact closed-form denominators)
and certified upper bounds by factorization through a pivot leg whose ideal
norm is known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .estimates import Certainty, NormEstimate
from .rng import substream
from .spaces import (SpaceDescriptor, SpaceKind, SpaceMap, UnitFamily,
                     VectorSystem, inclusion_norm, parse_exponent,
                     weak_l2_norm)
from .systems import (OrthonormalSystem, _mc_second_moment, check_array_bytes,
                      kp_constant_lower, second_moment)


# ---------------------------------------------------------------------------
# ell-norm (Gaussian-summing norm on Hilbert domains)
# ---------------------------------------------------------------------------

def ell_norm_mc(space_map: SpaceMap, *, samples: int = 100_000, seed=None,
                complex_normals: bool = False) -> NormEstimate:
    """(E ||id g||^2)^(1/2) for an identity with Hilbert domain (l_2^n or S_2^n).

    When the codomain is Hilbert as well the value is the Frobenius norm of
    the identity, sqrt(flat dimension), returned exactly. Otherwise chunked
    Monte Carlo with a standard error; the result doubles as a lower bound
    for the Gaussian-summing norm (coordinate family, weak-l2 norm exactly 1).
    """
    domain = space_map.domain
    if not domain.exponent.is_hilbert:
        raise ValueError("the ell-norm needs a Hilbert domain (exponent 2)")
    codomain = space_map.codomain
    d = domain.flat_dim
    if codomain.exponent.is_hilbert:
        return NormEstimate(float(np.sqrt(d)), Certainty.EXACT, method="frobenius")
    return _mc_second_moment(d, None, codomain, samples, seed, complex_normals,
                             "mc-gaussian-ell")


# ---------------------------------------------------------------------------
# certified lower bounds from vector families
# ---------------------------------------------------------------------------

def summing_norm_lower(space_map: SpaceMap, system: OrthonormalSystem,
                       family: UnitFamily | VectorSystem, *, samples: int = 100_000,
                       seed=None) -> NormEstimate:
    """Lower bound: second moment of the mapped family / weak-l2 of the family.

    ``lower`` only when the numerator is exact or a lower bound and the
    denominator exact or an upper bound (unit families, or any family on a
    Hilbert domain); ``heuristic`` otherwise. The numerator contributes a
    standard error on Monte Carlo paths.
    """
    mapped = space_map.apply_stack(family)
    num = second_moment(system, mapped, samples=samples, seed=seed)
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

    ``samples`` is the Monte Carlo sample count of every evaluation.
    """

    seed: int
    samples: int = 4000


def _family(domain: SpaceDescriptor, count: int, size: int, stride: int = 1) -> UnitFamily:
    """``count`` elements of ``size`` ones each, on the first count*size multiples of ``stride``."""
    check_array_bytes("candidate family", (count, size), np.intp)
    return UnitFamily(domain, np.arange(0, count * size * stride, stride).reshape(count, size))


def _sequence_candidates(domain: SpaceDescriptor, max_size):
    n = domain.dim
    yield "singleton", _family(domain, 1, 1)
    yield "ones", _family(domain, 1, n)
    if n <= max_size:
        yield "basis", _family(domain, n, 1)
    block = 2
    while block < n:
        if n % block == 0 and n // block <= max_size:
            yield f"blocks:{block}", _family(domain, n // block, block)
        block *= 2


def _schatten_candidates(domain: SpaceDescriptor, max_size):
    n = domain.dim
    yield "singleton", _family(domain, 1, 1)
    if n <= max_size:
        yield "diag", _family(domain, n, 1, stride=n + 1)
    if n * n <= max_size:
        yield "grid", _family(domain, n * n, 1)


def _comb_candidates(domain: SpaceDescriptor, system: OrthonormalSystem, max_size):
    """Translate-sampling families for character systems on l_2 domains.

    x_i = (gamma_i(t_r))_r over evenly spread translates t_r; the synthesis
    map norm is exact (Hilbert domain), so the ratio is certified. For a
    frequency interval this family recovers the sqrt(m) growth that
    witnesses the failure of a uniform Lambda(p) constant.
    """
    if system.kind != "characters" or not domain.exponent.is_hilbert:
        return
    cset = system.charset
    m = domain.dim
    count = min(cset.size, max_size)
    if count < 1 or len(cset.group.factors) != 1:
        return
    order = cset.group.order
    translates = (np.arange(m) * (order // m)) % order if order >= m else np.arange(m) % order
    basis = cset.matrix()
    rows = basis[translates, :count]          # (m, count): gamma_i(t_r)
    fam = np.ascontiguousarray(rows.T)        # x_i = (gamma_i(t_r))_r in l_2^m
    yield "comb", VectorSystem(domain, fam)


def summing_norm_search(space_map: SpaceMap, system: OrthonormalSystem,
                        cfg: SearchConfig) -> NormEstimate:
    """Best certified lower bound over the structured candidate families.

    Sequence domains try a singleton, the all-ones vector, the coordinate
    basis, dyadic blocks and (character systems on l_2) translate combs;
    Schatten domains a singleton, the diagonal units and the full unit
    grid. Deterministic given the seed: candidates are built and scored one
    at a time in that fixed order, each with its own derived substream, the
    first highest score leads, and the leader is re-evaluated on a fresh
    substream. Only the leader and the candidate in hand are kept.
    """
    domain = space_map.domain
    max_size = system.charset.size if system.kind == "characters" else 1 << 30
    if domain.kind is SpaceKind.SEQUENCE:
        candidates = chain(_sequence_candidates(domain, max_size),
                           _comb_candidates(domain, system, max_size))
    else:
        candidates = _schatten_candidates(domain, max_size)

    best = None  # (value, tag, family)
    scored = 0
    for tag, fam in candidates:
        value = summing_norm_lower(space_map, system, fam, samples=cfg.samples,
                                   seed=substream(cfg.seed, scored)).value
        scored += 1
        if best is None or value > best[0]:
            best = (value, tag, fam)
        del fam  # the next candidate is built before the loop rebinds this name
    _, best_tag, best_fam = best
    final = summing_norm_lower(space_map, system, best_fam,
                               samples=cfg.samples, seed=substream(cfg.seed, scored))
    return NormEstimate(final.value, final.certainty, stderr=final.stderr,
                        method=f"family-search[{best_tag}]", witness=best_fam)


# ---------------------------------------------------------------------------
# factorization upper bounds
# ---------------------------------------------------------------------------

def factorization_upper(space_map: SpaceMap, route: list[SpaceDescriptor],
                        base: NormEstimate, base_leg: int) -> NormEstimate:
    """Upper bound by factoring the identity through a route of inclusions.

    Exactly one leg (``base_leg``) carries the ideal norm; every other leg
    contributes its inclusion operator norm. Certified iff the base is.
    """
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
        factor *= inclusion_norm(route[i].exponent, route[i + 1].exponent, route[i].dim)
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
    ve = parse_exponent(v)
    if ve.recip >= 0.5:
        raise ValueError("the K_v template needs v > 2")
    est = kp_constant_lower(charset, ve, cfg)
    value = est.value * float(m) ** ve.recip
    return NormEstimate(value, Certainty.HEURISTIC,
                        method="kp-template", witness=est)
