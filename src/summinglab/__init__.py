"""summinglab: a desk-scale laboratory for operator-ideal norms.

Computes, estimates, and cross-checks Gaussian-summing (ell-) norms,
character-summing norms, Lambda(p) and Sidon constants, complex
interpolation bounds, and limit-order scaling exponents on
finite-dimensional sequence and Schatten spaces.
"""

__version__ = "0.1.0"

from .estimates import Certainty, NormEstimate
from .interpolation import (AuditReport, CertificationError, DThetaBound,
                            UnregisteredCoupleError, dtheta_lookup,
                            interp_exponent, interpolation_audit)
from .kernels import active_backend
from .limit_order import (ConvexityReport, ExponentFit, fit_exponent,
                          gaussian_limit_order, limit_order_convexity_check,
                          limit_order_table, pi2_limit_order,
                          schatten_gaussian_exponent)
from .spaces import (Exponent, SpaceDescriptor, SpaceKind, SpaceMap,
                     UnitFamily, VectorSystem, identity_map, inclusion_norm,
                     lp_norm, parse_exponent, parse_space, schatten_space,
                     sequence_space, weak_l2_norm)
from .summing import (SearchConfig, ell_norm_mc, factorization_upper,
                      kp_summing_bound, summing_norm_lower,
                      summing_norm_search)
from .systems import (AscentConfig, CharacterGroup, CharacterSet,
                      OrthonormalSystem, SpanElement, character_system,
                      cyclic_group, full_character_set, gaussian_system,
                      kp_constant_lower, kp_growth_profile,
                      lacunary_character_set, lp_norm_of_span, second_moment,
                      sidon_constant_lower)

__all__ = [name for name in dir() if not name.startswith("_")]
