"""Measured norm values with certification metadata."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Certainty(str, Enum):
    """What a numeric estimate proves about the target quantity."""

    EXACT = "exact"
    LOWER = "lower"          # certified lower bound
    UPPER = "upper"          # certified upper bound
    HEURISTIC = "heuristic"  # no certification either way


@dataclass(frozen=True)
class NormEstimate:
    """A measured quantity plus how far it can be trusted.

    ``stderr`` reports statistical error for Monte Carlo paths and is
    absent on exact values. ``witness`` records whatever achieved the
    value (coefficients, a vector family).
    """

    value: float
    certainty: Certainty
    stderr: float | None = None
    method: str = ""
    witness: object = None

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"estimate value must be finite and >= 0, got {self.value}")
        if self.certainty is Certainty.EXACT and self.stderr not in (None, 0.0):
            raise ValueError("exact estimates carry no standard error")
        if self.stderr is not None and self.stderr < 0:
            raise ValueError("stderr must be >= 0")
