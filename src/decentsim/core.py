"""Resource-power state and the decentralization predicate.

A system state is a vector of node resource powers plus a map from nodes
to the players that run them.  A player's effective power is the sum of
the powers of its nodes.  A state counts as decentralized for a target
(m, epsilon, delta) when at least m distinct players run nodes and the
ratio between the largest and the delta-th percentile effective power is
at most 1 + epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, StructuralError


@dataclass(frozen=True)
class PowerVector:
    """Ordered, strictly positive resource powers, one entry per node."""

    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.powers) < 1:
            raise DomainError("power vector must contain at least one node")
        # one pass in the common case: the merge and split searches build
        # a vector per allocation
        if any(not (0 < p < math.inf) for p in self.powers):
            if not all(math.isfinite(p) for p in self.powers):
                raise DomainError("powers must be finite")
            raise DomainError("every resource power must be strictly positive")
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))

    def __len__(self) -> int:
        return len(self.powers)

    def total(self) -> float:
        return math.fsum(self.powers)


@dataclass(frozen=True)
class PlayerMap:
    """Node-to-player assignment, parallel to a PowerVector."""

    owners: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owners", tuple(str(o) for o in self.owners))

    def __len__(self) -> int:
        return len(self.owners)


@dataclass(frozen=True)
class DecentralizationSpec:
    """Target triple (m, epsilon, delta); the percentile is nearest-rank."""

    m: int
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("m must be a positive integer")
        if not math.isfinite(self.epsilon):
            raise DomainError("epsilon must be finite")
        if self.epsilon < 0:
            raise DomainError("epsilon must be >= 0")
        if not 0 <= self.delta <= 100:
            raise DomainError("delta must lie in [0, 100]")


@dataclass(frozen=True)
class RewardParams:
    """Reinvestment rate and the cap on per-step net reward."""

    r: float
    r_max: float

    def __post_init__(self) -> None:
        for name in ("r", "r_max"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.r < 0:
            raise DomainError("reinvestment rate r must be >= 0")
        if not self.r_max > 0:
            raise DomainError("reward cap r_max must be > 0")


class Verdict(Enum):
    HOLDS = "holds"
    FAILS_COUNT = "fails-count"
    FAILS_RATIO = "fails-ratio"


@dataclass(frozen=True)
class DecentralizationResult:
    verdict: Verdict
    ratio: float
    player_count: int


def effective_powers(pv: PowerVector, pm: PlayerMap) -> dict[str, float]:
    """Sum each player's node powers.

    Uses exact summation, so the result is invariant under node reordering.
    """
    if len(pv) != len(pm):
        raise StructuralError(
            f"power vector has {len(pv)} nodes but player map has {len(pm)}"
        )
    grouped: dict[str, list[float]] = {}
    for owner, power in zip(pm.owners, pv.powers):
        grouped.setdefault(owner, []).append(power)
    return {owner: math.fsum(parts) for owner, parts in grouped.items()}


def nearest_rank_index(n: int, delta: float) -> int:
    """0-based position of the nearest-rank delta-th percentile among n
    sorted values: the ceil(delta/100 * n)-th smallest, clamped to [1, n],
    so delta=0 picks the minimum and delta=100 the maximum."""
    return min(max(math.ceil(delta / 100.0 * n), 1), n) - 1


def percentile_power(values: list[float], delta: float) -> float:
    """Nearest-rank percentile of a non-empty list of positive values."""
    if not values:
        raise DomainError("percentile of an empty list is undefined")
    if not 0 <= delta <= 100:
        raise DomainError("delta must lie in [0, 100]")
    return sorted(values)[nearest_rank_index(len(values), delta)]


def is_decentralized(
    pv: PowerVector, pm: PlayerMap, spec: DecentralizationSpec
) -> DecentralizationResult:
    """Decide the (m, epsilon, delta) predicate for one state.

    The ratio between the largest and the delta-th percentile effective
    power is reported regardless of the verdict.  When both the player
    count and the ratio fail, the count failure is reported.
    """
    eps = effective_powers(pv, pm)
    ep_values = list(eps.values())
    ratio = max(ep_values) / percentile_power(ep_values, spec.delta)
    if len(ep_values) < spec.m:
        return DecentralizationResult(Verdict.FAILS_COUNT, ratio, len(ep_values))
    if ratio > 1.0 + spec.epsilon:
        return DecentralizationResult(Verdict.FAILS_RATIO, ratio, len(ep_values))
    return DecentralizationResult(Verdict.HOLDS, ratio, len(ep_values))
