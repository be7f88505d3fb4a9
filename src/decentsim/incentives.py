"""Concrete utility and reward families plus multi-node cost models.

Every model exposes an expected net profit per time unit through
``utility``.  The lottery families (work-weighted, stake-weighted and the
exponent-weighted family) additionally support drawing one block winner
per time unit through ``sample_reward``; the empirical mean of those
draws converges to ``utility``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import PowerVector
from .errors import DomainError, UnsupportedModelError


@dataclass(frozen=True)
class PoW:
    """Work lottery: block reward split pro rata, power-proportional cost
    c1 per power unit plus fixed per-node cost c2."""

    b_r: float
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c1=self.c1, c2=self.c2)


@dataclass(frozen=True)
class PoS:
    """Stake lottery with fixed node cost c and minimum stake s_b to run."""

    b_r: float
    c: float = 0.0
    s_b: float = 0.0

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c=self.c, s_b=self.s_b)


@dataclass(frozen=True)
class DPoS:
    """Elected producers: the n_dpos largest nodes earn b_r - c, the rest -c.

    Ties at the boundary are broken in favour of the lower node index.
    """

    b_r: float
    c: float = 0.0
    n_dpos: int = 1

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c=self.c)
        if self.n_dpos < 1:
            raise DomainError("n_dpos must be a positive integer")


@dataclass(frozen=True)
class GammaReward:
    """Lottery weighted by power**gamma; gamma=0.5 rewards the square root
    of power, gamma=1 is proportional.

    b_r_fn, when given, replaces the constant block reward with a function
    of total power (seesaw-style schedules).  Costs are zero.
    """

    b_r: float
    gamma: float
    b_r_fn: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, gamma=self.gamma)

    def block_reward(self, total_power: float) -> float:
        return self.b_r if self.b_r_fn is None else float(self.b_r_fn(total_power))


@dataclass(frozen=True)
class Linear:
    """Utility F(total) * power with F either the constant k or k/total."""

    kind: str
    k: float

    KINDS = ("constant", "inverse-total")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"linear coefficient kind must be one of {self.KINDS}")
        if not math.isfinite(self.k):
            raise DomainError("k must be finite")
        if not self.k > 0:
            raise DomainError("linear coefficient k must be > 0")

    def coefficient(self, total_power: float) -> float:
        return self.k if self.kind == "constant" else self.k / total_power


IncentiveModel = PoW | PoS | DPoS | GammaReward | Linear
LOTTERY_MODELS = (PoW, PoS, GammaReward)


def _check_nonneg(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value}")


def _dpos_elected(powers: Sequence[float], n_dpos: int) -> set[int]:
    # stable sort keeps the lower index on ties
    order = sorted(range(len(powers)), key=lambda i: -powers[i])
    return set(order[: min(n_dpos, len(powers))])


def utility(model: IncentiveModel, node_index: int, pv: PowerVector) -> float | None:
    """Expected net profit per time unit of one node.

    Returns None for a stake node below the participation minimum s_b;
    that node cannot run at all, which is a distinct outcome from earning
    a negative profit.  A utility outside the float range raises
    DomainError.
    """
    powers = pv.powers
    if not 0 <= node_index < len(powers):
        raise DomainError(f"node index {node_index} out of range for {len(powers)} nodes")
    alpha = powers[node_index]
    total = pv.total()
    if isinstance(model, PoW):
        u = model.b_r * alpha / total - model.c1 * alpha - model.c2
    elif isinstance(model, PoS):
        if alpha < model.s_b:
            return None
        u = model.b_r * alpha / total - model.c
    elif isinstance(model, DPoS):
        elected = _dpos_elected(powers, model.n_dpos)
        u = (model.b_r - model.c) if node_index in elected else -model.c
    elif isinstance(model, GammaReward):
        weights = [p**model.gamma for p in powers]
        u = model.block_reward(total) * weights[node_index] / math.fsum(weights)
    elif isinstance(model, Linear):
        u = model.coefficient(total) * alpha
    else:
        raise UnsupportedModelError(f"unknown incentive model {type(model).__name__}")
    if not math.isfinite(u):
        raise DomainError(f"utility of node {node_index} is not finite: {u!r}")
    return u


def realized_utility(model: IncentiveModel, node_index: int, pv: PowerVector) -> float:
    """Like utility, but a node that cannot run earns exactly 0."""
    u = utility(model, node_index, pv)
    return 0.0 if u is None else u


def lottery_weights(model: IncentiveModel, powers: np.ndarray) -> np.ndarray:
    """Winner weights of the block lottery; probability of winning is
    weight / sum(weights)."""
    if isinstance(model, (PoW, PoS)):
        return np.asarray(powers, dtype=float)
    if isinstance(model, GammaReward):
        return np.asarray(powers, dtype=float) ** model.gamma
    raise UnsupportedModelError(
        f"{type(model).__name__} has no block lottery; rewards are deterministic"
    )


def per_step_costs(model: IncentiveModel, powers: np.ndarray) -> np.ndarray:
    """Cost every node pays per time unit, win or lose."""
    powers = np.asarray(powers, dtype=float)
    if isinstance(model, PoW):
        return model.c1 * powers + model.c2
    if isinstance(model, PoS):
        return np.full(powers.shape, model.c)
    if isinstance(model, GammaReward):
        return np.zeros(powers.shape)
    raise UnsupportedModelError(f"{type(model).__name__} is not a lottery model")


def block_reward(model: IncentiveModel, total_power: float) -> float:
    if isinstance(model, (PoW, PoS)):
        return model.b_r
    if isinstance(model, GammaReward):
        return model.block_reward(total_power)
    raise UnsupportedModelError(f"{type(model).__name__} is not a lottery model")


def sample_reward(
    model: IncentiveModel,
    pv: PowerVector,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw block winners and the per-node net rewards of those draws.

    With size=None returns (winner, rewards) for a single time unit;
    otherwise (winners, rewards) stacked over ``size`` independent units.
    Stake models require every node to meet the participation minimum, so
    the lottery denominator matches the utility formula.
    """
    if not isinstance(model, LOTTERY_MODELS):
        raise UnsupportedModelError(
            f"{type(model).__name__} has no block lottery; rewards are deterministic"
        )
    powers = np.array(pv.powers, dtype=float)
    if isinstance(model, PoS) and bool(np.any(powers < model.s_b)):
        raise DomainError("every stake must be >= s_b to sample the block lottery")
    weights = lottery_weights(model, powers)
    probs = weights / weights.sum()
    costs = per_step_costs(model, powers)
    reward = block_reward(model, float(powers.sum()))
    n = size if size is not None else 1
    winners = rng.choice(len(powers), size=n, p=probs)
    rewards = np.tile(-costs, (n, 1))
    rewards[np.arange(n), winners] += reward
    if size is None:
        return int(winners[0]), rewards[0]
    return winners, rewards


@dataclass(frozen=True)
class ZeroSybilCost:
    """No extra cost for running several nodes (permissionless default)."""


@dataclass(frozen=True)
class ThresholdCoverSybilCost:
    """Charges at least the utility gained by splitting, plus a margin.

    By construction this cancels any advantage of running multiple nodes.
    """

    margin: float = 0.0

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise DomainError("margin must be >= 0")


SybilCostModel = ZeroSybilCost | ThresholdCoverSybilCost


def sybil_cost(
    cost_model: SybilCostModel,
    incentive: IncentiveModel,
    node_powers_of_player: Sequence[float],
    context: Sequence[float],
) -> float:
    """Extra per-time-unit cost for one player to run the given node set.

    ``context`` holds the other players' node powers.  A single-node set
    always costs 0.  The threshold-cover model evaluates the utility of
    the split set and of the merged single node against the same context.
    """
    parts = [float(p) for p in node_powers_of_player]
    if not parts:
        raise DomainError("player must run at least one node")
    if isinstance(cost_model, ZeroSybilCost) or len(parts) == 1:
        return 0.0
    ctx = [float(p) for p in context]
    split_state = PowerVector(tuple(parts + ctx))
    merged_state = PowerVector(tuple([math.fsum(parts)] + ctx))
    split_total = math.fsum(
        realized_utility(incentive, i, split_state) for i in range(len(parts))
    )
    merged = realized_utility(incentive, 0, merged_state)
    return max(0.0, split_total - merged) + cost_model.margin
