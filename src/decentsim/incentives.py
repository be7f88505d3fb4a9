"""Concrete utility and reward families plus multi-node cost models.

Every model exposes an expected net profit per time unit through
``utility``, from the per-node formula the model class carries.  A model
whose formula reads something of all nodes at once (the lottery weights'
sum, the elected set) computes it in one method, its ``aggregate``, which
``utility`` and ``parts_scorer`` both read.  The lottery families
(work-weighted, stake-weighted and the exponent-weighted family) also
carry what the simulator needs to draw one block winner per time unit:
the weight exponent and the winner's net reward.  ``MODELS``
names every family and, through each class's ``KEYS``, its config keys;
``SYBIL_COSTS`` does the same for the multi-node cost models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import PowerVector
from .errors import DomainError


class _Model:
    """Shared by every incentive model: a node needs power at least s_b to
    run (0 outside the stake lottery), and there is no block lottery."""

    s_b = 0.0
    LOTTERY = False

    def aggregate(self, powers: tuple[float, ...]):
        """What the formula reads of all the given nodes at once."""
        return None

    def notes(self, powers: Sequence[float]) -> tuple[str, ...]:
        """Remarks a condition report on these powers carries."""
        if any(p < self.s_b for p in powers):
            return ("some stakes are below the participation minimum",)
        return ()


class _Lottery(_Model):
    """One block winner per time unit, drawn with probability
    weight / sum(weights), weights = powers ** weight_exponent().
    ``net_reward(powers, state)`` is the net reward of winners of the given
    powers, one per row of the (seeds, nodes) ``state``, and one float where
    it depends on neither; ``max_net_reward()`` is its largest value."""

    LOTTERY = True

    def weight_exponent(self) -> float:
        return 1.0

    def block_reward(self, total_power: float) -> float:
        return self.b_r

    def net_reward(self, powers: np.ndarray, state: np.ndarray):
        return self.max_net_reward()


@dataclass(frozen=True)
class PoW(_Lottery):
    """Work lottery: block reward split pro rata, power-proportional cost
    c1 per power unit plus fixed per-node cost c2."""

    b_r: float
    c1: float = 0.0
    c2: float = 0.0

    KEYS = {"br": "b_r", "c1": "c1", "c2": "c2"}

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c1=self.c1, c2=self.c2)

    def node_utility(self, index: int, powers: tuple[float, ...], total: float, aggregate) -> float:
        return self.b_r * powers[index] / total - self.c1 * powers[index] - self.c2

    def net_reward(self, powers: np.ndarray, state: np.ndarray) -> np.ndarray:
        return self.b_r - self.c1 * powers - self.c2

    def max_net_reward(self) -> float:
        return self.b_r - self.c2


@dataclass(frozen=True)
class PoS(_Lottery):
    """Stake lottery with fixed node cost c and minimum stake s_b to run."""

    b_r: float
    c: float = 0.0
    s_b: float = 0.0

    KEYS = {"br": "b_r", "c": "c", "sb": "s_b"}

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c=self.c, s_b=self.s_b)

    def node_utility(self, index: int, powers: tuple[float, ...], total: float, aggregate) -> float:
        return self.b_r * powers[index] / total - self.c

    def max_net_reward(self) -> float:
        return self.b_r - self.c


@dataclass(frozen=True)
class DPoS(_Model):
    """Elected producers: the n_dpos largest nodes earn b_r - c, the rest -c.

    Ties at the boundary are broken in favour of the lower node index.
    """

    b_r: float
    c: float = 0.0
    n_dpos: int = 1

    KEYS = {"br": "b_r", "c": "c", "ndpos": "n_dpos"}

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, c=self.c)
        if self.n_dpos < 1:
            raise DomainError("n_dpos must be a positive integer")

    def node_utility(self, index: int, powers: tuple[float, ...], total: float, elected) -> float:
        return (self.b_r - self.c) if index in elected else -self.c

    def aggregate(self, powers: tuple[float, ...]) -> list[int]:
        """The elected nodes' indices."""
        # the sort is stable, also in reverse: the lower index wins ties
        return sorted(range(len(powers)), key=powers.__getitem__, reverse=True)[: self.n_dpos]


@dataclass(frozen=True)
class GammaReward(_Lottery):
    """Lottery weighted by power**gamma; gamma=0.5 rewards the square root
    of power, gamma=1 is proportional.

    b_r_fn, when given, replaces the constant block reward with a function
    of total power (seesaw-style schedules).  Costs are zero.
    """

    b_r: float
    gamma: float
    b_r_fn: Callable[[float], float] | None = None

    KEYS = {"br": "b_r", "gamma": "gamma"}

    def __post_init__(self) -> None:
        _check_nonneg(b_r=self.b_r, gamma=self.gamma)

    def block_reward(self, total_power: float) -> float:
        return self.b_r if self.b_r_fn is None else float(self.b_r_fn(total_power))

    def node_utility(self, index: int, powers: tuple[float, ...], total: float,
                     weight_sum: float) -> float:
        if weight_sum == 0:  # every power**gamma underflows
            raise DomainError(f"utility of node {index} is undefined: lottery weight sum is 0")
        return self.block_reward(total) * powers[index]**self.gamma / weight_sum

    def aggregate(self, powers: tuple[float, ...]) -> float:
        """The lottery weights' sum."""
        return math.fsum(map(pow, powers, repeat(self.gamma)))

    def weight_exponent(self) -> float:
        return self.gamma

    def net_reward(self, powers: np.ndarray, state: np.ndarray):
        if self.b_r_fn is None:
            return self.b_r
        return np.array([self.block_reward(total) for total in state.sum(axis=1)])

    def max_net_reward(self) -> float:
        return self.b_r if self.b_r_fn is None else math.inf


@dataclass(frozen=True)
class Linear(_Model):
    """Utility F(total) * power with F either the constant k or k/total."""

    kind: str
    k: float

    KINDS = ("constant", "inverse-total")
    KEYS = {"kind": "kind", "k": "k"}

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"linear coefficient kind must be one of {self.KINDS}")
        if not math.isfinite(self.k):
            raise DomainError("k must be finite")
        if not self.k > 0:
            raise DomainError("linear coefficient k must be > 0")

    def node_utility(self, index: int, powers: tuple[float, ...], total: float, aggregate) -> float:
        return (self.k if self.kind == "constant" else self.k / total) * powers[index]

    def notes(self, powers: Sequence[float]) -> tuple[str, ...]:
        return ("linear family: merge and split totals are invariant",)


IncentiveModel = PoW | PoS | DPoS | GammaReward | Linear
MODELS: dict[str, type] = {
    "pow": PoW, "pos": PoS, "dpos": DPoS, "gamma": GammaReward, "linear": Linear,
}


def _check_nonneg(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value}")


def utility(model: IncentiveModel, node_index: int, pv: PowerVector) -> float | None:
    """Expected net profit per time unit of one node.

    Returns None for a node below the participation minimum s_b; that node
    cannot run at all, which is a distinct outcome from earning a negative
    profit.  A utility outside the float range raises DomainError.
    """
    powers = pv.powers
    if not 0 <= node_index < len(powers):
        raise DomainError(f"node index {node_index} out of range for {len(powers)} nodes")
    if powers[node_index] < model.s_b:
        return None
    try:
        u = model.node_utility(node_index, powers, pv.total(), model.aggregate(powers))
    except OverflowError:  # the powers' fsum, or a power raised to gamma
        raise _not_finite(node_index, "overflow") from None
    if not math.isfinite(u):
        raise _not_finite(node_index, repr(u))
    return u


def _not_finite(node_index: int, value: str) -> DomainError:
    return DomainError(f"utility of node {node_index} is not finite: {value}")


def realized_utility(model: IncentiveModel, node_index: int, pv: PowerVector) -> float:
    """Like utility, but a node that cannot run earns exactly 0."""
    u = utility(model, node_index, pv)
    return 0.0 if u is None else u


Scorer = Callable[[tuple[float, ...]], float]


def parts_scorer(model: IncentiveModel, context: Sequence[float]) -> Scorer:
    """The summed realized utility of nodes of the given float powers placed
    ahead of the context's nodes, as a function of those powers, with the
    context checked and converted to floats once.

    Each call checks the parts as ``PowerVector`` does, takes one total and
    one ``aggregate`` of parts and context, then applies ``utility``'s rules
    per part: below s_b it earns 0, and an overflow or a non-finite utility
    raises the same DomainError for the same node.  ``math.fsum`` is
    correctly rounded, so these sums have the bits of ``utility``'s sums
    over the same nodes in a different order.
    """
    context = tuple(context)
    valid = all(0.0 < p < math.inf for p in context)
    if valid:
        context = tuple(float(p) for p in context)
    s_b, node_utility, aggregate_of = model.s_b, model.node_utility, model.aggregate

    def score(parts: tuple[float, ...]) -> float:
        state = (*parts, *context)
        # where this quick check fails (a NaN or an infinity fails the sum's
        # bound), the state's own check decides; empty parts ahead of a
        # valid context earn 0
        if not (valid and parts and 0.0 < min(parts) and sum(parts) < math.inf):
            PowerVector(state)
            if not parts:
                return 0.0
        try:
            total = math.fsum(state)
            aggregate = aggregate_of(state)
        except OverflowError:  # the total, or a weight; raised for the first part that runs
            total = None
        utilities = []
        for j, p in enumerate(parts):
            if p < s_b:
                continue  # cannot run, earns 0
            if total is None:
                raise _not_finite(j, "overflow")
            try:
                u = node_utility(j, parts, total, aggregate)
            except OverflowError:
                raise _not_finite(j, "overflow") from None
            if not math.isfinite(u):
                raise _not_finite(j, repr(u))
            utilities.append(u)
        return math.fsum(utilities)

    return score


def lottery_weights(model: IncentiveModel, powers: np.ndarray) -> np.ndarray:
    """Winner weights of the block lottery; probability of winning is
    weight / sum(weights)."""
    return np.asarray(powers, dtype=float) ** model.weight_exponent()


def block_reward(model: IncentiveModel, total_power: float) -> float:
    """Block reward of a lottery model at the given total power."""
    return model.block_reward(total_power)


@dataclass(frozen=True)
class ZeroSybilCost:
    """No extra cost for running several nodes (permissionless default)."""

    KEYS = {}

    def cost(self, score: Scorer, parts: tuple[float, ...]) -> float:
        return 0.0


@dataclass(frozen=True)
class ThresholdCoverSybilCost:
    """Charges at least the utility gained by splitting, plus a margin.

    By construction this cancels any advantage of running multiple nodes.
    """

    margin: float = 0.0

    KEYS = {"margin": "margin"}

    def __post_init__(self) -> None:
        _check_nonneg(margin=self.margin)

    def cost(self, score: Scorer, parts: tuple[float, ...]) -> float:
        """The utility of the split set and of the merged single node, each
        scored by ``score`` against the same context."""
        merged = score((math.fsum(parts),))
        return max(0.0, score(parts) - merged) + self.margin


SybilCostModel = ZeroSybilCost | ThresholdCoverSybilCost
SYBIL_COSTS: dict[str, type] = {"zero": ZeroSybilCost, "threshold-cover": ThresholdCoverSybilCost}


def sybil_cost(
    cost_model: SybilCostModel,
    incentive: IncentiveModel,
    node_powers_of_player: Sequence[float],
    context: Sequence[float],
) -> float:
    """Extra per-time-unit cost for one player to run the given node set.

    ``context`` holds the other players' node powers.  A single-node set
    always costs 0; a larger one costs what the cost model's formula says.
    """
    parts = tuple(float(p) for p in node_powers_of_player)
    if not parts:
        raise DomainError("player must run at least one node")
    if len(parts) == 1:
        return 0.0
    return cost_model.cost(parts_scorer(incentive, context), parts)
