"""Reinvestment dynamics of the block lottery.

Each time unit one winner is drawn from the lottery, earns the block
reward net of its running cost (clamped to [0, r_max]), and reinvests the
fraction r of it into its own resource power.  Losing nodes pay their
costs out of pocket; resource power is a stock and never shrinks.  The
long-run behaviour splits three ways with the lottery exponent: below 1
the power fractions equalize, at 1 each fraction is a martingale, above 1
the largest node takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .core import PowerVector, RewardParams
from .errors import DomainError, UnsupportedModelError
from .incentives import (
    LOTTERY_MODELS,
    GammaReward,
    IncentiveModel,
    PoS,
    PoW,
    block_reward,
    lottery_weights,
)


@dataclass(frozen=True)
class ExplicitInit:
    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(p) for p in self.powers):
            raise DomainError("powers must be finite")


@dataclass(frozen=True)
class PowerLawInit:
    """Deterministic power-law profile: node i gets (i+1) ** -exponent."""

    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent):
            raise DomainError("exponent must be finite")


@dataclass(frozen=True)
class TwoPointInit:
    """count_rich nodes of power 1 and count_poor nodes of power f."""

    f: float
    count_rich: int
    count_poor: int

    def __post_init__(self) -> None:
        if not 0 < self.f <= 1:
            raise DomainError("two-point f must lie in (0, 1]")
        if self.count_rich < 1 or self.count_poor < 1:
            raise DomainError("two-point init needs at least one node per level")


InitSpec = ExplicitInit | PowerLawInit | TwoPointInit


def build_initial_powers(init: InitSpec, n_nodes: int) -> np.ndarray:
    if isinstance(init, ExplicitInit):
        powers = np.asarray(init.powers, dtype=float)
        if powers.size != n_nodes:
            raise DomainError(
                f"explicit init has {powers.size} powers but n_nodes is {n_nodes}"
            )
    elif isinstance(init, PowerLawInit):
        powers = (np.arange(1, n_nodes + 1, dtype=float)) ** (-init.exponent)
    elif isinstance(init, TwoPointInit):
        if init.count_rich + init.count_poor != n_nodes:
            raise DomainError(
                f"two-point init has {init.count_rich + init.count_poor} nodes "
                f"but n_nodes is {n_nodes}"
            )
        powers = np.concatenate(
            [np.ones(init.count_rich), np.full(init.count_poor, init.f)]
        )
    else:
        raise DomainError(f"unknown init spec {type(init).__name__}")
    if np.any(powers <= 0):
        raise DomainError("all initial powers must be strictly positive")
    return powers


@dataclass(frozen=True)
class SimConfig:
    model: IncentiveModel
    reward: RewardParams
    horizon: int
    n_nodes: int
    init: InitSpec
    seeds: tuple[int, ...]
    epsilon: float = 0.0
    delta: float = 0.0
    window: int | None = None

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise DomainError("horizon must be >= 0")
        if self.n_nodes < 1:
            raise DomainError("n_nodes must be >= 1")
        if not self.seeds:
            raise DomainError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise DomainError("seeds must be non-negative integers")
        if not isinstance(self.model, LOTTERY_MODELS):
            raise UnsupportedModelError(
                f"{type(self.model).__name__} has no block lottery to simulate"
            )
        for name in ("epsilon", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.epsilon < 0 or not 0 <= self.delta <= 100:
            raise DomainError("epsilon must be >= 0 and delta in [0, 100]")
        # the upper end, the horizon, applies where a verdict is computed:
        # at horizon 0 there is none
        if self.window is not None and self.window < 1:
            raise DomainError("window must be >= 1")

    def effective_window(self) -> int:
        if self.window is not None:
            return self.window
        return max(1, self.horizon // 10)


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one seeded run: fractions, max/percentile ratio
    of node powers, and the winning node (-1 for the initial step)."""

    seed: int
    betas: np.ndarray  # (horizon + 1, n_nodes)
    ratios: np.ndarray  # (horizon + 1,)
    winners: np.ndarray  # (horizon + 1,)

    @property
    def horizon(self) -> int:
        return self.betas.shape[0] - 1

    @property
    def n_nodes(self) -> int:
        return self.betas.shape[1]


def _nearest_rank_index(n: int, delta: float) -> int:
    rank = math.ceil(delta / 100.0 * n)
    return min(max(rank, 1), n) - 1


def _winner_net_rewards(
    model: IncentiveModel,
    state: np.ndarray,
    rows: np.ndarray,
    winners: np.ndarray,
    reward: RewardParams,
) -> np.ndarray | float:
    """Clamped net reward earned by each row's winner; a single float when
    it is the same for every row."""
    if isinstance(model, PoW):
        gross = model.b_r - model.c1 * state[rows, winners] - model.c2
    elif isinstance(model, PoS):
        return min(max(model.b_r - model.c, 0.0), reward.r_max)
    elif isinstance(model, GammaReward):
        if model.b_r_fn is None:
            return min(max(model.b_r, 0.0), reward.r_max)
        gross = np.array([block_reward(model, t) for t in state.sum(axis=1)])
    else:
        raise UnsupportedModelError(f"{type(model).__name__} is not a lottery model")
    return np.clip(gross, 0.0, reward.r_max)


def _advance(
    model: IncentiveModel,
    state: np.ndarray,
    uniforms: np.ndarray,
    reward: RewardParams,
) -> np.ndarray:
    """One lottery step applied to every row of ``state`` in place."""
    rows = np.arange(state.shape[0])
    # the ufunc cumsum calls, without cumsum's per-call dispatch overhead
    cum = np.add.accumulate(lottery_weights(model, state), axis=1)
    winners = (cum <= (uniforms * cum[:, -1])[:, None]).sum(axis=1)
    net = _winner_net_rewards(model, state, rows, winners, reward)
    state[rows, winners] += reward.r * net
    return winners


def step(
    state: PowerVector,
    model: IncentiveModel,
    reward: RewardParams,
    rng: np.random.Generator,
) -> PowerVector:
    """Advance one time unit: exactly one node wins and reinvests.

    Consumes exactly one uniform draw, so repeated calls with a fresh
    generator reproduce ``simulate`` bit for bit.
    """
    if not isinstance(model, LOTTERY_MODELS):
        raise UnsupportedModelError(
            f"{type(model).__name__} has no block lottery to simulate"
        )
    arr = np.array([state.powers], dtype=float)
    if isinstance(model, PoS) and bool(np.any(arr < model.s_b)):
        raise DomainError("every stake must be >= s_b to run the lottery")
    _advance(model, arr, rng.random(1), reward)
    return PowerVector(tuple(arr[0]))


class Recorder(Protocol):
    """Observer of the stepping loop.

    ``record`` sees the (seeds, nodes) power state at step ``t``, which is
    the initial state at t = 0, and the winners of that step (None at
    t = 0).  The state is updated in place, so a recorder copies what it
    keeps.
    """

    def record(self, t: int, state: np.ndarray, winners: np.ndarray | None) -> None: ...


# uniforms drawn per seed at a time; the stream of each seed's generator is
# the same whatever the block, so results do not depend on it
DRAW_BLOCK = 4096


def run_seeds(config: SimConfig, recorders: Sequence[Recorder]) -> np.ndarray:
    """Advance every seed of the config through the horizon and pass each
    step to the recorders; returns the final (seeds, nodes) power state.

    Seeds are advanced in lockstep for speed, but each seed consumes only
    its own generator's uniform stream, drawn DRAW_BLOCK steps at a time,
    so a run depends on nothing beyond (config, seed).  Memory is flat in
    the horizon apart from what the recorders keep.
    """
    n_seeds, horizon = len(config.seeds), config.horizon
    init = build_initial_powers(config.init, config.n_nodes)
    if isinstance(config.model, PoS) and bool(np.any(init < config.model.s_b)):
        raise DomainError("every stake must be >= s_b to run the lottery")
    state = np.tile(init, (n_seeds, 1))
    rngs = [np.random.default_rng(seed) for seed in config.seeds]
    for recorder in recorders:
        recorder.record(0, state, None)
    t = 0
    while t < horizon:
        block = min(DRAW_BLOCK, horizon - t)
        uniforms = np.empty((block, n_seeds))
        for row, rng in enumerate(rngs):
            uniforms[:, row] = rng.random(block)
        for draws in uniforms:
            winners = _advance(config.model, state, draws, config.reward)
            t += 1
            for recorder in recorders:
                recorder.record(t, state, winners)
    return state


def _fractions(state: np.ndarray) -> np.ndarray:
    return state / state.sum(axis=1)[:, None]


def _power_ratios(state: np.ndarray, rank: int) -> np.ndarray:
    """Max/percentile ratio of each row of powers."""
    return state.max(axis=1) / np.sort(state, axis=1)[:, rank]


class _TrajectoryRecorder:
    """Keeps every step: fractions, power ratio and winner."""

    def __init__(self, n_seeds: int, horizon: int, n_nodes: int, rank: int) -> None:
        self.betas = np.empty((n_seeds, horizon + 1, n_nodes))
        self.ratios = np.empty((n_seeds, horizon + 1))
        self.winners = np.full((n_seeds, horizon + 1), -1, dtype=np.int64)
        self.rank = rank

    def record(self, t: int, state: np.ndarray, winners: np.ndarray | None) -> None:
        self.betas[:, t, :] = _fractions(state)
        self.ratios[:, t] = _power_ratios(state, self.rank)
        if winners is not None:
            self.winners[:, t] = winners


def simulate(config: SimConfig) -> list[Trajectory]:
    """Run every seed of the config and record full per-step statistics."""
    n_seeds = len(config.seeds)
    rank = _nearest_rank_index(config.n_nodes, config.delta)
    full = _TrajectoryRecorder(n_seeds, config.horizon, config.n_nodes, rank)
    run_seeds(config, [full])
    return [
        Trajectory(
            seed=seed, betas=full.betas[i], ratios=full.ratios[i], winners=full.winners[i]
        )
        for i, seed in enumerate(config.seeds)
    ]


@dataclass(frozen=True)
class EdVerdict:
    converged_fraction: float
    mean_final_ratio: float


def _check_window(window: int, horizon: int) -> None:
    if window < 1 or window > horizon:
        raise DomainError(f"window must lie in [1, horizon={horizon}]")


def _fraction_ratios(betas: np.ndarray, rank: int) -> np.ndarray:
    """Max/percentile ratio of each row of fractions."""
    return betas.max(axis=1) / np.sort(betas, axis=1)[:, rank]


def ed_verdict(
    trajectories: list[Trajectory], epsilon: float, delta: float, window: int
) -> EdVerdict:
    """Fraction of seeds whose max/percentile power ratio stays at or
    below 1 + epsilon through every step of the final window."""
    if not trajectories:
        raise DomainError("at least one trajectory is required")
    _check_window(window, trajectories[0].horizon)
    rank = _nearest_rank_index(trajectories[0].n_nodes, delta)
    converged = 0
    finals = []
    for traj in trajectories:
        ratio = _fraction_ratios(traj.betas[-window:], rank)
        converged += bool(np.all(ratio <= 1.0 + epsilon))
        finals.append(ratio[-1])
    return EdVerdict(
        converged_fraction=converged / len(trajectories),
        mean_final_ratio=float(np.mean(finals)),
    )


class _FinalWindowRecorder:
    """Tracks, per seed, whether the fraction ratio stays at or below
    1 + epsilon through the config's effective window, and the last ratio
    seen; ``verdict`` equals ``ed_verdict`` on the full trajectories."""

    def __init__(self, config: SimConfig) -> None:
        self.window = config.effective_window()
        _check_window(self.window, config.horizon)
        self.first = config.horizon - self.window + 1
        self.limit = 1.0 + config.epsilon
        self.rank = _nearest_rank_index(config.n_nodes, config.delta)
        self.within = np.ones(len(config.seeds), dtype=bool)
        self.last = np.empty(len(config.seeds))

    def record(self, t: int, state: np.ndarray, winners: np.ndarray | None) -> None:
        if t >= self.first:
            self.last = _fraction_ratios(_fractions(state), self.rank)
            self.within &= self.last <= self.limit

    def verdict(self) -> EdVerdict:
        return EdVerdict(
            converged_fraction=int(self.within.sum()) / len(self.within),
            mean_final_ratio=float(np.mean(self.last)),
        )


@dataclass(frozen=True)
class RunSummary:
    """End state of a run without its per-step record.

    ``final_ratios`` and ``verdict`` use the fraction ratio, window and
    percentile rank of ``ed_verdict``, so they equal what it gives on the
    full trajectories of the same config.
    """

    seeds: tuple[int, ...]
    final_betas: np.ndarray  # (seeds, n_nodes)
    final_ratios: np.ndarray  # (seeds,)
    verdict: EdVerdict


def summarize(config: SimConfig, recorders: Sequence[Recorder] = ()) -> RunSummary:
    """Run the config and keep only the final state and the ED verdict over
    its effective window; memory does not grow with the horizon.  Extra
    recorders observe the same run."""
    tail = _FinalWindowRecorder(config)
    state = run_seeds(config, [tail, *recorders])
    return RunSummary(
        seeds=config.seeds,
        final_betas=_fractions(state),
        final_ratios=tail.last,
        verdict=tail.verdict(),
    )


@dataclass(frozen=True)
class MonotonicityStats:
    """Least-squares drift of the poorest and richest nodes' fractions.

    The poorest/richest node is fixed at step 0 and tracked by identity,
    which makes the exponent-1 case an exact martingale with zero expected
    slope.  Slopes are per-seed fits; the standard error comes from the
    spread across independent seeds.
    """

    slope_min: float
    se_min: float
    slope_max: float
    se_max: float


def _per_seed_slopes(series: np.ndarray) -> np.ndarray:
    steps = np.arange(series.shape[1], dtype=float)
    centered = steps - steps.mean()
    denom = float((centered**2).sum())
    if denom == 0.0:
        return np.zeros(series.shape[0])
    return (series - series.mean(axis=1, keepdims=True)) @ centered / denom


def _slope_stats(mins: np.ndarray, maxs: np.ndarray) -> MonotonicityStats:
    """Mean per-seed slope and its standard error across seeds, from the
    (seeds, steps) C-contiguous fraction series of the tracked nodes."""
    n = mins.shape[0]
    slope_min = _per_seed_slopes(mins)
    slope_max = _per_seed_slopes(maxs)
    return MonotonicityStats(
        slope_min=float(slope_min.mean()),
        se_min=float(slope_min.std(ddof=1) / math.sqrt(n)),
        slope_max=float(slope_max.mean()),
        se_max=float(slope_max.std(ddof=1) / math.sqrt(n)),
    )


def monotonicity_stats(trajectories: list[Trajectory]) -> MonotonicityStats:
    if len(trajectories) < 30:
        raise DomainError("at least 30 seeds are required for slope statistics")
    mins = np.stack(
        [t.betas[:, int(np.argmin(t.betas[0]))] for t in trajectories]
    )
    maxs = np.stack(
        [t.betas[:, int(np.argmax(t.betas[0]))] for t in trajectories]
    )
    return _slope_stats(mins, maxs)


class _ExtremalFractionsRecorder:
    """Keeps, per seed and step, the fractions of the nodes with the
    smallest and the largest initial fraction, for ``_slope_stats``."""

    def __init__(self, n_seeds: int, horizon: int) -> None:
        self.mins = np.empty((n_seeds, horizon + 1))
        self.maxs = np.empty((n_seeds, horizon + 1))

    def record(self, t: int, state: np.ndarray, winners: np.ndarray | None) -> None:
        if t == 0:
            # every seed starts from the same state
            initial = _fractions(state)[0]
            self.col_min = int(np.argmin(initial))
            self.col_max = int(np.argmax(initial))
        # the division _fractions does, for two columns only
        totals = state.sum(axis=1)
        np.divide(state[:, self.col_min], totals, out=self.mins[:, t])
        np.divide(state[:, self.col_max], totals, out=self.maxs[:, t])

    def stats(self) -> MonotonicityStats:
        return _slope_stats(self.mins, self.maxs)
