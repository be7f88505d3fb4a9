"""Reinvestment dynamics of the block lottery.

Each time unit one winner is drawn from the lottery, earns the block
reward net of its running cost (clamped to [0, r_max]), and reinvests the
fraction r of it into its own resource power.  Losing nodes pay their
costs out of pocket; resource power is a stock and never shrinks.  The
long-run behaviour splits three ways with the lottery exponent: below 1
the power fractions equalize, at 1 each fraction is a martingale, above 1
the largest node takes over.  ``INITS`` names every initial power
profile and, through each class's ``KEYS``, its config keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import PowerVector, RewardParams, nearest_rank_index
from .errors import BudgetError, DomainError, UnsupportedModelError
from .incentives import IncentiveModel, lottery_weights


@dataclass(frozen=True)
class ExplicitInit:
    powers: tuple[float, ...]

    KEYS = {"init_powers": "powers"}

    def __post_init__(self) -> None:
        if not all(math.isfinite(p) for p in self.powers):
            raise DomainError("powers must be finite")

    def initial_powers(self, n_nodes: int) -> np.ndarray:
        return np.asarray(self.powers, dtype=float)


@dataclass(frozen=True)
class PowerLawInit:
    """Deterministic power-law profile: node i gets (i+1) ** -exponent."""

    exponent: float

    KEYS = {"init_exponent": "exponent"}

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent):
            raise DomainError("exponent must be finite")

    def initial_powers(self, n_nodes: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.arange(1, n_nodes + 1, dtype=float) ** -self.exponent


@dataclass(frozen=True)
class TwoPointInit:
    """count_rich nodes of power 1 and count_poor nodes of power f."""

    f: float
    count_rich: int
    count_poor: int

    KEYS = {"init_f": "f", "init_count_rich": "count_rich", "init_count_poor": "count_poor"}

    def __post_init__(self) -> None:
        if not 0 < self.f <= 1:
            raise DomainError("two-point f must lie in (0, 1]")
        if self.count_rich < 1 or self.count_poor < 1:
            raise DomainError("two-point init needs at least one node per level")

    def initial_powers(self, n_nodes: int) -> np.ndarray:
        return np.concatenate([np.ones(self.count_rich), np.full(self.count_poor, self.f)])


InitSpec = ExplicitInit | PowerLawInit | TwoPointInit
INITS = {"explicit": ExplicitInit, "power-law": PowerLawInit, "two-point": TwoPointInit}


def build_initial_powers(init: InitSpec, n_nodes: int) -> np.ndarray:
    """The initial powers of ``n_nodes`` nodes; each init spec's
    ``initial_powers`` builds them, and the checks here are shared."""
    powers = init.initial_powers(n_nodes)
    if powers.size != n_nodes:
        raise DomainError(
            f"{type(init).__name__} gives {powers.size} powers but n_nodes is {n_nodes}"
        )
    if not np.all(np.isfinite(powers)):
        raise DomainError("initial powers must be finite")
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
    window: int = 0  # 0: the final 10% of the horizon

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise DomainError("horizon must be >= 0")
        if self.n_nodes < 1:
            raise DomainError("n_nodes must be >= 1")
        if not self.seeds:
            raise DomainError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise DomainError("seeds must be non-negative integers")
        if (cells := len(self.seeds) * (self.n_nodes + GENERATOR_CELLS)) > MAX_STATE_CELLS:
            raise BudgetError(f"{len(self.seeds)} seeds of {self.n_nodes} nodes take {cells:.3g} "
                              f"state cells, over the cap of {MAX_STATE_CELLS:.3g}")
        if not self.model.LOTTERY:
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
        if self.window < 0:
            raise DomainError("window must be >= 1, or 0 for the final 10% of the horizon")

    def effective_window(self) -> int:
        return self.window or max(1, self.horizon // 10)


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


def step(
    state: PowerVector,
    model: IncentiveModel,
    reward: RewardParams,
    rng: np.random.Generator,
) -> PowerVector:
    """Advance one time unit: exactly one node wins and reinvests.

    Consumes exactly one uniform draw, so repeated calls with a fresh
    generator reproduce ``simulate`` bit for bit.  It is written apart from
    the batched ``run_seeds`` kernel, as the reference that kernel is
    tested against.
    """
    if not model.LOTTERY:
        raise UnsupportedModelError(
            f"{type(model).__name__} has no block lottery to simulate"
        )
    powers = np.array(state.powers, dtype=float)
    if bool(np.any(powers < model.s_b)):
        raise DomainError("every stake must be >= s_b to run the lottery")
    cum = np.add.accumulate(lottery_weights(model, powers))
    winner = int((cum <= rng.random() * cum[-1]).sum())
    net = np.asarray(model.net_reward(powers[winner:winner + 1], powers[None])).item(0)
    powers[winner] += reward.r * min(max(net, 0.0), reward.r_max)
    return PowerVector(tuple(powers))


def _lottery(config: SimConfig, state: np.ndarray) -> tuple[float, Callable]:
    """What stays constant through a run over ``state``: the weight exponent
    and the winner's increment r · clamp(net reward, 0, r_max) as a function
    of the winners' indices into the flattened state, one float where the
    net reward depends on neither.  Powers never shrink and grow by at most
    the largest increment per step, so a run whose weights could overflow,
    or whose largest starts below the smallest normal float, is refused
    here: its lottery would have no winner, as u · total can round up to a
    subnormal total.  So is one whose net reward could overflow."""
    model, reward = config.model, config.reward
    if bool(np.any(state < model.s_b)):
        raise DomainError("every stake must be >= s_b to run the lottery")
    largest = min(max(model.max_net_reward(), 0.0), reward.r_max)
    exponent = model.weight_exponent()
    low = float(state.max())
    high = low + config.horizon * (reward.r * largest)
    with np.errstate(over="ignore", under="ignore"):
        light, heavy = np.array([low, high]) ** exponent
    if not math.isfinite(state.shape[1] * max(high, heavy)) or light < np.finfo(float).tiny:
        raise DomainError(
            f"lottery weights leave the float range: powers run from {low!r} up to "
            f"{high!r} and are weighted by exponent {exponent!r}"
        )
    # fractions run down to least / (n * high), so their ratios up to its inverse
    least = float(state.min())
    if not math.isfinite(state.shape[1] * high / least):
        raise DomainError(
            f"power ratios leave the float range: powers run from {least!r} up to {high!r}"
        )
    # a winner's power stays in [least, high]: a net reward monotone in it is
    # finite if it is at both ends, and one float if free of power and state
    with np.errstate(over="ignore"):
        net = model.net_reward(np.array([least, high]), state[:0])
    if not np.all(np.isfinite(net)):
        raise DomainError(f"net rewards leave the float range: powers run from {least!r} "
                          f"up to {high!r}")
    flat = state.reshape(-1)
    if np.ndim(net) == 0:
        fixed = reward.r * min(max(net, 0.0), reward.r_max)
        return exponent, lambda index: fixed

    def increment(index):
        net = model.net_reward(flat[index], state)
        return reward.r * np.minimum(np.maximum(net, 0.0), reward.r_max)

    return exponent, increment


class Recorder(Protocol):
    """Observer of the stepping loop.

    ``record`` sees one block of ``run_seeds``: the (steps, seeds, nodes)
    power states from step ``t0`` on, and the (steps, seeds) winners of
    those steps.  The first call has t0 = 0 and holds only the initial
    state, with winners None.  Every block is a view of one reused buffer,
    so a recorder copies what it keeps.
    """

    def record(self, t0: int, states: np.ndarray, winners: np.ndarray | None) -> None: ...


# a run holds at most MAX_STATE_CELLS floats of state, counting each seed's
# generator (about 1 KB) as GENERATOR_CELLS floats
MAX_STATE_CELLS = 1e7
GENERATOR_CELLS = 128
# a block of run_seeds holds at most RECORD_BLOCK steps of every seed, and
# at most BLOCK_BYTES of states, uniforms and winners unless one step is more
RECORD_BLOCK = 256
BLOCK_BYTES = 2**23


def run_seeds(config: SimConfig, recorders: Sequence[Recorder]) -> np.ndarray:
    """Advance every seed of the config through the horizon and pass the
    states to the recorders one block at a time; returns the final
    (seeds, nodes) power state.

    Seeds are advanced in lockstep for speed, but each seed consumes only
    its own generator's uniform stream, so a run depends on nothing beyond
    (config, seed).  Memory is the state and one block, flat in the horizon,
    apart from what the recorders keep.
    """
    n_seeds, horizon = len(config.seeds), config.horizon
    init = build_initial_powers(config.init, config.n_nodes)
    state = np.tile(init, (n_seeds, 1))
    exponent, increment = _lottery(config, state)
    flat = state.reshape(-1)
    offsets = np.arange(n_seeds) * config.n_nodes
    index = np.empty(n_seeds, dtype=np.int64)
    rngs = [np.random.default_rng(seed) for seed in config.seeds]
    for recorder in recorders:
        recorder.record(0, state[None], None)
    fit = BLOCK_BYTES // (8 * n_seeds * (config.n_nodes + 2))
    steps = max(min(fit, RECORD_BLOCK, horizon), 1)
    states = np.empty((steps, n_seeds, config.n_nodes))
    # (steps, seeds, 1), so that each step's draws scale a column
    uniforms = np.empty((steps, n_seeds, 1))
    winners = np.empty((steps, n_seeds), dtype=np.int64)
    # one step's cumulative weights, scaled draws and comparison
    cum = np.empty_like(state)
    scaled = np.empty((n_seeds, 1))
    passed = np.empty(state.shape, dtype=bool)
    for t0 in range(1, horizon + 1, steps):
        block = min(steps, horizon + 1 - t0)
        uniforms[:block, :, 0] = np.stack([rng.random(block) for rng in rngs], axis=1)
        for draws, won, kept in zip(uniforms[:block], winners, states):
            # ``**`` sends 0.5 to sqrt and 2 to square; an out= power would
            # call pow, whose bits can differ
            np.add.accumulate(state**exponent, axis=1, out=cum)
            np.multiply(draws, cum[:, -1:], out=scaled)
            # the first node whose cumulative weight passes the draw: the
            # count of those at or below it that ``step`` takes, as cum is
            # non-decreasing and its normal total passes every draw
            np.greater(cum, scaled, out=passed)
            passed.argmax(axis=1, out=won)
            np.add(offsets, won, out=index)
            flat[index] += increment(index)
            kept[...] = state
        for recorder in recorders:
            recorder.record(t0, states[:block], winners[:block])
    return state


def _fractions(state: np.ndarray) -> np.ndarray:
    """Power fractions along the last (node) axis."""
    return state / state.sum(axis=-1)[..., None]


def _ratios(values: np.ndarray, delta: float) -> np.ndarray:
    """Max/percentile ratio along the last (node) axis, the percentile
    nearest-rank."""
    rank = nearest_rank_index(values.shape[-1], delta)
    return values.max(axis=-1) / np.sort(values, axis=-1)[..., rank]


class _TrajectoryRecorder:
    """Keeps every step: fractions, power ratio and winner."""

    def __init__(self, n_seeds: int, horizon: int, n_nodes: int, delta: float) -> None:
        self.betas = np.empty((n_seeds, horizon + 1, n_nodes))
        self.ratios = np.empty((n_seeds, horizon + 1))
        self.winners = np.full((n_seeds, horizon + 1), -1, dtype=np.int64)
        self.delta = delta

    def record(self, t0: int, states: np.ndarray, winners: np.ndarray | None) -> None:
        stop = t0 + len(states)
        self.betas[:, t0:stop] = _fractions(states).transpose(1, 0, 2)
        self.ratios[:, t0:stop] = _ratios(states, self.delta).T
        if winners is not None:
            self.winners[:, t0:stop] = winners.T


def simulate(config: SimConfig) -> list[Trajectory]:
    """Run every seed of the config and record full per-step statistics."""
    n_seeds = len(config.seeds)
    full = _TrajectoryRecorder(n_seeds, config.horizon, config.n_nodes, config.delta)
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


def ed_verdict(
    trajectories: list[Trajectory], epsilon: float, delta: float, window: int
) -> EdVerdict:
    """Fraction of seeds whose max/percentile power ratio stays at or
    below 1 + epsilon through every step of the final window."""
    if not trajectories:
        raise DomainError("at least one trajectory is required")
    _check_window(window, trajectories[0].horizon)
    converged = 0
    finals = []
    for traj in trajectories:
        ratio = _ratios(traj.betas[-window:], delta)
        converged += bool(np.all(ratio <= 1.0 + epsilon))
        finals.append(ratio[-1])
    return EdVerdict(
        converged_fraction=converged / len(trajectories),
        mean_final_ratio=float(np.mean(finals)),
    )


# bytes of states the window check converts at once
TAIL_SLICE_BYTES = 2**17


class _FinalWindowRecorder:
    """Tracks, per seed, whether the fraction ratio stays at or below
    1 + epsilon through the config's effective window, and the last ratio
    seen; ``verdict`` equals ``ed_verdict`` on the full trajectories."""

    def __init__(self, config: SimConfig) -> None:
        self.window = config.effective_window()
        _check_window(self.window, config.horizon)
        self.first = config.horizon - self.window + 1
        self.limit = 1.0 + config.epsilon
        self.delta = config.delta
        self.within = np.ones(len(config.seeds), dtype=bool)
        self.last = np.empty(len(config.seeds))

    def record(self, t0: int, states: np.ndarray, winners: np.ndarray | None) -> None:
        tail = states[max(self.first - t0, 0):]
        # a few steps at a time: the fractions and their sorted copy stay
        # small instead of two temporaries the size of the block
        rows = max(TAIL_SLICE_BYTES // (8 * states.shape[1] * states.shape[2]), 1)
        for start in range(0, len(tail), rows):
            ratios = _ratios(_fractions(tail[start : start + rows]), self.delta)
            self.within &= (ratios <= self.limit).all(axis=0)
            self.last = ratios[-1]

    def verdict(self) -> EdVerdict:
        return EdVerdict(
            converged_fraction=int(self.within.sum()) / len(self.within),
            mean_final_ratio=float(np.mean(self.last)),
        )


@dataclass(frozen=True)
class RunSummary:
    """End state of a run without its per-step record.

    ``final_ratios`` is the max/percentile ratio of the final powers, the
    last entry of each ``Trajectory.ratios``.  ``verdict`` is what
    ``ed_verdict`` gives on the full trajectories over the config's
    effective window, or None at horizon 0, where there is no window.
    """

    seeds: tuple[int, ...]
    final_betas: np.ndarray  # (seeds, n_nodes)
    final_ratios: np.ndarray  # (seeds,)
    verdict: EdVerdict | None


def summarize(config: SimConfig, recorders: Sequence[Recorder] = ()) -> RunSummary:
    """Run the config and keep only the final state and the ED verdict over
    its effective window; memory does not grow with the horizon.  Extra
    recorders observe the same run, after the verdict's own."""
    tail = _FinalWindowRecorder(config) if config.horizon else None
    state = run_seeds(config, [r for r in (tail, *recorders) if r is not None])
    return RunSummary(
        seeds=config.seeds,
        final_betas=_fractions(state),
        final_ratios=_ratios(state, config.delta),
        verdict=None if tail is None else tail.verdict(),
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


# seeds a run needs for slope statistics
MIN_SLOPE_SEEDS = 30
# steps per chunk of the streamed slope sums; chunks are aligned to absolute
# steps, so a seed's slope depends neither on the blocks nor on the batch
SLOPE_CHUNK = 512


class SlopeAccumulator:
    """Streamed least-squares slopes of the poorest and richest nodes'
    fractions in each seed, for ``MonotonicityStats``.

    With c_t = t - horizon/2, which sums to 0, a series' slope is
    sum(c_t * (y_t - y_0)) / D, D = sum(c_t**2) exactly; y_0 is subtracted
    against cancellation.  The values are re-buffered into SLOPE_CHUNK steps
    and each chunk is summed along its contiguous step axis, so memory is
    O(seeds * SLOPE_CHUNK).  As a recorder it feeds itself the fractions.
    """

    def __init__(self, n_seeds: int, horizon: int) -> None:
        self.centre = horizon / 2
        self.denom = (horizon + 1) * horizon * (horizon + 2) / 12
        self.chunk = np.empty((2 * n_seeds, SLOPE_CHUNK))
        self.sums = np.zeros(2 * n_seeds)
        self.start = self.filled = 0

    def record(self, t0: int, states: np.ndarray, winners: np.ndarray | None) -> None:
        if t0 == 0:
            # every seed starts from the same state
            initial = _fractions(states[0, 0])
            self.nodes = [int(np.argmin(initial)), int(np.argmax(initial))]
        # the division _fractions does, for the two tracked nodes only
        tracked = states[:, :, self.nodes] / states.sum(axis=2)[..., None]
        self.add(tracked.reshape(len(states), -1))

    def add(self, values: np.ndarray) -> None:
        """Feed the next steps: (steps, 2 * n_seeds) values, each seed's
        poorest node and then its richest."""
        if self.start == self.filled == 0:
            self.first = values[0].copy()
        done = 0
        while done < len(values):
            take = min(SLOPE_CHUNK - self.filled, len(values) - done)
            self.chunk[:, self.filled : self.filled + take] = values[done : done + take].T
            self.filled += take
            done += take
            if self.filled == SLOPE_CHUNK:
                self.sums += self._chunk_sums()
                self.start += SLOPE_CHUNK
                self.filled = 0

    def _chunk_sums(self) -> np.ndarray:
        steps = np.arange(self.start, self.start + self.filled) - self.centre
        return ((self.chunk[:, : self.filled] - self.first[:, None]) * steps).sum(axis=1)

    def slopes(self) -> np.ndarray:
        if self.denom == 0.0:
            return np.zeros(len(self.sums))
        return (self.sums + self._chunk_sums()) / self.denom

    def stats(self) -> MonotonicityStats:
        """Mean per-seed slope and its standard error across seeds."""
        slope_min, slope_max = self.slopes().reshape(-1, 2).T
        root_n = math.sqrt(slope_min.size)
        return MonotonicityStats(
            slope_min=float(slope_min.mean()),
            se_min=float(slope_min.std(ddof=1) / root_n),
            slope_max=float(slope_max.mean()),
            se_max=float(slope_max.std(ddof=1) / root_n),
        )


def monotonicity_stats(trajectories: list[Trajectory]) -> MonotonicityStats:
    if len(trajectories) < MIN_SLOPE_SEEDS:
        raise DomainError(f"at least {MIN_SLOPE_SEEDS} seeds are required for slope statistics")
    slopes = SlopeAccumulator(len(trajectories), trajectories[0].horizon)
    tracked = [
        t.betas[:, int(pick(t.betas[0]))] for t in trajectories for pick in (np.argmin, np.argmax)
    ]
    slopes.add(np.stack(tracked, axis=1))
    return slopes.stats()
