import math
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from decentsim import dynamics
from decentsim.core import PowerVector, RewardParams
from decentsim.dynamics import (
    ExplicitInit,
    PowerLawInit,
    SimConfig,
    SlopeAccumulator,
    TwoPointInit,
    build_initial_powers,
    ed_verdict,
    monotonicity_stats,
    run_seeds,
    simulate,
    step,
    summarize,
)
from decentsim.errors import DomainError, UnsupportedModelError
from decentsim.incentives import DPoS, GammaReward, PoS, PoW


def gamma_config(**kw):
    base = dict(
        model=GammaReward(3, 0.5),
        reward=RewardParams(r=1.0, r_max=3.0),
        horizon=50,
        n_nodes=2,
        init=ExplicitInit((4.0, 1.0)),
        seeds=(0,),
        epsilon=0.0,
        delta=0.0,
    )
    base.update(kw)
    return SimConfig(**base)


def replay_final_betas(config, seed):
    """Final fractions of one seed of ``config``, advanced by ``step``."""
    state = PowerVector(tuple(build_initial_powers(config.init, config.n_nodes)))
    rng = np.random.default_rng(seed)
    for _ in range(config.horizon):
        state = step(state, config.model, config.reward, rng)
    row = np.array([state.powers])
    return (row / row.sum(axis=1)[:, None])[0]


class TestStep:
    def test_outcomes_are_the_two_documented_states(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            out = step(PowerVector((4, 1)), GammaReward(3, 0.5), RewardParams(1, 3), rng)
            seen.add(out.powers)
        assert seen == {(7.0, 1.0), (4.0, 4.0)}

    def test_winner_frequency_matches_weights(self):
        # square-root weights on (4, 1) give the first node 2/3
        rng = np.random.default_rng(1)
        n, hits = 5000, 0
        for _ in range(n):
            out = step(PowerVector((4, 1)), GammaReward(3, 0.5), RewardParams(1, 3), rng)
            hits += out.powers[0] > 4
        sigma = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(hits / n - 2 / 3) <= 3 * sigma

    def test_zero_reinvestment_changes_nothing(self):
        rng = np.random.default_rng(0)
        out = step(PowerVector((4, 1)), GammaReward(3, 0.5), RewardParams(0, 3), rng)
        assert out.powers == (4.0, 1.0)

    def test_reward_cap_binds(self):
        rng = np.random.default_rng(0)
        out = step(
            PowerVector((4.0,)), GammaReward(10, 0.5), RewardParams(1.0, 0.25), rng
        )
        assert out.powers == (4.25,)

    def test_negative_net_reward_clamps_to_zero(self):
        # fixed cost exceeds the block reward, so the winner gains nothing
        rng = np.random.default_rng(0)
        out = step(PowerVector((1, 1)), PoW(1.0, 0, 5.0), RewardParams(1, 10), rng)
        assert out.powers == (1.0, 1.0)

    def test_non_lottery_model_rejected(self):
        with pytest.raises(UnsupportedModelError):
            step(PowerVector((1, 1)), DPoS(5, 1, 1), RewardParams(1, 1), np.random.default_rng(0))


class TestSimulate:
    def test_horizon_zero_keeps_initial_state_only(self):
        traj = simulate(gamma_config(horizon=0))[0]
        assert traj.betas.shape == (1, 2)
        assert traj.ratios[0] == pytest.approx(4.0)
        assert traj.winners[0] == -1

    def test_bit_identical_for_same_seed(self):
        a = simulate(gamma_config(seeds=(42,)))[0]
        b = simulate(gamma_config(seeds=(42,)))[0]
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.winners, b.winners)

    def test_trajectory_independent_of_batch(self):
        alone = simulate(gamma_config(seeds=(7,)))[0]
        batched = simulate(gamma_config(seeds=(1, 7, 9)))[1]
        assert batched.seed == 7
        assert np.array_equal(alone.betas, batched.betas)
        assert np.array_equal(alone.winners, batched.winners)

    def test_matches_repeated_single_steps(self):
        config = gamma_config(seeds=(5,), horizon=30)
        traj = simulate(config)[0]
        rng = np.random.default_rng(5)
        state = PowerVector((4.0, 1.0))
        for t in range(30):
            state = step(state, config.model, config.reward, rng)
        total = sum(state.powers)
        assert traj.betas[-1] == pytest.approx(
            [p / total for p in state.powers], rel=0, abs=0
        )

    def test_fractions_sum_to_one_everywhere(self):
        traj = simulate(gamma_config(horizon=200, seeds=(3,)))[0]
        sums = traj.betas.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(traj.ratios >= 1.0)

    def test_total_power_non_decreasing(self):
        config = gamma_config(horizon=100, seeds=(2, 5))
        totals = []

        class Totals:
            def record(self, t0, states, winners):
                totals.extend(states.sum(axis=2))

        dynamics.run_seeds(config, [Totals()])
        added = np.diff(np.stack(totals), axis=0)
        assert added.shape == (100, 2)
        assert np.all(added >= 0)
        gain = config.reward.r * min(config.model.b_r, config.reward.r_max)
        assert added == pytest.approx(np.full(added.shape, gain))

    def test_martingale_mean_fraction_at_exponent_one(self):
        # with proportional weights each fraction keeps its initial mean
        config = gamma_config(
            model=GammaReward(3, 1.0),
            init=ExplicitInit((1.0, 3.0)),
            horizon=100,
            seeds=tuple(range(10_000)),
        )
        trajs = simulate(config)
        finals = np.stack([t.betas[-1] for t in trajs])
        mean0 = finals[:, 0].mean()
        se = finals[:, 0].std(ddof=1) / math.sqrt(len(trajs))
        assert abs(mean0 - 0.25) <= 3 * se

    def test_sublinear_closes_a_hundredfold_gap(self):
        # reinvestment comparable to the powers themselves
        config = gamma_config(
            model=GammaReward(50, 0.5),
            reward=RewardParams(1.0, 50.0),
            init=ExplicitInit((1.0, 100.0)),
            horizon=400,
            seeds=tuple(range(50)),
        )
        finals = [t.ratios[-1] for t in simulate(config)]
        assert np.median(finals) < 100.0

    def test_seed_symmetry_under_relabelling(self):
        # swapping node labels is statistically invisible
        seeds = tuple(range(2000))
        cfg_ab = gamma_config(
            model=GammaReward(3, 1.0), init=ExplicitInit((1.0, 3.0)),
            horizon=60, seeds=seeds,
        )
        cfg_ba = gamma_config(
            model=GammaReward(3, 1.0), init=ExplicitInit((3.0, 1.0)),
            horizon=60, seeds=seeds,
        )
        rich_ab = np.mean([t.betas[-1, 1] for t in simulate(cfg_ab)])
        rich_ba = np.mean([t.betas[-1, 0] for t in simulate(cfg_ba)])
        assert abs(rich_ab - rich_ba) < 0.02

    def test_pos_below_minimum_rejected(self):
        from decentsim.incentives import PoS

        config = gamma_config(model=PoS(3, 0, s_b=2.0))
        with pytest.raises(DomainError):
            simulate(config)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            gamma_config(seeds=(-1,))


class TestInitBuilders:
    def test_power_law_span(self):
        powers = build_initial_powers(PowerLawInit(2.0), 10)
        assert powers[0] / powers[-1] == pytest.approx(100.0)

    def test_two_point(self):
        powers = build_initial_powers(TwoPointInit(0.01, 1, 3), 4)
        assert list(powers) == [1.0, 0.01, 0.01, 0.01]

    def test_explicit_size_mismatch(self):
        with pytest.raises(DomainError):
            build_initial_powers(ExplicitInit((1.0, 2.0)), 3)


class TestEdVerdict:
    def test_vacuous_threshold_converges(self):
        trajs = simulate(gamma_config(horizon=50, seeds=(0, 1, 2)))
        verdict = ed_verdict(trajs, epsilon=1e9, delta=0, window=5)
        assert verdict.converged_fraction == 1.0

    def test_equal_start_stays_tight_under_sublinear_lottery(self):
        # the square-root lottery keeps re-tightening the ratio after
        # random perturbations away from the even state
        config = gamma_config(
            model=GammaReward(0.05, 0.5),
            reward=RewardParams(1.0, 0.05),
            n_nodes=5,
            init=ExplicitInit((1.0,) * 5),
            horizon=2000,
            seeds=tuple(range(40)),
        )
        verdict = ed_verdict(simulate(config), epsilon=0.5, delta=0, window=200)
        assert verdict.converged_fraction >= 0.8

    def test_rich_get_richer_never_converges(self):
        config = gamma_config(
            model=GammaReward(50, 1.5),
            reward=RewardParams(1.0, 50.0),
            init=ExplicitInit((1.0, 100.0)),
            horizon=500,
            seeds=tuple(range(20)),
        )
        verdict = ed_verdict(simulate(config), epsilon=0.1, delta=0, window=50)
        assert verdict.converged_fraction == 0.0

    def test_window_bounds(self):
        trajs = simulate(gamma_config(horizon=10))
        with pytest.raises(DomainError):
            ed_verdict(trajs, 0.1, 0, window=11)
        with pytest.raises(DomainError):
            ed_verdict(trajs, 0.1, 0, window=0)


class TestMonotonicityStats:
    def test_requires_thirty_seeds(self):
        trajs = simulate(gamma_config(seeds=(0, 1)))
        with pytest.raises(DomainError):
            monotonicity_stats(trajs)

    def test_single_node_slopes_are_zero(self):
        config = gamma_config(
            n_nodes=1, init=ExplicitInit((2.0,)), seeds=tuple(range(30)), horizon=20
        )
        stats = monotonicity_stats(simulate(config))
        assert stats.slope_min == 0.0
        assert stats.slope_max == 0.0

    def test_equalizing_drift_signs(self):
        config = gamma_config(
            init=ExplicitInit((1.0, 9.0)),
            model=GammaReward(1.0, 0.5),
            reward=RewardParams(1.0, 1.0),
            horizon=300,
            seeds=tuple(range(60)),
        )
        stats = monotonicity_stats(simulate(config))
        assert stats.slope_min > 0
        assert stats.slope_max < 0


class TestSlopeAccumulator:
    def test_seed_slope_independent_of_batch_and_blocks(self):
        # three full chunks and a partial one, fed in blocks that straddle them
        horizon = 3 * dynamics.SLOPE_CHUNK + 17
        series = np.random.default_rng(4).random((horizon + 1, 62))
        batch = SlopeAccumulator(31, horizon)
        for start in range(0, horizon + 1, 100):
            batch.add(series[start : start + 100])
        slopes = batch.slopes()
        for seed in range(31):
            alone = SlopeAccumulator(1, horizon)
            for start in range(0, horizon + 1, 37):
                alone.add(series[start : start + 37, 2 * seed : 2 * seed + 2])
            assert alone.slopes().tobytes() == slopes[2 * seed : 2 * seed + 2].tobytes()


class TestBlocks:
    def test_trajectories_independent_of_block(self, monkeypatch):
        # horizon 50 is one block by default and seven full blocks plus a
        # partial one at block size 7
        config = gamma_config(seeds=(1, 7, 9), horizon=50)
        default = simulate(config)
        monkeypatch.setattr(dynamics, "RECORD_BLOCK", 7)
        blocked = simulate(config)
        for a, b in zip(default, blocked):
            assert np.array_equal(a.betas, b.betas)
            assert np.array_equal(a.ratios, b.ratios)
            assert np.array_equal(a.winners, b.winners)

    def test_budget_picks_the_block(self):
        class Lengths(list):
            def record(self, t0, states, winners):
                self.append((t0, len(states)))

        # a step of 3 seeds of 3,000 nodes takes 72 KB: BLOCK_BYTES holds
        # 116 of them, fewer than RECORD_BLOCK
        config = gamma_config(**TestSummarize.CASES["budget-block"])
        lengths = Lengths()
        summarize(config, [lengths])
        assert lengths == [(0, 1), (1, 116), (117, 116), (233, 68)]

    def test_one_step_block_when_a_step_is_over_budget(self, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK_BYTES", 8)
        config = gamma_config(seeds=(1, 7, 9), horizon=20)
        blocked = simulate(config)
        monkeypatch.undo()
        for a, b in zip(simulate(config), blocked):
            assert np.array_equal(a.betas, b.betas)
            assert np.array_equal(a.winners, b.winners)

    def test_peak_memory_is_state_plus_budget(self):
        # 2 seeds of 50,000 nodes over 40 steps: a record block of every
        # step would take 32 MB
        config = gamma_config(
            model=GammaReward(1.0, 0.5), reward=RewardParams(1.0, 1.0), horizon=40,
            n_nodes=50_000, init=PowerLawInit(1.0), seeds=(0, 1),
        )
        state_bytes = 2 * 50_000 * 8
        run_seeds(config, [])  # one-time allocations of the first run
        tracemalloc.start()
        try:
            run_seeds(config, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block, and the initial powers, the state, its weights and their
        # cumulative sums
        assert peak < dynamics.BLOCK_BYTES + 5 * state_bytes


class TestSummarize:
    """``summarize`` against ``ed_verdict`` on the full trajectories."""

    CASES = {
        "default-window": dict(horizon=60, seeds=(0, 1, 2, 3)),
        "delta-above-zero": dict(
            model=GammaReward(0.5, 0.5),
            reward=RewardParams(1.0, 0.5),
            n_nodes=5,
            init=ExplicitInit((5.0, 1.0, 2.0, 1.5, 3.0)),
            horizon=400,
            seeds=tuple(range(12)),
            epsilon=0.8,
            delta=50.0,
        ),
        # large kicks against small powers: the verdict changes when the
        # window gains or loses a single step
        "window-one": dict(
            model=GammaReward(1.5, 0.5),
            reward=RewardParams(1.0, 1.5),
            init=ExplicitInit((1.0, 2.5)),
            horizon=5,
            seeds=tuple(range(30)),
            window=1,
            epsilon=1.0,
        ),
        "window-is-horizon": dict(
            model=GammaReward(1.5, 0.5),
            reward=RewardParams(1.0, 1.5),
            init=ExplicitInit((1.0, 2.5)),
            horizon=5,
            seeds=tuple(range(30)),
            window=5,
            epsilon=1.0,
        ),
        "horizon-off-block": dict(
            model=PoW(2.0, 0.1, 0.2),
            reward=RewardParams(0.5, 2.0),
            n_nodes=3,
            init=ExplicitInit((3.0, 1.0, 2.0)),
            horizon=4133,
            seeds=(8, 9),
            epsilon=0.0,
            delta=40.0,
        ),
        "stake-lottery": dict(
            model=PoS(1.0, 0.2, s_b=0.5),
            reward=RewardParams(1.0, 1.0),
            horizon=90,
            seeds=(2, 6, 11),
            epsilon=3.0,
        ),
        # ten and thirteen nodes: row sums take numpy's pairwise path; the
        # horizon is off a block of 256, 7 or 1 steps
        "ten-nodes-off-both-blocks": dict(
            model=GammaReward(0.2, 0.7),
            reward=RewardParams(1.0, 0.2),
            n_nodes=10,
            init=PowerLawInit(2.0),
            horizon=4355,
            seeds=(4, 5),
            epsilon=2.0,
        ),
        # powers 1..13: the net reward clamps to r_max up to power 3 and
        # to 0 from power 5 on
        "work-clamped-both-ways": dict(
            model=PoW(3.0, 0.5, 0.5),
            reward=RewardParams(0.5, 1.0),
            n_nodes=13,
            init=PowerLawInit(-1.0),
            horizon=300,
            seeds=(1, 2, 3),
            epsilon=5.0,
            delta=30.0,
        ),
        # the byte budget, not RECORD_BLOCK, sets the block of 116 steps
        "budget-block": dict(
            model=GammaReward(1.0, 1.5),
            reward=RewardParams(1.0, 1.0),
            n_nodes=3000,
            init=PowerLawInit(0.5),
            horizon=300,
            seeds=(0, 4, 2),
            epsilon=1.0,
            delta=20.0,
        ),
    }

    @pytest.mark.parametrize("block", ["default", 1, 7])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_ed_verdict_on_full_trajectories(self, case, block, monkeypatch):
        if block != "default":
            monkeypatch.setattr(dynamics, "RECORD_BLOCK", block)
        config = gamma_config(**self.CASES[case])
        trajs = simulate(config)
        expected = ed_verdict(
            trajs, config.epsilon, config.delta, config.effective_window()
        )
        summary = summarize(config)
        assert summary.seeds == config.seeds
        assert np.array_equal(summary.final_betas, np.stack([t.betas[-1] for t in trajs]))
        assert list(summary.final_ratios) == [t.ratios[-1] for t in trajs]
        assert summary.verdict == expected
        for betas, seed in zip(summary.final_betas, config.seeds):
            assert np.array_equal(betas, replay_final_betas(config, seed))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_window_check_one_step_at_a_time(self, case, monkeypatch):
        # the window check converts slices of a block; any slice size gives
        # the same verdict and last ratios
        config = gamma_config(**self.CASES[case])
        whole = summarize(config).verdict
        monkeypatch.setattr(dynamics, "TAIL_SLICE_BYTES", 1)
        assert summarize(config).verdict == whole

    def test_window_bounds(self):
        class Calls(list):
            def record(self, t0, states, winners):
                self.append((t0, states.copy(), winners))

        # at horizon 0 there is no window to check, not even one too long
        calls = Calls()
        summary = summarize(gamma_config(horizon=0, seeds=(0, 1), window=5), [calls])
        assert summary.verdict is None
        [(t0, states, winners)] = calls
        assert (t0, winners) == (0, None)
        assert np.array_equal(states, [[[4.0, 1.0], [4.0, 1.0]]])
        assert np.array_equal(summary.final_betas, [[0.8, 0.2], [0.8, 0.2]])
        assert list(summary.final_ratios) == [4.0, 4.0]
        with pytest.raises(DomainError):
            summarize(gamma_config(horizon=10, window=11))

    def test_extra_recorders_see_every_step(self, monkeypatch):
        class Steps:
            def __init__(self):
                self.seen = []

            def record(self, t0, states, winners):
                shapes = None if winners is None else winners.shape
                self.seen.append((t0, states.shape, shapes))

        monkeypatch.setattr(dynamics, "RECORD_BLOCK", 5)
        steps = Steps()
        summarize(gamma_config(horizon=12, seeds=(0, 1, 2)), [steps])
        assert steps.seen == [
            (0, (1, 3, 2), None),
            (1, (5, 3, 2), (5, 3)),
            (6, (5, 3, 2), (5, 3)),
            (11, (2, 3, 2), (2, 3)),
        ]

    def test_memory_does_not_grow_with_horizon(self):
        def peak_bytes(horizon):
            config = gamma_config(horizon=horizon, seeds=tuple(range(8)))
            tracemalloc.start()
            try:
                summarize(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(10)  # one-time allocations of the first run
        short = peak_bytes(8192)
        long = peak_bytes(24576)
        # keeping one value per seed and step would add 16384 steps
        # * 8 seeds * 8 bytes to the longer run's peak
        assert long - short < 262144


def chi_square_sf(x, df):
    """P(X >= x) for X chi-square with df degrees of freedom, in closed form:
    a Poisson tail for even df, erfc and a finite series for odd df."""
    if df % 2 == 0:
        term = total = math.exp(-x / 2)
        for j in range(1, df // 2):
            term *= x / (2 * j)
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def dirichlet_multinomial_pmf(counts, alpha):
    """P(counts) under Dirichlet-multinomial(sum(counts); alpha)."""
    n, total = sum(counts), sum(alpha)
    log_p = math.lgamma(n + 1) + math.lgamma(total) - math.lgamma(n + total)
    for x, a in zip(counts, alpha):
        log_p += math.lgamma(x + a) - math.lgamma(a) - math.lgamma(x + 1)
    return math.exp(log_p)


class TestPolyaUrnLaw:
    """At weight exponent 1 with a constant increment the lottery is a Pólya
    urn, so a seed's win counts over H steps are exactly
    Dirichlet-multinomial(H; p_0 / increment) (Eggenberger and Pólya, 1923):
    a test of the law the kernel draws, not of its agreement with ``step``."""

    HORIZON = 30
    SEEDS = tuple(range(20_000))
    # fixed before any run; a 5% change of the weight exponent gives p
    # far below it
    SIGNIFICANCE = 1e-3

    def test_chi_square_sf(self):
        # chi-square medians (df 1, 2, 3) and the 0.1% point at df 10
        for x, df, p in [(0.454936, 1, 0.5), (2 * math.log(2), 2, 0.5), (2.365974, 3, 0.5),
                         (29.5883, 10, 1e-3)]:
            assert chi_square_sf(x, df) == pytest.approx(p, rel=1e-5)

    @pytest.mark.parametrize("model, r_max, increment, init", [
        (PoS(b_r=1.5, c=0.5), 1.0, 1.0, (1.0, 2.0, 3.0)),
        (GammaReward(b_r=2.0, gamma=1.0), 2.0, 2.0, (1.0, 2.0, 3.0)),
        (PoS(b_r=1.5, c=0.5), 1.0, 1.0, (1.0, 2.0)),
        (GammaReward(b_r=2.0, gamma=1.0), 2.0, 2.0, (1.0, 2.0, 3.0, 4.0)),
    ], ids=["pos", "gamma-1", "pos-2-nodes", "gamma-1-4-nodes"])
    def test_win_counts(self, model, r_max, increment, init):
        config = SimConfig(
            model=model, reward=RewardParams(r=1.0, r_max=r_max), horizon=self.HORIZON,
            n_nodes=len(init), init=ExplicitInit(init), seeds=self.SEEDS,
        )
        wins = (run_seeds(config, []) - init) / increment
        counts = np.rint(wins).astype(int)
        assert np.array_equal(counts, wins) and np.all(counts.sum(axis=1) == self.HORIZON)
        observed = Counter(map(tuple, counts.tolist()))
        alpha = [p / increment for p in init]
        # every way to split the horizon's wins among the nodes
        cells = [(*head, self.HORIZON - sum(head))
                 for head in product(range(self.HORIZON + 1), repeat=len(init) - 1)
                 if sum(head) <= self.HORIZON]
        expected = {cell: len(self.SEEDS) * dirichlet_multinomial_pmf(cell, alpha)
                    for cell in cells}
        # cells expected fewer than 5 times, if any, are pooled into one
        rare = [cell for cell in cells if expected[cell] < 5]
        bins = [(observed[cell], expected[cell]) for cell in cells if expected[cell] >= 5]
        if rare:
            bins.append((sum(observed[c] for c in rare), sum(expected[c] for c in rare)))
            assert bins[-1][1] >= 5
        statistic = sum((o - e) ** 2 / e for o, e in bins)
        assert chi_square_sf(statistic, len(bins) - 1) > self.SIGNIFICANCE
