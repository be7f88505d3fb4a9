import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decentsim.core import PowerVector, RewardParams
from decentsim.dynamics import ExplicitInit, SimConfig, run_seeds
from decentsim.errors import DomainError, UnsupportedModelError
from decentsim.incentives import (
    DPoS,
    GammaReward,
    Linear,
    PoS,
    PoW,
    ThresholdCoverSybilCost,
    ZeroSybilCost,
    lottery_weights,
    parts_scorer,
    realized_utility,
    sybil_cost,
    utility,
)


class TestUtility:
    def test_pow_pro_rata(self):
        assert utility(PoW(12.5), 0, PowerVector((1, 3))) == pytest.approx(3.125)

    def test_pow_fixed_cost_can_go_negative(self):
        assert utility(PoW(12.5, 0, 4), 0, PowerVector((1, 9))) == pytest.approx(-2.75)

    def test_gamma_square_root(self):
        assert utility(GammaReward(3, 0.5), 0, PowerVector((4, 1))) == pytest.approx(2.0)

    def test_dpos_top_k(self):
        pv = PowerVector((3, 2, 1))
        model = DPoS(5, 1, 2)
        assert [utility(model, i, pv) for i in range(3)] == [4, 4, -1]

    def test_dpos_tie_prefers_lower_index(self):
        pv = PowerVector((2, 2, 2))
        model = DPoS(5, 0, 2)
        assert [utility(model, i, pv) for i in range(3)] == [5, 5, 0]

    def test_dpos_depends_only_on_rank(self):
        model = DPoS(7, 2, 1)
        small = [utility(model, i, PowerVector((3, 2))) for i in range(2)]
        large = [utility(model, i, PowerVector((3000, 2))) for i in range(2)]
        assert small == large

    def test_pos_below_minimum_cannot_run(self):
        model = PoS(10, 1, s_b=2.0)
        assert utility(model, 0, PowerVector((1, 5))) is None
        assert utility(model, 1, PowerVector((1, 5))) == pytest.approx(10 * 5 / 6 - 1)
        assert realized_utility(model, 0, PowerVector((1, 5))) == 0.0

    def test_linear_constant(self):
        assert utility(Linear("constant", 2.0), 0, PowerVector((3, 1))) == pytest.approx(6.0)

    def test_linear_inverse_total(self):
        assert utility(Linear("inverse-total", 2.0), 0, PowerVector((3, 1))) == pytest.approx(1.5)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            utility(PoW(1), 2, PowerVector((1, 1)))

    @given(
        st.floats(0.1, 10),
        st.floats(0.1, 10),
        st.sampled_from([0.0, 0.3, 0.5, 0.9]),
    )
    def test_sublinear_gamma_favours_the_poor(self, a, b, gamma):
        # utility per power unit strictly decreases with power when gamma < 1
        if math.isclose(a, b, rel_tol=1e-3):
            return
        hi, lo = max(a, b), min(a, b)
        pv = PowerVector((hi, lo, 1.0))
        model = GammaReward(5, gamma)
        rate_hi = utility(model, 0, pv) / hi
        rate_lo = utility(model, 1, pv) / lo
        assert rate_hi < rate_lo

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_gamma_one_is_rate_neutral(self, a, b):
        pv = PowerVector((a, b, 1.0))
        model = GammaReward(5, 1.0)
        assert utility(model, 0, pv) / a == pytest.approx(utility(model, 1, pv) / b)

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_superlinear_gamma_favours_the_rich(self, a, b):
        if math.isclose(a, b, rel_tol=1e-3):
            return
        hi, lo = max(a, b), min(a, b)
        pv = PowerVector((hi, lo, 1.0))
        model = GammaReward(5, 1.5)
        assert utility(model, 0, pv) / hi > utility(model, 1, pv) / lo


class TestLinearInvariance:
    @given(
        st.sampled_from(["constant", "inverse-total"]),
        st.floats(0.5, 4.0),
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
        st.lists(st.floats(0.1, 5.0), min_size=0, max_size=4),
    )
    def test_partition_preserves_total_utility(self, kind, k, parts, context):
        model = Linear(kind, k)
        whole = math.fsum(parts)
        split_pv = PowerVector(tuple(parts + context)) if context else PowerVector(tuple(parts))
        merged_pv = PowerVector(tuple([whole] + context))
        split_total = math.fsum(utility(model, i, split_pv) for i in range(len(parts)))
        merged = utility(model, 0, merged_pv)
        assert split_total == pytest.approx(merged, rel=1e-9)


def lottery_draws(model, powers, n_seeds=4000, steps=25):
    """Winners of ``n_seeds * steps`` block lotteries on fixed powers: the
    simulator's kernel with reinvestment rate 0, so the state never moves."""
    config = SimConfig(
        model=model,
        reward=RewardParams(r=0.0, r_max=1.0),
        horizon=steps,
        n_nodes=len(powers),
        init=ExplicitInit(powers),
        seeds=tuple(range(n_seeds)),
    )
    seen = []

    class Winners:
        def record(self, t0, states, winners):
            assert np.array_equal(states, np.broadcast_to(powers, states.shape))
            if winners is not None:
                seen.append(winners.copy())

    run_seeds(config, [Winners()])
    return np.concatenate(seen).reshape(-1)


class TestLotteryDraws:
    @pytest.mark.parametrize("model", [PoW(12.5, 0.1, 1.0), PoS(5, 1, s_b=0.5)])
    def test_weights_are_the_powers(self, model):
        # exponent 1: the weights equal the powers bit for bit
        powers = np.array([1e-300, 5e-324, 0.7, 3.0, 1.7e308])
        assert lottery_weights(model, powers).tobytes() == powers.tobytes()

    def test_single_node_always_wins(self):
        assert np.all(lottery_draws(GammaReward(3, 0.5), (2.0,), n_seeds=20, steps=5) == 0)

    def test_deterministic_variants_rejected(self):
        for model in (DPoS(5, 1, 2), Linear("constant", 1.0)):
            with pytest.raises(UnsupportedModelError):
                lottery_draws(model, (3.0, 2.0))

    def test_pos_requires_minimum_stake(self):
        with pytest.raises(DomainError):
            lottery_draws(PoS(10, 1, s_b=2.0), (1.0, 5.0))

    def test_gamma_winner_frequency(self):
        # winner 0 should win with probability 2/3 on powers (4, 1)
        winners = lottery_draws(GammaReward(3, 0.5), (4.0, 1.0))
        freq = float(np.mean(winners == 0))
        sigma = math.sqrt((2 / 3) * (1 / 3) / winners.size)
        assert abs(freq - 2 / 3) <= 3 * sigma

    def test_pow_fair_coin_three_sigma(self):
        winners = lottery_draws(PoW(12.5), (1.0, 1.0))
        freq = float(np.mean(winners == 0))
        sigma = math.sqrt(0.25 / winners.size)
        assert abs(freq - 0.5) <= 3 * sigma

    @pytest.mark.parametrize(
        "model,powers,costs",
        [
            # c1 * power + c2, c, and no cost
            (PoW(12.5, 0.5, 0.25), (1.0, 3.0), (0.75, 1.75)),
            (PoS(8.0, 0.5, s_b=0.5), (2.0, 1.0, 1.0), (0.5, 0.5, 0.5)),
            (GammaReward(3.0, 0.5), (4.0, 1.0), (0.0, 0.0)),
        ],
    )
    def test_mean_reward_converges_to_utility(self, model, powers, costs):
        # every node pays its cost each time unit and the winner also earns
        # the block reward; four sample sigmas
        winners = lottery_draws(model, powers)
        pv = PowerVector(powers)
        for i, cost in enumerate(costs):
            rewards = model.b_r * (winners == i) - cost
            se = rewards.std(ddof=1) / math.sqrt(rewards.size)
            assert abs(rewards.mean() - utility(model, i, pv)) <= 4 * se


PARAM = st.floats(0.0, 1e6)


class TestNetReward:
    """The simulator bounds every increment by a power-0 winner's net
    reward, which holds because net reward never grows with power."""

    @given(b_r=PARAM, c1=PARAM, c2=PARAM, c=PARAM, gamma=st.floats(0.0, 3.0),
           powers=st.lists(PARAM, min_size=1, max_size=4))
    def test_non_increasing_and_largest_at_zero(self, b_r, c1, c2, c, gamma, powers):
        for model, largest in [(PoW(b_r, c1, c2), b_r - c2), (PoS(b_r, c), b_r - c),
                               (GammaReward(b_r, gamma), b_r)]:
            assert float(model.net_reward(0.0)).hex() == largest.hex()
            rewards = [float(model.net_reward(p)) for p in [0.0, *sorted(powers)]]
            assert all(b <= a for a, b in zip(rewards, rewards[1:]))
            vector = model.net_reward(np.array(sorted(powers)))
            assert np.array_equal(np.broadcast_to(vector, len(powers)), rewards[1:])


def outcome(call):
    """A float's exact bits, or the error type and message."""
    try:
        return ("value", call().hex())
    except (ArithmeticError, DomainError) as exc:
        return (type(exc).__name__, str(exc))


def reference_parts_utility(model, parts, context):
    """Per-part realized utility in the state of parts and context, built
    first, so that empty parts ahead of an empty context raise as well."""
    state = PowerVector(parts + context)
    return math.fsum(realized_utility(model, j, state) for j in range(len(parts)))


SCORER_MODELS = (
    PoW(12.5, 0.3, 1.0),
    PoS(10.0, 1.0, s_b=1.5),
    DPoS(5.0, 1.0, n_dpos=1),
    DPoS(5.0, 0.0, n_dpos=2),
    DPoS(5.0, 1.0, n_dpos=3),
    GammaReward(3.0, 0.5),
    GammaReward(3.0, 1.5),
    GammaReward(3.0, 3.0),
    Linear("constant", 2.0),
    Linear("inverse-total", 2.0),
)
# mostly ties (DPoS elections at the n_dpos boundary, PoS stakes at s_b) and
# ordinary powers, some below s_b; then powers whose cube, weight sum or total
# overflows or underflows, and invalid powers
ORDINARY_POWER = st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0)), st.floats(0.05, 20.0))
SCORER_POWER = st.one_of(
    *[ORDINARY_POWER] * 8,
    st.sampled_from((1e-200, 1e103, 1e200, 1e308)),
    st.sampled_from((0.0, -1.0, math.inf, math.nan)),
)


class TestPartsScorer:
    """One scorer prepared per context gives, bit for bit and error for error,
    the summed realized utility of the parts ahead of that context."""

    @pytest.mark.parametrize("model", SCORER_MODELS, ids=repr)
    @settings(max_examples=60, deadline=None)
    @given(
        context=st.lists(SCORER_POWER, max_size=4),
        splits=st.lists(st.lists(SCORER_POWER, max_size=4), min_size=1, max_size=3),
    )
    def test_matches_realized_utility(self, model, context, splits):
        score = parts_scorer(model, context)
        for parts in map(tuple, splits):
            expected = outcome(lambda: reference_parts_utility(model, parts, tuple(context)))
            assert outcome(lambda: score(parts)) == expected

    @pytest.mark.parametrize(
        "model, parts, context, node",
        [
            (GammaReward(3.0, 3.0), (1e200,), (), 0),  # a part's weight
            (GammaReward(3.0, 3.0), (1.0, 2.0), (1e200,), 0),  # a context weight
            (GammaReward(3.0, 2.0), (1e154, 1e154), (1e154,), 0),  # the weight sum
            (PoW(12.5), (1e308,), (1e308,), 0),  # the total
            (PoS(10.0, 1.0, s_b=2.0), (1.0, 1e308), (1e308,), 1),  # node 0 cannot run
        ],
    )
    def test_overflow_names_the_node(self, model, parts, context, node):
        message = f"utility of node {node} is not finite: overflow"
        for call in (lambda: parts_scorer(model, context)(parts),
                     lambda: reference_parts_utility(model, parts, context)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()

    def test_zero_weight_sum_names_the_node(self):
        # 1e-100 ** 5 underflows to 0, so every lottery weight is 0
        model = GammaReward(3.0, 5.0)
        message = "^utility of node 0 is undefined: lottery weight sum is 0$"
        with pytest.raises(DomainError, match=message):
            utility(model, 0, PowerVector((1e-100, 1e-100)))
        with pytest.raises(DomainError, match=message):
            parts_scorer(model, (1e-100,))((1e-100,))

    def test_parts_that_cannot_run_earn_zero_without_a_total(self):
        # the total overflows, but no part reaches the formula
        model = PoS(10.0, 1.0, s_b=2.0)
        assert parts_scorer(model, (1e308, 1e308))((1.0, 1.5)) == 0.0


class TestSybilCost:
    def test_single_node_is_free(self):
        model = ThresholdCoverSybilCost(margin=5.0)
        assert sybil_cost(model, GammaReward(3, 0.5), [4.0], [1.0]) == 0.0

    def test_zero_model(self):
        assert sybil_cost(ZeroSybilCost(), GammaReward(3, 0.5), [1, 1, 1, 1], [1]) == 0.0

    def test_threshold_cover_matches_split_gain(self):
        # four unit nodes against one unit bystander: split earns 2.4,
        # merged single node earns 2.0
        cost = sybil_cost(
            ThresholdCoverSybilCost(0.0), GammaReward(3, 0.5), [1, 1, 1, 1], [1]
        )
        assert cost == pytest.approx(0.4, rel=1e-9)

    def test_margin_is_added(self):
        base = sybil_cost(ThresholdCoverSybilCost(0.0), GammaReward(3, 0.5), [1, 1], [1])
        padded = sybil_cost(ThresholdCoverSybilCost(0.7), GammaReward(3, 0.5), [1, 1], [1])
        assert padded == pytest.approx(base + 0.7)

    def test_never_negative(self):
        # merging is beneficial under fixed costs, so the raw gain is
        # negative and the cover clamps at the margin
        cost = sybil_cost(ThresholdCoverSybilCost(0.0), PoW(12.5, 0, 1), [1.0, 1.0], [])
        assert cost == 0.0

    def test_empty_player_rejected(self):
        with pytest.raises(DomainError):
            sybil_cost(ZeroSybilCost(), PoW(1), [], [1.0])


class TestModelValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(DomainError):
            PoW(-1)
        with pytest.raises(DomainError):
            PoS(1, -0.5)
        with pytest.raises(DomainError):
            DPoS(1, 0, 0)
        with pytest.raises(DomainError):
            Linear("constant", 0.0)
        with pytest.raises(DomainError):
            Linear("affine", 1.0)
