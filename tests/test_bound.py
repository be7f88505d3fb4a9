import concurrent.futures
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decentsim import bound
from decentsim.bound import (
    REAL_WORLD_ANCHORS,
    WalkParams,
    WalkState,
    estimate_g,
    exact_g,
    jump_prob,
    real_world_anchors,
    sweep,
    u_sensitivity,
)
from decentsim.core import RewardParams
from decentsim.dynamics import ExplicitInit, SimConfig, run_seeds
from decentsim.errors import BudgetError, DomainError
from decentsim.incentives import GammaReward

ROOT = Path(__file__).resolve().parents[1]


def params(**kw):
    base = dict(f=1e-4, rho=0.1, epsilon=0.0, u=1e-3, k_max=100, samples=20_000, seed=42)
    base.update(kw)
    return WalkParams(**base)


class TestJumpProb:
    def test_closed_form_anchor(self):
        # 0.1 / (0.1 + 9999) for the hundredfold-squared gap
        value = jump_prob(WalkState(a=1.0, b=1e-4), epsilon=0.0, rho=0.1)
        assert value == pytest.approx(0.1 / 9999.1, rel=1e-12)
        assert value == pytest.approx(1.00009e-5, rel=1e-4)

    def test_at_target_is_one(self):
        assert jump_prob(WalkState(a=1.0, b=0.9), epsilon=0.2, rho=0.1) == 1.0

    @given(
        st.floats(1.0, 50.0),
        st.floats(1e-6, 0.5),
        st.floats(1e-3, 10.0),
        st.floats(0.0, 5.0),
    )
    def test_bounded_and_monotone_in_rho(self, a, b, rho, eps):
        lo = jump_prob(WalkState(a=a, b=b), eps, rho)
        hi = jump_prob(WalkState(a=a, b=b), eps, rho * 2)
        assert 0.0 <= lo <= hi <= 1.0

    @given(st.floats(1.0, 50.0), st.floats(1e-6, 1e-2), st.floats(1e-3, 1.0))
    def test_decreasing_in_rich_power(self, a, b, rho):
        eps = 0.0
        if a / b <= 1 + eps or (a + 1) / b <= 1 + eps:
            return
        assert jump_prob(WalkState(a=a + 1, b=b), eps, rho) <= jump_prob(
            WalkState(a=a, b=b), eps, rho
        )

    @given(st.floats(2.0, 50.0), st.floats(1e-6, 0.5), st.floats(1e-3, 1.0))
    def test_increasing_in_poor_power(self, a, b, rho):
        b2 = min(b * 2, a)  # stay a valid poor power
        assert jump_prob(WalkState(a=a, b=b), 0.0, rho) <= jump_prob(
            WalkState(a=a, b=b2), 0.0, rho
        )


class TestEstimate:
    def test_already_decentralized_start(self):
        result = estimate_g(params(f=0.5, epsilon=1.0, samples=100))
        assert result.estimate == 1.0
        assert result.p0 == 1.0
        assert result.per_k[0] == 1.0

    def test_estimate_within_unit_interval_with_ci(self):
        result = estimate_g(params())
        assert 0.0 <= result.ci_low <= result.estimate <= result.ci_high <= 1.0
        assert len(result.per_k) == params().k_max + 1
        # per-line contributions plus dense successes make up the estimate
        total = math.fsum(result.per_k) + result.dense_success_mass
        assert result.estimate == pytest.approx(total, rel=1e-9)

    def test_decomposition_holds_with_dense_successes(self):
        # a wide step size lets the poor node climb all the way without
        # jumping, so the dense mass is substantial
        result = estimate_g(params(f=0.5, rho=0.5, samples=50_000))
        assert result.dense_success_mass > 0.01
        total = math.fsum(result.per_k) + result.dense_success_mass
        assert result.estimate == pytest.approx(total, rel=1e-9)

    def test_k0_term_floors_the_estimate(self):
        result = estimate_g(params())
        floor = jump_prob(WalkState(1.0, 1e-4), 0.0, 0.1)
        assert result.estimate >= floor
        assert result.per_k[0] == pytest.approx(floor, rel=1e-12)

    def test_deterministic_given_seed(self):
        a = estimate_g(params())
        b = estimate_g(params())
        assert a.estimate == b.estimate
        assert a.per_k == b.per_k

    def test_seed_changes_the_draws(self):
        assert estimate_g(params()).estimate != estimate_g(params(seed=43)).estimate

    def test_more_lines_never_decrease_the_estimate(self):
        low = estimate_g(params(k_max=30))
        high = estimate_g(params(k_max=100))
        assert high.estimate >= low.estimate

    def test_ci_shrinks_with_samples(self):
        small = estimate_g(params(f=0.3, samples=2_000))
        large = estimate_g(params(f=0.3, samples=50_000))
        assert large.ci_high - large.ci_low < small.ci_high - small.ci_low

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            estimate_g(params(samples=10**9, k_max=10**4))

    def test_hybrid_with_unbounded_jumps_matches_micro(self):
        micro = estimate_g(params())
        hybrid = estimate_g(params(strategy="hybrid", n_jump=10**9))
        assert hybrid.estimate == micro.estimate

    def test_hybrid_caps_suppress_far_jumps(self):
        micro = estimate_g(params())
        hybrid = estimate_g(params(strategy="hybrid", n_jump=1))
        assert hybrid.estimate <= micro.estimate

    def test_max_step_walk_probabilities(self):
        # from (1, 0.5) with rho=0.1 and eps=1 the poor node needs no win:
        # ratio is already 2 = 1 + eps
        result = exact_g(params(f=0.5, epsilon=1.0, strategy="max-step"))
        assert result.estimate == result.p0 == result.per_k[0] == 1.0
        # a genuine race stays a probability
        result = exact_g(params(f=0.5, epsilon=0.0, strategy="max-step"))
        assert 0.0 < result.estimate < 1.0

    def test_refuses_max_step(self):
        with pytest.raises(DomainError, match="micro and hybrid"):
            estimate_g(params(strategy="max-step"))

    def test_p0_respects_the_analytic_bound(self):
        for f, eps in ((1e-4, 0.0), (0.5, 0.0), (1e-3, 9.0)):
            result = estimate_g(params(f=f, epsilon=eps, samples=50_000))
            assert result.p0 <= (1.0 + eps) * f + 3.0 * result.p0_std_error + 1e-15

    def test_p0_equality_at_the_threshold(self):
        # ratio 2 with eps=1 sits exactly on the target
        assert estimate_g(params(f=0.5, epsilon=1.0, samples=100)).p0 == 1.0
        assert (1.0 + 1.0) * 0.5 == 1.0


class TestExactChainOracle:
    """Independent oracle: for coarse granularity the walk visits few
    states, so the estimator's expectation is computable exactly by
    dynamic programming over (line, climbs-so-far)."""

    @staticmethod
    def dp_expectation(f, rho, eps, u, k_max, n_jump=None):
        """Expectation and per-line contributions; with ``n_jump`` the
        jump is capped as in the hybrid strategy."""
        one = 1.0 + eps
        log1u = math.log(1.0 + u)

        def line_power(k):
            return 1.0 + k * rho

        def poor_b(climbs):
            return f * (1.0 + u) ** climbs

        def needed(k, climbs):
            return max(0, math.ceil(math.log(line_power(k) / (one * poor_b(climbs))) / log1u))

        def jump(k, climbs):
            a, b = line_power(k), poor_b(climbs)
            gap = a / (one * b) - 1.0
            if gap <= 0:
                return 1.0
            if n_jump is not None and a / one - b > n_jump * rho:
                return 0.0  # not closable within n_jump max-size wins
            return rho / (rho + a * gap)

        # arrival[c] = P(reach line k with c climbs, never dense-succeeded)
        #              * product of (1 - jump) over lines 0..k-1
        arrival = {0: 1.0}
        per_k = []
        survivors = 0.0
        for k in range(k_max + 1):
            contribution = sum(w * jump(k, c) for c, w in arrival.items())
            per_k.append(contribution)
            q = rho / (rho + line_power(k) * u)
            nxt: dict[int, float] = {}
            for c, w in arrival.items():
                w_after = w * (1.0 - jump(k, c))
                n_k = needed(k, c)
                for climbs in range(n_k):  # geometric mass below the crossing
                    key = c + climbs
                    nxt[key] = nxt.get(key, 0.0) + w_after * (q**climbs) * (1.0 - q)
                # mass q**n_k dense-succeeds and leaves the product sum
            arrival = nxt
        survivors = sum(arrival.values())
        return 1.0 - survivors, per_k

    def test_monte_carlo_matches_exact_chain(self):
        f, rho, eps, u, k_max = 0.3, 0.5, 0.0, 0.25, 4
        exact, exact_per_k = self.dp_expectation(f, rho, eps, u, k_max)
        result = estimate_g(
            params(f=f, rho=rho, epsilon=eps, u=u, k_max=k_max, samples=1_000_000)
        )
        assert abs(result.estimate - exact) <= 4 * result.std_error
        for k in range(k_max + 1):
            assert result.per_k[k] == pytest.approx(exact_per_k[k], abs=5e-3)

    def test_hybrid_matches_capped_exact_chain(self):
        # with n_jump=2 the cap binds on lines 1-4 for the lowest climb
        # counts that reach them, and not for the others
        f, rho, eps, u, k_max = 0.3, 0.5, 0.0, 0.25, 4
        exact, exact_per_k = self.dp_expectation(f, rho, eps, u, k_max, n_jump=2)
        _, uncapped_per_k = self.dp_expectation(f, rho, eps, u, k_max)
        assert max(abs(x - y) for x, y in zip(exact_per_k, uncapped_per_k)) > 0.05
        assert any(x > 0.01 for x in exact_per_k[1:])
        result = estimate_g(
            params(f=f, rho=rho, epsilon=eps, u=u, k_max=k_max, samples=1_000_000,
                   strategy="hybrid", n_jump=2)
        )
        assert abs(result.estimate - exact) <= 4 * result.std_error
        for k in range(k_max + 1):
            assert result.per_k[k] == pytest.approx(exact_per_k[k], abs=5e-3)

    @pytest.mark.parametrize(
        "kw", [dict(), dict(strategy="hybrid", n_jump=2)], ids=["micro", "hybrid"]
    )
    def test_exact_g_matches_exact_chain(self, kw):
        f, rho, eps, u, k_max = 0.3, 0.5, 0.0, 0.25, 4
        exact, exact_per_k = self.dp_expectation(f, rho, eps, u, k_max, kw.get("n_jump"))
        result = exact_g(params(f=f, rho=rho, epsilon=eps, u=u, k_max=k_max, **kw))
        assert result.estimate == pytest.approx(exact, rel=1e-12, abs=0)
        assert result.per_k == pytest.approx(exact_per_k, rel=1e-12, abs=0)

    @staticmethod
    def max_step_dp(f, rho, eps, k_max):
        """Per-line success mass of the max-step walk, exactly, on the
        lattice of rich wins i and poor wins j."""
        per_k = [0.0] * (k_max + 1)
        mass = {(0, 0): 1.0}
        while mass:
            nxt: dict[tuple[int, int], float] = {}
            for (i, j), w in mass.items():
                q = (f + j * rho) / (1.0 + i * rho + f + j * rho)
                for (i2, j2), p in (((i, j + 1), q), ((i + 1, j), 1.0 - q)):
                    if i2 > k_max:
                        continue
                    if (1.0 + i2 * rho) / (f + j2 * rho) <= 1.0 + eps:
                        per_k[i2] += w * p
                    else:
                        nxt[(i2, j2)] = nxt.get((i2, j2), 0.0) + w * p
            mass = nxt
        return per_k

    @pytest.mark.parametrize(
        "f, rho, eps, k_max",
        [
            (0.45, 0.1, 0.05, 20),  # no lattice point near the target
            (1e-4, 0.1, 0.0, 100),  # the anchor
            # lattice points on or next to the target ratio, where the float
            # rounding of a / b decides the success
            (0.5, 0.1, 0.0, 30),
            (0.3, 0.1, 0.0, 10),
            (0.1, 0.1, 0.0, 50),
            (0.2, 0.2, 0.0, 15),
            (0.25, 0.25, 0.0, 8),
            (0.05, 0.05, 1.0, 40),
            (0.4, 0.2, 0.25, 12),
            # b + rho rounds to b: the width estimate in floats is 0
            (0.55, 1e-17, 0.8181818181818179, 3),
        ],
    )
    def test_max_step_matches_exact_lattice(self, f, rho, eps, k_max):
        exact_per_k = self.max_step_dp(f, rho, eps, k_max)
        result = exact_g(params(f=f, rho=rho, epsilon=eps, k_max=k_max, strategy="max-step"))
        assert result.per_k == pytest.approx(exact_per_k, rel=1e-12, abs=0)
        assert result.estimate == pytest.approx(math.fsum(exact_per_k), rel=1e-12, abs=0)
        assert result.p0 == result.per_k[0]
        assert result.dense_success_mass == result.std_error == result.p0_std_error == 0.0
        assert result.ci_low == result.estimate == result.ci_high


class TestMaxStepLaw:
    """The max-step walk is the two-node exponent-1 lottery in which every
    win adds rho to the winner's power: the simulator draws the physical
    walk that the lattice DP solves."""

    class FirstHitRecorder:
        """Per seed, the rich wins before the first step with a/b <= 1 + eps
        while there have been at most k_max of them; -1 if there is none."""

        def __init__(self, n_seeds, one_eps, k_max):
            self.one_eps, self.k_max = one_eps, k_max
            self.rich_wins = np.zeros(n_seeds, dtype=np.int64)
            self.line = np.full(n_seeds, -1)

        def record(self, t0, states, winners):
            if winners is None:
                return  # the start is off target
            for state, winner in zip(states, winners):
                self.rich_wins += winner == 0
                hit = (
                    (self.line < 0)
                    & (self.rich_wins <= self.k_max)
                    & (state[:, 0] / state[:, 1] <= self.one_eps)
                )
                self.line[hit] = self.rich_wins[hit]

    def test_simulated_walk_matches_the_lattice(self):
        # no lattice point near the target: the simulator sums the powers,
        # the lattice multiplies, and their rounding must decide no success
        f, rho, eps, k_max, n = 0.45, 0.1, 0.05, 20, 20_000
        exact = exact_g(params(f=f, rho=rho, epsilon=eps, k_max=k_max, strategy="max-step"))
        sim = SimConfig(
            model=GammaReward(b_r=rho, gamma=1.0),
            reward=RewardParams(r=1.0, r_max=rho),
            # the last success with k_max rich wins needs 25 poor wins
            horizon=k_max + 25,
            n_nodes=2,
            init=ExplicitInit((1.0, f)),
            seeds=tuple(range(n)),
        )
        recorder = self.FirstHitRecorder(n, 1.0 + eps, k_max)
        run_seeds(sim, [recorder])
        hits = recorder.line[recorder.line >= 0]
        observed = [hits.size / n] + list(np.bincount(hits, minlength=k_max + 1) / n)
        expected = [exact.estimate, *exact.per_k]
        for seen, p in zip(observed, expected):
            assert abs(seen - p) <= 4 * math.sqrt(p * (1 - p) / n)


class TestChunkPool:
    """Chunks run on a process pool give exactly the inline result."""

    @pytest.mark.parametrize(
        "kw",
        [dict(), dict(f=0.5, rho=0.5)],
        ids=["micro", "micro-dense"],
    )
    def test_pool_matches_inline_chunks(self, kw, monkeypatch):
        monkeypatch.setattr(bound, "CHUNK_SIZE", 7_000)
        monkeypatch.setattr(bound.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        pools = []

        class SpyPool(ProcessPoolExecutor):
            def __init__(self, workers, **kw):
                pools.append(workers)
                super().__init__(workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        p = params(samples=20_000, **kw)
        pooled = estimate_g(p)
        assert pools == [3]  # 3 chunks of at most 7000 samples
        inline = bound._finalize(
            p, [bound._micro_chunk(p, i, m) for i, m in enumerate((7_000, 7_000, 6_000))]
        )
        assert pooled == inline


class TestExactG:
    """The exact path's own contract; its values are checked against the
    DP oracle above and against Monte Carlo in the acceptance suite."""

    def test_reports_no_sampling_error(self):
        result = exact_g(params())
        assert result.std_error == result.p0_std_error == 0.0
        assert result.ci_low == result.estimate == result.ci_high
        assert result.estimate == pytest.approx(
            math.fsum(result.per_k) + result.dense_success_mass, rel=1e-15
        )

    def test_within_monte_carlo_error_with_dense_successes(self):
        p = params(f=0.5, rho=0.5, samples=200_000)
        exact, mc = exact_g(p), estimate_g(p)
        assert exact.dense_success_mass > 0.01
        assert abs(exact.estimate - mc.estimate) <= 4 * mc.std_error
        assert abs(exact.p0 - mc.p0) <= 4 * mc.p0_std_error

    def test_trivial_start(self):
        result = exact_g(params(f=0.5, epsilon=1.0))
        assert result.estimate == result.p0 == result.per_k[0] == 1.0

    def test_samples_and_seed_play_no_part(self):
        for strategy in bound.STRATEGIES:
            one = exact_g(params(strategy=strategy))
            other = exact_g(params(strategy=strategy, samples=1, seed=7))
            assert (one.estimate, one.per_k) == (other.estimate, other.per_k)

    def test_dp_cell_budget(self, monkeypatch):
        # 101 lines of about 11,600 climb counts each
        monkeypatch.setattr(bound, "MAX_CELLS", 1e6)
        with pytest.raises(BudgetError, match="DP cells"):
            exact_g(params())
        monkeypatch.setattr(bound, "MAX_CELLS", 1.2e6)
        assert exact_g(params()).estimate > 0

    @pytest.mark.parametrize(
        "kw, message",
        [
            # 2% of the cell cap, in lines of about 5e7 poor wins
            (dict(f=0.5, rho=1e-8, k_max=1), "one DP line of 5e+07 cells exceeds the cap"),
            # the width estimate is 0, but b + rho rounds to b until j*rho
            # reaches half an ulp of b, far past the cap
            (dict(f=0.55, rho=1e-30, epsilon=0.8181818181818179), "one DP line exceeds the cap"),
        ],
        ids=["estimate", "rounding"],
    )
    def test_max_step_line_width_cap(self, kw, message):
        with pytest.raises(BudgetError, match=re.escape(message)):
            exact_g(params(strategy="max-step", **kw))

    def test_climb_range_checked_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(bound, "MAX_CELLS", 1.0)
        with pytest.raises(DomainError, match="2\\*\\*53"):
            exact_g(params(u=1e-300))

    @pytest.mark.parametrize(
        "anchor, expected", [("f_0", 6.948e-10), ("f_15", 1.3200e-6), ("f_50", 5.748e-6)]
    )
    def test_real_world_anchors(self, anchor, expected):
        # the observed gaps at the host system's reward cap
        result = exact_g(
            WalkParams(f=REAL_WORLD_ANCHORS[anchor], rho=REAL_WORLD_ANCHORS["rho_max"])
        )
        assert result.estimate == pytest.approx(expected, rel=1e-3, abs=0)


class TestP0Claim:
    """For rho <= 1 the line-0 jump term is at most (1 + eps) f, since
    (rho - 1)(R_0 - 1) <= 0; p0 adds the dense climbs of line 0 and can
    exceed it."""

    def test_jump_term_bounded_for_rho_up_to_one(self):
        for f in (1e-6, 1e-4, 1e-2, 0.5):
            for eps in (0.0, 9.0, 99.0):
                for rho in (0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
                    result = exact_g(params(f=f, epsilon=eps, rho=rho, u=1e-2, k_max=1))
                    assert result.per_k[0] <= (1.0 + eps) * f * (1.0 + 1e-12)

    def test_p0_exceeds_the_jump_bound(self):
        result = exact_g(params(f=1e-6, rho=0.9))
        assert result.per_k[0] == pytest.approx(0.9 / (0.9 + 1e6 - 1.0), rel=1e-12, abs=0)
        assert result.p0 == pytest.approx(1.1155e-6, rel=1e-4, abs=0)
        assert result.p0 > 1e-6


class TestSweep:
    def test_single_cell(self):
        rows = sweep([1e-3], [0.0], [0.1], params(samples=5_000))
        assert len(rows) == 1

    def test_grid_cardinality_and_order(self):
        rows = sweep([1e-4, 1e-3, 1e-2], [0.0, 9.0], [0.1, 0.01], params(samples=2_000))
        assert len(rows) == 12
        assert [r.f for r in rows[:3]] == [1e-4, 1e-3, 1e-2]

    def test_monotone_in_f_and_epsilon(self):
        rows = sweep([1e-4, 1e-3, 1e-2], [0.0, 9.0, 99.0], [0.1], params(samples=20_000))
        by_eps = {}
        for row in rows:
            by_eps.setdefault(row.epsilon, []).append(row)
        for eps, cells in by_eps.items():
            estimates = [c.estimate for c in cells]
            assert estimates == sorted(estimates)
        by_f = {}
        for row in rows:
            by_f.setdefault(row.f, []).append(row)
        for f, cells in by_f.items():
            estimates = [c.estimate for c in sorted(cells, key=lambda c: c.epsilon)]
            assert estimates == sorted(estimates)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep([], [0.0], [0.1], params())

    def test_cell_cap_before_any_dp(self, monkeypatch):
        monkeypatch.setattr(bound, "MAX_SWEEP_CELLS", 11)

        def no_dp(p):
            raise AssertionError("exact_g ran before the cell cap")

        monkeypatch.setattr(bound, "exact_g", no_dp)
        with pytest.raises(BudgetError, match="sweep of 12 cells exceeds the cap of 11"):
            sweep([1e-4, 1e-3, 1e-2], [0.0, 9.0, 99.0, 999.0], [0.1], params())


def cell_rows(f_grid, eps_grid, rho_grid, base):
    """One direct ``exact_g`` per cell, in the order ``sweep`` emits rows."""
    rows = []
    for rho in rho_grid:
        for eps in eps_grid:
            for f in f_grid:
                r = exact_g(replace(base, f=f, epsilon=eps, rho=rho))
                rows.append(bound.SweepRow(f, eps, rho, r.estimate, r.ci_low, r.ci_high))
    return rows


def spy_lines(monkeypatch, name):
    """The params of every call to the DP ``bound.<name>``."""
    calls, lines = [], getattr(bound, name)

    def spy(p):
        calls.append(p)
        return lines(p)

    monkeypatch.setattr(bound, name, spy)
    return calls


CURVES = json.loads((ROOT / "configs" / "sweep" / "curves.json").read_text(encoding="utf-8"))
# the sweep-grid benchmark workload's grid
BENCH_GRID = ([1e-4, 1e-3, 1e-2], [0.0, 9.0, 99.0, 999.0], [0.1, 0.01])
SMALL_GRID = ([1e-3, 1e-2, 0.5], [0.0, 9.0, 99.0], [0.1, 0.05])


class TestSweepReuse:
    """The micro bound reads f and epsilon only through (1+eps)*f, so
    ``sweep`` runs one micro DP per distinct ((1+eps)*f, rho) and one
    hybrid or max-step DP per non-trivial cell, with rows equal to the
    per-cell ``exact_g`` bit for bit."""

    @pytest.mark.parametrize(
        "grid, strategy, lines, dps",
        [
            (BENCH_GRID, "micro", "_micro_lines", 8),
            ((CURVES["f_grid"], CURVES["epsilon_grid"], CURVES["rho_grid"]),
             "micro", "_micro_lines", 36),
            (SMALL_GRID, "hybrid", "_micro_lines", 12),
            (SMALL_GRID, "max-step", "_max_step_lines", 12),
        ],
        ids=["sweep-grid", "curves", "hybrid", "max-step"],
    )
    def test_rows_exact_and_dps_counted(self, monkeypatch, grid, strategy, lines, dps):
        base = params(u=CURVES["u"], k_max=CURVES["k_max"], strategy=strategy)
        expected = cell_rows(*grid, base)
        calls = spy_lines(monkeypatch, lines)
        rows = sweep(*grid, base)
        assert repr(rows) == repr(expected)
        assert len(calls) == dps

    def test_trivial_status_stays_in_key(self, monkeypatch):
        # (1+2608)*f0 is f1 in floats, but (f0, 2608) is trivial and
        # (f1, 0) is not
        f0, f1 = 0.000383288616328095, 0.9999999999999999
        assert (1.0 + 2608.0) * f0 == f1 and not 1.0 / f1 <= 1.0
        grid = ([f0, f1], [2608.0, 0.0], [0.1])
        expected = cell_rows(*grid, params())
        calls = spy_lines(monkeypatch, "_micro_lines")
        rows = sweep(*grid, params())
        assert (rows[0].estimate, rows[0].ci_low, rows[0].ci_high) == (1.0, 1.0, 1.0)
        assert [(p.f, p.epsilon) for p in calls] == [(f0, 0.0), (f1, 0.0)]
        assert repr(rows) == repr(expected)


class TestAnchorsAndSensitivity:
    def test_real_world_constants(self):
        anchors = real_world_anchors()
        assert anchors["f_0"] == 7.58e-9
        assert anchors["f_15"] == 1.44e-5
        assert anchors["f_50"] == 6.27e-5
        assert anchors["rho_max"] == 9.5e-4

    def test_u_sensitivity_is_stable(self):
        values = u_sensitivity(params())
        assert [u for u, _ in values] == [1e-2, 1e-3, 1e-4]
        estimates = [e for _, e in values]
        spread = (max(estimates) - min(estimates)) / max(estimates)
        assert spread < 0.25


class TestParamValidation:
    def test_rejects_bad_values(self):
        for bad in (
            dict(f=0.0),
            dict(f=1.5),
            dict(rho=0.0),
            dict(u=0.0),
            dict(k_max=0),
            dict(samples=0),
            dict(seed=-1),
            dict(strategy="warp"),
            dict(f=math.nan),
            dict(rho=math.inf),
            dict(rho=math.nan),
            dict(epsilon=math.nan),
            dict(epsilon=math.inf),
            dict(u=math.inf),
            dict(u=math.nan),
        ):
            with pytest.raises(DomainError):
                params(**bad)

    def test_rejects_steps_too_fine_to_count(self):
        # about 9e300 climbs from f=1e-4 to the target
        with pytest.raises(DomainError, match="2\\*\\*53"):
            estimate_g(params(u=1e-300))

    def test_walk_state_invariants(self):
        with pytest.raises(DomainError):
            WalkState(a=0.5, b=0.1)
        with pytest.raises(DomainError):
            WalkState(a=1.0, b=0.0)
