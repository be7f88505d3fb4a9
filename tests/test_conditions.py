import math
import random
import time
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from decentsim import conditions, incentives
from decentsim.conditions import (
    MergeWitness,
    SearchResult,
    SplitWitness,
    _tolerance,
    check_all,
    check_gr,
    check_linearity,
    check_nd,
    check_ns,
    grid_allocations,
    verify_merge_witness,
    verify_split_witness,
)
from decentsim.core import PlayerMap, PowerVector, effective_powers, percentile_power
from decentsim.errors import SearchBoundError
from decentsim.incentives import (
    DPoS,
    GammaReward,
    Linear,
    PoS,
    PoW,
    ThresholdCoverSybilCost,
    ZeroSybilCost,
    realized_utility,
    sybil_cost,
)


def players(n):
    return PlayerMap(tuple(f"p{i}" for i in range(n)))


class TestRewardCoverage:
    def test_small_node_priced_out(self):
        res = check_gr(PoW(12.5, 0, 4), PowerVector((1, 9)), m=2)
        assert not res.holds
        assert res.profitable_nodes == 1

    def test_one_profitable_node_suffices_for_m1(self):
        assert check_gr(PoW(12.5, 0, 4), PowerVector((1, 9)), m=1).holds

    def test_gamma_always_pays_everyone(self):
        pv = PowerVector((0.1, 5, 40))
        for m in (1, 2, 3):
            assert check_gr(GammaReward(3, 0.5), pv, m).holds

    def test_cannot_run_counts_as_not_earning(self):
        res = check_gr(PoS(10, 0, s_b=2.0), PowerVector((1, 5)), m=2)
        assert not res.holds
        assert res.profitable_nodes == 1


def partitions_into(grid, parts):
    """Multisets of ``parts`` positive integers summing to ``grid``, sorted."""
    return sorted(
        c for c in combinations_with_replacement(range(1, grid + 1), parts) if sum(c) == grid
    )


class TestGridAllocations:
    def test_counts(self):
        # one split per multiset of parts: the partition numbers p(grid, parts)
        assert len(list(grid_allocations(1.0, 2, 20))) == 10
        assert len(list(grid_allocations(1.0, 1, 20))) == 1
        for parts, grid in [(3, 10), (4, 12), (5, 5), (6, 20), (3, 2)]:
            count = len(list(grid_allocations(1.0, parts, grid)))
            assert count == len(partitions_into(grid, parts))

    def test_one_non_decreasing_split_per_multiset_in_order(self):
        # with total == grid every part is a whole number of cells
        for parts, grid in [(2, 9), (3, 10), (4, 11)]:
            splits = list(grid_allocations(float(grid), parts, grid))
            assert splits == [tuple(map(float, c)) for c in partitions_into(grid, parts)]

    def test_each_allocation_positive_and_complete(self):
        for alloc in grid_allocations(4.0, 3, 10):
            assert all(a > 0 for a in alloc)
            assert math.fsum(alloc) == pytest.approx(4.0)


class TestMergeCondition:
    def test_fixed_cost_merge_violates(self):
        model = PoW(12.5, 0, 1)
        pv, pm = PowerVector((1, 1)), players(2)
        res = check_nd(model, pv, pm, m=2)
        assert not res.holds
        w = res.witness
        assert w.separate_total == pytest.approx(10.5)
        assert w.merged_total == pytest.approx(11.5)
        assert verify_merge_witness(model, pv, w) == pytest.approx(w.gain, rel=1e-9)

    def test_merge_allowed_when_players_stay_above_m(self):
        # the same merge is irrelevant for m=1: one player still runs a node
        res = check_nd(PoW(12.5, 0, 1), PowerVector((1, 1)), players(2), m=1)
        assert res.holds

    def test_linear_is_merge_invariant(self):
        res = check_nd(Linear("inverse-total", 3.0), PowerVector((2, 1, 4)), players(3), m=3)
        assert res.holds

    def test_concave_lottery_resists_merging(self):
        # merging (4, 1) into a 5 drops utility 1.8 -> 1.5836 against a 4
        model = GammaReward(3, 0.5)
        merged = PowerVector((5, 4))
        apart = PowerVector((4, 1, 4))
        merged_u = 3 * math.sqrt(5) / (math.sqrt(5) + 2)
        assert merged_u == pytest.approx(1.58359, abs=1e-5)
        from decentsim.incentives import utility

        assert utility(model, 0, merged) == pytest.approx(merged_u)
        assert utility(model, 0, apart) + utility(model, 1, apart) == pytest.approx(1.8)
        assert check_nd(model, apart, players(3), m=3).holds

    def test_pos_delegation_pays(self):
        # two stakes below the minimum merge into one runnable node
        model = PoS(10, 1, s_b=2.0)
        res = check_nd(model, PowerVector((1, 1)), players(2), m=2)
        assert not res.holds
        assert res.witness.merged_total == pytest.approx(9.0)

    def test_search_bound_is_explicit(self):
        with pytest.raises(SearchBoundError):
            check_nd(PoW(1), PowerVector((1,) * 7), players(7), m=2)


def walked_merges(pm, m):
    """The survivor walk the closed form in ``conditions._merges`` replaces:
    per distinct-player set and survivor count, try every survivor set in
    ``combinations`` order until one leaves fewer than m players running."""
    indices = range(len(pm))
    for size in range(2, len(pm) + 1):
        for subset in combinations(indices, size):
            owners = [pm.owners[i] for i in subset]
            if len(set(owners)) != len(owners):
                continue
            outside = {pm.owners[i] for i in indices if i not in subset}
            for surv_size in range(1, size):
                for survivors in combinations(subset, surv_size):
                    if len(outside.union(pm.owners[i] for i in survivors)) < m:
                        yield subset, survivors
                        break


def combinations_merges(pm, m):
    """The merge walk ``conditions._merges`` replaces: every node set in
    ``combinations`` order, kept if its owners are distinct and it leaves out
    at most m - 1 - (multi-node players) one-node players."""
    nodes = {owner: pm.owners.count(owner) for owner in pm.owners}
    players = len(nodes)
    if list(nodes.values()).count(1) < players + 1 - m:
        return
    for size in range(max(2, players + 2 - m), players + 1):
        for subset in combinations(range(len(pm)), size):
            owners = [pm.owners[i] for i in subset]
            if len(set(owners)) != len(owners):
                continue
            alone = [i for i, owner in zip(subset, owners) if nodes[owner] == 1]
            room = m - 1 - (players - len(alone))
            if room < 0:
                continue
            barred = alone[room:]
            may_survive = [i for i in subset if i not in barred]
            for surv_size in range(1, min(size, len(may_survive) + 1)):
                yield subset, tuple(may_survive[:surv_size])


def merge_pairs(pm, m):
    """``conditions._merges`` flattened to one (set, survivor set) pair per
    survivor count k, the survivor set being the first k of its order."""
    for subset, survivors in conditions._merges(pm, m):
        for k in range(1, len(survivors) + 1):
            yield subset, survivors[:k]


def random_player_map(rng, n):
    players_count = rng.randint(1, n)
    return PlayerMap(tuple(f"p{rng.randrange(players_count)}" for _ in range(n)))


def one_and_multi_node_players(alone, multi, nodes_each):
    multi_owners = [f"M{j}" for j in range(multi) for _ in range(nodes_each)]
    return PlayerMap(tuple([f"s{i}" for i in range(alone)] + multi_owners))


class TestMergeSurvivors:
    def test_walk_matches_combinations(self):
        # shared owners: n nodes among 1 to n players, every m that can count
        for seed in range(150):
            rng = random.Random(f"merge-walk/{seed}")
            n = rng.randint(2, 11)
            pm = random_player_map(rng, n)
            for m in range(1, n + 3):
                assert list(merge_pairs(pm, m)) == list(combinations_merges(pm, m))

    def test_each_set_once(self):
        # the random player maps above, and the shared-owner specs of the CI
        # merge-walk step at their m: one item per node set that counts, each
        # with at least one survivor
        cases = []
        for seed in range(150):
            rng = random.Random(f"merge-walk/{seed}")
            n = rng.randint(2, 11)
            pm = random_player_map(rng, n)
            cases += [(pm, m) for m in range(1, n + 3)]
        cases += [(one_and_multi_node_players(18, 2, 10), 3), (one_and_multi_node_players(10, 4, 5), 5)]
        for pm, m in cases:
            items = list(conditions._merges(pm, m))
            assert len({subset for subset, _ in items}) == len(items)
            assert all(survivors for _, survivors in items)

    def test_many_one_node_players_beside_shared_owners(self):
        # 18 one-node players and two 10-node players at m = 3: a set that
        # counts holds all 18 one-node players and one node of either or
        # both others, 20 sets of 19 nodes with 1 survivor count and 100 of
        # 20 with 2, where combinations walk about 6.9e10 node sets
        pm = one_and_multi_node_players(18, 2, 10)
        started = time.perf_counter()
        assert sum(1 for _ in merge_pairs(pm, 3)) == 20 + 100 * 2
        assert time.perf_counter() - started < 0.5

    def test_set_larger_than_the_recursion_limit(self):
        # at m = 2 the one set that counts holds every one of the 1500
        # one-node players, one frame per node deeper than Python's stack
        pm = players(1500)
        assert list(conditions._merges(pm, 2)) == [(tuple(range(1500)), (0,))]
        res = check_nd(PoW(1), PowerVector((1,) * 1500), pm, m=2, grid=2, max_nodes=1500)
        assert res.holds

    @pytest.mark.parametrize(
        "alone, multi, nodes_each, m", [(18, 2, 10, 3), (10, 4, 5, 5), (12, 5, 4, 6)]
    )
    def test_shared_owner_search(self, alone, multi, nodes_each, m):
        pm = one_and_multi_node_players(alone, multi, nodes_each)
        started = time.perf_counter()
        res = check_nd(PoW(1), PowerVector((1,) * len(pm)), pm, m=m, grid=2, max_nodes=len(pm))
        assert res.holds  # pro-rata rewards at no cost: no merge gains
        assert time.perf_counter() - started < 3.0

    @pytest.mark.parametrize("seed", range(40))
    def test_closed_form_matches_the_walk(self, seed):
        # shared owners: n nodes among 1 to n players
        rng = random.Random(f"survivors/{seed}")
        n = rng.randint(2, 9)
        pm = random_player_map(rng, n)
        for m in range(1, n + 3):
            assert list(merge_pairs(pm, m)) == list(walked_merges(pm, m))

    def test_many_nodes(self):
        # the survivor walk takes about 3^15 steps here; no merge counts at m = 1
        started = time.perf_counter()
        res = check_nd(PoW(1), PowerVector((1,) * 15), players(15), m=1, grid=2, max_nodes=15)
        assert res.holds
        assert time.perf_counter() - started < 2.0

    def test_many_players_large_m(self, monkeypatch):
        # every distinct-player set of the 2^30 counts at m = 31, so the
        # refusal comes while the (set, survivor count) pairs are still walked
        def search():
            with pytest.raises(SearchBoundError, match="merge search"):
                check_nd(PoW(1), PowerVector((1,) * 30), players(30), m=31, grid=2, max_nodes=30)

        started = time.perf_counter()
        search()
        assert time.perf_counter() - started < 3.0
        # a lazy walk holds one set at a time however far it gets, so a tenth
        # of the bound shows its peak in a tenth of the traced time
        monkeypatch.setattr(conditions, "MAX_ALLOCATIONS", conditions.MAX_ALLOCATIONS // 10)
        tracemalloc.start()
        try:
            search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_many_players_small_m(self):
        # only sets of 21 or 22 of the 22 players can leave fewer than 3 running
        started = time.perf_counter()
        res = check_nd(PoW(1), PowerVector((1,) * 22), players(22), m=3, grid=2, max_nodes=22)
        assert res.holds
        assert time.perf_counter() - started < 2.0

    def test_shared_owners_nothing_counts(self):
        # 11 players with 2 nodes each: every player runs a node outside any
        # distinct-player set, so at m = 3 no merge counts and none is walked
        pm = PlayerMap(tuple(f"p{i // 2}" for i in range(22)))
        assert list(conditions._merges(pm, 3)) == []
        started = time.perf_counter()
        res = check_nd(PoW(1), PowerVector((1,) * 22), pm, m=3, grid=2, max_nodes=22)
        assert res.holds
        assert time.perf_counter() - started < 0.5


class TestSplitCondition:
    def test_square_root_lottery_rewards_sybils(self):
        model = GammaReward(3, 0.5)
        pv = PowerVector((4, 1))
        pm = PlayerMap(("A", "B"))
        res = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        assert not res.holds
        w = res.witness
        assert w.gain > 0.4  # best split beats the four-way one
        assert verify_split_witness(model, ZeroSybilCost(), pv, pm, w) == pytest.approx(
            w.gain, rel=1e-9
        )

    def test_four_way_split_of_the_rich_player(self):
        # auditing only the top player with at most four parts pins the
        # witness to the equal four-way split and its 0.4 gain
        model = GammaReward(3, 0.5)
        pv = PowerVector((4, 1))
        pm = PlayerMap(("A", "B"))
        res = check_ns(model, ZeroSybilCost(), pv, pm, delta=100, max_parts=4)
        assert not res.holds
        w = res.witness
        assert w.player == "A"
        assert w.parts == (1.0, 1.0, 1.0, 1.0)
        assert w.gain == pytest.approx(0.4, abs=1e-9)
        assert verify_split_witness(model, ZeroSybilCost(), pv, pm, w) == pytest.approx(
            w.gain, rel=1e-9
        )

    def test_threshold_cover_neutralizes_the_gain(self):
        res = check_ns(
            GammaReward(3, 0.5),
            ThresholdCoverSybilCost(0.0),
            PowerVector((4, 1)),
            PlayerMap(("A", "B")),
            delta=0,
        )
        assert res.holds

    def test_linear_is_split_invariant(self):
        res = check_ns(
            Linear("inverse-total", 3.0),
            ZeroSybilCost(),
            PowerVector((4, 1)),
            PlayerMap(("A", "B")),
            delta=0,
        )
        assert res.holds

    def test_delta_limits_the_audited_players(self):
        # with delta=50 only players at or above the median are audited;
        # the poor player's split opportunity is out of scope
        model = GammaReward(3, 0.5)
        pv = PowerVector((9, 1))
        pm = PlayerMap(("A", "B"))
        full = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        assert not full.holds
        assert {full.witness.player} <= {"A", "B"}


class TestLinearityProbe:
    def test_linear_families(self):
        assert check_linearity(Linear("inverse-total", 2.0), 64, 3).is_linear
        assert check_linearity(Linear("constant", 2.0), 64, 3).is_linear
        res = check_linearity(PoW(5, 0, 0), 64, 3)
        assert res.is_linear
        assert res.max_violation <= 1e-9

    def test_square_root_is_not_linear(self):
        res = check_linearity(GammaReward(3, 0.5), 64, 3)
        assert not res.is_linear
        assert res.max_violation > 1e-3

    def test_fixed_cost_breaks_linearity(self):
        res = check_linearity(PoW(5, 0, 1.0), 64, 3)
        assert not res.is_linear

    def test_cannot_run_is_a_violation(self):
        res = check_linearity(PoS(5, 0, s_b=100.0), 8, 3)
        assert not res.is_linear
        assert res.max_violation == math.inf

    @pytest.mark.parametrize("seed", range(20))
    def test_verdicts_hold_across_seeds(self, seed):
        for model in (Linear("inverse-total", 2.0), Linear("constant", 2.0), PoW(5, 0, 0)):
            res = check_linearity(model, 64, seed)
            assert res.is_linear and res.max_violation <= 1e-9, (model, res)
        res = check_linearity(GammaReward(3, 0.5), 64, seed)
        assert not res.is_linear and res.max_violation > 1e-3
        assert not check_linearity(PoW(5, 0, 1.0), 64, seed).is_linear
        assert check_linearity(PoS(5, 0, s_b=100.0), 8, seed).max_violation == math.inf

    def test_same_seed_same_states(self):
        model = GammaReward(3, 0.5)
        assert check_linearity(model, 64, 7) == check_linearity(model, 64, 7)


class TestNeutralityLinearityMatch:
    """With zero multi-node cost, merge and split neutrality together must
    coincide with utility being linear in power at fixed total."""

    @pytest.mark.parametrize(
        "model",
        [Linear("inverse-total", 3.0), Linear("constant", 0.5), PoW(5, 0, 0)],
    )
    def test_neutral_models_probe_linear(self, model):
        pv, pm = PowerVector((2, 1, 1)), players(3)
        nd = check_nd(model, pv, pm, m=3)
        ns = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        lin = check_linearity(model, 64, 5)
        assert nd.holds and ns.holds and lin.is_linear

    @pytest.mark.parametrize("model", [GammaReward(3, 0.5), PoW(12.5, 0, 1)])
    def test_non_neutral_models_probe_nonlinear(self, model):
        pv, pm = PowerVector((2, 1, 1)), players(3)
        nd = check_nd(model, pv, pm, m=3)
        ns = check_ns(model, ZeroSybilCost(), pv, pm, delta=0)
        lin = check_linearity(model, 64, 5)
        assert not (nd.holds and ns.holds)
        assert not lin.is_linear


class TestReorderingInvariance:
    POWERS = (4.0, 1.0, 2.0, 0.5)
    OWNERS = ("A", "B", "C", "D")
    MODEL = GammaReward(3, 0.5)
    GRID = 8

    @classmethod
    def _verdicts(cls, powers, owners):
        nd = check_nd(cls.MODEL, PowerVector(powers), PlayerMap(owners), m=4, grid=cls.GRID)
        ns = check_ns(
            cls.MODEL, ZeroSybilCost(), PowerVector(powers), PlayerMap(owners),
            delta=0, grid=cls.GRID,
        )
        return nd.holds, ns.holds

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(range(4)))
    def test_verdicts_do_not_depend_on_node_order(self, perm):
        base = self._verdicts(self.POWERS, self.OWNERS)
        permuted = self._verdicts(
            tuple(self.POWERS[i] for i in perm), tuple(self.OWNERS[i] for i in perm)
        )
        assert base == permuted


class TestFullReport:
    def test_report_shape(self):
        rep = check_all(
            PoW(12.5, 0, 1),
            ZeroSybilCost(),
            PowerVector((1, 1)),
            players(2),
            m=2,
        )
        assert rep.gr.holds
        assert not rep.nd.holds
        assert rep.ed == "deferred"


def compositions(grid, parts):
    """Every split of ``grid`` cells into ``parts`` positive counts, in
    lexicographic order, from ``parts - 1`` cut points."""
    for cuts in combinations(range(1, grid), parts - 1):
        bounds = (0, *cuts, grid)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def brute_check_nd(model, pv, pm, m, grid):
    """The merge search over every composition and every survivor set."""
    best = None
    indices = range(len(pv))
    for size in range(2, len(pv) + 1):
        for subset in combinations(indices, size):
            owners = [pm.owners[i] for i in subset]
            if len(set(owners)) != len(owners):
                continue
            separate = math.fsum(realized_utility(model, i, pv) for i in subset)
            pool = math.fsum(pv.powers[i] for i in subset)
            keep = [pv.powers[i] for i in indices if i not in subset]
            for surv_size in range(1, size):
                for survivors in combinations(subset, surv_size):
                    removed = set(subset) - set(survivors)
                    if len({pm.owners[i] for i in indices if i not in removed}) >= m:
                        continue
                    for cells in compositions(grid, surv_size):
                        alloc = tuple(c * (pool / grid) for c in cells)
                        merged_pv = PowerVector(alloc + tuple(keep))
                        merged = math.fsum(
                            realized_utility(model, j, merged_pv) for j in range(surv_size)
                        )
                        if merged > separate + _tolerance(separate):
                            witness = MergeWitness(subset, survivors, alloc, separate, merged)
                            if best is None or witness.gain > best.gain:
                                best = witness
    return SearchResult(holds=best is None, witness=best)


def brute_check_ns(model, sybil, pv, pm, delta, grid, max_parts):
    """The split search over every composition of each audited player."""
    eps = effective_powers(pv, pm)
    threshold = percentile_power(list(eps.values()), delta)
    best = None
    for player, power in eps.items():
        if power < threshold:
            continue
        context = tuple(pv.powers[i] for i in range(len(pv)) if pm.owners[i] != player)
        single = realized_utility(model, 0, PowerVector((power, *context)))
        for parts_count in range(2, min(max_parts, grid) + 1):
            for cells in compositions(grid, parts_count):
                parts = tuple(c * (power / grid) for c in cells)
                split_pv = PowerVector(parts + context)
                split_total = math.fsum(
                    realized_utility(model, j, split_pv) for j in range(parts_count)
                )
                cost = sybil_cost(sybil, model, parts, context)
                if split_total - cost > single + _tolerance(single):
                    witness = SplitWitness(player, power, parts, single, split_total, cost)
                    if best is None or witness.gain > best.gain:
                        best = witness
    return SearchResult(holds=best is None, witness=best)


def seesaw_reward(total):
    return 6.0 / (1.0 + total)


ORACLE_MODELS = ("pow", "pos", "dpos", "gamma", "linear")
ORACLE_SYBILS = (ZeroSybilCost(), ThresholdCoverSybilCost(0.0), ThresholdCoverSybilCost(0.3))


def oracle_case(name, rep):
    """One seeded check input per (model, repetition): DPoS on tied powers
    with few producers or with n to 2n (so that many splits tie), PoS with
    stakes below s_b, gamma with a total-dependent reward, shared
    owners on odd repetitions, m from 1 to n + 1, delta from {0, 50, 100}."""
    rng = random.Random(f"{name}/{rep}")
    n = rng.randint(2, 5)
    if name == "dpos":
        powers = tuple(rng.choice((1.0, 2.0, 2.0, 3.0)) for _ in range(n))
    else:
        powers = tuple(round(rng.uniform(0.2, 4.0), 2) for _ in range(n))
    model = {
        "pow": PoW(12.5, rng.choice((0.0, 0.3)), rng.choice((0.0, 1.0))),
        "pos": PoS(10.0, 1.0, s_b=sorted(powers)[n // 2]),
        "dpos": DPoS(5.0, 1.0, n_dpos=rng.randint(1, 3) if rep < 4 else rng.randint(n, 2 * n)),
        "gamma": GammaReward(
            3.0, rng.choice((0.3, 0.5, 1.5)), b_r_fn=seesaw_reward if rep % 2 else None
        ),
        "linear": Linear(rng.choice(Linear.KINDS), 2.0),
    }[name]
    owners = tuple(
        f"p{rng.randrange(max(2, n - 1))}" if rep % 2 else f"p{i}" for i in range(n)
    )
    m = (1, n + 1, rng.randint(1, n + 1))[rep % 3]
    delta = (0.0, 50.0, 100.0)[rep % 3]
    grid, max_parts = rng.randint(4, 7), rng.randint(2, 5)
    return model, PowerVector(powers), PlayerMap(owners), m, delta, grid, max_parts


class TestSearchMatchesBruteForce:
    """The multiset search reports the verdict and witness, bit for bit, of
    the search over every composition and every survivor set."""

    @pytest.mark.parametrize("rep", range(8))
    @pytest.mark.parametrize("name", ORACLE_MODELS)
    def test_merge_search(self, name, rep):
        model, pv, pm, m, _, grid, _ = oracle_case(name, rep)
        assert check_nd(model, pv, pm, m, grid=grid) == brute_check_nd(model, pv, pm, m, grid)

    @pytest.mark.parametrize("sybil", ORACLE_SYBILS, ids=repr)
    @pytest.mark.parametrize("rep", range(8))
    @pytest.mark.parametrize("name", ORACLE_MODELS)
    def test_split_search(self, name, rep, sybil):
        model, pv, pm, _, delta, grid, max_parts = oracle_case(name, rep)
        got = check_ns(model, sybil, pv, pm, delta, grid=grid, max_parts=max_parts)
        assert got == brute_check_ns(model, sybil, pv, pm, delta, grid, max_parts)


PERMUTATION_MODELS = (
    PoW(12.5, 0.1, 1.0),
    PoS(10.0, 1.0, s_b=1.5),
    DPoS(5.0, 1.0, n_dpos=2),
    GammaReward(3.0, 0.5, b_r_fn=seesaw_reward),
    Linear("inverse-total", 3.0),
)
# tied powers make DPoS elections break ties by index
NODE_POWER = st.one_of(st.sampled_from((1.0, 2.0, 3.0)), st.floats(0.05, 20.0))


class TestPartOrderInvariance:
    """The multiset search rests on this: permuting a player's parts
    changes neither the split total nor the multi-node cost, bit for bit."""

    @pytest.mark.parametrize("model", PERMUTATION_MODELS, ids=lambda m: type(m).__name__)
    @settings(max_examples=25, deadline=None)
    @given(
        parts=st.lists(NODE_POWER, min_size=2, max_size=4),
        context=st.lists(NODE_POWER, max_size=3),
    )
    def test_split_total_and_cost(self, model, parts, context):
        sybil = ThresholdCoverSybilCost(0.25)

        def scored(order):
            state = PowerVector(tuple(order) + tuple(context))
            total = math.fsum(realized_utility(model, j, state) for j in range(len(order)))
            return total, sybil_cost(sybil, model, order, context)

        expected = scored(parts)
        for order in permutations(parts):
            assert scored(order) == expected


class TestSearchBound:
    MODEL = GammaReward(3, 0.5)
    CASES = [
        ("merge", lambda grid: check_nd(
            TestSearchBound.MODEL, PowerVector((4, 1, 2, 0.5)), players(4), m=4, grid=grid)),
        ("split", lambda grid: check_ns(
            TestSearchBound.MODEL, ZeroSybilCost(), PowerVector((4, 1, 2)), players(3),
            delta=0, grid=grid)),
    ]

    @pytest.mark.parametrize("what, search", CASES, ids=[c[0] for c in CASES])
    def test_count_is_exact(self, what, search, monkeypatch):
        scored = []
        original = conditions.grid_allocations

        def counting(*args):
            for alloc in original(*args):
                scored.append(alloc)
                yield alloc

        monkeypatch.setattr(conditions, "grid_allocations", counting)
        expected = search(9)
        count = len(scored)
        monkeypatch.setattr(conditions, "MAX_ALLOCATIONS", count)
        assert search(9) == expected
        monkeypatch.setattr(conditions, "MAX_ALLOCATIONS", count - 1)
        with pytest.raises(SearchBoundError, match=f"{what} search .* at least {count} "):
            search(9)

    @pytest.mark.parametrize("what, search", CASES, ids=[c[0] for c in CASES])
    def test_refused_before_any_utility_call(self, what, search, monkeypatch):
        # neither a single node's utility, nor a scorer's preparation or call,
        # nor any model's formula may run before the count
        def no_call(*args):
            raise AssertionError("utility called before the search was counted")

        monkeypatch.setattr(incentives, "utility", no_call)
        monkeypatch.setattr(incentives, "parts_scorer", no_call)
        monkeypatch.setattr(conditions, "parts_scorer", no_call)
        for model in incentives.MODELS.values():
            monkeypatch.setattr(model, "node_utility", no_call)
        started = time.perf_counter()
        with pytest.raises(SearchBoundError, match=f"bound of {conditions.MAX_ALLOCATIONS}"):
            search(10**12)
        assert time.perf_counter() - started < 1.0
