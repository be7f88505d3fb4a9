import math

import pytest
from hypothesis import given, strategies as st

from decentsim.core import (
    DecentralizationSpec,
    PlayerMap,
    PowerVector,
    RewardParams,
    Verdict,
    effective_powers,
    is_decentralized,
    percentile_power,
)
from decentsim.errors import DomainError, StructuralError


class TestPowerVector:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PowerVector(())

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            PowerVector((1.0, 0.0))
        with pytest.raises(DomainError):
            PowerVector((1.0, -2.0))

    def test_total(self):
        assert PowerVector((1.0, 2.0, 3.0)).total() == 6.0


class TestEffectivePowers:
    def test_identity_partition(self):
        eps = effective_powers(PowerVector((4, 1)), PlayerMap(("A", "B")))
        assert eps == {"A": 4.0, "B": 1.0}

    def test_additivity(self):
        eps = effective_powers(PowerVector((4, 1, 2)), PlayerMap(("A", "B", "A")))
        assert eps == {"A": 6.0, "B": 1.0}

    def test_single_player(self):
        eps = effective_powers(PowerVector((1, 1, 1)), PlayerMap(("A", "A", "A")))
        assert eps == {"A": 3.0}

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            effective_powers(PowerVector((1, 2)), PlayerMap(("A",)))

    @given(
        st.lists(
            st.tuples(st.integers(1, 1000), st.sampled_from("ABCD")),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, rows, rnd):
        powers = PowerVector(tuple(float(p) for p, _ in rows))
        owners = PlayerMap(tuple(o for _, o in rows))
        baseline = effective_powers(powers, owners)
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        permuted = effective_powers(
            PowerVector(tuple(float(p) for p, _ in shuffled)),
            PlayerMap(tuple(o for _, o in shuffled)),
        )
        assert baseline == permuted  # exact: grouped sums use fsum

    @given(
        st.lists(st.tuples(st.floats(0.01, 1e6), st.sampled_from("ABC")), min_size=1, max_size=8)
    )
    def test_player_totals_match_node_total(self, rows):
        powers = PowerVector(tuple(p for p, _ in rows))
        owners = PlayerMap(tuple(o for _, o in rows))
        eps = effective_powers(powers, owners)
        assert math.isclose(sum(eps.values()), powers.total(), rel_tol=1e-12)


class TestPercentile:
    def test_minimum(self):
        assert percentile_power([1, 2, 3, 4], 0) == 1

    def test_maximum(self):
        assert percentile_power([1, 2, 3, 4], 100) == 4

    def test_nearest_rank_interior(self):
        # ceil(0.5 * 4) = 2nd smallest
        assert percentile_power([1, 2, 3, 4], 50) == 2

    def test_empty(self):
        with pytest.raises(DomainError):
            percentile_power([], 50)

    def test_delta_outside_range(self):
        with pytest.raises(DomainError):
            percentile_power([1.0], 101)
        with pytest.raises(DomainError):
            percentile_power([1.0], -1)

    @given(
        st.lists(st.floats(0.001, 1e9), min_size=1, max_size=20),
        st.floats(0, 100),
        st.floats(0, 100),
    )
    def test_monotone_in_delta(self, values, d1, d2):
        lo, hi = sorted((d1, d2))
        assert percentile_power(values, lo) <= percentile_power(values, hi)


class TestIsDecentralized:
    def test_holds(self):
        res = is_decentralized(
            PowerVector((10, 10, 9)),
            PlayerMap(("A", "B", "C")),
            DecentralizationSpec(m=3, epsilon=0.2, delta=0),
        )
        assert res.verdict is Verdict.HOLDS
        assert math.isclose(res.ratio, 10 / 9)

    def test_fails_count(self):
        res = is_decentralized(
            PowerVector((10, 10, 9)),
            PlayerMap(("A", "B", "C")),
            DecentralizationSpec(m=4, epsilon=0.2, delta=0),
        )
        assert res.verdict is Verdict.FAILS_COUNT
        assert res.player_count == 3

    def test_fails_ratio(self):
        res = is_decentralized(
            PowerVector((10, 1)),
            PlayerMap(("A", "B")),
            DecentralizationSpec(m=2, epsilon=0, delta=0),
        )
        assert res.verdict is Verdict.FAILS_RATIO
        assert res.ratio == 10.0

    @given(
        st.lists(st.integers(1, 100), min_size=1, max_size=8),
        st.sampled_from([0.5, 2.0, 3.0, 4.0, 10.0]),
    )
    def test_scale_invariant(self, powers, lam):
        owners = PlayerMap(tuple(f"p{i}" for i in range(len(powers))))
        spec = DecentralizationSpec(m=1, epsilon=0.5, delta=0)
        base = is_decentralized(PowerVector(tuple(map(float, powers))), owners, spec)
        scaled = is_decentralized(
            PowerVector(tuple(lam * p for p in powers)), owners, spec
        )
        assert base.verdict is scaled.verdict
        assert math.isclose(base.ratio, scaled.ratio, rel_tol=1e-12)

    def test_strict_target_requires_equality(self):
        spec = DecentralizationSpec(m=2, epsilon=0, delta=0)
        owners = PlayerMap(("A", "B"))
        assert is_decentralized(PowerVector((5, 5)), owners, spec).verdict is Verdict.HOLDS
        assert (
            is_decentralized(PowerVector((5, 5.0001)), owners, spec).verdict
            is Verdict.FAILS_RATIO
        )

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DecentralizationSpec(m=0, epsilon=0, delta=0)
        with pytest.raises(DomainError):
            DecentralizationSpec(m=1, epsilon=-0.1, delta=0)
        with pytest.raises(DomainError):
            DecentralizationSpec(m=1, epsilon=0, delta=101)
        with pytest.raises(DomainError, match="epsilon must be finite"):
            DecentralizationSpec(m=2, epsilon=math.nan, delta=0)


class TestRewardParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            RewardParams(r=-0.1, r_max=1)
        with pytest.raises(DomainError):
            RewardParams(r=1, r_max=0)
        assert RewardParams(r=0, r_max=1).r == 0
