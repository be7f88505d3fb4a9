import math
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from decentsim.errors import DomainError, StructuralError
from decentsim.metrics import (
    MAX_BLOCKS,
    ProducerDataset,
    gini,
    load_producer_csv,
    report,
    shannon_entropy,
    top_share_subset,
)


def dataset(counts):
    return ProducerDataset(tuple((f"addr{i:03d}", c) for i, c in enumerate(counts)))


def pairwise_gini(counts):
    """Independent oracle: literal sum over ordered pairs."""
    n = len(counts)
    total = sum(counts)
    acc = sum(abs(a - b) for a in counts for b in counts)
    return acc / (2 * n * total)


class TestTopShareSubset:
    def test_x_one_keeps_everything(self):
        ds = dataset([5, 3, 2])
        assert len(top_share_subset(ds, 1.0).entries) == 3

    def test_x_zero_keeps_nothing(self):
        ds = dataset([5, 3, 2])
        assert top_share_subset(ds, 0.0).entries == ()

    def test_strict_boundary(self):
        # predecessor shares are 0, 0.5, 0.8; only the first is < 0.5
        ds = dataset([5, 3, 2])
        subset = top_share_subset(ds, 0.5)
        assert [blocks for _, blocks in subset.entries] == [5]

    def test_ties_break_lexicographically(self):
        # predecessor shares: a -> 0, b -> 5/11; x = 0.4 cuts between them
        ds = ProducerDataset((("b", 5), ("a", 5), ("c", 1)))
        subset = top_share_subset(ds, 0.4)
        assert [a for a, _ in subset.entries] == ["a"]

    def test_domain(self):
        with pytest.raises(DomainError):
            top_share_subset(dataset([1]), 1.5)
        with pytest.raises(DomainError):
            top_share_subset(dataset([0, 0]), 0.5)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=15), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_x(self, counts, x1, x2):
        if sum(counts) == 0:
            return
        ds = dataset(counts)
        lo, hi = sorted((x1, x2))
        assert len(top_share_subset(ds, lo).entries) <= len(top_share_subset(ds, hi).entries)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([7, 7, 7, 7]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_half(self):
        assert gini([9.0, 0.0]) == pytest.approx(0.5)

    def test_one_two_three(self):
        assert gini([1, 2, 3]) == pytest.approx(2 / 9, abs=1e-12)
        assert gini([1, 2, 3]) == pytest.approx(pairwise_gini([1, 2, 3]), abs=1e-12)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=9))
    def test_matches_pairwise_oracle(self, counts):
        if sum(counts) == 0:
            return
        assert gini(counts) == pytest.approx(pairwise_gini(counts), abs=1e-10)

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=10),
        st.sampled_from([0.5, 2.0, 3.0, 10.0]),
    )
    def test_scale_invariant(self, counts, lam):
        if sum(counts) == 0:
            return
        assert gini([lam * c for c in counts]) == pytest.approx(gini(counts), abs=1e-12)

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=6))
    def test_permutation_invariant(self, counts):
        if sum(counts) == 0:
            return
        base = gini(counts)
        for perm in permutations(counts):
            assert gini(list(perm)) == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=20))
    def test_range(self, counts):
        if sum(counts) == 0:
            return
        assert 0.0 <= gini(counts) < 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            gini([0, 0])


class TestEntropy:
    def test_uniform_21(self):
        assert shannon_entropy([10] * 21) == pytest.approx(math.log2(21), abs=1e-12)
        assert shannon_entropy([10] * 21) == pytest.approx(4.392, abs=5e-4)

    def test_single_producer(self):
        assert shannon_entropy([42]) == 0.0
        assert math.copysign(1.0, shannon_entropy([42])) == 1.0
        assert math.copysign(1.0, shannon_entropy([0, 7, 0])) == 1.0

    def test_three_one(self):
        expected = -0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)
        assert shannon_entropy([3, 1]) == pytest.approx(expected, abs=1e-12)
        assert shannon_entropy([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_zeros_contribute_nothing(self):
        assert shannon_entropy([3, 1, 0, 0]) == pytest.approx(shannon_entropy([3, 1]))

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=15))
    def test_bounded_by_log_n(self, counts):
        if sum(counts) == 0:
            return
        assert -1e-12 <= shannon_entropy(counts) <= math.log2(len(counts)) + 1e-12


class TestReport:
    def test_uniform_101(self):
        rep = report(dataset([4] * 101))
        full = rep.by_share("100")
        assert full.addresses == 101
        assert full.gini == pytest.approx(0.0, abs=1e-12)
        assert full.entropy_bits == pytest.approx(math.log2(101), abs=1e-12)
        assert full.entropy_bits == pytest.approx(6.658, abs=1e-2)

    def test_single_producer_everywhere(self):
        rep = report(dataset([9]))
        for share in ("100", "50", "33"):
            level = rep.by_share(share)
            assert (level.addresses, level.gini, level.entropy_bits) == (1, 0.0, 0.0)

    def test_five_three_two(self):
        rep = report(dataset([5, 3, 2]))
        half = rep.by_share("50")
        assert half.addresses == 1
        assert half.gini == 0.0
        assert half.entropy_bits == 0.0

    def test_subset_sizes_nest(self):
        rep = report(dataset([13, 7, 5, 3, 2, 1, 1]))
        sizes = [rep.by_share(s).addresses for s in ("100", "50", "33")]
        assert sizes[0] >= sizes[1] >= sizes[2]


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "producers.csv"
        path.write_text("address,blocks\nalice,5\nbob, 003 \n", encoding="utf-8")
        ds = load_producer_csv(path)
        assert ds.entries == (("alice", 5), ("bob", 3))

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start UTF-8 files with a BOM
        path = tmp_path / "producers.csv"
        path.write_text("address,blocks\nalice,5\nbob,3\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = load_producer_csv(path)
        assert ds.entries == (("alice", 5), ("bob", 3))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_producer_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("addr,count\nalice,5\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_producer_csv(path)

    @pytest.mark.parametrize(
        "raw", ["5.5", "1_0", "+4", "\u0661\u0662", "", "-", "--4", "1e3", "0x1f"]
    )
    def test_non_integer_blocks(self, raw, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"address,blocks\nalice,{raw}\n", encoding="utf-8")
        with pytest.raises(DomainError, match="base-10 integer"):
            load_producer_csv(path)

    def test_negative_count_reaches_range_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("address,blocks\nalice, -4 \n", encoding="utf-8")
        with pytest.raises(DomainError, match="non-negative"):
            load_producer_csv(path)

    def test_duplicate_addresses(self):
        with pytest.raises(StructuralError):
            ProducerDataset((("a", 1), ("a", 2)))

    def test_negative_blocks(self):
        with pytest.raises(DomainError):
            ProducerDataset((("a", -1),))

    def test_counts_up_to_exact_float_limit(self):
        # every count at or below 2**53 is an exact float, so the report is finite
        rep = report(dataset([MAX_BLOCKS, MAX_BLOCKS - 1, 1]))
        assert all(math.isfinite(level.gini) for level in rep.levels)
        with pytest.raises(DomainError, match=r"2\*\*53"):
            dataset([MAX_BLOCKS + 1, 1])

    def test_long_digit_strings_are_range_checked(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("address,blocks\nalice," + "0" * 5000 + "7\n", encoding="utf-8")
        assert load_producer_csv(path).entries == (("alice", 7),)
        path.write_text("address,blocks\nalice,-" + "9" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match="non-negative"):
            load_producer_csv(path)
