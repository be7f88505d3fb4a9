"""Concentration metrics over block-producer datasets.

A dataset maps producer addresses to the number of blocks each generated.
Reports cover the whole dataset and the leading subsets that jointly hold
50% and 33% of all blocks, since those thresholds decide who could stall
or rewrite the chain.  Entropy is computed over addresses, so it is an
upper bound on the dispersion across real operators.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, StructuralError


# gini and entropy take the counts as floats, and 2**53 is the largest
# size at which every integer is an exact float
MAX_BLOCKS = 2**53
_TOO_MANY_BLOCKS = f"block counts must be at most 2**53 = {MAX_BLOCKS}, the exact-float limit"


@dataclass(frozen=True)
class ProducerDataset:
    """Unique addresses with block counts in [0, 2**53]."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        addresses = [a for a, _ in self.entries]
        if len(set(addresses)) != len(addresses):
            raise StructuralError("addresses must be unique")
        if any(blocks < 0 for _, blocks in self.entries):
            raise DomainError("block counts must be non-negative")
        if any(blocks > MAX_BLOCKS for _, blocks in self.entries):
            raise DomainError(_TOO_MANY_BLOCKS)

    def sorted_entries(self) -> list[tuple[str, int]]:
        """Descending by blocks; ties broken by address, so subset
        membership is deterministic."""
        return sorted(self.entries, key=lambda e: (-e[1], e[0]))

    def counts(self) -> list[int]:
        return [blocks for _, blocks in self.sorted_entries()]

    def total_blocks(self) -> int:
        return sum(blocks for _, blocks in self.entries)


def load_producer_csv(path: str | Path) -> ProducerDataset:
    """Read an `address,blocks` CSV with a header row."""
    path = Path(path)
    if not path.is_file():
        raise DomainError(f"producer dataset not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:  # a BOM is dropped
            reader = csv.reader(handle)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise DomainError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows or [h.strip().lower() for h in rows[0]] != ["address", "blocks"]:
        raise DomainError(f"{path}: expected header 'address,blocks'")
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DomainError(f"{path}:{line_no}: expected two columns")
        address, raw = row[0].strip(), row[1].strip()
        # ASCII digits only: int() would also take "1_0", "+4" and
        # other scripts' digits; a sign stays for the non-negative check
        if not re.fullmatch(r"-?[0-9]+", raw):
            raise DomainError(
                f"{path}:{line_no}: blocks must be a base-10 integer, got {raw!r}"
            )
        # int() refuses strings of over 4300 digits, leading zeros included
        negative, digits = raw[0] == "-", raw.lstrip("-").lstrip("0") or "0"
        if len(digits) > len(str(MAX_BLOCKS)):
            raise DomainError(f"{path}:{line_no}: " + (
                "block counts must be non-negative" if negative else _TOO_MANY_BLOCKS
            ))
        entries.append((address, -int(digits) if negative else int(digits)))
    return ProducerDataset(tuple(entries))


def top_share_subset(ds: ProducerDataset, x: float) -> ProducerDataset:
    """Leading producers that jointly hold the fraction x of all blocks.

    An address joins while the cumulative share of the addresses strictly
    before it stays below x, so boundary entries are excluded.
    """
    if not 0 <= x <= 1:
        raise DomainError("x must lie in [0, 1]")
    total = ds.total_blocks()
    if total == 0:
        raise DomainError("dataset has no generated blocks")
    kept = []
    cumulative = 0
    for address, blocks in ds.sorted_entries():
        if cumulative / total < x:
            kept.append((address, blocks))
            cumulative += blocks
        else:
            break
    return ProducerDataset(tuple(kept))


def gini(counts: list[float]) -> float:
    """Mean absolute difference over all ordered pairs, normalized by
    twice the mean: sum |x_i - x_j| / (2 n sum x)."""
    if not counts:
        raise DomainError("gini of an empty list is undefined")
    if any(c < 0 for c in counts):
        raise DomainError("gini requires non-negative values")
    total = math.fsum(counts)
    if total == 0:
        raise DomainError("gini requires at least one positive value")
    ordered = sorted(counts)
    n = len(ordered)
    weighted = math.fsum(i * x for i, x in enumerate(ordered, start=1))
    return 2.0 * weighted / (n * total) - (n + 1) / n


def shannon_entropy(counts: list[float]) -> float:
    """Entropy in bits of the block-share distribution; zero counts
    contribute nothing."""
    if not counts:
        raise DomainError("entropy of an empty list is undefined")
    if any(c < 0 for c in counts):
        raise DomainError("entropy requires non-negative values")
    total = math.fsum(counts)
    if total == 0:
        raise DomainError("entropy requires at least one positive value")
    # 0.0 - x rather than -x: a single count gives +0.0, not -0.0
    return 0.0 - math.fsum(
        (c / total) * math.log2(c / total) for c in counts if c > 0
    )


SHARE_LEVELS = (("100", 1.0), ("50", 0.5), ("33", 1.0 / 3.0))


@dataclass(frozen=True)
class ShareMetrics:
    share: str
    addresses: int
    gini: float
    entropy_bits: float


@dataclass(frozen=True)
class MetricsReport:
    levels: tuple[ShareMetrics, ...]

    def by_share(self, share: str) -> ShareMetrics:
        for level in self.levels:
            if level.share == share:
                return level
        raise KeyError(share)


def report(ds: ProducerDataset) -> MetricsReport:
    """Size, spread and dispersion of the producer set at full, half and
    one-third block share."""
    levels = []
    for name, x in SHARE_LEVELS:
        subset = top_share_subset(ds, x)
        counts = [float(c) for c in subset.counts()]
        levels.append(
            ShareMetrics(
                share=name,
                addresses=len(counts),
                gini=gini(counts),
                entropy_bits=shannon_entropy(counts),
            )
        )
    return MetricsReport(levels=tuple(levels))
