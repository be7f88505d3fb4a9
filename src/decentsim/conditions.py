"""Numerical deciders for the four incentive-system conditions.

Reward coverage (at least m nodes profit) is decided exactly.  The
no-gain-from-merging and no-gain-from-splitting conditions quantify over
continuum re-allocations, so they are decided by bounded brute force: all
node subsets up to a hard cap and all power splits on a uniform grid, one
per multiset of parts (exactly summed utilities ignore part order; DPoS
ties favour the parts, which come first) and one survivor set per merge
size (survivors do not change the merged state).  Searches above
MAX_ALLOCATIONS are refused.  Every reported witness carries enough detail
to be re-evaluated independently.  The even-distribution condition is a
limit statement about the power dynamics and is delegated to the simulator.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, islice
from typing import Iterable, Iterator

from .core import PlayerMap, PowerVector, effective_powers, percentile_power
from .errors import DomainError, SearchBoundError
from .incentives import (IncentiveModel, Scorer, SybilCostModel, parts_scorer, realized_utility,
                         sybil_cost, utility)

REL_TOL = 1e-9
DEFAULT_GRID = 20
DEFAULT_MAX_NODES = 6
MAX_ALLOCATIONS = 250_000  # per merge or split search: ~1.1 s at ~4.5 µs each (6 nodes)


@dataclass(frozen=True)
class GrResult:
    holds: bool
    profitable_nodes: int
    m: int


@dataclass(frozen=True)
class MergeWitness:
    """A merge of distinct-player nodes that beats running them separately."""

    merged_nodes: tuple[int, ...]
    surviving_nodes: tuple[int, ...]
    allocation: tuple[float, ...]
    separate_total: float
    merged_total: float

    @property
    def gain(self) -> float:
        return self.merged_total - self.separate_total


@dataclass(frozen=True)
class SplitWitness:
    """A split of one player's power into several nodes that beats one node."""

    player: str
    power: float
    parts: tuple[float, ...]
    single_utility: float
    split_total: float
    cost: float

    @property
    def gain(self) -> float:
        return self.split_total - self.cost - self.single_utility


@dataclass(frozen=True)
class SearchResult:
    holds: bool
    witness: MergeWitness | SplitWitness | None


@dataclass(frozen=True)
class LinearityResult:
    is_linear: bool
    max_violation: float


@dataclass(frozen=True)
class ConditionReport:
    gr: GrResult
    nd: SearchResult
    ns: SearchResult
    ed: str = "deferred"
    notes: tuple[str, ...] = field(default_factory=tuple)


def _tolerance(reference: float) -> float:
    return REL_TOL * max(1.0, abs(reference))


def check_gr(model: IncentiveModel, pv: PowerVector, m: int) -> GrResult:
    """Do at least m nodes earn strictly positive net profit?

    A stake node below the participation minimum cannot run and therefore
    does not earn.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    count = 0
    for i in range(len(pv)):
        u = utility(model, i, pv)
        if u is not None and u > 0:
            count += 1
    return GrResult(holds=count >= m, profitable_nodes=count, m=m)


def _compositions(remaining: int, slots: int, low: int) -> Iterator[tuple[int, ...]]:
    """Each way to write ``remaining`` as ``slots`` integers >= ``low``, none
    below the one before it, in lexicographic order."""
    if slots == 1:
        if remaining >= low:
            yield (remaining,)
        return
    for first in range(low, remaining // slots + 1):
        for rest in _compositions(remaining - first, slots - 1, first):
            yield (first, *rest)


def grid_allocations(total: float, parts: int, grid: int) -> Iterator[tuple[float, ...]]:
    """All strictly positive splits of ``total`` into ``parts`` grid cells,
    one per multiset of parts.

    Each part receives an integer number (>= 1) of ``grid`` equal shares,
    no fewer than the part before it, so the enumeration covers the simplex
    at resolution total/grid up to part order, in lexicographic order.
    """
    if parts < 1 or grid < parts:
        return
    unit = total / grid
    for cells in _compositions(grid, parts, 1):
        yield tuple([c * unit for c in cells])


def _check_search_size(what: str, grid: int, searches: Iterable[int]) -> int:
    """Refuse, once past MAX_ALLOCATIONS, searches of grid splits into the given
    part counts, each counted by walking (once, up to one past the bound) the
    compositions ``grid_allocations`` scales; else return the count."""
    size = cache(lambda t: sum(1 for _ in islice(_compositions(grid, t, 1), MAX_ALLOCATIONS + 1)))
    for count in accumulate(map(size, searches), initial=0):
        if count > MAX_ALLOCATIONS:
            raise SearchBoundError(f"the {what} search would score at least {count} "
                                   f"grid allocations, above the bound of {MAX_ALLOCATIONS}")
    return count


def _merges(pm: PlayerMap, m: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each distinct-player node set that counts, once, with its survivor order
    cut to size - 1 nodes: for each k up to its length, its first k nodes are
    the first survivor set of k nodes (in ``combinations`` order) that leaves
    fewer than m players running.  A survivor adds a running player only if its
    owner runs no node outside the set, and at most m - 1 - |outside| may; so
    the order is the members whose owner runs a node outside or that are among
    the first m - 1 - |outside| others.  Every player with no node in a set of
    s nodes runs one outside it, so sets of at most players + 1 - m nodes have
    no survivor that counts and are skipped.  A set that counts thus holds at
    least players + 1 - m nodes whose owner runs no other, that is it leaves
    out at most m - 1 - (players running several nodes) of them, so with fewer
    one-node players there is none.  The sets are walked in ``combinations``
    order, node by node, and a branch ends once the owners not yet in the set
    cannot fill it or it leaves out too many one-node players, so the walk
    visits only sets that count and their prefixes."""
    owners = pm.owners
    nodes = {owner: owners.count(owner) for owner in owners}
    players = len(nodes)
    alone = [nodes[owner] == 1 for owner in owners]
    spare = m - 1 - (players - sum(alone))  # one-node players a counting set may leave out
    if spare < 0:
        return
    n = len(pm)
    alone_from = list(accumulate(reversed(alone), initial=0))[::-1]  # one-node players in i..
    last = {owner: i for i, owner in enumerate(owners)}
    # distinct owners in i..: each counted at its last node
    owners_from = list(accumulate((last[owners[i]] == i for i in reversed(range(n))),
                                  initial=0))[::-1]

    def sets(size: int) -> Iterator[tuple[int, ...]]:
        # one frame per chosen node on an explicit stack, so sets of any size
        # walk at a fixed Python stack depth
        if alone_from[0] - spare > size:
            return
        chosen: list[int] = []
        used: set[str] = set()
        ends: list[int] = []  # sorted last nodes of the used owners
        frames = [[0, 0]]  # per depth: next node to try, one-node players left out
        while frames:
            frame = frames[-1]
            i, left_out = frame
            need = size - len(chosen)
            unused = owners_from[i] - (len(ends) - bisect_left(ends, i))  # owners free in i..
            if left_out > spare or unused < need:
                frames.pop()
                if chosen:
                    owner = owners[chosen.pop()]
                    used.remove(owner)
                    ends.remove(last[owner])
                continue
            frame[0], frame[1] = i + 1, left_out + alone[i]
            owner = owners[i]
            # of the one-node players after i, all but spare - left_out must join
            if owner in used or alone_from[i + 1] - (spare - left_out) > need - 1:
                continue
            if need == 1:
                yield (*chosen, i)
                continue
            chosen.append(i)
            used.add(owner)
            insort(ends, last[owner])
            frames.append([i + 1, left_out])

    for size in range(max(2, players + 2 - m), players + 1):
        for subset in sets(size):
            lone = [i for i in subset if alone[i]]
            room = m - 1 - (players - len(lone))  # players - |lone| run a node outside
            barred = set(lone[room:])
            yield subset, tuple([i for i in subset if i not in barred][:size - 1])


def _best_split(score: Scorer, pool: float, parts: int, grid: int, baseline: float,
                cost: Scorer):
    """The first grid split of ``pool`` into ``parts`` nodes whose summed
    utility ``score(split)`` (against the search's fixed context) net of
    ``cost(split)`` beats ``baseline`` (beyond the tolerance) by the most, as
    (gain, split, summed utility, cost), or None."""
    best = None
    floor = baseline + _tolerance(baseline)
    for split in grid_allocations(pool, parts, grid):
        total = score(split)
        charge = cost(split)
        if total - charge > floor:
            gain = total - charge - baseline
            if best is None or gain > best[0]:
                best = (gain, split, total, charge)
    return best


def check_nd(
    model: IncentiveModel,
    pv: PowerVector,
    pm: PlayerMap,
    m: int,
    grid: int = DEFAULT_GRID,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SearchResult:
    """Can nodes run by different players profit by combining into fewer nodes?

    Only merges that leave fewer than m players running nodes count.  The
    combined power may be re-allocated arbitrarily among the surviving
    nodes; the grid discretizes that re-allocation.  Survivors decide only
    whether a merge counts, not its total, so each set that counts is scored
    once per survivor count k, on the first k nodes of its survivor order.
    Holds on equality.
    """
    n = len(pv)
    if n != len(pm):
        raise DomainError("power vector and player map must be parallel")
    if n > max_nodes:
        raise SearchBoundError(f"{n} nodes exceeds the merge search bound of {max_nodes}")
    counts = (k for _, survivors in _merges(pm, m) for k in range(1, len(survivors) + 1))
    if not _check_search_size("merge", grid, counts):
        return SearchResult(holds=True, witness=None)
    best: MergeWitness | None = None
    own = cache(lambda i: realized_utility(model, i, pv))
    for subset, survivors in _merges(pm, m):
        separate = math.fsum(own(i) for i in subset)
        pool = math.fsum(pv.powers[i] for i in subset)
        inside = set(subset)
        score = parts_scorer(model, (pv.powers[i] for i in range(n) if i not in inside))
        for k in range(1, len(survivors) + 1):
            found = _best_split(score, pool, k, grid, separate, lambda _: 0.0)
            if found is not None and (best is None or found[0] > best.gain):
                best = MergeWitness(subset, survivors[:k], found[1], separate, found[2])
    return SearchResult(holds=best is None, witness=best)


def check_ns(
    model: IncentiveModel,
    sybil: SybilCostModel,
    pv: PowerVector,
    pm: PlayerMap,
    delta: float,
    grid: int = DEFAULT_GRID,
    max_parts: int = DEFAULT_MAX_NODES,
) -> SearchResult:
    """Can a player at or above the delta-th percentile profit by splitting
    its power across several nodes, net of the multi-node cost?

    The split utilities and the single-node utility are evaluated against
    the other players' nodes as a fixed context, one split per multiset of
    parts (neither total nor cost depends on part order).  Holds on equality.
    """
    if len(pv) != len(pm):
        raise DomainError("power vector and player map must be parallel")
    if grid < 2:
        raise DomainError("grid must allow at least a two-way split")
    eps = effective_powers(pv, pm)
    threshold = percentile_power(list(eps.values()), delta)
    audited = [(player, power) for player, power in eps.items() if power >= threshold]
    part_counts = range(2, min(max_parts, grid) + 1)
    _check_search_size("split", grid, (parts for _ in audited for parts in part_counts))
    best: SplitWitness | None = None
    for player, power in audited:
        context = (p for p, owner in zip(pv.powers, pm.owners) if owner != player)
        score = parts_scorer(model, context)
        single = score((power,))
        for parts_count in part_counts:
            # sybil_cost of two or more parts, scored against the same context
            found = _best_split(score, power, parts_count, grid, single,
                                lambda parts: sybil.cost(score, parts))
            if found is not None and (best is None or found[0] > best.gain):
                best = SplitWitness(player, power, found[1], single, found[2], found[3])
    return SearchResult(holds=best is None, witness=best)


def check_linearity(
    model: IncentiveModel,
    trials: int,
    seed: int,
    total_power: float = 10.0,
) -> LinearityResult:
    """Is utility proportional to power within states of a fixed total?

    Samples random states of 2 to 5 nodes from ``random.Random(seed)``,
    each rescaled to the given total power, and measures the spread of
    utility-per-power across nodes.  A state containing a node that cannot
    run counts as an unbounded violation.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        n = rng.randrange(2, 6)
        raw = [rng.random() + 0.05 for _ in range(n)]
        rescale = total_power / math.fsum(raw)
        powers = tuple(x * rescale for x in raw)
        pv = PowerVector(powers)
        ratios = []
        for i in range(n):
            u = utility(model, i, pv)
            if u is None:
                return LinearityResult(is_linear=False, max_violation=math.inf)
            ratios.append(u / powers[i])
        scale = max(abs(r) for r in ratios)
        if scale == 0.0:
            continue
        worst = max(worst, (max(ratios) - min(ratios)) / scale)
    return LinearityResult(is_linear=worst <= REL_TOL, max_violation=worst)


def verify_merge_witness(
    model: IncentiveModel, pv: PowerVector, witness: MergeWitness
) -> float:
    """Recompute a merge witness's gain from scratch."""
    separate = math.fsum(
        realized_utility(model, i, pv) for i in witness.merged_nodes
    )
    keep = [
        pv.powers[i] for i in range(len(pv)) if i not in set(witness.merged_nodes)
    ]
    merged_pv = PowerVector(tuple(list(witness.allocation) + keep))
    merged = math.fsum(
        realized_utility(model, j, merged_pv)
        for j in range(len(witness.allocation))
    )
    return merged - separate


def verify_split_witness(
    model: IncentiveModel,
    sybil: SybilCostModel,
    pv: PowerVector,
    pm: PlayerMap,
    witness: SplitWitness,
) -> float:
    """Recompute a split witness's gain from scratch."""
    context = tuple(
        pv.powers[i] for i in range(len(pv)) if pm.owners[i] != witness.player
    )
    single = realized_utility(model, 0, PowerVector((witness.power, *context)))
    split_pv = PowerVector(witness.parts + context)
    split_total = math.fsum(
        realized_utility(model, j, split_pv) for j in range(len(witness.parts))
    )
    cost = sybil_cost(sybil, model, witness.parts, context)
    return split_total - cost - single


def check_all(
    model: IncentiveModel,
    sybil: SybilCostModel,
    pv: PowerVector,
    pm: PlayerMap,
    m: int,
    delta: float = 0.0,
    grid: int = DEFAULT_GRID,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> ConditionReport:
    """Run the three statically decidable condition checks."""
    gr = check_gr(model, pv, m)
    nd = check_nd(model, pv, pm, m, grid=grid, max_nodes=max_nodes)
    ns = check_ns(model, sybil, pv, pm, delta, grid=grid, max_parts=max_nodes)
    return ConditionReport(gr=gr, nd=nd, ns=ns, notes=model.notes(pv.powers))
