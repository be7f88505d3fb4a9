"""The catch-up probability upper bound, exactly or by Monte Carlo.

Two nodes race: a rich one that gains the capped reinvestment amount rho
per win and a poor one that starts at fraction f of the rich power.  The
poor node catches up if the power ratio ever reaches 1 + epsilon.  A
closed form gives the chance of closing the whole remaining gap in a
single poor win ("jump"); between jumps the poor node climbs in relative
micro-steps of size u.  The bound G(f, rho) for the target epsilon is the
expected union probability of the jump events seen at every rich-gain
arrival along that micro-step walk.  The max-step strategy is the
physical walk instead: both contenders gain rho per win, and success
means walking into the target zone.

``exact_g`` computes every strategy's bound by dynamic programming;
``estimate_g`` samples the micro and hybrid walks by Monte Carlo, as the
reference the exact path is tested against.  Both report contributions
per rich-gain count k, so the discarded tail beyond k_max is visible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .core import check_float_sized
from .errors import BudgetError, DomainError

CHUNK_SIZE = 1_000_000

# most lines k = 0..k_max a result may list in its per-line table
MAX_LINES = 10**6

# most cells one exact DP may hold, (k_max + 1) x its widest line, and most
# samples x lines one Monte Carlo estimate may draw
MAX_CELLS = 4e9

# most cells one exact DP line may hold: climb counts (micro, hybrid) or
# poor wins (max-step)
MAX_LINE_CELLS = 10**7

# most f x epsilon x rho cells one sweep may list: its rows take about
# 1.7 KB each, so about 180 MB at the cap
MAX_SWEEP_CELLS = 10**5

STRATEGIES = ("micro", "max-step", "hybrid")

# Observed ratios from a large public work-lottery pool plus the reward
# cap of its host system, kept as documented presets for sweeps.
REAL_WORLD_ANCHORS = {
    "f_0": 7.58e-9,
    "f_15": 1.44e-5,
    "f_50": 6.27e-5,
    "rho_max": 9.5e-4,
}


@dataclass(frozen=True)
class WalkParams:
    f: float
    rho: float
    epsilon: float = 0.0
    u: float = 1e-3
    k_max: int = 100
    samples: int = 100_000
    seed: int = 0
    strategy: str = "micro"
    n_jump: int = 1

    def __post_init__(self) -> None:
        for name in ("f", "rho", "epsilon", "u"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not 0 < self.f <= 1:
            raise DomainError("f must lie in (0, 1]")
        if not self.rho > 0:
            raise DomainError("rho must be > 0")
        if self.epsilon < 0:
            raise DomainError("epsilon must be >= 0")
        if not self.u > 0:
            raise DomainError("u must be > 0")
        if self.k_max < 1:
            raise DomainError("k_max must be >= 1")
        check_float_sized(k_max=self.k_max, n_jump=self.n_jump)
        if not math.isfinite(1.0 + self.k_max * self.rho):
            raise DomainError(
                f"the rich power 1 + k_max*rho leaves the float range: "
                f"rho = {self.rho!r}, k_max = {self.k_max}"
            )
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"strategy must be one of {STRATEGIES}")
        if self.n_jump < 1:
            raise DomainError("n_jump must be >= 1")

    @property
    def reach(self) -> float:
        """(1+eps)*f: the micro walk reads f and epsilon only through it."""
        return (1.0 + self.epsilon) * self.f


@dataclass(frozen=True)
class WalkState:
    """Normalized race state: rich power a (starts at 1), poor power b,
    and the rich-gain count k."""

    a: float
    b: float
    k: int = 0

    def __post_init__(self) -> None:
        if self.a < 1 or not self.b > 0 or self.k < 0:
            raise DomainError("walk state requires a >= 1, b > 0, k >= 0")


def jump_prob(state: WalkState, epsilon: float, rho: float) -> float:
    """Chance that the poor node closes the entire remaining gap in one win.

    Returns 1 when the state already satisfies the target ratio.
    """
    gap = state.a / ((1.0 + epsilon) * state.b) - 1.0
    if gap <= 0:
        return 1.0
    return rho / (rho + state.a * gap)


@dataclass(frozen=True)
class BoundEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    std_error: float
    p0: float
    p0_std_error: float
    per_k: tuple[float, ...]
    dense_success_mass: float
    samples: int
    params: WalkParams


def _check_budget(params: WalkParams) -> None:
    if params.samples * params.k_max > MAX_CELLS:
        raise BudgetError(
            f"samples*k_max = {params.samples * params.k_max:.3g} exceeds "
            f"the cap of {MAX_CELLS:.3g}"
        )


def _check_lines(params: WalkParams) -> None:
    if params.k_max + 1 > MAX_LINES:
        raise BudgetError(f"k_max + 1 = {params.k_max + 1} lines exceed the cap of {MAX_LINES}")


def _check_climb_range(params: WalkParams) -> None:
    # climb counts are int64 and compared exactly with the climbs needed
    # on the last line, which must therefore stay below 2**53
    r_last = (1.0 + params.k_max * params.rho) / params.reach
    if not math.log(r_last) / math.log1p(params.u) < 2.0**53:
        raise DomainError(
            "the walk needs more than 2**53 micro-steps to reach the target; use a coarser u"
        )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # fixed-width chunks keyed by index keep results independent of how
    # many workers process them
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, chunk_index]))


def _trivial_estimate(params: WalkParams) -> BoundEstimate:
    per_k = tuple([1.0] + [0.0] * params.k_max)
    return BoundEstimate(
        estimate=1.0,
        ci_low=1.0,
        ci_high=1.0,
        std_error=0.0,
        p0=1.0,
        p0_std_error=0.0,
        per_k=per_k,
        dense_success_mass=0.0,
        samples=params.samples,
        params=params,
    )


# partial sums of one chunk: score, score**2, p0, p0**2, dense successes
# and the per-line contributions
ChunkSums = tuple[float, float, float, float, float, np.ndarray]


def _climbs_needed(params: WalkParams, a: float) -> int:
    """N_k: climbs that take the poor power to the target on line a."""
    r_k = a / params.reach
    return math.ceil(math.log(r_k) / math.log1p(params.u))


def _line_jump(params: WalkParams, a: float, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Jump probabilities at climb counts ``c`` on the line with rich
    power a, written to ``out``: rho / (rho + a * gap) with
    gap = R_k * (1+u)**-c - 1."""
    rho, log1u = params.rho, math.log1p(params.u)
    r_k = a / params.reach
    np.multiply(c, -log1u, out=out)
    np.exp(out, out=out)
    out *= a * r_k
    out += rho - a
    np.divide(rho, out, out=out)
    if params.strategy == "hybrid":
        # jump only physically available within n_jump max-size wins,
        # that is while b >= a/(1+eps) - n_jump*rho
        floor_b = a / (1.0 + params.epsilon) - params.n_jump * rho
        if floor_b > params.f:
            out[c < math.ceil(math.log(floor_b / params.f) / log1u)] = 0.0
    return out


def _micro_chunk(params: WalkParams, chunk_index: int, m: int) -> ChunkSums:
    """Walk ``m`` samples of the micro (or hybrid) process on one chunk.

    The poor power is b = f * (1+u)**c for an integer climb count c, so
    a / ((1+eps) b) = R_k * (1+u)**-c with the per-line scalar
    R_k = a / ((1+eps) f), and the target is crossed once c reaches the
    scalar N_k = ceil(log(R_k) / log1p(u)).  Per-sample arrays hold the
    alive samples only, in sample order; they are compacted on lines
    where some sample completes.
    """
    rho, u = params.rho, params.u
    rng = _chunk_rng(params.seed, chunk_index)
    ids = np.arange(m)  # sample index of each alive sample
    c = np.zeros(m, dtype=np.int64)
    survive = np.ones(m)  # probability no jump fired so far
    score = np.zeros(m)
    final_score = np.zeros(m)
    dense = np.zeros(m)
    per_k = np.zeros(params.k_max + 1)
    p0_sum = p0_sq_sum = 0.0
    # work buffers, sliced to the alive count: every per-line op is in place
    jump_buf, contribution_buf, climbs_buf = np.empty(m), np.empty(m), np.empty(m)
    for k in range(params.k_max + 1):
        n = c.size
        if n == 0:
            break
        jump, contribution, climbs = jump_buf[:n], contribution_buf[:n], climbs_buf[:n]
        a = 1.0 + k * rho
        n_k = _climbs_needed(params, a)
        _line_jump(params, a, c, out=jump)
        np.multiply(survive, jump, out=contribution)
        per_k[k] = float(contribution.sum())
        score += contribution
        survive -= contribution
        # climbs on this line: geometric in the poor-win probability
        # q = rho / (rho + a*u) per micro-step, capped at the n_k needed
        rng.random(out=climbs)
        np.log(climbs, out=climbs)
        climbs /= -math.log1p(a * u / rho)
        np.floor(climbs, out=climbs)
        np.minimum(climbs, n_k, out=climbs)
        np.add(c, climbs, out=c, casting="unsafe")
        done = c >= n_k
        if k == 0:
            p0 = contribution
            p0[done] += survive[done]
            p0_sum, p0_sq_sum = float(p0.sum()), float((p0**2).sum())
        if done.any():
            finished = ids[done]
            final_score[finished] = score[done] + survive[done]  # total score 1
            dense[finished] = survive[done]
            keep = ~done
            ids, c, survive, score = ids[keep], c[keep], survive[keep], score[keep]
    final_score[ids] = score
    return (
        float(final_score.sum()),
        float((final_score**2).sum()),
        p0_sum,
        p0_sq_sum,
        float(dense.sum()),
        per_k,
    )


def usable_cpus() -> int:
    """The CPUs this process may run on, at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _run_chunks(params: WalkParams) -> list[ChunkSums]:
    """Partial sums of every chunk, in chunk-index order.

    Chunks run on a process pool when there are several and more than one
    usable CPU; each draws from its own (seed, chunk index) generator, so
    the result does not depend on where or in which order chunks run.
    """
    sizes = [
        min(CHUNK_SIZE, params.samples - start) for start in range(0, params.samples, CHUNK_SIZE)
    ]
    workers = min(len(sizes), usable_cpus())
    if workers > 1:
        # imported here: single-chunk calls never pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: numpy's BLAS has threads running already
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(_micro_chunk, repeat(params), range(len(sizes)), sizes))
    return [_micro_chunk(params, i, m) for i, m in enumerate(sizes)]


def _finalize(params: WalkParams, chunks: list[ChunkSums]) -> BoundEstimate:
    n = params.samples
    s, s2, p0s, p0s2, dense = (math.fsum(column) for column in list(zip(*chunks))[:5])
    per_k = np.zeros(params.k_max + 1)
    for chunk in chunks:
        per_k += chunk[5]
    estimate = s / n
    variance = max(s2 / n - estimate**2, 0.0)
    std_error = math.sqrt(variance / n)
    half = 1.96 * std_error
    p0 = p0s / n
    p0_var = max(p0s2 / n - p0**2, 0.0)
    return BoundEstimate(
        estimate=estimate,
        ci_low=max(estimate - half, 0.0),
        ci_high=min(estimate + half, 1.0),
        std_error=std_error,
        p0=p0,
        p0_std_error=math.sqrt(p0_var / n),
        per_k=tuple(per_k / n),
        dense_success_mass=dense / n,
        samples=n,
        params=params,
    )


def estimate_g(params: WalkParams) -> BoundEstimate:
    """Monte Carlo estimate of the micro or hybrid catch-up bound."""
    if params.strategy == "max-step":
        raise DomainError("estimate_g covers the micro and hybrid strategies only")
    _check_budget(params)
    _check_lines(params)
    if 1.0 / params.f <= 1.0 + params.epsilon:
        return _trivial_estimate(params)
    _check_climb_range(params)
    return _finalize(params, _run_chunks(params))


def _check_dp_size(params: WalkParams, formula: str, cells: float, width: float) -> None:
    """Refuse a DP over the cell cap, the line cap or the line-width cap,
    before any array is built."""
    if cells > MAX_CELLS:
        raise BudgetError(
            f"{formula} = {cells:.3g} exact DP cells exceed the cap of {MAX_CELLS:.3g}"
        )
    _check_lines(params)
    if width > MAX_LINE_CELLS:
        raise BudgetError(f"one DP line of {width:.3g} cells exceeds the cap of {MAX_LINE_CELLS}")


def _micro_lines(params: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """The expectation ``_micro_chunk`` samples, per line: jump and dense
    success mass.

    Line k's survival mass over climb counts c < N_{k-1} loses mass * jump
    to per_k[k]; the rest, w, climbs at least j steps with probability
    q**j, q = 1 / (1 + a*u/rho).  With S[c] = q*S[c-1] + w[c] over
    c < N_k, the next line's mass is (1-q) * S and q * S[N_k - 1]
    completes densely.
    """
    _check_climb_range(params)
    width = _climbs_needed(params, 1.0 + params.k_max * params.rho)
    _check_dp_size(params, "(k_max+1)*N", (params.k_max + 1) * width, width)
    mass = np.ones(1)
    per_k = np.zeros(params.k_max + 1)
    dense = np.zeros(params.k_max + 1)
    for k in range(params.k_max + 1):
        a = 1.0 + k * params.rho
        contribution = _line_jump(params, a, np.arange(mass.size), out=np.empty(mass.size))
        contribution *= mass
        per_k[k] = float(contribution.sum())
        prefix = np.zeros(_climbs_needed(params, a))
        np.subtract(mass, contribution, out=prefix[: mass.size])
        # S[c] = sum over j of q**j w[c-j], by doubling the summed window;
        # once q**shift underflows the longer terms are all 0
        log_q = -math.log1p(a * params.u / params.rho)
        shift = 1
        while shift < prefix.size and (q_shift := math.exp(shift * log_q)) > 0.0:
            prefix[shift:] += q_shift * prefix[:-shift]
            shift *= 2
        dense[k] = math.exp(log_q) * prefix[-1]
        mass = prefix * -math.expm1(log_q)
    return per_k, dense


def _max_step_lines(params: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """Success mass of the max-step walk per line, on its win lattice.

    Line i holds the walks with i rich wins, a = 1 + i*rho, over poor wins
    j, b = f + j*rho.  At (i, j) the poor node wins the next block with
    q_j = b / (a + b); the line's mass follows S[j] = q_{j-1}*S[j-1] + w[j]
    for the inflow w, and reaches the target at the first j with
    a / b <= 1 + eps, N_i.  That success, q * S at N_i - 1, is per_k[i];
    (1-q) * S moves on to line i + 1, and past k_max it is dropped.
    Rich wins only move away from the target, so no other step succeeds.
    """
    one_eps, f, rho = 1.0 + params.epsilon, params.f, params.rho
    a_last = 1.0 + params.k_max * rho
    if not math.isfinite(2.0 * a_last):  # every line's a + b, as b < a there
        raise DomainError(f"the max-step sum a + b < 2*(1 + k_max*rho) leaves the float range: "
                          f"rho = {rho!r}, k_max = {params.k_max}")
    # in floats: at a fine rho the width is far past any array size
    width = (a_last / one_eps - f) / rho
    _check_dp_size(params, "(k_max+1)*N", (params.k_max + 1) * width, width)
    # b up to a poor-win count that meets the target on the last line, in
    # the rounded floats the target test uses; the estimate above misses
    # it only where adding rho to b rounds away
    top = max(math.ceil(width), 0) + 1
    while not a_last / (f + top * rho) <= one_eps:
        if top >= MAX_LINE_CELLS:
            raise BudgetError(f"one DP line exceeds the cap of {MAX_LINE_CELLS} cells")
        top = min(2 * top, MAX_LINE_CELLS)
    b = f + np.arange(top + 1) * rho
    mass = np.ones(1)
    per_k = np.zeros(params.k_max + 1)
    for i in range(params.k_max + 1):
        a = 1.0 + i * rho
        with np.errstate(over="ignore"):  # an inf ratio at a subnormal f is past the target
            n = int(np.count_nonzero(a / b > one_eps))
        q = b[:n] / (a + b[:n])
        line = np.zeros(n)
        line[: mass.size] = mass
        # S[j] = sum over t of q_{j-t}...q_{j-1} w[j-t], by doubling the
        # summed window; coef[j] is the product of the window's q's, and
        # once every product underflows the longer terms are all 0
        coef = np.zeros(n)
        coef[1:] = q[:-1]
        shift = 1
        while shift < n and coef.any():
            line[shift:] += coef[shift:] * line[:-shift]
            coef[shift:] *= coef[:-shift]
            shift *= 2
        per_k[i] = q[-1] * line[-1]
        mass = line * (1.0 - q)
    return per_k, np.zeros(params.k_max + 1)


def exact_g(params: WalkParams) -> BoundEstimate:
    """The catch-up bound by dynamic programming, for every strategy.

    Samples and seed play no part: the result has no sampling error.
    """
    if 1.0 / params.f <= 1.0 + params.epsilon:
        # the per-line table alone holds k_max + 1 cells
        _check_dp_size(params, "k_max+1", params.k_max + 1, 0)
        return replace(_trivial_estimate(params), samples=0)
    lines = _max_step_lines if params.strategy == "max-step" else _micro_lines
    per_k, dense = lines(params)
    estimate = math.fsum(per_k) + math.fsum(dense)
    return BoundEstimate(
        estimate=estimate,
        ci_low=estimate,
        ci_high=estimate,
        std_error=0.0,
        p0=per_k[0] + dense[0],
        p0_std_error=0.0,
        per_k=tuple(per_k.tolist()),
        dense_success_mass=math.fsum(dense),
        samples=0,
        params=params,
    )


@dataclass(frozen=True)
class SweepRow:
    f: float
    epsilon: float
    rho: float
    estimate: float
    ci_low: float
    ci_high: float


def sweep(
    f_values: list[float],
    epsilon_values: list[float],
    rho_values: list[float],
    params: WalkParams,
) -> list[SweepRow]:
    """The bound over a full f x epsilon x rho grid.  The micro bound reads
    f and epsilon only through (1+eps)*f, so micro cells sharing it and rho
    share one DP; hybrid and max-step cells each run their own."""
    if not f_values or not epsilon_values or not rho_values:
        raise DomainError("sweep grids must be non-empty")
    cells = len(f_values) * len(epsilon_values) * len(rho_values)
    if cells > MAX_SWEEP_CELLS:
        raise BudgetError(f"sweep of {cells} cells exceeds the cap of {MAX_SWEEP_CELLS}")
    micro = params.strategy == "micro"
    solved: dict[tuple, BoundEstimate] = {}
    rows = []
    for rho in rho_values:
        for eps in epsilon_values:
            for f in f_values:
                cell = replace(params, f=f, epsilon=eps, rho=rho)
                key = (1.0 / f <= 1.0 + eps, cell.reach, rho) if micro else (f, eps, rho)
                if key not in solved:
                    solved[key] = exact_g(cell)
                result = solved[key]
                rows.append(SweepRow(f, eps, rho, result.estimate, result.ci_low, result.ci_high))
    return rows


def u_sensitivity(
    params: WalkParams, u_values: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
) -> list[tuple[float, float]]:
    """The bound at several micro-step granularities."""
    return [(u, exact_g(replace(params, u=u)).estimate) for u in u_values]


def real_world_anchors() -> dict[str, float]:
    """Documented reference constants for sweep presets."""
    return dict(REAL_WORLD_ANCHORS)
