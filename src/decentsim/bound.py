"""The catch-up probability upper bound, exactly or by Monte Carlo.

Two nodes race: a rich one that gains the capped reinvestment amount rho
per win and a poor one that starts at fraction f of the rich power.  The
poor node catches up if the power ratio ever reaches 1 + epsilon.  A
closed form gives the chance of closing the whole remaining gap in a
single poor win ("jump"); between jumps the poor node climbs in relative
micro-steps of size u.  The bound G(f, rho) for the target epsilon is the
expected union probability of the jump events seen at every rich-gain
arrival along that micro-step walk.

``exact_g`` computes that expectation for the micro and hybrid walks by
dynamic programming; ``estimate_g`` samples them, and the physical
max-step walk, by Monte Carlo, as the reference for the exact path and
the only path for max-step.  ``compute_g`` picks the path from the
strategy.  Both report contributions per rich-gain count k, so the
discarded tail beyond k_max is visible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import BudgetError, DomainError

CHUNK_SIZE = 1_000_000

# most lines k = 0..k_max a result may list in its per-line table
MAX_LINES = 10**6

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
    budget: float = 4e9

    def __post_init__(self) -> None:
        for name in ("f", "rho", "epsilon", "u", "budget"):
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
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"strategy must be one of {STRATEGIES}")
        if self.n_jump < 1:
            raise DomainError("n_jump must be >= 1")


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
    if params.samples * params.k_max > params.budget:
        raise BudgetError(
            f"samples*k_max = {params.samples * params.k_max:.3g} exceeds "
            f"budget {params.budget:.3g}"
        )


def _check_lines(params: WalkParams) -> None:
    if params.k_max + 1 > MAX_LINES:
        raise BudgetError(f"k_max + 1 = {params.k_max + 1} lines exceed the cap of {MAX_LINES}")


def _check_climb_range(params: WalkParams) -> None:
    # climb counts are int64 and compared exactly with the climbs needed
    # on the last line, which must therefore stay below 2**53
    r_last = (1.0 + params.k_max * params.rho) / ((1.0 + params.epsilon) * params.f)
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
    r_k = a / ((1.0 + params.epsilon) * params.f)
    return math.ceil(math.log(r_k) / math.log1p(params.u))


def _line_jump(params: WalkParams, a: float, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Jump probabilities at climb counts ``c`` on the line with rich
    power a, written to ``out``: rho / (rho + a * gap) with
    gap = R_k * (1+u)**-c - 1."""
    one_eps = 1.0 + params.epsilon
    rho, log1u = params.rho, math.log1p(params.u)
    r_k = a / (one_eps * params.f)
    np.multiply(c, -log1u, out=out)
    np.exp(out, out=out)
    out *= a * r_k
    out += rho - a
    np.divide(rho, out, out=out)
    if params.strategy == "hybrid":
        # jump only physically available within n_jump max-size wins,
        # that is while b >= a/(1+eps) - n_jump*rho
        floor_b = a / one_eps - params.n_jump * rho
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


def _max_step_chunk(params: WalkParams, chunk_index: int, m: int) -> ChunkSums:
    """Physical capped walk: both contenders gain at most rho per win and
    success means actually walking into the target zone."""
    one_eps = 1.0 + params.epsilon
    rho = params.rho
    max_steps = params.k_max + int(math.ceil((1.0 + params.k_max * rho) / rho)) + 2
    rng = _chunk_rng(params.seed, chunk_index)
    a = np.ones(m)
    b = np.full(m, params.f)
    k = np.zeros(m, dtype=np.int64)
    score = np.zeros(m)
    p0 = np.zeros(m)
    per_k = np.zeros(params.k_max + 1)
    alive = np.ones(m, dtype=bool)  # estimate_g handles a start on target
    for _ in range(max_steps):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        q = b[idx] / (a[idx] + b[idx])
        poor_wins = rng.random(idx.size) < q
        b[idx[poor_wins]] += rho
        rich = idx[~poor_wins]
        a[rich] += rho
        k[rich] += 1
        reached = a[idx] / b[idx] <= one_eps
        over = k[idx] > params.k_max
        hits = idx[reached & ~over]
        score[hits] = 1.0
        np.add.at(per_k, k[hits], 1.0)
        p0[hits[k[hits] == 0]] = 1.0
        alive[idx[reached | over]] = False
    return (
        float(score.sum()),
        float((score**2).sum()),
        float(p0.sum()),
        float((p0**2).sum()),
        0.0,
        per_k,
    )


def _run_chunks(
    chunk_fn: Callable[[WalkParams, int, int], ChunkSums], params: WalkParams
) -> list[ChunkSums]:
    """Partial sums of every chunk, in chunk-index order.

    Chunks run on a process pool when there are several and more than one
    usable CPU; each draws from its own (seed, chunk index) generator, so
    the result does not depend on where or in which order chunks run.
    """
    sizes = [
        min(CHUNK_SIZE, params.samples - start) for start in range(0, params.samples, CHUNK_SIZE)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(sizes), cpus or 1)
    if workers > 1:
        # imported here: single-chunk calls never pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: numpy's BLAS has threads running already
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(chunk_fn, repeat(params), range(len(sizes)), sizes))
    return [chunk_fn(params, i, m) for i, m in enumerate(sizes)]


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
    """Estimate the catch-up bound for the given walk parameters."""
    _check_budget(params)
    _check_lines(params)
    if 1.0 / params.f <= 1.0 + params.epsilon:
        return _trivial_estimate(params)
    if params.strategy == "max-step":
        chunk_fn = _max_step_chunk
    else:
        _check_climb_range(params)
        chunk_fn = _micro_chunk
    return _finalize(params, _run_chunks(chunk_fn, params))


def exact_g(params: WalkParams) -> BoundEstimate:
    """The expectation ``_micro_chunk`` samples, computed exactly.

    Line k's survival mass over climb counts c < N_{k-1} loses mass * jump
    to per_k[k]; the rest, w, climbs at least j steps with probability
    q**j, q = 1 / (1 + a*u/rho).  With S[c] = q*S[c-1] + w[c] over
    c < N_k, the next line's mass is (1-q) * S and q * S[N_k - 1]
    completes densely.  Samples and seed play no part.
    """
    if params.strategy == "max-step":
        raise DomainError("exact_g covers the micro and hybrid strategies only")
    if 1.0 / params.f <= 1.0 + params.epsilon:
        # the per-line table alone holds k_max + 1 cells
        if params.k_max + 1 > params.budget:
            raise BudgetError(f"k_max+1 = {params.k_max + 1:.3g} exact DP cells exceed "
                              f"budget {params.budget:.3g}")
        _check_lines(params)
        return replace(_trivial_estimate(params), samples=0)
    _check_climb_range(params)
    cells = (params.k_max + 1) * _climbs_needed(params, 1.0 + params.k_max * params.rho)
    if cells > params.budget:
        raise BudgetError(
            f"(k_max+1)*N = {cells:.3g} exact DP cells exceed budget {params.budget:.3g}"
        )
    _check_lines(params)
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


def compute_g(params: WalkParams) -> BoundEstimate:
    """The catch-up bound: exact for the micro and hybrid walks, and the
    Monte Carlo estimate for max-step, which has no exact path."""
    return estimate_g(params) if params.strategy == "max-step" else exact_g(params)


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
    """The bound over a full f x epsilon x rho grid, one ``compute_g`` per
    cell.

    Monte Carlo (max-step) cells all reuse the master seed, so they are
    coupled by common random numbers and the monotone trends in f and
    epsilon are visible even at modest sample counts.
    """
    if not f_values or not epsilon_values or not rho_values:
        raise DomainError("sweep grids must be non-empty")
    rows = []
    for rho in rho_values:
        for eps in epsilon_values:
            for f in f_values:
                cell = replace(params, f=f, epsilon=eps, rho=rho)
                result = compute_g(cell)
                rows.append(
                    SweepRow(
                        f=f,
                        epsilon=eps,
                        rho=rho,
                        estimate=result.estimate,
                        ci_low=result.ci_low,
                        ci_high=result.ci_high,
                    )
                )
    return rows


def u_sensitivity(
    params: WalkParams, u_values: tuple[float, ...] = (1e-2, 1e-3, 1e-4), samples: int | None = None
) -> list[tuple[float, float]]:
    """The bound at several micro-step granularities; ``samples`` (by
    default a tenth of the params' samples) applies to max-step only."""
    n = samples if samples is not None else max(params.samples // 10, 10_000)
    out = []
    for u in u_values:
        result = compute_g(replace(params, u=u, samples=n))
        out.append((u, result.estimate))
    return out


def real_world_anchors() -> dict[str, float]:
    """Documented reference constants for sweep presets."""
    return dict(REAL_WORLD_ANCHORS)
