#!/usr/bin/env python3
"""Reinvestment-dynamics trichotomy experiment.

Ten nodes start with a power-law profile spanning a factor of 100 and
reinvest winnings at 10% of the mean initial power per block.  Sweeping
the lottery exponent shows the three regimes: below 1 the max/min power
ratio tightens toward 1, at 1 every fraction keeps its initial mean, and
above 1 the top node absorbs everything.

At the default horizon of 1e4 steps the drifts are clearly visible but
incomplete; run with --horizon 1000000 (gamma 0.5, 100 seeds take about
40 s on one core) or --horizon 30000 (gamma 1.5) to watch the thresholds
1.1 and 0.99 being crossed by every seed.  Runs go through
``decentsim.dynamics.summarize``, so memory stays flat in the horizon,
and the final-window verdict is the one ``ed_verdict`` gives.
"""

import argparse
import math
import time

import numpy as np

from decentsim.core import RewardParams
from decentsim.dynamics import (
    MIN_SLOPE_SEEDS, PowerLawInit, SimConfig, SlopeAccumulator, build_initial_powers, summarize
)
from decentsim.incentives import GammaReward

N_NODES = 10
RATIO_TARGET = 1.1
TOP_TARGET = 0.99


def desk_config(gamma: float, horizon: int, seeds: tuple[int, ...]) -> SimConfig:
    mean_power = sum((i + 1) ** -2.0 for i in range(N_NODES)) / N_NODES
    kick = 0.1 * mean_power
    return SimConfig(
        model=GammaReward(b_r=kick, gamma=gamma),
        reward=RewardParams(r=1.0, r_max=kick),
        horizon=horizon,
        n_nodes=N_NODES,
        init=PowerLawInit(2.0),
        seeds=seeds,
        epsilon=RATIO_TARGET - 1.0,
    )


def run_one(gamma: float, horizon: int, n_seeds: int, seed0: int) -> None:
    config = desk_config(gamma, horizon, tuple(range(seed0, seed0 + n_seeds)))
    slopes = SlopeAccumulator(n_seeds, horizon)
    started = time.perf_counter()
    summary = summarize(config, [slopes])
    elapsed = time.perf_counter() - started

    fractions = summary.final_betas
    top99 = int((fractions.max(axis=1) >= TOP_TARGET).sum())
    print(f"gamma={gamma}  ({elapsed:.1f}s, horizon={horizon}, seeds={n_seeds})")
    if summary.verdict is not None:  # None at horizon 0
        converged = round(summary.verdict.converged_fraction * n_seeds)
        window = config.effective_window()
        print(f"  ratio<={RATIO_TARGET} through final {window} steps: {converged}/{n_seeds}")
    print(f"  median final max/min ratio: {float(np.median(summary.final_ratios)):.3f}")
    print(f"  seeds with top fraction >= {TOP_TARGET}: {top99}/{n_seeds}")
    if n_seeds >= MIN_SLOPE_SEEDS:
        stats = slopes.stats()
        print(f"  slope of poorest node's fraction: {stats.slope_min:+.2e} (se {stats.se_min:.1e})")
        print(f"  slope of richest node's fraction: {stats.slope_max:+.2e} (se {stats.se_max:.1e})")
    if gamma == 1.0 and n_seeds >= 2:
        se = fractions.std(axis=0, ddof=1) / math.sqrt(n_seeds)
        if se.all():  # no z-score where every seed ends alike, as at horizon 0
            init = build_initial_powers(config.init, N_NODES)
            z = np.abs(fractions.mean(axis=0) - init / init.sum()) / se
            print(f"  martingale check: max |z| over nodes = {z.max():.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gammas", type=str, default="0.5,1.0,1.5")
    parser.add_argument("--horizon", type=int, default=10_000)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--seed0", type=int, default=500)
    args = parser.parse_args()
    for gamma in (float(g) for g in args.gammas.split(",")):
        run_one(gamma, args.horizon, args.seeds, args.seed0)


if __name__ == "__main__":
    main()
