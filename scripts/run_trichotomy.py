#!/usr/bin/env python3
"""Reinvestment-dynamics trichotomy experiment on the desk setup of
``configs/simulate/trichotomy_gamma_*.json``, at the exponents, horizon
and seeds the flags give: ten nodes start with a power-law profile
spanning a factor of 100 and reinvest winnings at 10% of the mean initial
power per block.  Sweeping the lottery exponent shows the three regimes:
below 1 the max/min power ratio tightens toward 1, at 1 every fraction
keeps its initial mean, and above 1 the top node absorbs everything.

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
from pathlib import Path

import numpy as np

from decentsim.cli import sim_config
from decentsim.config import parse_config
from decentsim.dynamics import MIN_SLOPE_SEEDS, SlopeAccumulator, build_initial_powers, summarize

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs/simulate/trichotomy_gamma_1.0.json"
TOP_TARGET = 0.99
# a node that wins in no seed ends with the same fraction in every seed, up
# to rounding; its spread across seeds scales no z-score
SPREAD_FLOOR = 1e-9


def run_one(gamma: float, horizon: int, n_seeds: int, seed0: int) -> None:
    overrides = {"gamma": gamma, "horizon": horizon, "seeds": list(range(seed0, seed0 + n_seeds))}
    config = sim_config(parse_config("simulate", file=DESK_CONFIG, overrides=overrides))
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
        print(f"  ratio<={1 + config.epsilon} through final {window} steps: {converged}/{n_seeds}")
    print(f"  median final max/min ratio: {float(np.median(summary.final_ratios)):.3f}")
    print(f"  seeds with top fraction >= {TOP_TARGET}: {top99}/{n_seeds}")
    if n_seeds >= MIN_SLOPE_SEEDS:
        stats = slopes.stats()
        print(f"  slope of poorest node's fraction: {stats.slope_min:+.2e} (se {stats.se_min:.1e})")
        print(f"  slope of richest node's fraction: {stats.slope_max:+.2e} (se {stats.se_max:.1e})")
    if gamma == 1.0 and n_seeds >= 2:
        moving = np.ptp(fractions, axis=0) / fractions.mean(axis=0) > SPREAD_FLOOR
        if moving.any():  # none move where every seed ends alike, as at horizon 0
            init = build_initial_powers(config.init, config.n_nodes)
            finals = fractions[:, moving]
            se = finals.std(axis=0, ddof=1) / math.sqrt(n_seeds)
            z = np.abs(finals.mean(axis=0) - (init / init.sum())[moving]) / se
            skipped = int((~moving).sum())
            note = f" ({skipped} skipped: same in every seed)" if skipped else ""
            print(f"  martingale check: max |z| over nodes = {z.max():.2f}{note}")


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
