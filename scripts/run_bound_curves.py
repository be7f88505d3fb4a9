#!/usr/bin/env python3
"""Sweep the catch-up bound over f for several epsilon and rho values.

Writes one plot-ready CSV per rho value (columns f, epsilon, rho,
estimate, ci_low, ci_high).  The epsilon levels 0, 9, 99, 999 correspond
to power ratios of 1x, 10x, 100x and 1000x between the richest and the
percentile player.
"""

import argparse
from pathlib import Path

import numpy as np

from decentsim.bound import WalkParams, sweep
from decentsim.cli import _write_sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f-min", type=float, default=1e-6)
    parser.add_argument("--f-max", type=float, default=1e-1)
    parser.add_argument("--f-points", type=int, default=11)
    parser.add_argument("--epsilons", type=str, default="0,9,99,999")
    parser.add_argument("--rhos", type=str, default="0.1,0.01")
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--out-prefix", type=str, default="bound_curves")
    args = parser.parse_args()

    f_values = [float(f) for f in np.geomspace(args.f_min, args.f_max, args.f_points)]
    eps_values = [float(e) for e in args.epsilons.split(",")]
    rho_values = [float(r) for r in args.rhos.split(",")]

    for rho in rho_values:
        params = WalkParams(f=f_values[0], rho=rho, samples=args.samples, seed=args.seed)
        rows = sweep(f_values, eps_values, [rho], params)
        out = Path(f"{args.out_prefix}_rho{rho:g}.csv")
        _write_sweep_csv(out, rows)
        print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
