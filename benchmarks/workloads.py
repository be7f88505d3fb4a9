"""Workload inputs and output checks for the decentsim benchmark.

A workload is a fixed sequence of CLI invocations.  ``build`` turns a
workload name and a seed into those invocations: each carries the flat
config the CLI receives and a check of the report and files it wrote.
The checks do not depend on the seed.  They compare against references
recorded once from the seed commit (``reference.json``, written by
``record_reference.py`` with a seed no workload uses) or recompute the
answer independently (the scalar ``step`` replay, the witness
re-verifiers).  A check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from decentsim.conditions import MergeWitness, SplitWitness, verify_merge_witness, verify_split_witness
from decentsim.core import PlayerMap, PowerVector, RewardParams
from decentsim.dynamics import PowerLawInit, build_initial_powers, step
from decentsim.incentives import GammaReward, PoW, ZeroSybilCost

WORKLOADS = ("bound-anchor", "sweep-grid", "simulate-batch", "check-gamma")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# The references were recorded with this Monte Carlo seed; workload seeds
# are drawn from [1, 2**31) and so never reuse it.
REFERENCE_SEED = 0

# "full" is what the benchmark times; "tiny" keeps the self-test short.
SIZES = {
    "full": {
        "anchor_samples": 2_000_000,  # two full CHUNK_SIZE chunks
        "sweep_samples": 100_000,
        "gamma_seeds": 100,
        "gamma_horizon": 30_000,
        "pow_seeds": 4,
        "pow_horizon": 20_000,
    },
    "tiny": {
        "anchor_samples": 20_000,
        "sweep_samples": 20_000,
        "gamma_seeds": 30,
        "gamma_horizon": 2_000,
        "pow_seeds": 2,
        "pow_horizon": 1_000,
    },
}

F_GRID = (1e-4, 1e-3, 1e-2)
EPSILON_GRID = (0.0, 9.0, 99.0, 999.0)
RHO_GRID = (0.1, 0.01)
CHECK_POWERS = (4.0, 1.0, 2.0, 0.5, 3.0, 1.5)
# check_linearity draws its trial sizes from this seed, so it is fixed:
# the utility call count must repeat exactly from run to run.
LINEARITY_SEED = 0
SIGMAS = 4.0

Check = Callable[[dict[str, Any], Path], list[str]]


@dataclass
class Invocation:
    label: str
    subcommand: str
    config: dict[str, Any]
    check: Check


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def bound_config(samples: int, seed: int) -> dict[str, Any]:
    return {
        "f": 1e-4, "rho": 0.1, "epsilon": 0.0, "u": 1e-3, "k_max": 100,
        "strategy": "micro", "samples": samples, "seed": seed, "u_sweep": False,
    }


def sweep_config(samples: int, seed: int) -> dict[str, Any]:
    return {
        "f_grid": list(F_GRID), "epsilon_grid": list(EPSILON_GRID),
        "rho_grid": list(RHO_GRID), "u": 1e-3, "k_max": 100,
        "strategy": "micro", "samples": samples, "seed": seed,
        "csv_out": "sweep.csv",
    }


def check_config(powers: tuple[float, ...]) -> dict[str, Any]:
    return {
        "model": "gamma", "br": 3.0, "gamma": 0.5, "powers": list(powers),
        "m": 6, "grid": 20, "max_nodes": 6, "sybil": "zero", "delta": 0.0,
        "linearity_trials": 64, "seed": LINEARITY_SEED,
    }


def _gamma_config(seeds: list[int], horizon: int) -> dict[str, Any]:
    return {
        "model": "gamma", "br": 3.0, "gamma": 0.5, "r": 1.0, "r_max": 3.0,
        "horizon": horizon, "n_nodes": 10, "init": "power-law",
        "init_exponent": 2.0, "seeds": seeds,
    }


def _pow_config(seeds: list[int], horizon: int) -> dict[str, Any]:
    return {
        "model": "pow", "br": 12.5, "c1": 0.1, "c2": 1.0, "r": 1.0,
        "r_max": 12.5, "horizon": horizon, "n_nodes": 10, "init": "power-law",
        "init_exponent": 2.0, "seeds": seeds, "trajectories_dir": "trajectories",
    }


def build(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """The invocations of one workload pass, generated from ``seed``."""
    sizes = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "bound-anchor":
        config = bound_config(sizes["anchor_samples"], rng.randrange(1, 2**31))
        return [Invocation("bound", "bound", config, _bound_check(load_reference()[workload]))]
    if workload == "sweep-grid":
        config = sweep_config(sizes["sweep_samples"], rng.randrange(1, 2**31))
        return [Invocation("sweep", "sweep", config, _sweep_check(load_reference()[workload]))]
    if workload == "simulate-batch":
        gamma_seeds = rng.sample(range(1, 10**6), sizes["gamma_seeds"])
        pow_seeds = rng.sample(range(1, 10**6), sizes["pow_seeds"])
        gamma = _gamma_config(gamma_seeds, sizes["gamma_horizon"])
        pow_ = _pow_config(pow_seeds, sizes["pow_horizon"])
        return [
            Invocation("gamma-stats", "simulate", gamma, _simulate_check(gamma, rng.choice(gamma_seeds))),
            Invocation("pow-export", "simulate", pow_, _simulate_check(pow_, rng.choice(pow_seeds))),
        ]
    if workload == "check-gamma":
        # node order is the seeded input; verdicts and counts do not depend on it
        powers = list(CHECK_POWERS)
        rng.shuffle(powers)
        config = check_config(tuple(powers))
        return [Invocation("check", "check", config, _check_gamma_check(config, load_reference()[workload]))]
    raise ValueError(f"unknown workload {workload!r}")


def _within(value: float, se: float, ref: float, ref_se: float) -> bool:
    return abs(value - ref) <= SIGMAS * math.hypot(se, ref_se)


def _bound_check(ref: dict[str, Any]) -> Check:
    def check(results: dict[str, Any], out_dir: Path) -> list[str]:
        problems = []
        est, se = results["estimate"], results["std_error"]
        if not _within(est, se, ref["estimate"], ref["std_error"]):
            problems.append(
                f"estimate {est!r} (se {se!r}) is not within {SIGMAS} combined "
                f"standard errors of the reference {ref['estimate']!r} (se {ref['std_error']!r})"
            )
        limit = results["p0_analytic_bound"] + 3.0 * results["p0_std_error"]
        if not results["p0"] <= limit:
            problems.append(f"p0 {results['p0']!r} exceeds (1+eps)f + 3 sigma = {limit!r}")
        return problems

    return check


def row_std_error(row: dict[str, Any]) -> float:
    """Standard error of a sweep row, recovered from its 95% interval."""
    return max(row["ci_high"] - row["estimate"], row["estimate"] - row["ci_low"]) / 1.96


def _grid_cells() -> list[tuple[float, float, float]]:
    # the order `decentsim.bound.sweep` emits rows in
    return [(f, eps, rho) for rho in RHO_GRID for eps in EPSILON_GRID for f in F_GRID]


def _sweep_check(ref: dict[str, Any]) -> Check:
    def check(results: dict[str, Any], out_dir: Path) -> list[str]:
        problems = []
        rows = results["rows"]
        cells = _grid_cells()
        if len(rows) != len(cells):
            return [f"sweep reported {len(rows)} rows, expected {len(cells)}"]
        by_cell = {}
        for row, cell, ref_row in zip(rows, cells, ref["rows"]):
            got = (row["f"], row["epsilon"], row["rho"])
            if got != cell:
                problems.append(f"row for cell {cell} reports cell {got}")
                continue
            by_cell[cell] = row["estimate"]
            if 1.0 / cell[0] <= 1.0 + cell[1]:
                if row["estimate"] != 1.0:
                    problems.append(f"trivial cell {cell} estimate {row['estimate']!r} is not 1.0")
            elif not _within(row["estimate"], row_std_error(row), ref_row["estimate"], ref_row["std_error"]):
                problems.append(
                    f"cell {cell} estimate {row['estimate']!r} is not within {SIGMAS} "
                    f"combined standard errors of the reference {ref_row['estimate']!r}"
                )
        if len(by_cell) == len(cells):
            for rho in RHO_GRID:
                for eps in EPSILON_GRID:
                    series = [by_cell[(f, eps, rho)] for f in F_GRID]
                    if any(b < a for a, b in zip(series, series[1:])):
                        problems.append(f"estimates decrease in f at epsilon={eps}, rho={rho}: {series}")
                for f in F_GRID:
                    series = [by_cell[(f, eps, rho)] for eps in EPSILON_GRID]
                    if any(b < a for a, b in zip(series, series[1:])):
                        problems.append(f"estimates decrease in epsilon at f={f}, rho={rho}: {series}")
        with Path(results["csv_path"]).open(newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
        if table[:1] != [["f", "epsilon", "rho", "estimate", "ci_low", "ci_high"]]:
            problems.append(f"sweep CSV header is {table[:1]}")
        if len(table) - 1 != len(cells):
            problems.append(f"sweep CSV holds {len(table) - 1} rows, expected {len(cells)}")
        for i, (line, row) in enumerate(zip(table[1:], rows)):
            expected = [row[k] for k in ("f", "epsilon", "rho", "estimate", "ci_low", "ci_high")]
            if [float(x) for x in line] != expected:
                problems.append(f"sweep CSV row {i + 1} {line} differs from report row {expected}")
        return problems

    return check


def replay_final_betas(config: dict[str, Any], seed: int) -> list[float]:
    """Final power fractions of one seed, advanced by the scalar ``step``."""
    if config["model"] == "gamma":
        model = GammaReward(b_r=config["br"], gamma=config["gamma"])
    else:
        model = PoW(b_r=config["br"], c1=config["c1"], c2=config["c2"])
    reward = RewardParams(r=config["r"], r_max=config["r_max"])
    init = build_initial_powers(PowerLawInit(config["init_exponent"]), config["n_nodes"])
    state = PowerVector(tuple(init))
    rng = np.random.default_rng(seed)
    for _ in range(config["horizon"]):
        state = step(state, model, reward, rng)
    row = np.array([state.powers])
    return [float(b) for b in (row / row.sum(axis=1)[:, None])[0]]


def _simulate_check(config: dict[str, Any], replay_seed: int) -> Check:
    replayed: dict[int, list[float]] = {}  # computed once per run, outside any timing

    def check(results: dict[str, Any], out_dir: Path) -> list[str]:
        problems = []
        per_seed = {entry["seed"]: entry for entry in results["per_seed"]}
        if sorted(per_seed) != sorted(config["seeds"]):
            return [f"simulate reported seeds {sorted(per_seed)}, expected {sorted(config['seeds'])}"]
        if replay_seed not in replayed:
            replayed[replay_seed] = replay_final_betas(config, replay_seed)
        if per_seed[replay_seed]["final_betas"] != replayed[replay_seed]:
            problems.append(f"final betas of seed {replay_seed} differ from the scalar step replay")
        if config.get("trajectories_dir"):
            traj_dir = Path(results["trajectories_dir"])
            for seed, entry in per_seed.items():
                problems += _check_trajectory_csv(
                    traj_dir / f"trajectory_{seed}.csv", config["horizon"], entry["final_betas"]
                )
        return problems

    return check


def _check_trajectory_csv(path: Path, horizon: int, final_betas: list[float]) -> list[str]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    problems = []
    if len(rows) - 1 != horizon + 1:
        problems.append(f"{path.name} holds {len(rows) - 1} rows, expected {horizon + 1}")
    last = rows[-1]
    if last[0] != str(horizon) or [float(x) for x in last[2:]] != final_betas:
        problems.append(f"last row of {path.name} does not parse back to the reported final betas")
    return problems


def _check_gamma_check(config: dict[str, Any], ref: dict[str, Any]) -> Check:
    model = GammaReward(b_r=config["br"], gamma=config["gamma"])
    pv = PowerVector(tuple(config["powers"]))
    pm = PlayerMap(tuple(f"p{i + 1}" for i in range(len(pv))))

    def check(results: dict[str, Any], out_dir: Path) -> list[str]:
        problems = []
        verdicts = {
            "gr": results["gr"]["holds"],
            "profitable_nodes": results["gr"]["profitable_nodes"],
            "nd": results["nd"]["holds"],
            "ns": results["ns"]["holds"],
            "is_linear": results["linearity"]["is_linear"],
        }
        if verdicts != ref:
            problems.append(f"verdicts {verdicts} differ from the recorded {ref}")
        for key in ("nd", "ns"):
            witness = results[key]["witness"]
            if (witness is None) != results[key]["holds"]:
                problems.append(f"{key} holds={results[key]['holds']} but witness is {witness}")
            if witness is None:
                continue
            if key == "nd":
                w = MergeWitness(**{
                    **witness,
                    **{k: tuple(witness[k]) for k in ("merged_nodes", "surviving_nodes", "allocation")},
                })
                gain = verify_merge_witness(model, pv, w)
                claimed = w.merged_total - w.separate_total
                pool = math.fsum(pv.powers[i] for i in w.merged_nodes)
                total = math.fsum(w.allocation)
            else:
                w = SplitWitness(**{**witness, "parts": tuple(witness["parts"])})
                gain = verify_split_witness(model, ZeroSybilCost(), pv, pm, w)
                claimed = w.split_total - w.cost - w.single_utility
                pool, total = w.power, math.fsum(w.parts)
            if not gain > 0:
                problems.append(f"{key} witness re-verifies with gain {gain!r}, not a positive one")
            if not math.isclose(gain, claimed, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{key} witness gain {gain!r} differs from the reported {claimed!r}")
            if not math.isclose(total, pool, rel_tol=1e-12):
                problems.append(f"{key} witness parts sum to {total!r}, not the pooled power {pool!r}")
        return problems

    return check
