"""Command-line surface tying the toolkit together.

Subcommands: simulate (reinvestment dynamics), bound (catch-up bound
estimate), sweep (bound over a parameter grid), metrics (producer-dataset
report), check (incentive-condition report), anchors (documented
real-world reference constants).  Every run emits a JSON report embedding
the resolved configuration and seed; re-running that configuration
reproduces the results payload byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .bound import SweepRow, WalkParams, exact_g, real_world_anchors, sweep, u_sensitivity
from .conditions import check_all, check_linearity
from .config import SCHEMAS, WALK_KEYS, RunConfig, echo_values, parse_config
from .core import PlayerMap, PowerVector, RewardParams
from .dynamics import (
    INITS, MIN_SLOPE_SEEDS, SimConfig, SlopeAccumulator, _fractions, _ratios, summarize
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    SearchBoundError,
    StructuralError,
    UnsupportedModelError,
)
from .incentives import MODELS, SYBIL_COSTS
from .metrics import load_producer_csv, report as metrics_report

EXIT_CODES = {
    ConfigError: 2,
    OSError: 2,  # an output path that cannot be written
    StructuralError: 3,
    DomainError: 3,
    ArithmeticError: 3,  # a result outside the float range
    ValueError: 3,  # e.g. a non-finite value strict JSON refuses
    SearchBoundError: 4,
    BudgetError: 5,
    UnsupportedModelError: 6,
}

OUTPUT_DIR_ENV = "DECENTSIM_OUT"
# floats of one trajectory file formatted at a time, rounded down to whole
# records but at least one: it bounds the text held
CHUNK_FLOATS = 2**14


def _resolve_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _build(family: dict[str, type], cfg: RunConfig, choice: str):
    """The registry member config key ``choice`` names, each field read from
    the config key its class's ``KEYS`` maps to it."""
    cls = family[cfg[choice]]
    return cls(**{field: cfg[key] for key, field in cls.KEYS.items()})


def sim_config(cfg: RunConfig) -> SimConfig:
    """The run a resolved ``simulate`` configuration describes."""
    return SimConfig(
        model=_build(MODELS, cfg, "model"),
        reward=RewardParams(r=cfg["r"], r_max=cfg["r_max"]),
        horizon=cfg["horizon"],
        n_nodes=cfg["n_nodes"],
        init=_build(INITS, cfg, "init"),
        seeds=cfg["seeds"],
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        window=cfg["window"],
    )


class _TrajectoryCsvWriter:
    """Streams each seed's per-step power ratio and fractions to
    ``trajectory_<seed>.csv``, one appended block of steps per ``record``.
    Each value is written as its shortest ``repr``; a record whose bytes
    repeat the one before it in the block reuses that record's text."""

    def __init__(self, out_dir: Path, sim: SimConfig) -> None:
        self.out_dir = out_dir
        # a seed listed twice gets one file
        self.paths = {
            out_dir / f"trajectory_{seed}.csv": row for row, seed in enumerate(sim.seeds)
        }
        self.delta = sim.delta
        fields = ["step", "ratio"] + [f"beta_{i + 1}" for i in range(sim.n_nodes)]
        self.header = ",".join(fields) + "\r\n"

    def record(self, t0: int, states: np.ndarray, winners: np.ndarray | None) -> None:
        first = t0 == 0
        if first:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        table = np.concatenate(
            [_ratios(states, self.delta)[..., None], _fractions(states)], axis=2
        )
        steps, seeds, width = table.shape
        stride = seeds * width
        chunk = max(1, CHUNK_FLOATS // width)
        data = table.tobytes()
        values = memoryview(data).cast("d")
        for path, row in self.paths.items():
            # the previous record as raw bytes, not floats: -0.0 == 0.0
            # prints differently
            record = text = None
            with path.open("w" if first else "a", encoding="utf-8", newline="") as handle:
                if first:
                    handle.write(self.header)
                for start in range(0, steps, chunk):
                    offsets = range(start * stride + row * width,
                                    min(start + chunk, steps) * stride, stride)
                    lines = []
                    for step, offset in enumerate(offsets, t0 + start):
                        raw = data[8 * offset:8 * (offset + width)]
                        if raw != record:
                            record, text = raw, ",".join(map(repr, values[offset:offset + width]))
                        lines.append(f"{step},{text}\r\n")
                    handle.write("".join(lines))


def _run_simulate(cfg: RunConfig) -> dict[str, Any]:
    sim = sim_config(cfg)
    n_seeds = len(sim.seeds)
    slopes = SlopeAccumulator(n_seeds, sim.horizon) if n_seeds >= MIN_SLOPE_SEEDS else None
    out_dir = _resolve_path(cfg["trajectories_dir"]) if cfg["trajectories_dir"] else None
    csv_writer = _TrajectoryCsvWriter(out_dir, sim) if out_dir is not None else None
    summary = summarize(sim, [r for r in (slopes, csv_writer) if r is not None])
    results: dict[str, Any] = {
        "horizon": sim.horizon,
        "n_seeds": n_seeds,
        "per_seed": [
            {"seed": seed, "final_ratio": ratio, "final_betas": betas}
            for seed, ratio, betas in zip(
                sim.seeds, summary.final_ratios.tolist(), summary.final_betas.tolist()
            )
        ],
    }
    if summary.verdict is not None:
        results["ed"] = {**dataclasses.asdict(summary.verdict), "window": sim.effective_window()}
    if slopes is not None:
        results["monotonicity"] = dataclasses.asdict(slopes.stats())
    if out_dir is not None:
        results["trajectories_dir"] = str(out_dir)
    return results


def _walk_params(cfg: RunConfig, f: float, rho: float, epsilon: float) -> WalkParams:
    walk = {key.name: cfg[key.name] for key in WALK_KEYS}
    return WalkParams(f=f, rho=rho, epsilon=epsilon, **walk)


def _run_bound(cfg: RunConfig) -> dict[str, Any]:
    params = _walk_params(cfg, cfg["f"], cfg["rho"], cfg["epsilon"])
    results = dataclasses.asdict(exact_g(params))
    del results["samples"], results["params"]
    results["p0_analytic_bound"] = params.reach
    if cfg["u_sweep"]:
        results["u_sensitivity"] = [
            {"u": u, "estimate": est} for u, est in u_sensitivity(params)
        ]
    return results


def _write_csv(cfg: RunConfig, header: list[str], rows: list[list[str]]) -> str:
    """Write a table to the configured ``csv_out``; returns its path."""
    path = _resolve_path(cfg["csv_out"])
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    return str(path)


def _run_sweep(cfg: RunConfig) -> dict[str, Any]:
    f_grid, epsilon_grid, rho_grid = (list(cfg[f"{n}_grid"]) for n in ("f", "epsilon", "rho"))
    if not (f_grid and epsilon_grid and rho_grid):
        raise DomainError("sweep grids must be non-empty")
    base = _walk_params(cfg, f_grid[0], rho_grid[0], epsilon_grid[0])
    rows = sweep(f_grid, epsilon_grid, rho_grid, base)
    results: dict[str, Any] = {"rows": [dataclasses.asdict(row) for row in rows]}
    if cfg["csv_out"]:
        header = [field.name for field in dataclasses.fields(SweepRow)]
        table = [[repr(value) for value in dataclasses.astuple(row)] for row in rows]
        results["csv_path"] = _write_csv(cfg, header, table)
    return results


def _run_metrics(cfg: RunConfig) -> dict[str, Any]:
    dataset = load_producer_csv(cfg["input"])
    rep = metrics_report(dataset)
    results = dataclasses.asdict(rep)
    if cfg["csv_out"]:
        header, row = [], []
        for level in rep.levels:
            header += [f"addresses_{level.share}", f"gini_{level.share}", f"entropy_{level.share}"]
            row += [str(level.addresses), repr(level.gini), repr(level.entropy_bits)]
        results["csv_path"] = _write_csv(cfg, header, [row])
    return results


def _run_check(cfg: RunConfig) -> dict[str, Any]:
    if cfg["seed"] < 0:
        raise DomainError(f"seed must be >= 0, got {cfg['seed']}")
    model = _build(MODELS, cfg, "model")
    powers = PowerVector(cfg["powers"])
    pm = PlayerMap(cfg["owners"] or tuple(f"p{i + 1}" for i in range(len(powers))))
    rep = check_all(
        model, _build(SYBIL_COSTS, cfg, "sybil"), powers, pm, cfg["m"],
        delta=cfg["delta"], grid=cfg["grid"], max_nodes=cfg["max_nodes"],
    )
    linearity = check_linearity(model, cfg["linearity_trials"], cfg["seed"])
    out = dataclasses.asdict(rep)
    out["linearity"] = {
        "is_linear": linearity.is_linear,
        "max_violation": (
            None if linearity.max_violation == float("inf") else linearity.max_violation
        ),
    }
    return out


RUNNERS = {
    "simulate": _run_simulate,
    "bound": _run_bound,
    "sweep": _run_sweep,
    "metrics": _run_metrics,
    "check": _run_check,
    "anchors": lambda cfg: dict(real_world_anchors()),
}


def run(config: RunConfig) -> dict[str, Any]:
    """Execute a resolved configuration and assemble the full report."""
    started = time.perf_counter()
    results = RUNNERS[config.subcommand](config)
    return {
        "version": __version__,
        "subcommand": config.subcommand,
        "config": echo_values(config),
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }


def results_payload_bytes(report_dict: dict[str, Any]) -> bytes:
    """Canonical bytes of the results section, used by determinism checks."""
    return json.dumps(report_dict["results"], sort_keys=True).encode("utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decentsim",
        description="Incentive-system decentralization toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SCHEMAS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=None, help="JSON config file")
        for key in keys:
            sub.add_argument(f"--{key.name}", default=None, help=key.help or key.kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Move what the imports built (numpy and this package, about 23k objects)
    # to the collector's permanent generation. Interpreter exit then skips
    # them instead of walking and freeing them, which took 20–35 ms per
    # process; objects the run creates stay collectable.
    gc.freeze()
    args = _build_parser().parse_args(argv)
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name not in ("subcommand", "config") and value is not None
    }
    try:
        config = parse_config(args.subcommand, file=args.config, overrides=overrides)
        text = json.dumps(run(config), sort_keys=True, indent=2, allow_nan=False)
        if config["out"]:
            path = _resolve_path(config["out"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n", encoding="utf-8")
    except tuple(EXIT_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    if not config["out"]:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
