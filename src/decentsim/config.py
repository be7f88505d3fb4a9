"""Flat key-value run configuration with a strict schema.

Every subcommand declares its keys once; values may come from a JSON
config file, from command-line flags (which override the file), or from
defaults.  Unknown keys, missing required keys and type mismatches are
rejected with the offending key named, and the fully resolved mapping is
echoed into every run report so a run can be reproduced from its output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .bound import STRATEGIES, WalkParams
from .conditions import DEFAULT_GRID, DEFAULT_MAX_NODES
from .dynamics import INITS
from .errors import ConfigError
from .incentives import MODELS, SYBIL_COSTS, Linear

REQUIRED = object()


@dataclass(frozen=True)
class Key:
    name: str
    kind: str  # float | int | str | bool, or floats | ints | strs: a list of that scalar
    default: Any = REQUIRED
    choices: tuple[str, ...] | None = None
    help: str = ""


def _scalar(kind: str, value: Any) -> Any:
    """``value`` as one ``kind``: integers stay exact at any size, an int may
    be written as an integral float, and only a bool key takes a bool.
    Raises TypeError or ValueError where it is none."""
    if type(value).__name__ == kind:  # a bool is not an int here
        return value
    if kind == "bool" and isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if kind in ("str", "bool") or isinstance(value, bool):
        raise TypeError
    if kind == "float":
        return float(value)
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError
    return int(number)


def _coerce(key: Key, value: Any) -> Any:
    """A scalar key's value by its kind's rule; a list key's comma string or
    JSON list as a tuple, each stripped item by its scalar's rule.  A blank
    string is the empty list, and no list has an empty item."""
    scalar = key.kind.removesuffix("s")
    try:
        if scalar == key.kind:
            coerced = _scalar(scalar, value)
        else:
            if isinstance(value, str):
                items = value.split(",") if value.strip() else []
            elif isinstance(value, (list, tuple)):
                items = value
            else:
                raise TypeError
            items = [item.strip() if isinstance(item, str) else item for item in items]
            if "" in items:
                raise ValueError
            coerced = tuple(_scalar(scalar, item) for item in items)
    except (TypeError, ValueError, OverflowError):  # float(10**400) overflows
        raise ConfigError(f"config key '{key.name}' expects {key.kind}, got {value!r}") from None
    if key.choices and coerced not in key.choices:
        raise ConfigError(
            f"config key '{key.name}' must be one of {list(key.choices)}, got {value!r}"
        )
    return coerced


SHARED_KEYS = [
    Key("out", "str", default="", help="path for the JSON run report; empty prints to stdout"),
]

MODEL_KEYS = [
    Key("model", "str", choices=tuple(MODELS), help="incentive model variant"),
    Key("br", "float", default=0.0, help="block reward per time unit"),
    Key("c1", "float", default=0.0, help="cost per power unit (pow)"),
    Key("c2", "float", default=0.0, help="fixed node cost (pow)"),
    Key("c", "float", default=0.0, help="fixed node cost (pos/dpos)"),
    Key("sb", "float", default=0.0, help="minimum stake to run a node (pos)"),
    Key("ndpos", "int", default=1, help="number of elected producers (dpos)"),
    Key("gamma", "float", default=0.5, help="lottery weight exponent (gamma)"),
    Key("kind", "str", default="inverse-total", choices=Linear.KINDS,
        help="linear coefficient form (linear)"),
    Key("k", "float", default=1.0, help="linear coefficient scale (linear)"),
]

# the WalkParams fields that bound and sweep both read from their config
WALK_KEYS = [
    Key("u", "float", default=WalkParams.u, help="poor node's relative gain per micro-step"),
    Key("k_max", "int", default=WalkParams.k_max, help="rich-gain truncation"),
    Key("samples", "int", default=WalkParams.samples, help="ignored: every bound is exact"),
    Key("seed", "int", default=WalkParams.seed, help="ignored: every bound is exact"),
    Key("strategy", "str", default=WalkParams.strategy, choices=STRATEGIES),
    Key("n_jump", "int", default=WalkParams.n_jump, help="max-size wins a hybrid jump may span"),
]

# simulate takes the lottery models only, and their keys, with br required
LOTTERIES = tuple(name for name, model in MODELS.items() if model.LOTTERY)
LOTTERY_KEYS = {key for name in LOTTERIES for key in MODELS[name].KEYS} - {"br"}

SCHEMAS: dict[str, list[Key]] = {
    "simulate": SHARED_KEYS + [
        Key("model", "str", choices=LOTTERIES, help="lottery model variant"),
        Key("br", "float", help="block reward per time unit"),
    ] + [key for key in MODEL_KEYS if key.name in LOTTERY_KEYS] + [
        Key("r", "float", default=1.0, help="reinvestment rate"),
        Key("r_max", "float", help="cap on per-step net reward"),
        Key("horizon", "int"),
        Key("n_nodes", "int"),
        Key("init", "str", choices=tuple(INITS)),
        Key("init_powers", "floats", default=()),
        Key("init_exponent", "float", default=2.0),
        Key("init_f", "float", default=0.01),
        Key("init_count_rich", "int", default=1),
        Key("init_count_poor", "int", default=1),
        Key("seeds", "ints", default=(0,)),
        Key("epsilon", "float", default=0.0),
        Key("delta", "float", default=0.0),
        Key("window", "int", default=0, help="ED window in steps; 0 means final 10%"),
        Key("trajectories_dir", "str", default="", help="write per-seed CSVs here"),
    ],
    "bound": SHARED_KEYS + [
        Key("f", "float"), Key("rho", "float"),
        Key("epsilon", "float", default=WalkParams.epsilon),
    ] + WALK_KEYS + [
        Key("u_sweep", "bool", default=False,
            help="also report estimates at u in {1e-2, 1e-3, 1e-4}"),
    ],
    "sweep": SHARED_KEYS + [
        Key("f_grid", "floats"),
        Key("epsilon_grid", "floats"),
        Key("rho_grid", "floats"),
    ] + WALK_KEYS + [
        Key("csv_out", "str", default="", help="write the curve table here"),
    ],
    "metrics": SHARED_KEYS + [
        Key("input", "str", help="CSV with header 'address,blocks'"),
        Key("csv_out", "str", default="", help="write the one-row metrics table here"),
    ],
    "check": SHARED_KEYS + MODEL_KEYS + [
        Key("powers", "floats"),
        Key("owners", "strs", default=(), help="player of each node; default one player per node"),
        Key("m", "int"),
        Key("delta", "float", default=0.0),
        Key("grid", "int", default=DEFAULT_GRID),
        Key("max_nodes", "int", default=DEFAULT_MAX_NODES),
        Key("sybil", "str", default="zero", choices=tuple(SYBIL_COSTS)),
        Key("margin", "float", default=0.0),
        Key("linearity_trials", "int", default=64),
        Key("seed", "int", default=0, help="seed of the linearity probe's random states"),
    ],
    "anchors": SHARED_KEYS,
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


def parse_config(
    subcommand: str,
    file: str | Path | None = None,
    overrides: dict[str, Any] | None = None,
) -> RunConfig:
    """Resolve a subcommand configuration from file plus overrides."""
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    schema = {key.name: key for key in SCHEMAS[subcommand]}
    provided: dict[str, Any] = {}
    if file:
        path = Path(file)
        try:
            raw = json.loads(path.read_text(encoding="utf-8-sig"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting, huge ints
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        provided.update(raw)
    for name, value in (overrides or {}).items():
        if value is not None:
            provided[name] = value
    unknown = sorted(set(provided) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}' for '{subcommand}'")
    resolved: dict[str, Any] = {}
    for name, key in schema.items():
        if name in provided:
            resolved[name] = _coerce(key, provided[name])
        elif key.default is REQUIRED:
            raise ConfigError(f"missing required config key '{name}' for '{subcommand}'")
        else:
            resolved[name] = key.default
    return RunConfig(subcommand=subcommand, values=resolved)


def echo_values(config: RunConfig) -> dict[str, Any]:
    """JSON-safe copy of the resolved configuration."""
    out: dict[str, Any] = {}
    for name, value in sorted(config.values.items()):
        out[name] = list(value) if isinstance(value, tuple) else value
    return out
