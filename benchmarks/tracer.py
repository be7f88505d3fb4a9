"""Tracing of one decentsim CLI process from outside the program.

``Tracer.install`` wraps public functions of each decentsim module in
every namespace they are looked up from (modules import by name, so
``decentsim.dynamics.block_reward`` is patched as well as
``decentsim.incentives.block_reward``).  Layer calls become spans with a
name, start, end and parent span.  Hot per-call functions are only
counted, and each span records the counts made while it was open.
Spans and counts stay in memory and ``dump`` writes them once, at exit.
A target that no longer exists is listed as missing, and the metrics
that need it are left out.

``layer_metrics`` turns the dumps of one workload pass into the
per-layer metrics.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, attribute, how it is traced, trace name)
TARGETS = (
    ("decentsim.cli", "main", "span", "cli.main"),
    ("decentsim.config", "parse_config", "span", "config.parse_config"),
    ("decentsim.bound", "estimate_g", "span", "bound.estimate_g"),
    ("decentsim.bound", "sweep", "span", "bound.sweep"),
    ("decentsim.dynamics", "simulate", "span", "dynamics.simulate"),
    ("decentsim.dynamics", "ed_verdict", "span", "dynamics.ed_verdict"),
    ("decentsim.dynamics", "monotonicity_stats", "span", "dynamics.monotonicity_stats"),
    ("decentsim.incentives", "lottery_weights", "span", "incentives.lottery_weights"),
    ("decentsim.incentives", "block_reward", "count", "incentives.block_reward"),
    ("decentsim.incentives", "utility", "count", "incentives.utility"),
    ("decentsim.conditions", "check_gr", "span", "conditions.check_gr"),
    ("decentsim.conditions", "check_nd", "span", "conditions.check_nd"),
    ("decentsim.conditions", "check_ns", "span", "conditions.check_ns"),
    ("decentsim.conditions", "check_linearity", "span", "conditions.check_linearity"),
    ("decentsim.conditions", "grid_allocations", "count-items", "conditions.allocations"),
    ("decentsim.core", "PowerVector", "count-init", "core.PowerVector"),
)


def _walk_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    p = args[0] if args else kwargs["params"]
    return {
        "f": p.f, "epsilon": p.epsilon, "rho": p.rho, "u": p.u, "k_max": p.k_max,
        "samples": p.samples, "seed": p.seed, "strategy": p.strategy, "n_jump": p.n_jump,
    }


def _simulate_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    config = args[0] if args else kwargs["config"]
    return {
        "seed_steps": len(config.seeds) * config.horizon,
        "trajectory_bytes": sum(
            t.betas.nbytes + t.ratios.nbytes + t.winners.nbytes for t in result
        ),
    }


ANNOTATE: dict[str, Callable[[tuple, dict, Any], dict[str, Any]]] = {
    "bound.estimate_g": _walk_attrs,
    "dynamics.simulate": _simulate_attrs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, attrs, counts inside]
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}  # name -> one-element running total
        self.missing: list[str] = []
        self.chunk_size: int | None = None

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self.stack, self.counters
        annotate = ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            before = {key: cell[0] for key, cell in counters.items()}
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[5] = {
                    key: cell[0] - before.get(key, 0)
                    for key, cell in counters.items() if cell[0] != before.get(key, 0)
                }
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        cell = self.counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_items(self, name: str, fn: Callable) -> Callable:
        cell = self.counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Patch every target in every decentsim namespace that holds it."""
        import decentsim.cli  # noqa: F401  (imports every module it uses)

        modules = [
            m for n, m in list(sys.modules.items())
            if (n == "decentsim" or n.startswith("decentsim.")) and m is not None
        ]
        for module_name, attr, kind, name in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            if kind == "count-init":
                original.__init__ = self._count(name, original.__init__)
                continue
            wrap = {"span": self._span, "count": self._count, "count-items": self._count_items}[kind]
            wrapper = wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        self.chunk_size = getattr(sys.modules.get("decentsim.bound"), "CHUNK_SIZE", None)

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counters.items()},
            "missing": self.missing,
            "chunk_size": self.chunk_size,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# metric -> (unit, trace names it needs)
LAYER_METRICS = {
    "config.parse_config.s": ("s", ["config.parse_config"]),
    "cli.self.s": ("s", ["cli.main"]),
    "cli.out_bytes": ("bytes", []),
    "bound.estimate_g.calls": ("count", ["bound.estimate_g"]),
    "bound.estimate_g.s": ("s", ["bound.estimate_g"]),
    "bound.trivial_calls": ("count", ["bound.estimate_g"]),
    "bound.samples": ("count", ["bound.estimate_g"]),
    "bound.samples_per_s": ("1/s", ["bound.estimate_g"]),
    "bound.chunks": ("count", ["bound.estimate_g", "bound.CHUNK_SIZE"]),
    "bound.distinct_ratio": ("ratio", ["bound.estimate_g"]),
    "bound.sweep.s": ("s", ["bound.sweep"]),
    "dynamics.simulate.s": ("s", ["dynamics.simulate"]),
    "dynamics.seed_steps": ("count", ["dynamics.simulate"]),
    "dynamics.seed_steps_per_s": ("1/s", ["dynamics.simulate"]),
    "dynamics.trajectory_bytes": ("bytes", ["dynamics.simulate"]),
    "dynamics.ed_verdict.s": ("s", ["dynamics.ed_verdict"]),
    "dynamics.monotonicity_stats.s": ("s", ["dynamics.monotonicity_stats"]),
    "incentives.block_reward.calls": ("count", ["incentives.block_reward"]),
    "incentives.lottery_weights.calls": ("count", ["incentives.lottery_weights"]),
    "incentives.lottery_weights.s": ("s", ["incentives.lottery_weights"]),
    "incentives.utility.calls": ("count", ["incentives.utility"]),
    "conditions.check_gr.s": ("s", ["conditions.check_gr"]),
    "conditions.check_nd.s": ("s", ["conditions.check_nd"]),
    "conditions.check_ns.s": ("s", ["conditions.check_ns"]),
    "conditions.check_linearity.s": ("s", ["conditions.check_linearity"]),
    "conditions.allocations": ("count", ["conditions.allocations"]),
    "conditions.utility_per_allocation": (
        "ratio",
        ["conditions.allocations", "incentives.utility", "conditions.check_nd", "conditions.check_ns"],
    ),
    "core.PowerVector.count": ("count", ["core.PowerVector"]),
    "trace.overhead_frac": ("ratio", []),  # computed by run.py from plain and traced passes
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict[str, Any]], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass: the trace dumps of its invocations."""
    seconds: Counter = Counter()  # inclusive span time by name
    calls: Counter = Counter()
    counts: Counter = Counter()  # counted calls by name
    inside: Counter = Counter()  # (span name, counted name) -> calls made while it was open
    cli_self = 0.0
    walks: list[tuple[dict[str, Any], float]] = []
    sims: list[dict[str, Any]] = []
    missing: set[str] = set()
    chunk = 1
    for dump in dumps:
        spans = dump["spans"]
        missing.update(dump["missing"])
        counts.update(dump["counts"])
        if dump["chunk_size"] is None:
            missing.add("bound.CHUNK_SIZE")
        else:
            chunk = dump["chunk_size"]
        child = [0.0] * len(spans)
        for name, start, end, parent, attrs, counted in spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
            for key, n in counted.items():
                inside[(name, key)] += n
            if name == "bound.estimate_g":
                walks.append((attrs, end - start))
            elif name == "dynamics.simulate":
                sims.append(attrs)
        cli_self += sum(
            (end - start) - child[i]
            for i, (name, start, end, *_) in enumerate(spans) if name == "cli.main"
        )

    hard = [(a, s) for a, s in walks if not 1.0 / a["f"] <= 1.0 + a["epsilon"]]
    samples = sum(a["samples"] for a, _ in hard)
    distinct = {
        (float(f"{(1.0 + a['epsilon']) * a['f']:.12g}"), a["rho"], a["u"], a["k_max"],
         a["samples"], a["seed"], a["strategy"], a["n_jump"])
        for a, _ in hard
    }
    seed_steps = sum(a["seed_steps"] for a in sims)
    allocations = counts["conditions.allocations"]
    values = {
        "config.parse_config.s": seconds["config.parse_config"],
        "cli.self.s": cli_self,
        "cli.out_bytes": out_bytes,
        "bound.estimate_g.calls": calls["bound.estimate_g"],
        "bound.estimate_g.s": seconds["bound.estimate_g"],
        "bound.trivial_calls": len(walks) - len(hard),
        "bound.samples": samples,
        "bound.samples_per_s": _ratio(samples, sum(s for _, s in hard)),
        "bound.chunks": sum(math.ceil(a["samples"] / chunk) for a, _ in hard),
        "bound.distinct_ratio": _ratio(len(distinct), len(hard)),
        "bound.sweep.s": seconds["bound.sweep"],
        "dynamics.simulate.s": seconds["dynamics.simulate"],
        "dynamics.seed_steps": seed_steps,
        "dynamics.seed_steps_per_s": _ratio(seed_steps, seconds["dynamics.simulate"]),
        "dynamics.trajectory_bytes": sum(a["trajectory_bytes"] for a in sims),
        "dynamics.ed_verdict.s": seconds["dynamics.ed_verdict"],
        "dynamics.monotonicity_stats.s": seconds["dynamics.monotonicity_stats"],
        "incentives.block_reward.calls": counts["incentives.block_reward"],
        "incentives.lottery_weights.calls": calls["incentives.lottery_weights"],
        "incentives.lottery_weights.s": seconds["incentives.lottery_weights"],
        "incentives.utility.calls": counts["incentives.utility"],
        "conditions.check_gr.s": seconds["conditions.check_gr"],
        "conditions.check_nd.s": seconds["conditions.check_nd"],
        "conditions.check_ns.s": seconds["conditions.check_ns"],
        "conditions.check_linearity.s": seconds["conditions.check_linearity"],
        "conditions.allocations": allocations,
        "conditions.utility_per_allocation": _ratio(
            inside[("conditions.check_nd", "incentives.utility")]
            + inside[("conditions.check_ns", "incentives.utility")],
            allocations,
        ),
        "core.PowerVector.count": counts["core.PowerVector"],
    }
    return {
        name: value for name, value in values.items()
        if not missing.intersection(LAYER_METRICS[name][1])
    }
