"""Record the references the benchmark's output checks compare against.

Run once, from the repository root, on the commit the benchmark was
defined at:

    python3 benchmarks/record_reference.py

It runs the ``bound`` and ``sweep`` workloads through the CLI at ten
times their benchmark sample counts with REFERENCE_SEED, which no
workload uses, and records the ``check`` verdicts, then writes
benchmarks/reference.json.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, invoke, scratch_dir

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import REFERENCE_SEED, SIZES, Invocation, row_std_error  # noqa: E402

SCALE = 10


def _results(subcommand: str, config: dict) -> dict:
    with scratch_dir("reference-") as work:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        inv = Invocation(subcommand, subcommand, config, lambda results, out_dir: [])
        outcome = invoke(inv, config_path, work / "inv", timeout=3600.0)
        if outcome.problems:
            raise SystemExit("; ".join(outcome.problems))
        return outcome.report["results"]


def main() -> None:
    samples = SCALE * SIZES["full"]["anchor_samples"]
    bound = _results("bound", workloads.bound_config(samples, REFERENCE_SEED))
    samples_per_cell = SCALE * SIZES["full"]["sweep_samples"]
    config = workloads.sweep_config(samples_per_cell, REFERENCE_SEED)
    config["csv_out"] = ""
    rows = _results("sweep", config)["rows"]
    check = _results("check", workloads.check_config(workloads.CHECK_POWERS))
    reference = {
        "bound-anchor": {
            "samples": samples,
            "seed": REFERENCE_SEED,
            "estimate": bound["estimate"],
            "std_error": bound["std_error"],
        },
        "sweep-grid": {
            "samples": samples_per_cell,
            "seed": REFERENCE_SEED,
            "rows": [
                {"f": r["f"], "epsilon": r["epsilon"], "rho": r["rho"],
                 "estimate": r["estimate"], "std_error": row_std_error(r)}
                for r in rows
            ],
        },
        "check-gamma": {
            "gr": check["gr"]["holds"],
            "profitable_nodes": check["gr"]["profitable_nodes"],
            "nd": check["nd"]["holds"],
            "ns": check["ns"]["holds"],
            "is_linear": check["linearity"]["is_linear"],
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
