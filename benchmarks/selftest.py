"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 benchmarks/selftest.py

It checks that every metric named in BENCHMARK.json is emitted, with its
unit, by the plain and the traced run of every workload, and that each
output check rejects a corrupted output: a shifted estimate, a swapped
CSV row, a changed final state and a changed witness part.  Exits 1 on
the first failure.  Takes about a minute.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import sys
from pathlib import Path

from run import ROOT, invoke, measure, scratch_dir

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 11


def _expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads of workloads.py",
    )
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, SEED, 0, trace, size="tiny")
            _expect(result["correct"] and result["failed"] == 0, f"{workload} trace={int(trace)} passes its checks")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _expect(got == _declared(spec, key), f"{workload} trace={int(trace)} emits every {key} metric with its unit")
            _expect(
                all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in result["metrics"].values()),
                f"{workload} trace={int(trace)} values are finite numbers",
            )


def _run_once(inv, work: Path, index: int) -> tuple[dict, Path]:
    config_path = work / f"config-{index}.json"
    config_path.write_text(json.dumps(inv.config), encoding="utf-8")
    outcome = invoke(inv, config_path, work / f"inv-{index}")
    _expect(not outcome.problems, f"{inv.label} output passes its check")
    return outcome.report["results"], work / f"inv-{index}" / "out"


def _rejects(inv, results: dict, out_dir: Path, what: str) -> None:
    _expect(bool(inv.check(results, out_dir)), f"{inv.label} check rejects {what}")


def check_corruptions(work: Path) -> None:
    [bound] = workloads.build("bound-anchor", SEED, "tiny")
    results, out_dir = _run_once(bound, work, 0)
    shifted = dict(results, estimate=results["estimate"] + 10 * math.hypot(
        results["std_error"], workloads.load_reference()["bound-anchor"]["std_error"]))
    _rejects(bound, shifted, out_dir, "an estimate shifted by 10 standard errors")
    _rejects(bound, dict(results, p0=1.0), out_dir, "p0 above the analytic bound")

    [sweep] = workloads.build("sweep-grid", SEED, "tiny")
    results, out_dir = _run_once(sweep, work, 1)
    shifted = copy.deepcopy(results)
    row = shifted["rows"][0]
    row["estimate"] += 10 * workloads.row_std_error(row)
    _rejects(sweep, shifted, out_dir, "a row estimate shifted by 10 standard errors")
    csv_path = Path(results["csv_path"])
    with csv_path.open(newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    table[1], table[2] = table[2], table[1]
    with csv_path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(table)
    _rejects(sweep, results, out_dir, "two swapped CSV rows")

    gamma, pow_ = workloads.build("simulate-batch", SEED, "tiny")
    results, out_dir = _run_once(gamma, work, 2)
    changed = copy.deepcopy(results)
    for entry in changed["per_seed"]:
        entry["final_betas"][0] = math.nextafter(entry["final_betas"][0], 1.0)
    _rejects(gamma, changed, out_dir, "final betas changed in the last bit")
    results, out_dir = _run_once(pow_, work, 3)
    for path in sorted(Path(results["trajectories_dir"]).glob("*.csv"))[:1]:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1], lines[-2] = lines[-2], lines[-1]
        path.write_text("".join(lines), encoding="utf-8")
    _rejects(pow_, results, out_dir, "two swapped trajectory CSV rows")

    [check] = workloads.build("check-gamma", SEED, "tiny")
    results, out_dir = _run_once(check, work, 4)
    _expect(results["ns"]["witness"] is not None, "check-gamma reports a split witness")
    changed = copy.deepcopy(results)
    parts = changed["ns"]["witness"]["parts"]
    parts[0] *= 1.5
    _rejects(check, changed, out_dir, "a changed witness part")
    changed = copy.deepcopy(results)
    changed["nd"]["holds"] = not changed["nd"]["holds"]
    _rejects(check, changed, out_dir, "a flipped verdict")


def main() -> None:
    check_metric_names()
    with scratch_dir("selftest-") as work:
        check_corruptions(work)
    print("self-test passed")


if __name__ == "__main__":
    main()
