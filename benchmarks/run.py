"""decentsim benchmark: CLI workloads timed end to end, or traced by layer.

Run from the repository root (numpy must be importable):

    python3 benchmarks/run.py --workload bound-anchor --seed 1 --seconds 20 --trace 0

A workload is a fixed sequence of ``decentsim`` CLI invocations whose
config files are generated from ``--seed`` (see workloads.py).  They run
in a closed loop: one client, one invocation at a time, each started
after the previous one exited.  A pass runs the sequence once.  Passes
repeat until the next one would end after ``--seconds``; at least one
runs.  Before the passes of a plain run, SETUP_PROBES invocations stop
right after the configuration is resolved, to sample set-up time.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: from spawning the CLI process until ``parse_config``
  returns, median over every invocation and probe;
- ``wall_s``: the rest of each invocation up to process exit, summed
  over a pass, median over passes;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any process an
  invocation started (a per-process maximum, not a sum over a pool),
  largest in a pass, median over passes.

``--trace 1`` alternates plain and traced passes and prints the
per-layer metrics of the traced passes (tracer.py), medians over
passes, plus ``trace.overhead_frac``: median traced ``wall_s`` over
median plain ``wall_s``, minus one.

Every invocation's output is checked.  A non-zero exit, a report that is
not strict JSON or a failed check makes the invocation failed.  The last
line of stdout is the JSON result; the lines before it record the
machine and the failed fraction.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
INVOCATION_TIMEOUT_S = 150.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    setup_s: float | None
    wall_s: float
    rss_mb: float
    out_bytes: int
    problems: list[str]
    report: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None


def _reject_constant(name: str) -> None:
    raise ValueError(f"report holds the non-JSON number {name}")


def parse_report(text: str) -> dict[str, Any]:
    """Parse a CLI report as strict JSON: NaN and infinities are errors."""
    return json.loads(text, parse_constant=_reject_constant)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under .bench_tmp in the checkout, removed on exit."""
    root = ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def invoke(
    inv, config_path: Path, inv_dir: Path, mode: str = "run", timeout: float = INVOCATION_TIMEOUT_S
) -> Outcome:
    """Run one CLI invocation in ``inv_dir`` and check what it produced.

    ``mode`` is "run", "setup" (stop after config resolution) or "trace".
    """
    out_dir = inv_dir / "out"
    out_dir.mkdir(parents=True)
    mark, stdout_path, stderr_path = inv_dir / "mark", inv_dir / "stdout", inv_dir / "stderr"
    trace_path = inv_dir / "trace.json"
    driver_mode = f"trace={trace_path}" if mode == "trace" else mode
    cmd = [sys.executable, str(HERE / "driver.py"), str(mark), driver_mode,
           inv.subcommand, "--config", str(config_path)]
    python_path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, DECENTSIM_OUT=str(out_dir), PYTHONPATH=os.pathsep.join(python_path))
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    mark_text = mark.read_text(encoding="utf-8") if mark.exists() else ""
    parsed_at = float(mark_text) if mark_text else None
    outcome = Outcome(
        setup_s=None if parsed_at is None else parsed_at - started,
        wall_s=exited - (started if parsed_at is None else parsed_at),
        rss_mb=usage.ru_maxrss / 1024.0,
        out_bytes=stdout_path.stat().st_size
        + sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
        problems=[],
    )
    if proc.returncode != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
        outcome.problems.append(f"{inv.label}: exit code {proc.returncode}: {tail.strip()}")
        return outcome
    if parsed_at is None:
        outcome.problems.append(f"{inv.label}: parse_config never returned")
        return outcome
    if mode == "trace":
        if trace_path.exists():
            outcome.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        else:
            outcome.problems.append(f"{inv.label}: no trace written")
    if mode != "setup":
        try:
            outcome.report = parse_report(stdout_path.read_text(encoding="utf-8"))
            outcome.problems += [
                f"{inv.label}: {p}" for p in inv.check(outcome.report["results"], out_dir)
            ]
        except Exception as exc:  # a malformed output fails this invocation, not the run
            outcome.problems.append(f"{inv.label}: output check raised {type(exc).__name__}: {exc}")
    return outcome


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict[str, Any]:
    """Run one benchmark measurement and return the result object."""
    import tracer
    import workloads

    invocations = workloads.build(workload, seed, size)
    serial = itertools.count()
    with scratch_dir(f"{workload}-") as work:
        configs = []
        for i, inv in enumerate(invocations):
            path = work / f"config-{i}-{inv.label}.json"
            path.write_text(json.dumps(inv.config), encoding="utf-8")
            configs.append(path)

        def once(i: int, mode: str) -> Outcome:
            inv_dir = work / f"inv-{next(serial)}"
            try:
                return invoke(invocations[i], configs[i], inv_dir, mode)
            finally:
                shutil.rmtree(inv_dir, ignore_errors=True)

        probes = [] if trace else [once(0, "setup") for _ in range(SETUP_PROBES)]
        plain: list[list[Outcome]] = []
        traced: list[list[Outcome]] = []
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            plain.append([once(i, "run") for i in range(len(invocations))])
            if trace:
                traced.append([once(i, "trace") for i in range(len(invocations))])
            now = time.perf_counter()
            if now - started + (now - round_start) > seconds:
                break

    outcomes = probes + [o for p in plain + traced for o in p]
    failed = [o for o in outcomes if o.problems]
    for outcome in failed:
        for problem in outcome.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    walls = [sum(o.wall_s for o in p) for p in plain]
    if trace:
        per_pass = [
            tracer.layer_metrics([o.trace for o in p if o.trace], sum(o.out_bytes for o in p))
            for p in traced
        ]
        values = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        }
        traced_walls = [sum(o.wall_s for o in p) for p in traced]
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics = {name: {"value": v, "unit": tracer.LAYER_METRICS[name][0]} for name, v in values.items()}
    else:
        setups = [o.setup_s for o in outcomes if o.setup_s is not None]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in plain),
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
        "pass_walls": walls,
    }


def environment() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "decentsim" / "cli.py").is_file():
        print(f"run.py: no decentsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print("environment " + json.dumps(environment()))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    walls = result.pop("pass_walls")
    print(f"wall_s of the {len(walls)} plain passes {[round(w, 4) for w in walls]}; "
          f"failed_frac {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
