"""The benchmark's tracer looks its targets up by name and silently drops
the metric of a target it cannot find, so every target must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, {benchmarks!r})
import tracer
probe = tracer.Tracer()
probe.install()
print(json.dumps({{"missing": probe.missing, "chunk_size": probe.chunk_size,
                  "metrics": list(tracer.LAYER_METRICS)}}))
"""


def test_tracer_finds_every_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(benchmarks=str(ROOT / "benchmarks"))],
        env=env, capture_output=True, text=True, check=True,
    )
    probe = json.loads(done.stdout)
    assert probe["missing"] == []
    assert probe["chunk_size"] is not None
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(probe["metrics"]) == sorted(metric["name"] for metric in declared)
