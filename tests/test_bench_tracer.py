"""Smoke test of the benchmark's tracer against the current program.

``perfbench/bench_trace.py`` wraps module-level names of ``cli``,
``evaluation`` and ``stability``, the policy models' methods and
``DecisionTree.fit`` by name. This runs one traced benchmark child, so a
rename that the tracer no longer finds fails here rather than in the
benchmark. The child runs in its own process because the tracer patches the
modules for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from stability_meter.synthgen import DriftLogSpec, generate, to_csv

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_child_counts_every_layer(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=300, drift_at=150, seed=3))))
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "bench_child.py"),
            str(result), "--trace", str(spans), "--",
            "run", "--log", str(log), "--out", str(tmp_path / "out"),
            "--model", "window-retrain", "--retrain-every", "8", "--attrs", "amount,channel",
            "--grace", "50", "--eval-window", "20",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["classifiers.tree_fit.calls"] > 0
    assert layers["stability.points"] > 0
