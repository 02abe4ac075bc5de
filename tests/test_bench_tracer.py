"""Smoke test of the benchmark's tracer against the current program.

``perfbench/bench_trace.py`` wraps module-level names of ``cli``,
``evaluation`` and ``stability``, the policy models' methods and
``DecisionTree.fit`` by name. This runs one traced benchmark child, so a
rename that the tracer no longer finds fails here rather than in the
benchmark. The child runs in its own process because the tracer patches the
modules for good; an untraced run of the same settings in this process checks
that no method is wrapped twice.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from stability_meter.cli import RunConfig
from stability_meter.evaluation import run_stream
from stability_meter.event_model import parse_log
from stability_meter.prefixing import BucketConfig, default_k_max
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

ROOT = Path(__file__).resolve().parent.parent


def _traced_layers(tmp_path, log, model):
    """The per-layer metrics of one traced benchmark child on ``log``."""
    result, spans = tmp_path / f"{model}.json", tmp_path / f"{model}-spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "bench_child.py"),
            str(result), "--trace", str(spans), "--",
            "run", "--log", str(log), "--out", str(tmp_path / model),
            "--model", model, "--retrain-every", "8", "--attrs", "amount,channel",
            "--grace", "50", "--eval-window", "20",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(result.read_text())["layers"]


def _untraced_predictions(log, model):
    """Predictions an untraced run of the same settings resolves."""
    config = RunConfig(
        log=str(log), model=model, retrain_every=8,
        attrs=("amount", "channel"), grace=50, eval_window=20,
    )
    traces = parse_log(log)
    ledger = []
    run_stream(
        traces, config.model, BucketConfig(config.k_min, default_k_max(traces)),
        grace=config.grace, eval_window=config.eval_window,
        attrs=config.attrs,
        params=config.learner_params(), ledger=ledger,
    )
    return len(ledger)


def test_traced_benchmark_child_counts_every_layer(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=300, drift_at=150, seed=3))))
    for model in ("window-retrain", "static"):
        layers = _traced_layers(tmp_path, log, model)
        assert layers["classifiers.tree_fit.calls"] > 0
        assert layers["stability.points"] > 0
        # A method wrapped twice (say, one a tree model inherits from a class
        # the tracer wrapped before it) would count each prediction twice.
        assert layers["classifiers.predict.calls"] == _untraced_predictions(log, model) > 0
