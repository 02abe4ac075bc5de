"""Benchmark of ``stability-meter run`` on seeded synthetic logs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-2k --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each workload generates its log with ``stability-meter synth`` from the seed
(untimed set-up), then repeats ``stability-meter run`` on it, one child
process at a time at the program's default settings, for about
``--seconds``. Every run's outputs are checked (see ``bench_check``). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the runs); with ``--trace 1`` untraced and
traced runs alternate and it holds the per-layer metrics (see
``bench_trace``) and the tracing overhead. A full record of every run goes
to ``.bench_work/<workload>/result-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench_check import OutputJudge, sha256_of

ROOT = Path(__file__).resolve().parent.parent
WORK = ".bench_work"
SETUP_SAMPLES = 3  # import-only children; every run's child adds one more
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """A synthetic log (``synth`` flags) and the ``run`` flags applied to it."""

    cases: int
    drift_at: int
    default_seed: int
    run_args: tuple[str, ...]


# Why each workload exists and which layer it exposes: see README.md.
WORKLOADS = {
    "static-2k": Workload(2000, 1000, 1, ("--model", "static")),
    "retrain-attrs-5k": Workload(
        5000,
        2500,
        1,
        (
            "--model", "window-retrain", "--retrain-every", "64",
            "--attrs", "amount,channel", "--eval-every", "50",
        ),
    ),
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def child_env() -> dict[str, str]:
    """The benchmark's environment, importing the checkout's program at defaults."""
    env = dict(os.environ)
    env.pop("STABILITY_METER_THREADS", None)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(work: Path, run_args: list[str], spans: Path | None = None) -> dict:
    """One child process; returns its record plus ``setup_s`` and ``exit``."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    command = [sys.executable, str(ROOT / "perfbench" / "bench_child.py"), str(result)]
    if spans is not None:
        command += ["--trace", str(spans)]
    if run_args:
        command += ["--", *run_args]
    with open(work / "child.log", "ab") as log:
        # The child stamps its import with the same system-wide monotonic clock.
        spawned_at = time.monotonic()
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    try:
        record = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    record["exit"] = proc.returncode
    if "imported_at" in record:
        record["setup_s"] = record["imported_at"] - spawned_at
    return record


def judge_run(record: dict, out_dir: Path, judge: OutputJudge) -> list[str]:
    """Why a run failed (empty when it passed): exit status and output check."""
    if record["exit"] != 0 or "run_s" not in record:
        return [f"exit status {record['exit']} (see child.log)"]
    return judge.judge(out_dir)


def generate_log(workload: Workload, seed: int, log: str) -> None:
    """``stability-meter synth`` into ``log`` (relative to the repository root)."""
    command = [
        sys.executable, "-m", "stability_meter.cli", "synth",
        "--cases", str(workload.cases), "--drift-at", str(workload.drift_at),
        "--seed", str(seed), "--out", log,
    ]
    subprocess.run(
        command, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


def count_events(log: Path) -> int:
    with open(log, "rb") as handle:
        return sum(1 for _ in handle) - 1


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    work = ROOT / WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_at_start = os.getloadavg()

    # Relative paths: meta.json records the log path, so its digest is the
    # same in every checkout and equals a plain `stability-meter run` there.
    log = f"{WORK}/{name}/input.csv"
    generate_log(workload, seed, log)
    events = count_events(ROOT / log)
    out_dir = work / "out"
    run_args = ["run", "--log", log, "--out", f"{WORK}/{name}/out", *workload.run_args]

    spawn(work, [])  # warm-up: bytecode compilation is not a per-invocation cost
    setup = [spawn(work, []) for _ in range(SETUP_SAMPLES)]
    if any("setup_s" not in record for record in setup):
        raise RuntimeError(f"{name}: the program failed to import (see {work / 'child.log'})")
    program = Path(setup[0]["module"]).resolve()
    if ROOT / "src" not in program.parents:
        raise RuntimeError(f"{name}: imported {program}, not the program under {ROOT / 'src'}")

    # Runs continue while the next one is expected to end within `seconds`
    # (a traced run pairs with the untraced run before it).
    judge = OutputJudge()
    runs = []
    started = time.monotonic()
    for traced in itertools.cycle([False, True] if trace else [False]):
        begun = time.monotonic()
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = work / f"spans-seed{seed}.json" if traced else None
        record = spawn(work, run_args, spans)
        record["traced"] = traced
        record["problems"] = judge_run(record, out_dir, judge)
        record["wall_s"] = time.monotonic() - begun
        runs.append(record)
        step = statistics.median([r["wall_s"] for r in runs]) * (2 if trace else 1)
        done = time.monotonic() - started + step > seconds and len(runs) >= MIN_RUNS
        if done and (traced or not trace):
            break

    setup_s = [r["setup_s"] for r in setup + runs if "setup_s" in r]
    passed = [r for r in runs if not r["problems"]]
    plain = [r for r in passed if not r["traced"]]
    if trace:
        traced_runs = [r for r in passed if r["traced"]]
        if not traced_runs or not plain:
            raise RuntimeError(f"{name}: no traced/untraced run pair passed")
        untraced_s = statistics.median([r["run_s"] for r in plain])
        overhead = statistics.median([r["run_s"] for r in traced_runs]) - untraced_s
        values = {
            key: statistics.median([r["layers"][key] for r in traced_runs])
            for key in traced_runs[0]["layers"]
        }
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / untraced_s
        units = metric_units("per_layer")
    else:
        if not plain:
            raise RuntimeError(f"{name}: no run passed: {runs[0]['problems']}")
        values = {
            "run_s": statistics.median([r["run_s"] for r in plain]),
            "events_per_s": statistics.median([events / r["run_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_kb"] / 1024 for r in plain]),
            "setup_s": statistics.median(setup_s),
        }
        units = metric_units("end_to_end")

    failed = sum(1 for r in runs if r["problems"])
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "synth": {"cases": workload.cases, "drift_at": workload.drift_at, "seed": seed},
        "run_args": run_args,
        "input": {"path": log, "sha256": sha256_of(ROOT / log), "events": events},
        "environment": {
            "python": setup[0]["python"],
            "numpy": setup[0]["numpy"],
            "nproc": os.cpu_count(),
            "loadavg_at_start": load_at_start,
            "program": str(program.relative_to(ROOT)),
        },
        "digests": judge.digests,
        "setup_s_samples": setup_s,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return report


def print_report(report: dict) -> None:
    print(
        f"{report['workload']}: seed {report['seed']}, {report['input']['events']} events "
        f"(sha256 {report['input']['sha256']}), {report['attempted']} runs, "
        f"{report['failed']} failed"
    )
    print(f"  environment: {json.dumps(report['environment'])}")
    for run in report["runs"]:
        for problem in run["problems"]:
            print(f"  FAILED run: {problem}")
    print(f"  digests: {json.dumps(report['digests'])}")
    for key, metric in report["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="synth seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stability_meter" / "cli.py").is_file():
        print(f"benchmark: no program at {ROOT / 'src' / 'stability_meter'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        result = {key: reports[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}/{key}": metric
                for r in reports
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
