"""Tests of the benchmark's output check on one small real run."""

from __future__ import annotations

import csv
import shutil

import pytest

import run as bench
from bench_check import OutputJudge, check_outputs


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A small ``stability-meter run`` made the way the benchmark makes one."""
    work = tmp_path_factory.mktemp("bench")
    log = str(work / "input.csv")
    bench.generate_log(bench.Workload(cases=400, drift_at=300, default_seed=0, run_args=()), 0, log)
    out = work / "out"
    record = bench.spawn(work, ["run", "--log", log, "--out", str(out), "--model", "static"])
    return record, out


def _mutated_copy(out, tmp_path, edit):
    """Copy of the run's outputs with ``edit(rows)`` applied to performance.csv."""
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "performance.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    return copy


def _flip_first_drop_flag(rows):
    row = next(row for row in rows[1:] if row[8] == "true")
    row[8] = "false"


def _perturb_one_ma(rows):
    row = rows[len(rows) // 2]
    row[4] = repr(float(row[4]) + 1e-9)


def test_clean_small_run_passes(clean_run):
    record, out = clean_run
    judge = OutputJudge()
    assert bench.judge_run(record, out, judge) == []
    assert bench.judge_run(record, out, judge) == []  # same digests on a second look
    assert set(judge.digests) == {"performance.csv", "meta.json"}


@pytest.mark.parametrize(
    ("edit", "column"), [(_flip_first_drop_flag, "is_drop"), (_perturb_one_ma, "ma")]
)
def test_tampered_output_fails_the_run(clean_run, tmp_path, edit, column):
    record, out = clean_run
    tampered = _mutated_copy(out, tmp_path, edit)

    problems = check_outputs(tampered)
    assert problems and all(column in problem for problem in problems)
    assert bench.judge_run(record, tampered, OutputJudge())

    # Against the clean run's digests the tampered copy fails on both counts.
    judge = OutputJudge()
    assert bench.judge_run(record, out, judge) == []
    problems = bench.judge_run(record, tampered, judge)
    assert any("digests" in problem for problem in problems)


def test_nonzero_exit_fails_the_run(clean_run):
    record, out = clean_run
    assert bench.judge_run({**record, "exit": 2}, out, OutputJudge()) == [
        "exit status 2 (see child.log)"
    ]
