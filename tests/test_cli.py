import csv
import gc
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from stability_meter import cli
from stability_meter.classifiers import LearnerParams
from stability_meter.cli import RunConfig, SeriesReport, _config_from_args, build_parser, main
from stability_meter.evaluation import PerformanceSeries
from stability_meter.event_model import parse_log
from stability_meter.stability import SeriesAnnotation, SignificantDrop, annotate_series
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from log_strategies import csv_logs
from oracles import fstring_rows


@pytest.fixture()
def small_log(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(to_csv(generate(DriftLogSpec(n_cases=60, drift_at=30, seed=1))))
    return path


def _run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_a_log(tmp_path, capsys):
    out = tmp_path / "drift.csv"
    code, stdout, _ = _run_cli(
        ["synth", "--cases", "30", "--drift-at", "15", "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "30 cases" in stdout
    rows = list(csv.DictReader(out.open()))
    assert {row["case_id"] for row in rows} == {f"case_{i:05d}" for i in range(1, 31)}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cases", "0"], "--cases must be >= 1, got 0"),
        (["--cases", "10", "--drift-at", "0"], "--drift-at must be in [1, 10], got 0"),
        (["--cases", "10", "--drift-at", "11"], "--drift-at must be in [1, 10], got 11"),
        (["--noise", "0.5"], "--noise must be in [0, 0.5), got 0.5"),
        (["--noise", "-0.1"], "--noise must be in [0, 0.5), got -0.1"),
    ],
)
def test_bad_synth_setting_names_its_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "drift.csv"
    code, stdout, stderr = _run_cli(["synth", *flags, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"stability-meter: config error: {message}\n"
    assert not out.exists()


def test_run_smoke_produces_all_artifacts(small_log, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code, stdout, _ = _run_cli(
        [
            "run",
            "--log", str(small_log),
            "--model", "incremental",
            "--grace", "20",
            "--eval-window", "10",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert sorted(path.name for path in out.iterdir()) == ["meta.json", "performance.csv"]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["configuration"]["model"] == "incremental"
    assert meta["series"], "expected at least one evaluated series"
    assert "k_max=" in stdout


def test_run_files_get_the_mode_the_umask_allows(small_log, tmp_path, capsys):
    out = tmp_path / "out"
    previous = os.umask(0o022)
    try:
        code, _, _ = _run_cli(
            ["run", "--log", str(small_log), "--grace", "20", "--eval-window", "10", "--out", str(out)],
            capsys,
        )
    finally:
        os.umask(previous)
    assert code == 0
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.rglob("*") if path.is_file()}
    assert modes == {"performance.csv": 0o644, "meta.json": 0o644}


def _run_into_blocked_out(small_log, tmp_path, capsys, blocked):
    """Exit code, stderr and what ``--out`` holds after a run whose ``blocked`` file is a directory."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code, _, stderr = _run_cli(
        ["run", "--log", str(small_log), "--grace", "20", "--eval-window", "10", "--out", str(out)],
        capsys,
    )
    return code, stderr, sorted(str(path.relative_to(out)) for path in out.rglob("*"))


def test_failed_performance_csv_write_leaves_nothing_but_the_blocking_directory(small_log, tmp_path, capsys):
    code, stderr, left = _run_into_blocked_out(small_log, tmp_path, capsys, "performance.csv")
    assert code == 4
    assert stderr.startswith("stability-meter: i/o error:")
    assert stderr.count("\n") == 1
    assert left == ["performance.csv"]


def test_failed_meta_json_write_leaves_performance_csv_and_no_temp_file(small_log, tmp_path, capsys):
    code, stderr, left = _run_into_blocked_out(small_log, tmp_path, capsys, "meta.json")
    assert code == 4
    assert stderr.startswith("stability-meter: i/o error:")
    assert stderr.count("\n") == 1
    assert left == ["meta.json", "performance.csv"]
    assert (tmp_path / "out" / "performance.csv").is_file()


def test_writing_performance_csv_keeps_no_finished_series_rows(tmp_path, capsys, monkeypatch):
    # Memory that the performance.csv write allocates and still holds at its
    # peak must stay well below the file's size: only one series' rows at a time.
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3))))
    write = cli._atomic_write
    peaks = {}

    def measured_write(path, chunks):
        if path.name != "performance.csv":
            return write(path, chunks)
        tracemalloc.start()
        try:
            write(path, chunks)
            peaks[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_atomic_write", measured_write)
    code, _, _ = _run_cli(
        [
            "run", "--log", str(log), "--out", str(tmp_path / "out"),
            "--model", "static", "--grace", "50", "--eval-window", "20",
        ],
        capsys,
    )
    assert code == 0
    [(path, peak)] = peaks.items()
    assert peak < 0.5 * path.stat().st_size


def test_run_is_byte_identical_across_repeats(small_log, tmp_path, capsys):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code, _, _ = _run_cli(
            [
                "run",
                "--log", str(small_log),
                "--grace", "20",
                "--eval-window", "10",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        outs.append(out)
    for artifact in ("performance.csv", "meta.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_performance_csv_has_the_documented_columns(small_log, tmp_path, capsys):
    out = tmp_path / "cols"
    code, _, _ = _run_cli(
        ["run", "--log", str(small_log), "--grace", "20", "--eval-window", "10",
         "--out", str(out), "--metric", "accuracy"],
        capsys,
    )
    assert code == 0
    with (out / "performance.csv").open() as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == [
            "label_index", "bucket", "metric", "value", "ma", "std", "lb", "ub",
            "is_drop", "drop_id",
        ]
        row = next(reader)
        assert row["metric"] == "accuracy"
        assert 0.0 <= float(row["value"]) <= 1.0


def test_auto_k_max_resolves_to_the_median_case_length(tmp_path, capsys):
    lengths = [11, 12, 12, 13, 10, 12, 14, 12, 11, 13, 12] * 4
    lines = ["case_id,activity,timestamp,label"]
    clock = 0
    for index, length in enumerate(lengths):
        for position in range(length):
            label = str(index % 2) if position == length - 1 else ""
            lines.append(f"c{index},a{position},{clock},{label}")
            clock += 1
    log = tmp_path / "median12.csv"
    log.write_text("\n".join(lines) + "\n")
    code, stdout, _ = _run_cli(
        ["run", "--log", str(log), "--grace", "5", "--eval-window", "5",
         "--out", str(tmp_path / "m12")],
        capsys,
    )
    assert code == 0
    assert "k_max=12 (auto)" in stdout


@pytest.mark.parametrize("model", ["incremental", "static"])
def test_a_k_max_above_the_longest_case_costs_no_memory(tmp_path, capsys, model):
    # No prefix reaches a bucket longer than the longest case, so it gets no
    # model: --k-max 3000 writes the performance.csv of --k-max at the
    # longest case, within a MiB of its peak memory, and records 3000.
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=120, drift_at=60, seed=1))))
    longest = int(parse_log(log).lengths().max())
    peaks = {}
    for k_max in (3000, longest):
        argv = ["run", "--log", str(log), "--model", model, "--grace", "30", "--eval-window", "20",
                "--k-max", str(k_max), "--out", str(tmp_path / str(k_max))]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[k_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    csv_3000, csv_longest = ((tmp_path / str(k_max) / "performance.csv").read_bytes() for k_max in (3000, longest))
    assert csv_3000 == csv_longest
    assert json.loads((tmp_path / "3000" / "meta.json").read_text())["configuration"]["k_max"] == 3000
    assert peaks[3000] < peaks[longest] + 2**20, peaks


def test_compare_emits_rows_per_config_and_rankings(small_log, tmp_path, capsys):
    out = tmp_path / "cmp"
    code, stdout, _ = _run_cli(
        [
            "compare",
            "--log", str(small_log),
            "--models", "incremental,static",
            "--grace", "20",
            "--eval-window", "10",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["metric"] == "f1"
    assert set(payload["rankings"]) == {"hf-lr", "lf-hr", "hf-hr"}
    configs = {row["config"] for row in payload["rows"]}
    assert configs == {"incremental", "static"}
    buckets = {row["bucket"] for row in payload["rows"] if row["config"] == "incremental"}
    assert buckets == {row["bucket"] for row in payload["rows"] if row["config"] == "static"}
    assert "scenario hf-hr" in stdout
    assert (out / "incremental" / "meta.json").exists()
    assert (out / "static" / "meta.json").exists()


def _tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_compare_parses_once_and_each_model_matches_a_separate_run(
    small_log, tmp_path, capsys, monkeypatch
):
    calls = []
    parse = cli.parse_log

    def counting_parse(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(cli, "parse_log", counting_parse)
    models = ("incremental", "window-retrain", "static")
    flags = ["--log", str(small_log), "--grace", "20", "--eval-window", "10", "--retrain-every", "3"]
    code, _, _ = _run_cli(
        ["compare", *flags, "--models", ",".join(models), "--out", str(tmp_path / "cmp")], capsys
    )
    assert code == 0
    assert calls == [str(small_log)]
    assert sorted(path.name for path in (tmp_path / "cmp").iterdir()) == ["compare.json", *sorted(models)]
    for model in models:
        alone = tmp_path / "alone" / model
        code, _, _ = _run_cli(
            ["run", *flags, "--model", model, "--metric", "f1", "--out", str(alone)], capsys
        )
        assert code == 0
        compared = _tree_bytes(tmp_path / "cmp" / model)
        assert sorted(compared) == ["meta.json", "performance.csv"]
        assert compared == _tree_bytes(alone)


def test_compare_needs_two_models(small_log, capsys):
    code, _, stderr = _run_cli(
        ["compare", "--log", str(small_log), "--models", "incremental"], capsys
    )
    assert code == 2
    assert "config error" in stderr and stderr.count("\n") == 1


def test_compare_rejects_an_unknown_model_before_running_any(small_log, tmp_path, capsys):
    out = tmp_path / "cmp"
    code, _, stderr = _run_cli(
        ["compare", "--log", str(small_log), "--models", "static,bogus", "--out", str(out)], capsys
    )
    assert code == 2
    assert stderr == (
        "stability-meter: config error: unknown model 'bogus'; "
        "expected one of incremental, window-retrain, static\n"
    )
    assert not out.exists()


def test_compare_rejects_a_repeated_model_before_running_any(small_log, tmp_path, capsys):
    # Both runs would write into one directory and rank the model against itself.
    out = tmp_path / "twin"
    code, stdout, stderr = _run_cli(
        ["compare", "--log", str(small_log), "--models", "static,incremental,static", "--out", str(out)], capsys
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "stability-meter: config error: compare runs each model once; 'static' is named twice in --models\n"
    )
    assert not out.exists()


def test_compare_names_the_model_that_evaluated_nothing(small_log, tmp_path, capsys):
    code, stdout, stderr = _run_cli(
        ["compare", "--log", str(small_log), "--models", "incremental,static", "--grace", "60",
         "--out", str(tmp_path / "cmp")],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "stability-meter: config error: --grace 60 covers all 60 labels of the log, "
        "so no model would be evaluated\n"
    )
    assert not (tmp_path / "cmp").exists()  # rejected before any model ran


def test_compare_names_a_model_whose_buckets_evaluated_nothing(small_log, tmp_path, capsys):
    # Every bucket lies above the longest case, so no prefix is ever predicted.
    longest = int(parse_log(small_log).lengths().max())
    code, stdout, stderr = _run_cli(
        ["compare", "--log", str(small_log), "--models", "incremental,static", "--grace", "20",
         "--k-min", str(longest + 1), "--k-max", str(longest + 2), "--out", str(tmp_path / "cmp")],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "stability-meter: config error: model 'incremental' evaluated no series, so there is nothing to compare\n"
    )


def test_run_with_attribute_encoding_enabled(small_log, tmp_path, capsys):
    # the schema must reach the stream encoder, not just the model builder
    for policy in ("incremental", "window-retrain", "static"):
        out = tmp_path / f"attrs-{policy}"
        code, _, _ = _run_cli(
            [
                "run",
                "--log", str(small_log),
                "--model", policy,
                "--grace", "20",
                "--eval-window", "10",
                "--metric", "f1",
                "--attrs", "amount,channel",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["configuration"]["attrs"] == ["amount", "channel"]
        assert meta["series"]


def test_run_with_only_a_log_flag_succeeds(small_log, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run_cli(["run", "--log", str(small_log)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["configuration"]["grace"] == 200
    assert set(meta["configuration"]) == (
        {field.name for field in fields(RunConfig)} - {"out_dir"} | {"k_max_auto"}
    )
    assert (tmp_path / "out" / "performance.csv").exists()


@pytest.mark.parametrize("grace", [59, 60, 500])
def test_grace_covering_every_label_warns_and_still_succeeds(small_log, capsys, tmp_path, grace):
    out = tmp_path / "out"
    code, _, err = _run_cli(["run", "--log", str(small_log), "--grace", str(grace), "--out", str(out)], capsys)
    assert code == 0
    if grace < 60:  # the log has 60 labeled cases
        assert err == ""
        return
    assert err == f"stability-meter: warning: --grace {grace} covers all 60 labels; nothing was evaluated\n"
    assert (out / "performance.csv").read_text() == "label_index,bucket,metric,value,ma,std,lb,ub,is_drop,drop_id\n"
    assert json.loads((out / "meta.json").read_text())["series"] == []


def _empty_run(small_log, tmp_path, capsys, flags):
    """The standard error of a run that must evaluate nothing, after checking that it exits 0 with empty files."""
    out = tmp_path / "out"
    code, stdout, err = _run_cli(["run", "--log", str(small_log), "--out", str(out), *flags], capsys)
    assert code == 0
    assert stdout.endswith("recovery\n")  # the summary's table has its header and no row
    assert (out / "performance.csv").read_text() == "label_index,bucket,metric,value,ma,std,lb,ub,is_drop,drop_id\n"
    assert json.loads((out / "meta.json").read_text())["series"] == []
    return err


def test_a_k_min_above_every_case_warns_and_still_succeeds(small_log, tmp_path, capsys):
    # Such a run printed an empty table and no diagnostic.
    longest = int(parse_log(small_log).lengths().max())
    flags = ["--grace", "20", "--k-min", str(longest + 1), "--k-max", str(longest + 5)]
    assert _empty_run(small_log, tmp_path, capsys, flags) == (
        f"stability-meter: warning: --k-min {longest + 1} is above the longest case ({longest} events); "
        "nothing was evaluated\n"
    )


@pytest.mark.parametrize("every", [41, 100000])  # 40 of the log's 60 labels follow a grace of 20
def test_an_eval_every_past_the_last_label_warns_and_still_succeeds(small_log, tmp_path, capsys, every):
    err = _empty_run(small_log, tmp_path, capsys, ["--grace", "20", "--eval-every", str(every)])
    assert err == (
        f"stability-meter: warning: --eval-every {every} puts no evaluation point in the 40 labels after --grace; "
        "nothing was evaluated\n"
    )


def test_flag_defaults_are_the_library_defaults():
    config = _config_from_args(build_parser().parse_args(["run", "--log", "x"]))
    assert config == RunConfig(log="x")
    assert config.learner_params() == LearnerParams()


def test_rank_reads_custom_entries_and_writes_ranking(tmp_path, capsys):
    entries = [
        {"name": "C1", "avg_metric": 0.69, "drops": 44, "volatility": 0.058,
         "max_magnitude": 0.290, "avg_magnitude": 0.088, "recovery_rate": 6.568},
        {"name": "C2", "avg_metric": 0.95, "drops": 26, "volatility": 0.018,
         "max_magnitude": 0.096, "avg_magnitude": 0.032, "recovery_rate": 7.692},
        {"name": "C3", "avg_metric": 0.94, "drops": 24, "volatility": 0.024,
         "max_magnitude": 0.251, "avg_magnitude": 0.041, "recovery_rate": 11.042},
    ]
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps(entries))
    code, stdout, _ = _run_cli(
        ["rank", "--meta", str(meta), "--scenario", "hf-hr"], capsys
    )
    assert code == 0
    assert stdout.splitlines()[1].lstrip().startswith("1. C2")
    ranking = json.loads((tmp_path / "ranking.json").read_text())
    assert ranking["ranking"][0] == "C2"


def test_rank_profile_override(tmp_path, capsys):
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps([
        {"name": "A", "avg_metric": 0.5, "drops": 9, "volatility": 0.9,
         "max_magnitude": 0.1, "avg_magnitude": 0.05, "recovery_rate": 1.0},
        {"name": "B", "avg_metric": 0.5, "drops": 1, "volatility": 0.1,
         "max_magnitude": 0.2, "avg_magnitude": 0.15, "recovery_rate": 9.0},
    ]))
    code, stdout, _ = _run_cli(
        ["rank", "--meta", str(meta), "--scenario", "hf-lr", "--profile", "R_avg"],
        capsys,
    )
    assert code == 0
    assert stdout.splitlines()[1].lstrip().startswith("1. A")


_GOOD_ENTRY = {"name": "A", "avg_metric": 0.5, "drops": 1, "volatility": 0.1}


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe[]",
        json.dumps([1, 2]).encode(),
        json.dumps([{**_GOOD_ENTRY, "avg_metric": "x"}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "drops": None}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "drops": 2.9}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "avg_metric": float("nan")}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "drops": -3}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "volatility": -0.2}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "max_magnitude": -1.0}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "drops": True}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "avg_metric": True}]).encode(),
        json.dumps([{**_GOOD_ENTRY, "drops": "3"}]).encode(),
    ],
    ids=[
        "not-utf8", "entries-not-objects", "non-numeric-field", "null-count", "fractional-count", "nan-metric",
        "negative-count", "negative-volatility", "negative-magnitude", "boolean-count", "boolean-metric",
        "string-count",
    ],
)
def test_rank_with_a_malformed_meta_file_is_a_single_line_config_error(tmp_path, capsys, content):
    meta = tmp_path / "meta.json"
    meta.write_bytes(content)
    code, _, stderr = _run_cli(["rank", "--meta", str(meta), "--scenario", "hf-hr"], capsys)
    assert code == 2
    assert stderr.startswith("stability-meter: config error:")
    assert stderr.count("\n") == 1
    assert not (tmp_path / "ranking.json").exists()


def test_rank_rejects_a_repeated_config_name(tmp_path, capsys):
    meta = tmp_path / "dup.json"
    meta.write_text(json.dumps([
        {**_GOOD_ENTRY, "name": "a"}, {**_GOOD_ENTRY, "name": "a", "drops": 9}, {**_GOOD_ENTRY, "name": "b"},
    ]))
    code, stdout, stderr = _run_cli(["rank", "--meta", str(meta), "--scenario", "hf-hr"], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == f"stability-meter: config error: {meta}: config name 'a' appears twice\n"
    assert not (tmp_path / "ranking.json").exists()


def test_missing_log_is_a_single_line_io_error(tmp_path, capsys):
    code, _, stderr = _run_cli(
        ["run", "--log", str(tmp_path / "nope.csv")], capsys
    )
    assert code == 4
    assert stderr.startswith("stability-meter: i/o error:")
    assert stderr.count("\n") == 1


def test_malformed_log_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("case_id,activity,timestamp\nx,a,1\n")
    code, _, stderr = _run_cli(["run", "--log", str(bad)], capsys)
    assert code == 3
    assert "format error" in stderr and "label" in stderr


def test_non_finite_numeric_attribute_is_a_value_error(tmp_path, capsys):
    bad = tmp_path / "inf.csv"
    bad.write_text("case_id,activity,timestamp,label,amount\nx,a,1,,inf\nx,b,2,1,3\n")
    code, _, stderr = _run_cli(["run", "--log", str(bad)], capsys)
    assert code == 3
    assert "row 2" in stderr and "'amount'" in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("stamp", ["99999999999999999999", "-9223372036854775809"])
def test_timestamp_beyond_int64_is_a_format_error(tmp_path, capsys, stamp):
    bad = tmp_path / "far.csv"
    bad.write_text(f"case_id,activity,timestamp,label\nx,a,1,\nx,b,{stamp},1\n")
    code, _, stderr = _run_cli(["run", "--log", str(bad), "--out", str(tmp_path / "out")], capsys)
    assert code == 3
    assert stderr == "stability-meter: format error: row 3: timestamp out of range\n"


def test_non_utf8_bytes_are_a_format_error_with_the_row(tmp_path, capsys):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"case_id,activity,timestamp,label\nx,a,1,\nx,\xff\xfe,2,1\n")
    code, _, stderr = _run_cli(["run", "--log", str(bad)], capsys)
    assert code == 3
    assert "format error: row 3: not valid UTF-8" in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"])
def test_non_utf8_row_is_the_row_the_reader_reports(tmp_path, capsys, end):
    # The bad line follows a quoted newline; a bad timestamp there must get
    # the same row number as bytes that are not UTF-8.
    rows = {}
    for name, bad in (("utf8", b"x,\xff\xfe,3,"), ("timestamp", b"x,b,never,")):
        log = tmp_path / f"{name}.csv"
        lines = [b"case_id,activity,timestamp,label", b'x,"a\nb",1,', b"x,a,2,", bad, b"x,c,4,1"]
        log.write_bytes(end.join(lines) + end)
        code, _, stderr = _run_cli(["run", "--log", str(log)], capsys)
        assert code == 3 and stderr.count("\n") == 1
        rows[name] = stderr.split(": ")[2]
    assert rows == {"utf8": "row 5", "timestamp": "row 5"}


def test_oversized_field_is_a_format_error_with_the_row(tmp_path, capsys):
    bad = tmp_path / "huge.csv"
    bad.write_text("case_id,activity,timestamp,label\nx,a,1,\nx," + "b" * 131_073 + ",2,1\n")
    code, _, stderr = _run_cli(["run", "--log", str(bad)], capsys)
    assert code == 3
    assert "format error: row 3: field larger than field limit" in stderr
    assert stderr.count("\n") == 1


def test_auto_k_max_below_k_min_names_auto_and_the_fix(tmp_path, capsys):
    lines = ["case_id,activity,timestamp,label"]
    for index in range(6):
        lines += [f"c{index},a,{3 * index},", f"c{index},b,{3 * index + 1},", f"c{index},c,{3 * index + 2},1"]
    log = tmp_path / "median3.csv"
    log.write_text("\n".join(lines) + "\n")
    code, _, stderr = _run_cli(["run", "--log", str(log), "--k-min", "5"], capsys)
    assert code == 2
    assert "config error" in stderr
    assert "--k-max auto resolved to 3 (the median case length)" in stderr
    assert "--k-min 5" in stderr and "explicit --k-max" in stderr


def test_bad_config_is_a_config_error(small_log, capsys):
    code, _, stderr = _run_cli(
        ["run", "--log", str(small_log), "--ma-window", "0"], capsys
    )
    assert code == 2
    assert "config error" in stderr


_BAD_SETTINGS = [
    (["--ma-window", "0"], "--ma-window must be >= 1, got 0"),
    (["--grace", "0"], "--grace must be >= 1, got 0"),
    (["--eval-window", "-3"], "--eval-window must be >= 1, got -3"),
    (["--eval-every", "0"], "--eval-every must be >= 1, got 0"),
    (["--train-window", "0"], "--train-window must be >= 1, got 0"),
    (["--tree-depth", "0"], "--tree-depth must be >= 1, got 0"),
    (["--retrain-every", "0"], "--retrain-every must be >= 1, got 0"),
    (["--nb-memory", "0"], "--nb-memory must be >= 1, got 0"),
    (["--k-min", "1"], "--k-min must be >= 2, got 1"),
    (["--k-min", "5", "--k-max", "4"], "--k-max must be >= --k-min 5, got 4"),
    (["--nb-memory", "0", "--grace", "0", "--ma-window", "0"], "--ma-window must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "flags, message", _BAD_SETTINGS, ids=[" ".join(flags) for flags, _ in _BAD_SETTINGS]
)
def test_bad_setting_names_its_flag_before_the_log_is_read(tmp_path, capsys, flags, message):
    code, _, stderr = _run_cli(["run", "--log", str(tmp_path / "missing.csv"), *flags], capsys)
    assert code == 2
    assert stderr == f"stability-meter: config error: {message}\n"


def test_a_repeated_attribute_is_rejected_before_the_log_is_read(tmp_path, capsys):
    argv = ["run", "--log", str(tmp_path / "missing.csv"), "--attrs", "amount,channel,amount"]
    code, _, stderr = _run_cli(argv, capsys)
    assert code == 2
    assert stderr == "stability-meter: config error: --attrs names 'amount' twice\n"


@pytest.mark.parametrize(
    "attrs, name",
    [("ghost", "ghost"), ("amount,timestamp", "timestamp"), ("amount,channel", "channel")],
    ids=["no such column", "a required column", "a header cell with a space"],
)
def test_an_attribute_the_log_lacks_is_rejected_before_the_run(tmp_path, capsys, attrs, name):
    log = tmp_path / "log.csv"
    text = to_csv(generate(DriftLogSpec(n_cases=60, drift_at=30, seed=1)))
    log.write_text(text.replace(",channel\n", ", channel\n", 1))  # the header's last cell
    out = tmp_path / "out"
    code, _, stderr = _run_cli(["run", "--log", str(log), "--attrs", attrs, "--out", str(out)], capsys)
    assert code == 2
    assert stderr == (
        f"stability-meter: config error: --attrs names {name!r}, which is not an attribute column of the log\n"
    )
    assert not out.exists()


_COMPARE_STDOUT = """\
log: LOG  metric: accuracy  models: incremental, window-retrain, static
         config  bucket  metric          avg  drops  volatility   max_mag   avg_mag  recovery
    incremental       2  accuracy      0.427      9       0.034     0.300     0.089     6.778
    incremental       3  accuracy      0.472      9       0.038     0.300     0.081     7.444
 window-retrain       2  accuracy      0.427      9       0.034     0.300     0.089     6.778
 window-retrain       3  accuracy      0.492      9       0.040     0.300     0.082     7.556
         static       2  accuracy      0.427      9       0.034     0.300     0.089     6.778
         static       3  accuracy      0.435      9       0.033     0.300     0.083     7.222

pooled per configuration:
    incremental  avg=0.449  drops=18  volatility=0.036  max_mag=0.300  avg_mag=0.085  recovery=7.111
 window-retrain  avg=0.459  drops=18  volatility=0.037  max_mag=0.300  avg_mag=0.085  recovery=7.167
         static  avg=0.431  drops=18  volatility=0.034  max_mag=0.300  avg_mag=0.086  recovery=7.000

scenario hf-lr (recovery_rate, avg_magnitude): static > incremental > window-retrain
scenario lf-hr (drops, volatility, max_magnitude): static > incremental > window-retrain
scenario hf-hr (volatility, drops, recovery_rate, avg_magnitude): static > incremental > window-retrain
"""

_RANK_STDOUT = """\
scenario: lf-hr  criteria: drops, volatility, max_magnitude
  1. static  avg=0.431  drops=18  volatility=0.034  max_mag=0.300  avg_mag=0.086  recovery=7.000
  2. incremental  avg=0.449  drops=18  volatility=0.036  max_mag=0.300  avg_mag=0.085  recovery=7.111
  3. window-retrain  avg=0.459  drops=18  volatility=0.037  max_mag=0.300  avg_mag=0.085  recovery=7.167
"""


def test_compare_and_rank_print_the_same_pooled_fields(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=240, drift_at=120, seed=3))))
    out = tmp_path / "cmp"
    code, stdout, _ = _run_cli(
        [
            "compare", "--log", str(log), "--grace", "40", "--eval-window", "20",
            "--ma-window", "10", "--k-max", "3", "--metric", "accuracy", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert stdout.replace(str(log), "LOG") == _COMPARE_STDOUT
    code, stdout, _ = _run_cli(
        ["rank", "--meta", str(out / "compare.json"), "--scenario", "lf-hr"], capsys
    )
    assert code == 0
    assert stdout == _RANK_STDOUT



@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    text=csv_logs(),
    damage=st.tuples(st.integers(0, 3), st.integers(min_value=0)),
    model=st.sampled_from(["incremental", "window-retrain", "static"]),
    attrs=st.sampled_from(["", "amount", "amount,channel", "ghost"]),
    grace=st.integers(1, 3),
    k_max=st.sampled_from(["auto", "3"]),
)
def test_run_on_random_logs_exits_with_a_documented_code(text, damage, model, attrs, grace, k_max):
    data = text.encode("utf-8")
    if damage[0] == 0:  # one log in four gets bytes that are not UTF-8
        cut = damage[1] % (len(data) + 1)
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(
                [
                    "run",
                    "--log", str(log),
                    "--out", str(Path(tmp) / "out"),
                    "--model", model,
                    "--attrs", attrs,
                    "--grace", str(grace),
                    "--k-max", k_max,
                    "--eval-window", "2",
                    "--ma-window", "3",
                    "--train-window", "4",
                ]
            )
    event(f"exit {code}")
    assert code in {0, 2, 3, 4}
    if code:
        assert stderr.getvalue().startswith("stability-meter: ")
        assert stderr.getvalue().count("\n") == 1


_FLOAT_COLUMNS = {
    "signed zeros": [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0],
    "tiny and huge": [1e-05, 1e16, 1e-05, -1e16, 1e-05, 1e16],
    "repeated": [0.5] * 6,
    "all distinct": [0.1 * i + 1 / 3 for i in range(6)],
    "mixed": [0.0, 0.1 + 0.2, 0.3, -0.0, 0.1 + 0.2, 2.5e-308],
}


@pytest.mark.parametrize("column", _FLOAT_COLUMNS.values(), ids=_FLOAT_COLUMNS.keys())
def test_rows_format_each_float_as_the_per_row_f_string_does(column):
    values = np.array(column)
    annotation = annotate_series([0.5, 0.7, 0.2, 0.9, 0.1, 0.6], 3)
    drops = (SignificantDrop(1, 2, (0.1, 0.2)), SignificantDrop(4, 4, (0.3,)))
    annotation = replace(
        annotation, value=values, ma=values[::-1], std=np.roll(values, 2),
        measures=replace(annotation.measures, drops=drops),
    )
    assert annotation.drop_id.tolist() == [0, 1, 1, 0, 2, 0]
    report = SeriesReport(PerformanceSeries(2, "f1", values, np.arange(6)), annotation, annotation.measures)
    assert report.rows() == fstring_rows(annotation)


def test_a_run_holds_each_series_once(small_log, tmp_path):
    config = RunConfig(log=str(small_log), grace=20, eval_window=10, out_dir=str(tmp_path / "out"))
    reports = cli.execute_run(config, print_summary=False)
    assert reports
    assert [field.name for field in fields(SeriesAnnotation)] == ["value", "ma", "std", "measures"]
    shared = {}
    for report in reports:
        series = report.series
        assert (series.values.dtype, series.label_indices.dtype) == (np.float64, np.int64)
        assert np.shares_memory(report.annotation.value, series.values)
        assert shared.setdefault(series.bucket, series.label_indices) is series.label_indices
    assert len(shared) > 1


def test_run_reports_retain_few_bytes_per_point(tmp_path):
    # value, ma and std take 8 B a point each, and a bucket's 8 B label index
    # is shared by its four metrics; drop magnitudes add the rest. Float lists
    # of the series and stored bounds and drop ids held about 110 B a point.
    log_path = tmp_path / "log.csv"
    log_path.write_text(to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=0))))
    log = parse_log(str(log_path))
    config = RunConfig(log=str(log_path), model="static", out_dir=str(tmp_path / "out"))
    cli.execute_run(config, print_summary=False, log=log)  # first-run caches are not the reports'
    gc.collect()
    tracemalloc.start()
    try:
        reports = cli.execute_run(config, print_summary=False, log=log)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    points = sum(len(report.series) for report in reports)
    assert points > 5000
    assert held / points < 75


@pytest.mark.parametrize(
    "runs",
    [
        pytest.param(
            [("incremental", "channel"), ("window-retrain", "amount,channel"), ("static", "amount,channel")],
            id="categorical-or-trees",
        ),
        pytest.param([("incremental", "amount,channel")], id="incremental-numeric"),
    ],
)
def test_no_run_imports_numpy_ma(tmp_path, runs):
    # numpy.ma is not imported with numpy, and importing it costs about 1 MB
    # of peak RSS per run. A plain ``np.unique(x)``, with no ``return_*``
    # flag, imports it (numpy 2.4).
    log = tmp_path / "log.csv"
    log.write_text(to_csv(generate(DriftLogSpec(n_cases=120, drift_at=60, seed=2))))
    script = (
        "import sys\n"
        "from stability_meter import cli\n"
        "for model, attrs in zip(sys.argv[3::2], sys.argv[4::2]):\n"
        "    argv = ['run', '--log', sys.argv[1], '--out', sys.argv[2] + '/' + model, '--model', model,\n"
        "            '--attrs', attrs, '--grace', '30', '--eval-window', '10', '--retrain-every', '8']\n"
        "    assert cli.main(argv) == 0, model\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    source = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    completed = subprocess.run(
        [sys.executable, "-c", script, str(log), str(tmp_path), *(cell for run in runs for cell in run)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "False"
