import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from stability_meter.classifiers import LearnerParams
from stability_meter.cli import RunConfig, _config_from_args, build_parser, main
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from log_strategies import csv_logs


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
    assert (out / "performance.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["configuration"]["model"] == "incremental"
    assert meta["series"], "expected at least one evaluated series"
    for entry in meta["series"]:
        plot = out / "plots" / f"series_k{entry['bucket']}_{entry['metric']}.csv"
        assert plot.exists()
    assert "k_max=" in stdout


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


def test_compare_of_identical_configs_yields_identical_rows(small_log, tmp_path, capsys):
    out = tmp_path / "twin"
    code, _, _ = _run_cli(
        [
            "compare",
            "--log", str(small_log),
            "--models", "incremental,incremental",
            "--grace", "20",
            "--eval-window", "10",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    rows = payload["rows"]
    half = len(rows) // 2
    assert rows[:half] == rows[half:]


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
