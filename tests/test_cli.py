import csv
import io
import json
import os
import stat
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from stability_meter import cli
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
    assert {"performance.csv", "meta.json"} < set(modes)
    assert modes == dict.fromkeys(modes, 0o644)


def test_failed_plot_write_leaves_no_performance_csv_or_temp_file(small_log, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "plots").write_text("a file where the plots directory goes\n")
    code, _, stderr = _run_cli(
        ["run", "--log", str(small_log), "--grace", "20", "--eval-window", "10", "--out", str(out)],
        capsys,
    )
    assert code == 4
    assert stderr.startswith("stability-meter: i/o error:")
    assert stderr.count("\n") == 1
    assert [path.name for path in out.iterdir()] == ["plots"]


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
    for model in models:
        alone = tmp_path / "alone" / model
        code, _, _ = _run_cli(
            ["run", *flags, "--model", model, "--metric", "f1", "--out", str(alone)], capsys
        )
        assert code == 0
        compared = _tree_bytes(tmp_path / "cmp" / model)
        assert {"performance.csv", "meta.json"} < set(compared)
        assert any(name.startswith("plots") for name in compared)
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
    ],
    ids=["not-utf8", "entries-not-objects", "non-numeric-field", "null-count"],
)
def test_rank_with_a_malformed_meta_file_is_a_single_line_config_error(tmp_path, capsys, content):
    meta = tmp_path / "meta.json"
    meta.write_bytes(content)
    code, _, stderr = _run_cli(["rank", "--meta", str(meta), "--scenario", "hf-hr"], capsys)
    assert code == 2
    assert stderr.startswith("stability-meter: config error:")
    assert stderr.count("\n") == 1
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
