"""Command-line entry point: ``run``, ``compare``, ``rank``, and ``synth``.

``run`` replays a log through one update policy's models and writes
``performance.csv`` and ``meta.json``. ``compare`` runs several update
policies over the same log and appends scenario rankings. ``rank`` orders
precomputed configurations for a business scenario. ``synth`` generates a
drifted synthetic log. All artifacts are plain CSV/JSON written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .advisor import (
    SCENARIO_PROFILES,
    ConfigSummary,
    ScenarioProfile,
    pool_summaries,
    rank,
)
from .classifiers import LearnerParams, UpdatePolicy, model_class
from .errors import (
    ConfigError,
    EmptyLogError,
    LogFormatError,
    LogValueError,
    SettingError,
    StabilityMeterError,
)
from .evaluation import METRICS, PerformanceSeries, RunResult, check_run_settings, run_stream
from .event_model import EventLog, parse_log
from .prefixing import BucketConfig, check_attrs, default_k_max
from .stability import SeriesAnnotation, annotate_series, check_window
from .synthgen import DriftLogSpec, generate

# perfbench/bench_trace.py looks these names up; ROADMAP item 1b deletes them.
replay = None
meta_measures = None
_series_csv = None

_FLAGS = {"memory": "nb-memory", "window": "ma-window", "n_cases": "cases"}  # the library settings not named as their flags


def _named_by_flags(err: SettingError) -> ConfigError:
    """``err``'s message with each setting named by its flag."""
    flags = ("--" + _FLAGS.get(name, name).replace("_", "-") for name in err.settings)
    return ConfigError(err.template.format(*flags))


@dataclass(frozen=True)
class RunConfig:
    """Everything one evaluation run needs; every field has a default."""

    log: str
    model: str = "incremental"
    grace: int = 200
    eval_window: int = 100
    ma_window: int = 30
    k_min: int = 2
    k_max: int | None = None  # None = derive from the log (median case length)
    metrics: tuple[str, ...] = METRICS
    attrs: tuple[str, ...] = ()
    seed: int = 0
    out_dir: str = "out"
    train_window: int = LearnerParams.train_window
    tree_depth: int = LearnerParams.tree_depth
    retrain_every: int = LearnerParams.retrain_every
    nb_memory: int = LearnerParams.memory
    eval_every: int = 1

    def __post_init__(self) -> None:
        # The library's own checks, run before any log is read, each setting named
        # by its flag (moving_stats checks its window only once it has a series).
        model_class(self.model)
        try:
            check_attrs(self.attrs)
            check_window(self.ma_window)
            check_run_settings(self.grace, self.eval_window, self.eval_every)
            self.learner_params()
            BucketConfig(self.k_min, self.k_min if self.k_max is None else self.k_max)
        except SettingError as err:
            raise _named_by_flags(err) from None

    def learner_params(self) -> LearnerParams:
        return LearnerParams(
            tree_depth=self.tree_depth,
            train_window=self.train_window,
            retrain_every=self.retrain_every,
            memory=self.nb_memory,
        )


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks in order via a temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, delete=False, encoding="utf-8", newline=""
    )
    try:
        handle.writelines(chunks)
        handle.close()
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(handle.name, 0o666 & ~umask)  # as open() would make it, not the temp file's 0600
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def _format_float(value: float | None, width: str = ".3f") -> str:
    return "-" if value is None else format(value, width)


@dataclass
class SeriesReport:
    """One evaluated (bucket, metric) series with its analysis artifacts."""

    series: PerformanceSeries
    annotation: SeriesAnnotation

    @property
    def avg_metric(self) -> float:
        return sum(self.series.values.tolist()) / len(self.series)  # left to right; np.sum is pairwise

    def rows(self) -> list[str]:
        """Each point's ``value,ma,std,lb,ub,is_drop,drop_id`` CSV fields."""
        columns = self.annotation
        floats = (columns.value, columns.ma, columns.std, columns.lb, columns.ub)
        drops = [f"true,{drop_id}" if drop_id else "false," for drop_id in columns.drop_id.tolist()]
        return list(map(",".join, zip(*map(_reprs, floats), drops)))


def _reprs(column: np.ndarray) -> list[str]:
    """The ``repr`` of each float of ``column``, made once per distinct value.

    Values are told apart by their bits, so ``-0.0`` keeps its own text.
    """
    bits, inverse = np.unique(np.ascontiguousarray(column, np.float64).view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def execute_run(
    config: RunConfig, print_summary: bool = True, log: EventLog | None = None
) -> list[SeriesReport]:
    """Run one configuration end to end and write its artifacts.

    ``log`` is ``config.log`` already parsed; without it the run parses the
    file. With ``print_summary``, the run prints its summary table, and a
    warning when it evaluated nothing, which names the flag that did it.
    """
    if log is None:
        log = parse_log(config.log)
    try:
        check_attrs(config.attrs, log)
    except SettingError as err:
        raise _named_by_flags(err) from None
    auto = config.k_max is None
    k_max = default_k_max(log) if auto else config.k_max
    if auto and k_max < config.k_min:
        raise ConfigError(
            f"--k-max auto resolved to {k_max} (the median case length), below "
            f"--k-min {config.k_min}; pass an explicit --k-max >= {config.k_min}"
        )
    buckets = BucketConfig(k_min=config.k_min, k_max=k_max)
    result = run_stream(
        log,
        config.model,
        buckets,
        grace=config.grace,
        eval_window=config.eval_window,
        metrics=config.metrics,
        eval_every=config.eval_every,
        attrs=config.attrs,
        params=config.learner_params(),
    )
    why = _why_nothing(config, result, log) if print_summary else None
    if why:
        print(f"stability-meter: warning: {why}; nothing was evaluated", file=sys.stderr)
    del log  # the analysis and the output need only the result (unless the caller keeps the log)

    # run_stream keys its series by bucket, then metric in config.metrics order.
    reports = [
        SeriesReport(series, annotate_series(series.values, config.ma_window))
        for series in result.series.values()
        if len(series)
    ]

    out_dir = Path(config.out_dir)
    _atomic_write(out_dir / "performance.csv", _performance_csv(reports))
    _atomic_write(out_dir / "meta.json", (_meta_json(config, buckets, auto, reports),))

    if print_summary:
        _print_summary(config, buckets, auto, result.labels_seen, reports)
    return reports


def _why_nothing(config: RunConfig, result: RunResult, log: EventLog) -> str | None:
    """Why every series is without a point, naming the flag where one caused it; None if a series has one."""
    labels = result.labels_seen
    if config.grace >= labels:
        return f"--grace {config.grace} covers all {labels} labels"
    if not result.models:
        return f"--k-min {config.k_min} is above the longest case ({int(log.lengths().max())} events)"
    if config.grace + config.eval_every > labels:
        after = labels - config.grace
        return f"--eval-every {config.eval_every} puts no evaluation point in the {after} labels after --grace"
    if not any(map(len, result.series.values())):
        return f"no prediction issued after --grace {config.grace} was resolved"
    return None


def _performance_csv(reports: list[SeriesReport]) -> Iterator[str]:
    # One chunk per series, written as it is made: the whole text never sits
    # in memory, nor does its encoded copy, nor more than one series' rows.
    yield "label_index,bucket,metric,value,ma,std,lb,ub,is_drop,drop_id\n"
    for report in reports:
        series = report.series
        key = f",{series.bucket},{series.metric},"
        yield "".join(
            f"{label_index}{key}{row}\n" for label_index, row in zip(series.label_indices.tolist(), report.rows())
        )


def _meta_entry(config_name: str, report: SeriesReport) -> dict:
    measures, series = report.annotation.measures, report.series
    return {
        "name": f"{config_name}/k{series.bucket}/{series.metric}",
        "config": config_name,
        "bucket": series.bucket,
        "metric": series.metric,
        "avg_metric": report.avg_metric,
        "n_points": measures.n_points,
        "drops": measures.drop_count,
        "volatility": measures.volatility,
        "max_magnitude": measures.max_magnitude,
        "avg_magnitude": measures.avg_magnitude,
        "recovery_rate": measures.recovery_rate,
        "drops_per_100_points": measures.drops_per_100_points,
    }


def _meta_json(
    config: RunConfig, buckets: BucketConfig, auto: bool, reports: list[SeriesReport]
) -> str:
    configuration = asdict(config)
    del configuration["out_dir"]
    configuration.update(log=str(config.log), k_max=buckets.k_max, k_max_auto=auto)
    payload = {
        "configuration": configuration,
        "series": [_meta_entry(config.model, report) for report in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_TABLE_HEADER = (
    f"{'bucket':>6}  {'metric':<9}  {'avg':>8}  {'drops':>5}  "
    f"{'volatility':>10}  {'max_mag':>8}  {'avg_mag':>8}  {'recovery':>8}"
)


def _table_row(report: SeriesReport) -> str:
    series, measures = report.series, report.annotation.measures
    return (
        f"{series.bucket:>6}  {series.metric:<9}  {report.avg_metric:>8.3f}  {measures.drop_count:>5}  "
        f"{measures.volatility:>10.3f}  {_format_float(measures.max_magnitude):>8}  "
        f"{_format_float(measures.avg_magnitude):>8}  {_format_float(measures.recovery_rate):>8}"
    )


def _summary_fields(summary: ConfigSummary) -> str:
    """One configuration's pooled measures, as ``compare`` and ``rank`` print them."""
    return (
        f"avg={summary.avg_metric:.3f}  drops={summary.drops}  "
        f"volatility={summary.volatility:.3f}  max_mag={_format_float(summary.max_magnitude)}  "
        f"avg_mag={_format_float(summary.avg_magnitude)}  recovery={_format_float(summary.recovery_rate)}"
    )


def _print_summary(
    config: RunConfig,
    buckets: BucketConfig,
    auto: bool,
    labels_seen: int,
    reports: list[SeriesReport],
) -> None:
    suffix = " (auto)" if auto else ""
    print(
        f"log: {config.log}  model: {config.model}  grace: {config.grace}  "
        f"eval-window: {config.eval_window}  ma-window: {config.ma_window}"
    )
    print(f"buckets: k_min={buckets.k_min} k_max={buckets.k_max}{suffix}  labels: {labels_seen}")
    print(_TABLE_HEADER)
    for report in reports:
        print(_table_row(report))


def _parse_attrs(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip()) if raw else ()


def _parse_k_max(raw: str) -> int | None:
    if raw == "auto":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"--k-max must be 'auto' or an integer, got {raw!r}") from None


def _parse_metrics(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return METRICS
    if raw in METRICS:
        return (raw,)
    raise ConfigError(f"--metric must be one of {', '.join(METRICS)} or 'all', got {raw!r}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``RunConfig`` of the parsed flags; each flag's dest is its field's name."""
    given = vars(args)
    values = {field.name: given[field.name] for field in fields(RunConfig) if field.name in given}
    values.update(
        k_max=_parse_k_max(args.k_max),
        metrics=_parse_metrics(args.metric),
        attrs=_parse_attrs(args.attrs),
    )
    return RunConfig(**values)


def cmd_run(args: argparse.Namespace) -> int:
    execute_run(_config_from_args(args))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    models = [name.strip() for name in args.models.split(",") if name.strip()]
    if len(models) < 2:
        raise ConfigError("compare needs at least two models (--models a,b)")
    repeated = next((model for at, model in enumerate(models) if model in models[:at]), None)
    if repeated is not None:
        raise ConfigError(f"compare runs each model once; {repeated!r} is named twice in --models")
    base = _config_from_args(args)
    if len(base.metrics) != 1:
        raise ConfigError("compare works on a single metric (pass --metric f1, not 'all')")
    metric = base.metrics[0]
    # Every config is built, and so validated, before any of them runs.
    configs = [replace(base, model=model, out_dir=str(Path(base.out_dir) / model)) for model in models]
    log = parse_log(base.log)
    if base.grace >= len(log):  # every parsed case ends with a label
        raise ConfigError(
            f"--grace {base.grace} covers all {len(log)} labels of the log, so no model would be evaluated"
        )

    rows = []
    pooled = []
    for config in configs:
        reports = execute_run(config, print_summary=False, log=log)
        if not reports:
            raise ConfigError(f"model {config.model!r} evaluated no series, so there is nothing to compare")
        for report in reports:
            rows.append((config.model, report))
        pooled.append(
            pool_summaries(config.model, [(r.avg_metric, r.annotation.measures) for r in reports])
        )

    print(f"log: {args.log}  metric: {metric}  models: {', '.join(models)}")
    print(f"{'config':>15}  " + _TABLE_HEADER)
    for model, report in rows:
        print(f"{model:>15}  " + _table_row(report))
    print()
    print("pooled per configuration:")
    for summary in pooled:
        print(f"{summary.name:>15}  {_summary_fields(summary)}")
    rankings = {}
    print()
    for scenario, profile in SCENARIO_PROFILES.items():
        ordered = rank(pooled, profile)
        rankings[scenario] = ordered
        print(f"scenario {scenario} ({', '.join(profile.criteria)}): {' > '.join(ordered)}")

    payload = {
        "metric": metric,
        "models": models,
        "rows": [_meta_entry(model, report) for model, report in rows],
        "pooled": [asdict(summary) for summary in pooled],
        "rankings": rankings,
    }
    _atomic_write(Path(base.out_dir) / "compare.json", (json.dumps(payload, indent=2, sort_keys=True) + "\n",))
    return 0


def _load_rank_entries(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as err:  # a JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not valid JSON ({err})") from None
    if isinstance(payload, list):
        return payload
    if isinstance(payload, dict):
        for key in ("series", "configs", "pooled", "rows"):
            if key in payload and isinstance(payload[key], list):
                return payload[key]
    raise ConfigError(f"{path}: expected a list of config entries or a meta.json payload")


def cmd_rank(args: argparse.Namespace) -> int:
    profile = SCENARIO_PROFILES[args.scenario]
    if args.profile:
        profile = ScenarioProfile.parse(args.scenario, args.profile)
    summaries = [ConfigSummary.from_mapping(entry) for entry in _load_rank_entries(args.meta)]
    if not summaries:
        raise ConfigError(f"{args.meta}: no config entries to rank")
    by_name = {}
    for summary in summaries:
        if by_name.setdefault(summary.name, summary) is not summary:
            raise ConfigError(f"{args.meta}: config name {summary.name!r} appears twice")
    ordered = rank(summaries, profile)
    print(f"scenario: {args.scenario}  criteria: {', '.join(profile.criteria)}")
    for position, name in enumerate(ordered, start=1):
        print(f"{position:>3}. {name}  {_summary_fields(by_name[name])}")
    out_dir = Path(args.out) if args.out else Path(args.meta).parent
    payload = {
        "scenario": args.scenario,
        "criteria": list(profile.criteria),
        "ranking": ordered,
    }
    _atomic_write(out_dir / "ranking.json", (json.dumps(payload, indent=2, sort_keys=True) + "\n",))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = DriftLogSpec(n_cases=args.cases, drift_at=args.drift_at, seed=args.seed, noise=args.noise)
    except SettingError as err:
        raise _named_by_flags(err) from None
    text = generate(spec)
    _atomic_write(Path(args.out), (text,))
    events = text.count("\n") - 1  # a row per event under the header
    print(
        f"wrote {spec.n_cases} cases ({events} events) to {args.out}; "
        f"drift after case {spec.drift_at}"
    )
    return 0


def _add_shared_run_flags(parser: argparse.ArgumentParser) -> None:
    # Defaults come from RunConfig; --k-max, --metric and --attrs are parsed
    # into their fields by _config_from_args.
    parser.add_argument("--log", required=True, help="input CSV event log")
    parser.add_argument("--grace", type=int, default=RunConfig.grace, help="labels reserved for training only")
    parser.add_argument("--eval-window", type=int, default=RunConfig.eval_window, help="completed cases per evaluation window")
    parser.add_argument("--ma-window", type=int, default=RunConfig.ma_window, help="points in the moving average window")
    parser.add_argument("--k-min", type=int, default=RunConfig.k_min, help="smallest prefix length bucket")
    parser.add_argument("--k-max", default="auto", help="largest bucket, or 'auto' (median case length)")
    parser.add_argument("--metric", default="all", help="accuracy|precision|recall|f1|all")
    parser.add_argument("--attrs", default="", help="comma-separated event attributes to encode")
    parser.add_argument("--seed", type=int, default=RunConfig.seed, help="seed recorded with the run")
    parser.add_argument("--out", dest="out_dir", default=RunConfig.out_dir, help="output directory")
    parser.add_argument("--train-window", type=int, default=RunConfig.train_window, help="sliding training window (window-retrain)")
    parser.add_argument("--tree-depth", type=int, default=RunConfig.tree_depth, help="decision tree depth cap")
    parser.add_argument("--retrain-every", type=int, default=RunConfig.retrain_every, help="labels between window retrains")
    parser.add_argument("--nb-memory", type=int, default=RunConfig.nb_memory, help="labeled samples the incremental model remembers")
    parser.add_argument("--eval-every", type=int, default=RunConfig.eval_every, help="labels between evaluation points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stability-meter",
        description="Replay labeled event logs and measure classifier performance stability.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="evaluate one model over a log")
    _add_shared_run_flags(run_parser)
    run_parser.add_argument(
        "--model",
        default=RunConfig.model,
        choices=[policy.value for policy in UpdatePolicy],
        help="model update policy",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = commands.add_parser("compare", help="run several models over one log")
    _add_shared_run_flags(compare_parser)
    compare_parser.add_argument(
        "--models",
        default="incremental,window-retrain,static",
        help="comma-separated update policies to compare",
    )
    compare_parser.set_defaults(func=cmd_compare, metric="f1")

    rank_parser = commands.add_parser("rank", help="rank configurations for a scenario")
    rank_parser.add_argument("--meta", required=True, help="meta.json (or a JSON list of entries)")
    rank_parser.add_argument(
        "--scenario", required=True, choices=sorted(SCENARIO_PROFILES), help="business scenario"
    )
    rank_parser.add_argument("--profile", default="", help="override criteria, e.g. 'R_avg,M_avg'")
    rank_parser.add_argument("--out", default="", help="directory for ranking.json")
    rank_parser.set_defaults(func=cmd_rank)

    synth_parser = commands.add_parser("synth", help="generate a synthetic drifted log")
    synth_parser.add_argument("--cases", type=int, default=2000, help="number of cases")
    synth_parser.add_argument("--drift-at", type=int, default=1000, help="last case index of the pre-drift regime")
    synth_parser.add_argument("--noise", type=float, default=0.05, help="label flip probability")
    synth_parser.add_argument("--seed", type=int, default=0, help="generator seed")
    synth_parser.add_argument("--out", default="synth.csv", help="output CSV path")
    synth_parser.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"stability-meter: config error: {err}", file=sys.stderr)
        return 2
    except (LogFormatError, LogValueError, EmptyLogError) as err:
        print(f"stability-meter: format error: {err}", file=sys.stderr)
        return 3
    except StabilityMeterError as err:
        print(f"stability-meter: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"stability-meter: i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
