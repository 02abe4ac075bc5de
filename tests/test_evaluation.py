from collections import deque

import pytest

from stability_meter.errors import ConfigError
from stability_meter.evaluation import METRICS, metrics_from_confusion, run_stream
from stability_meter.prefixing import BucketConfig

from oracles import EvalWindow, confusion_metrics
from parsed_logs import parsed_log


def window_metric(window, metric):
    """Metric over the reference window's pairs; None when the window is empty."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if len(window) == 0:
        return None
    return float(metrics_from_confusion(*window.counts())[metric])


def _sequential_log(specs):
    """specs: list of (activities, label); cases do not overlap in time."""
    rows = []
    clock = 0
    for index, (activities, label) in enumerate(specs):
        last = len(activities) - 1
        for i, activity in enumerate(activities):
            rows.append((f"case{index:03d}", activity, clock + i * 10, label if i == last else None))
        clock += 10 * len(activities) + 5
    return parsed_log(rows)


def _run(specs, policy="incremental", grace=2, eval_window=10, k_min=2, k_max=2, **kwargs):
    log = _sequential_log(specs)
    buckets = BucketConfig(k_min=k_min, k_max=k_max)
    return run_stream(
        log,
        policy,
        buckets,
        grace=grace,
        eval_window=eval_window,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# confusion-matrix metrics
# ---------------------------------------------------------------------------


def test_confusion_fixture():
    values = metrics_from_confusion(tp=3, fp=1, fn=2, tn=4)
    assert values["accuracy"] == pytest.approx(0.7, abs=1e-6)
    assert values["precision"] == pytest.approx(0.75, abs=1e-6)
    assert values["recall"] == pytest.approx(0.6, abs=1e-6)
    assert values["f1"] == pytest.approx(0.666667, abs=1e-6)


def test_all_correct_gives_ones():
    values = metrics_from_confusion(tp=5, fp=0, fn=0, tn=5)
    assert all(values[m] == 1.0 for m in METRICS)


def test_zero_division_conventions():
    # no predicted positives, some actual positives
    values = metrics_from_confusion(tp=0, fp=0, fn=3, tn=7)
    assert values["precision"] == 0.0
    assert values["recall"] == 0.0
    assert values["f1"] == 0.0


def test_window_metric_and_empty_window():
    window = EvalWindow(bucket=2, capacity=5)
    assert window_metric(window, "accuracy") is None
    window.add(1, 1)
    window.add(0, 1)
    assert window_metric(window, "accuracy") == 0.5
    with pytest.raises(ConfigError):
        window_metric(window, "auc")


def test_eval_window_evicts_oldest_and_keeps_counts_consistent():
    window = EvalWindow(bucket=2, capacity=3)
    pairs = [(1, 1), (1, 0), (0, 0), (0, 1), (1, 1)]
    for predicted, actual in pairs:
        window.add(predicted, actual)
    assert len(window) == 3
    expected = confusion_metrics(pairs[-3:])
    got = {metric: float(value) for metric, value in metrics_from_confusion(*window.counts()).items()}
    assert got == expected


# ---------------------------------------------------------------------------
# run_stream protocol
# ---------------------------------------------------------------------------


def test_grace_period_suppresses_predictions():
    specs = [(["a", "b"], 1), (["a", "b"], 0), (["a", "b"], 1)]
    ledger = []
    result = _run(specs, grace=2, ledger=ledger)
    assert result.labels_seen == 3
    assert {pair.case_id for pair in ledger} == {"case002"}


def test_config_validation():
    specs = [(["a", "b"], 1)]
    with pytest.raises(ConfigError):
        _run(specs, grace=0)
    with pytest.raises(ConfigError):
        _run(specs, eval_window=0)
    with pytest.raises(ConfigError):
        _run(specs, eval_every=0)
    with pytest.raises(ConfigError):
        _run(specs, metrics=("auc",))


def test_unknown_policy_is_a_config_error():
    with pytest.raises(
        ConfigError,
        match="^unknown model 'bogus'; expected one of incremental, window-retrain, static$",
    ):
        run_stream(_sequential_log([(["a", "b"], 1)]), "bogus", BucketConfig(2, 3))


def test_window_of_one_tracks_latest_case_correctness():
    specs = [(["a", "b"], 1)] * 4 + [(["a", "b"], label) for label in (1, 0, 1, 0, 0, 1)]
    ledger = []
    result = _run(specs, grace=4, eval_window=1, ledger=ledger)
    accuracy = result.series[(2, "accuracy")]
    resolved = {pair.label_index: pair for pair in ledger}
    assert len(accuracy) > 0
    for value, label_index in zip(accuracy.values, accuracy.label_indices):
        assert value in (0.0, 1.0)
        pair = resolved[label_index]
        assert value == float(pair.predicted == pair.actual)


def test_series_matches_offline_replay_of_the_ledger():
    specs = [(["a", "b", "c"], i % 2) for i in range(4)]
    specs += [(["a", "b", "c"], (i // 2) % 2) for i in range(10)]
    ledger = []
    result = _run(specs, grace=4, eval_window=3, k_min=2, k_max=3, ledger=ledger)
    for bucket in (2, 3):
        for metric in METRICS:
            series = result.series[(bucket, metric)]
            pairs_by_label = {}
            for pair in ledger:
                if pair.bucket == bucket:
                    pairs_by_label[pair.label_index] = (pair.predicted, pair.actual)
            window = deque(maxlen=3)
            expected = []
            for label_index in range(5, result.labels_seen + 1):
                if label_index in pairs_by_label:
                    window.append(pairs_by_label[label_index])
                if window:
                    expected.append((confusion_metrics(list(window))[metric], label_index))
            assert list(zip(series.values, series.label_indices)) == expected


def test_ledger_conservation_per_bucket():
    grace_specs = [(["a", "b", "c", "d"], i % 2) for i in range(4)]
    post_specs = [(["a"] * n, n % 2) for n in (2, 3, 4, 2, 5, 4)]
    ledger = []
    _run(grace_specs + post_specs, grace=4, k_min=2, k_max=4, ledger=ledger)
    for bucket in (2, 3, 4):
        resolved = [pair for pair in ledger if pair.bucket == bucket]
        expected = sum(1 for activities, _ in post_specs if len(activities) >= bucket)
        assert len(resolved) == expected


def test_short_cases_never_reach_longer_buckets():
    grace_specs = [(["a", "b", "c"], i % 2) for i in range(4)]
    post_specs = [(["a", "b"], 1), (["a", "b", "c"], 0)]
    ledger = []
    _run(grace_specs + post_specs, grace=4, k_min=2, k_max=3, ledger=ledger)
    bucket3_cases = {pair.case_id for pair in ledger if pair.bucket == 3}
    assert bucket3_cases == {"case005"}


def test_predictions_use_the_model_before_its_own_label_updates_it():
    # one grace case labeled 1: the incremental model knows only class 1.
    # the next case is labeled 0; had the label been applied before the
    # prediction, the tie rule would predict 0. The pre-update model says 1.
    specs = [(["a", "b"], 1), (["a", "b"], 0)]
    ledger = []
    _run(specs, grace=1, ledger=ledger)
    assert len(ledger) == 1
    pair = ledger[0]
    assert (pair.predicted, pair.actual) == (1, 0)
    assert pair.model_version == 1  # version at issue time, before the update


def test_model_versions_in_ledger_never_decrease():
    specs = [(["a", "b"], i % 2) for i in range(20)]
    ledger = []
    _run(specs, grace=3, ledger=ledger)
    versions = [pair.model_version for pair in ledger]
    assert versions == sorted(versions)


def test_eval_every_throttles_points():
    specs = [(["a", "b"], i % 2) for i in range(14)]
    dense = _run(specs, grace=4)
    sparse = _run(specs, grace=4, eval_every=3)
    dense_series = dense.series[(2, "accuracy")]
    sparse_series = sparse.series[(2, "accuracy")]
    assert sparse_series.label_indices == [7, 10, 13]
    kept = [
        value
        for value, label_index in zip(dense_series.values, dense_series.label_indices)
        if label_index in sparse_series.label_indices
    ]
    assert sparse_series.values == kept


def test_no_point_for_the_grace_completing_label():
    specs = [(["a", "b"], i % 2) for i in range(6)]
    result = _run(specs, grace=3)
    series = result.series[(2, "accuracy")]
    assert series.label_indices == [4, 5, 6]


def test_static_policy_runs_end_to_end():
    specs = [(["a", "b"], i % 2) for i in range(8)]
    result = _run(specs, grace=4, policy="static")
    series = result.series[(2, "accuracy")]
    assert len(series) > 0
