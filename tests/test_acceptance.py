"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Seeds are fixed; runtime-limited criteria assert their budget.
"""

import json
import time

import numpy as np
import pytest

from stability_meter.advisor import SCENARIO_PROFILES, ConfigSummary, rank
from stability_meter.cli import main
from stability_meter.evaluation import metrics_from_confusion, run_stream
from stability_meter.prefixing import BucketConfig
from stability_meter.stability import (
    detect_drops,
    drop_mask,
    meta_measures,
    moving_stats,
)
from stability_meter.synthgen import DriftLogSpec, generate

from oracles import brute_meta, brute_moving_stats, event_replay, stats_from_ma_phi
from parsed_logs import parsed_log


def _report(number: int, description: str) -> None:
    print(f"\ncriterion {number} PASS  {description}")


def _random_series(seed: int, max_len: int = 500):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, max_len + 1))
    window = int(rng.integers(1, 51))
    return rng.uniform(size=length).tolist(), window


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def test_criterion_1_oracle_equivalence_on_1000_seeded_series():
    started = time.perf_counter()
    for index in range(1000):
        points, window = _random_series(90_000 + index)
        stats = moving_stats(points, window)
        ma, phi, lb, ub = brute_moving_stats(points, window)
        assert np.allclose(stats.ma, ma, atol=1e-12, rtol=0)
        assert np.allclose(stats.phi, phi, atol=1e-12, rtol=0)
        mm = meta_measures(points, window)
        ref = brute_meta(points, window)
        assert mm.drop_count == ref["drops"]
        assert [(d.start, d.end) for d in mm.drops] == ref["runs"]
        assert sum(len(d) for d in mm.drops) == ref["total_drop_points"]
        assert _close(mm.volatility, ref["volatility"], 1e-12)
        assert _close(mm.max_magnitude, ref["max_magnitude"], 1e-12)
        assert _close(mm.avg_magnitude, ref["avg_magnitude"], 1e-12)
        assert _close(mm.recovery_rate, ref["recovery_rate"], 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(1, f"streaming stats match brute force on 1000 series ({elapsed:.1f}s)")


def test_criterion_2_worked_fragment_yields_one_two_point_drop():
    stats = stats_from_ma_phi(ma=[0.7, 0.69, 0.66], phi=[0.03, 0.03, 0.04])
    points = [0.75, 0.65, 0.5]
    drops = detect_drops(points, stats)
    assert len(drops) == 1
    assert points[drops[0].start : drops[0].end + 1] == [0.65, 0.5]
    assert len(drops[0]) == 2
    _report(2, "fragment flags exactly {0.65, 0.5} as one two-point drop")


def test_criterion_3_hand_derived_fixtures():
    mm = meta_measures([0.8, 0.8, 0.8, 0.2, 0.8], 3)
    assert mm.drop_count == 1
    assert abs(mm.volatility - 0.113137) <= 1e-6
    assert abs(mm.max_magnitude - 0.4) <= 1e-6
    assert mm.recovery_rate == pytest.approx(1.0, abs=1e-6)

    mm = meta_measures([0.9] * 5 + [0.4, 0.4, 0.9], 5)
    assert mm.drop_count == 1
    assert mm.recovery_rate == pytest.approx(2.0, abs=1e-6)
    assert abs(mm.avg_magnitude - 0.35) <= 1e-6
    _report(3, "both hand-derived sequences reproduce within 1e-6")


def test_criterion_4_shift_and_scale_invariance_on_500_series():
    for index in range(500):
        points, window = _random_series(40_000 + index, max_len=200)
        rng = np.random.default_rng(70_000 + index)
        shift = float(rng.uniform(-0.5, 2.0))
        scale = float(rng.uniform(0.1, 3.0))
        base = meta_measures(points, window)
        base_runs = [(d.start, d.end) for d in base.drops]

        shifted = meta_measures([p + shift for p in points], window)
        assert [(d.start, d.end) for d in shifted.drops] == base_runs
        assert shifted.drop_count == base.drop_count
        assert _close(shifted.volatility, base.volatility, 1e-9)
        assert _close(shifted.max_magnitude, base.max_magnitude, 1e-9)
        assert _close(shifted.avg_magnitude, base.avg_magnitude, 1e-9)
        assert shifted.recovery_rate == base.recovery_rate

        scaled = meta_measures([p * scale for p in points], window)
        assert [(d.start, d.end) for d in scaled.drops] == base_runs
        assert scaled.drop_count == base.drop_count
        assert _close(scaled.volatility, base.volatility * scale, 1e-9)
        if base.drop_count:
            assert _close(scaled.max_magnitude, base.max_magnitude * scale, 1e-9)
            assert _close(scaled.avg_magnitude, base.avg_magnitude * scale, 1e-9)
            assert scaled.recovery_rate == base.recovery_rate
    _report(4, "shift/scale leave drop index sets exact on 500 series")


def test_criterion_5_structural_identities():
    cases = [_random_series(55_000 + index, max_len=300) for index in range(300)]
    cases += [([0.5] * 40, 7), ([1.0] * 3, 1), ([0.25] * 100, 30)]
    cases += [([0.8, 0.8, 0.8, 0.2, 0.8], 3), ([0.9] * 5 + [0.4, 0.4, 0.9], 5)]
    for points, window in cases:
        stats = moving_stats(points, window)
        mm = meta_measures(points, window)
        assert np.all(stats.lb <= stats.ma) and np.all(stats.ma <= stats.ub)
        below = drop_mask(points, stats)
        assert sum(len(d) for d in mm.drops) == int(below.sum())
        if mm.drop_count > 0:
            assert mm.max_magnitude >= mm.avg_magnitude > 0.0
            assert mm.recovery_rate >= 1.0
        if len(set(points)) == 1:
            assert mm.drop_count == 0 and mm.volatility == 0.0
    _report(5, "partition, bound, and constant-series identities hold")


def test_criterion_6_confusion_metric_fixtures():
    values = metrics_from_confusion(tp=3, fp=1, fn=2, tn=4)
    assert abs(values["accuracy"] - 0.7) <= 1e-6
    assert abs(values["precision"] - 0.75) <= 1e-6
    assert abs(values["recall"] - 0.6) <= 1e-6
    assert abs(values["f1"] - 0.666667) <= 1e-6
    zero = metrics_from_confusion(tp=0, fp=0, fn=4, tn=6)
    assert zero["precision"] == 0.0 and zero["recall"] == 0.0 and zero["f1"] == 0.0
    _report(6, "confusion fixtures and zero-division conventions hold")


def test_criterion_7_drift_experiment_directional():
    started = time.perf_counter()
    spec = DriftLogSpec(n_cases=2000, drift_at=1000, seed=0, noise=0.05)
    log = parsed_log(spec)
    completion = [item.event.case_id for item in event_replay(log) if item.is_case_end]
    drift_label = next(
        i + 1
        for i, case_id in enumerate(completion)
        if int(case_id.split("_")[1]) > spec.drift_at
    )

    buckets = BucketConfig(k_min=4, k_max=4)
    series = {}
    for policy in ("static", "incremental"):
        result = run_stream(log, policy, buckets, grace=200, eval_window=100)
        series[policy] = result.series[(4, "accuracy")]

    # static: at least one significant drop within 200 labels after the drift
    static = series["static"]
    static_vals = np.asarray(static.values)
    static_labels = np.asarray(static.label_indices)
    drops = meta_measures(static_vals, 30).drops
    in_window = [
        drop
        for drop in drops
        if any(
            drift_label < static_labels[i] <= drift_label + 200 for i in range(drop.start, drop.end + 1)
        )
    ]
    assert in_window, "static model shows no significant drop after the drift"

    # static post-drift accuracy trails the incremental model by >= 0.10
    incremental = series["incremental"]
    inc_vals = np.asarray(incremental.values)
    inc_labels = np.asarray(incremental.label_indices)
    static_post = static_vals[static_labels > drift_label].mean()
    inc_post = inc_vals[inc_labels > drift_label].mean()
    assert inc_post - static_post >= 0.10

    # incremental moving average dips, then returns near its pre-drift level
    stats = moving_stats(inc_vals, 30)
    pre_level = stats.ma[inc_labels <= drift_label][-1]
    window = (inc_labels > drift_label) & (inc_labels <= drift_label + 500)
    ma_window = stats.ma[window]
    dipped = ma_window < pre_level - 0.05
    assert dipped.any(), "incremental moving average never left its pre-drift level"
    first_dip = int(np.argmax(dipped))
    recovered = np.nonzero(
        (np.arange(len(ma_window)) > first_dip) & (ma_window >= pre_level - 0.05)
    )[0]
    assert len(recovered) > 0, "incremental moving average did not recover in 500 labels"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"drift experiment took {elapsed:.1f}s"
    _report(
        7,
        f"drift: static drops and trails by {inc_post - static_post:.2f}; "
        f"incremental recovers ({elapsed:.1f}s)",
    )


def test_criterion_8_repeated_runs_are_byte_identical(tmp_path):
    log = tmp_path / "drift.csv"
    log.write_text(generate(DriftLogSpec(n_cases=120, drift_at=60, seed=4)))
    for policy in ("incremental", "window-retrain", "static"):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{policy}-{attempt}"
            code = main(
                [
                    "run",
                    "--log", str(log),
                    "--model", policy,
                    "--grace", "30",
                    "--eval-window", "20",
                    "--seed", "4",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out)
        for artifact in ("performance.csv", "meta.json"):
            first = (outputs[0] / artifact).read_bytes()
            second = (outputs[1] / artifact).read_bytes()
            assert first == second, f"{policy}: {artifact} differs between runs"
    _report(8, "repeated runs produce byte-identical performance.csv and meta.json")


def test_criterion_9_advisor_matches_published_scenario_assignments():
    rows = [
        ConfigSummary("C1", 0.69, 44, 0.058, 0.290, 0.088, 6.568),
        ConfigSummary("C2", 0.95, 26, 0.018, 0.096, 0.032, 7.692),
        ConfigSummary("C3", 0.94, 24, 0.024, 0.251, 0.041, 11.042),
    ]
    high_risk_high_freq = rank(rows, SCENARIO_PROFILES["hf-hr"])
    assert high_risk_high_freq[0] == "C2"
    low_risk_high_freq = rank(rows, SCENARIO_PROFILES["hf-lr"])
    assert low_risk_high_freq.index("C1") < low_risk_high_freq.index("C3")
    _report(9, "C2 wins hf-hr and C1 precedes C3 under hf-lr")
