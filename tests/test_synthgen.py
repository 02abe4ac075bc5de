from io import StringIO

import pytest

from stability_meter.errors import ConfigError
from stability_meter.event_model import parse_log
from stability_meter.synthgen import (
    BRANCH_ACTIVITIES,
    CLOSE_ACTIVITY,
    MAX_CASE_LENGTH,
    MIN_CASE_LENGTH,
    START_ACTIVITY,
    DriftLogSpec,
    case_regime,
    generate,
    oracle_label,
    to_csv,
)

from oracles import event_replay
from parsed_logs import parsed_log


def test_spec_validation():
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=0, drift_at=1)
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=10, drift_at=11)
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=10, drift_at=5, noise=0.5)


def test_generation_is_deterministic_byte_for_byte():
    spec = DriftLogSpec(n_cases=120, drift_at=60, seed=42, noise=0.1)
    assert to_csv(generate(spec)) == to_csv(generate(spec))


def test_different_seeds_differ():
    a = to_csv(generate(DriftLogSpec(n_cases=50, drift_at=25, seed=1)))
    b = to_csv(generate(DriftLogSpec(n_cases=50, drift_at=25, seed=2)))
    assert a != b


def test_case_shape():
    traces = generate(DriftLogSpec(n_cases=100, drift_at=50, seed=7))
    for trace in traces:
        assert MIN_CASE_LENGTH <= len(trace) <= MAX_CASE_LENGTH
        assert trace.events[0].activity == START_ACTIVITY
        assert trace.events[1].activity in BRANCH_ACTIVITIES
        assert trace.events[-1].activity == CLOSE_ACTIVITY
        stamps = [event.timestamp for event in trace.events]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)


def test_cases_overlap_in_the_stream():
    items = list(event_replay(parsed_log(DriftLogSpec(n_cases=50, drift_at=25, seed=3))))
    open_cases, max_open = set(), 0
    for item in items:
        open_cases.add(item.event.case_id)
        max_open = max(max_open, len(open_cases))
        if item.is_case_end:
            open_cases.discard(item.event.case_id)
    assert max_open >= 5


def test_noiseless_log_is_perfectly_predicted_by_the_rule():
    spec = DriftLogSpec(n_cases=300, drift_at=300, seed=9, noise=0.0)
    traces = generate(spec)
    hits = sum(
        1 for trace in traces if oracle_label(trace.events[1].activity, regime=1) == trace.label
    )
    assert hits == len(traces)


def test_regime_one_rule_degrades_after_the_drift():
    spec = DriftLogSpec(n_cases=2000, drift_at=1000, seed=0, noise=0.05)
    traces = generate(spec)
    post = traces[spec.drift_at :]
    hits = sum(
        1 for trace in post if oracle_label(trace.events[1].activity, regime=1) == trace.label
    )
    assert hits / len(post) < 0.6


def test_label_balance_near_design_target_per_regime():
    spec = DriftLogSpec(n_cases=1200, drift_at=600, seed=5, noise=0.05)
    traces = generate(spec)
    for regime, chunk in ((1, traces[:600]), (2, traces[600:])):
        first, last = (1, 600) if regime == 1 else (601, 1200)
        assert all(case_regime(spec, i) == regime for i in range(first, last + 1))
        share = sum(trace.label for trace in chunk) / len(chunk)
        assert abs(share - 0.5) <= 0.10


def test_csv_round_trips_through_the_parser():
    spec = DriftLogSpec(n_cases=40, drift_at=20, seed=13)
    traces = generate(spec)
    parsed = parse_log(StringIO(to_csv(traces)))
    assert list(parsed) == traces


def test_attribute_columns_are_sniffed_as_expected():
    traces = generate(DriftLogSpec(n_cases=5, drift_at=3, seed=1))
    event = traces[0].events[0]
    assert isinstance(event.attribute("amount"), float)
    assert event.attribute("channel") in ("web", "branch", "phone")
