import hashlib
from io import StringIO

import pytest

from stability_meter.errors import ConfigError
from stability_meter.synthgen import (
    BRANCH_ACTIVITIES,
    CHANNELS,
    CLOSE_ACTIVITY,
    MAX_CASE_LENGTH,
    MIN_CASE_LENGTH,
    START_ACTIVITY,
    DriftLogSpec,
    case_regime,
    generate,
    oracle_label,
)

from oracles import dict_reader_parse_log, event_replay
from parsed_logs import parsed_log


def test_spec_validation():
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=0, drift_at=1)
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=10, drift_at=11)
    with pytest.raises(ConfigError):
        DriftLogSpec(n_cases=10, drift_at=5, noise=0.5)


def _traces(spec):
    """The generated log's cases, read back by the reference parser."""
    return dict_reader_parse_log(StringIO(generate(spec)))


def test_generation_is_deterministic_byte_for_byte():
    spec = DriftLogSpec(n_cases=120, drift_at=60, seed=42, noise=0.1)
    assert generate(spec) == generate(spec)


# The logs the benchmark runs and the README's example reads, as the command
# line writes them (UTF-8); any change to the draws or the format moves these.
_DIGESTS = [
    (DriftLogSpec(2000, 1000, seed=1), "795f0e0e2ab0c3be47565c675da1914d946f9b5f9ff542c1610c5d181e6dca32"),
    (DriftLogSpec(5000, 2500, seed=1), "b1813b4e39b433d91f582ff9406cc67fbcff3efc1a90bce6663752b7244fff60"),
    (DriftLogSpec(400, 200, seed=3), "9b5f5d0ead824e3e3c43557bea9052f4373235871fedb31150d7adcecf89190f"),
]


@pytest.mark.parametrize("spec, digest", _DIGESTS, ids=["static-2k", "retrain-attrs-5k", "readme-400"])
def test_generated_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(generate(spec).encode("utf-8")).hexdigest() == digest


def test_different_seeds_differ():
    a = generate(DriftLogSpec(n_cases=50, drift_at=25, seed=1))
    b = generate(DriftLogSpec(n_cases=50, drift_at=25, seed=2))
    assert a != b


def test_case_shape():
    traces = _traces(DriftLogSpec(n_cases=100, drift_at=50, seed=7))
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
    traces = _traces(spec)
    hits = sum(
        1 for trace in traces if oracle_label(trace.events[1].activity, regime=1) == trace.label
    )
    assert hits == len(traces)


def test_regime_one_rule_degrades_after_the_drift():
    spec = DriftLogSpec(n_cases=2000, drift_at=1000, seed=0, noise=0.05)
    traces = _traces(spec)
    post = traces[spec.drift_at :]
    hits = sum(
        1 for trace in post if oracle_label(trace.events[1].activity, regime=1) == trace.label
    )
    assert hits / len(post) < 0.6


def test_label_balance_near_design_target_per_regime():
    spec = DriftLogSpec(n_cases=1200, drift_at=600, seed=5, noise=0.05)
    traces = _traces(spec)
    for regime, chunk in ((1, traces[:600]), (2, traces[600:])):
        first, last = (1, 600) if regime == 1 else (601, 1200)
        assert all(case_regime(spec, i) == regime for i in range(first, last + 1))
        share = sum(trace.label for trace in chunk) / len(chunk)
        assert abs(share - 0.5) <= 0.10


def test_attribute_columns_are_sniffed_as_expected():
    log = parsed_log(DriftLogSpec(n_cases=5, drift_at=3, seed=1))
    assert log.kinds() == {"amount": True, "channel": False}
    assert {log.strings[code] for code in log.columns[1].tolist()} <= set(CHANNELS)
