"""The integer run loop against the reference loop it replaced.

``run_stream`` over ``replay`` keeps per bucket only each resolution's
outcome and label index and makes every series in one array pass;
``oracles.reference_run_stream`` over ``oracles.event_replay`` builds an
``Event`` per item, encodes each prefix from scratch with a text-keyed codec
and computes each point's metrics from a window as its label arrives. Both
must give the same series, ledger and codes, on drawn and on seeded logs.
"""

import io
import random
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stability_meter import evaluation
from stability_meter.classifiers import LearnerParams
from stability_meter.errors import StabilityMeterError
from stability_meter.evaluation import METRICS, metrics_from_confusion, run_stream
from stability_meter.event_model import parse_log, replay
from stability_meter.prefixing import AttributeSchema, BucketConfig, CategoryCodec, default_k_max
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from log_strategies import csv_logs, many_case_logs
from oracles import event_replay, loop_metrics, reference_run_stream
from parsed_logs import coded_texts

POLICIES = ("incremental", "window-retrain", "static")
ATTRS = ((), ("amount", "channel"))


def _assert_same_run(log, policy, attrs, grace, eval_window, eval_every, retrain_every):
    schema = AttributeSchema.from_traces(attrs, log)
    buckets = BucketConfig(2, max(2, default_k_max(log)))
    params = LearnerParams(train_window=30, retrain_every=retrain_every, memory=40)
    options = dict(grace=grace, eval_window=eval_window, eval_every=eval_every, schema=schema, params=params)
    codecs = []

    def recorded_codec():
        codecs.append(CategoryCodec())
        return codecs[-1]

    ledger, want_ledger = [], []
    with mock.patch.object(evaluation, "CategoryCodec", recorded_codec):
        result = run_stream(replay(log), policy, buckets, ledger=ledger, **options)
    want, labels_seen, text_codec = reference_run_stream(
        event_replay(log), policy, buckets, ledger=want_ledger, **options
    )
    assert result.labels_seen == labels_seen
    assert result.series.keys() == want.keys()
    for key, series in result.series.items():
        assert series.label_indices == want[key].label_indices, key
        assert np.array_equal(
            np.array(series.values).view(np.int64), np.array(want[key].values).view(np.int64)
        ), key
    assert ledger == want_ledger
    assert coded_texts(codecs[0], log) == text_codec._codes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    csv_logs(),
    st.sampled_from(POLICIES),
    st.sampled_from(ATTRS),
    st.integers(1, 3),
    st.integers(1, 10),
    st.integers(1, 7),
    st.integers(1, 7),
)
def test_run_loop_matches_the_reference_on_random_logs(
    text, policy, attrs, grace, eval_window, eval_every, retrain_every
):
    # Drawn logs hold at most three cases, so the grace period is short.
    try:
        log = parse_log(io.StringIO(text))
    except StabilityMeterError:
        return
    _assert_same_run(log, policy, attrs, grace, eval_window, eval_every, retrain_every)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    many_case_logs(),
    st.sampled_from(POLICIES),
    st.sampled_from(ATTRS),
    st.integers(5, 20),
    st.integers(1, 10),
    st.integers(1, 7),
    st.integers(1, 7),
)
def test_run_loop_matches_the_reference_on_random_many_case_logs(
    text, policy, attrs, grace, eval_window, eval_every, retrain_every
):
    log = parse_log(io.StringIO(text))
    _assert_same_run(log, policy, attrs, grace, eval_window, eval_every, retrain_every)


def _shuffled_blanked_log(seed):
    """A seeded synth log with its rows shuffled and about a tenth of its attribute cells blank."""
    rng = random.Random(seed)
    header, *rows = to_csv(generate(DriftLogSpec(n_cases=90, drift_at=45, seed=seed))).splitlines()
    columns = header.split(",")
    attributes = [columns.index("amount"), columns.index("channel")]
    blanked = []
    for row in rows:
        cells = row.split(",")
        for at in attributes:
            if rng.random() < 0.1:
                cells[at] = ""
        blanked.append(",".join(cells))
    rng.shuffle(blanked)
    return parse_log(io.StringIO("\n".join([header, *blanked]) + "\n"))


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("attrs", ATTRS, ids=["activities", "attributes"])
@pytest.mark.parametrize("policy", POLICIES)
def test_run_loop_matches_the_reference_on_shuffled_synth_logs(policy, attrs, seed):
    rng = random.Random(f"{policy}/{attrs}/{seed}")
    _assert_same_run(
        _shuffled_blanked_log(seed),
        policy,
        attrs,
        grace=rng.randint(5, 20),
        eval_window=rng.randint(1, 10),
        eval_every=rng.randint(1, 7),
        retrain_every=rng.randint(1, 7),
    )


def test_array_metrics_match_the_scalar_formulas_bit_for_bit():
    grid = np.array(
        [counts for counts in product(range(13), repeat=4) if 0 < sum(counts) <= 12], dtype=np.int64
    )
    got = metrics_from_confusion(*grid.T)
    for metric in METRICS:
        want = np.array([loop_metrics(*counts)[metric] for counts in grid.tolist()])
        assert np.array_equal(got[metric].view(np.int64), want.view(np.int64)), metric


def test_array_metrics_reject_an_empty_window():
    with pytest.raises(ValueError, match="empty confusion matrix"):
        metrics_from_confusion(np.array([1, 0]), np.array([0, 0]), np.array([0, 0]), np.array([0, 0]))


def _run_peak_per_event(log, stream):
    """Peak traced bytes per event of a static run over ``stream``, with few series points."""
    tracemalloc.start()
    try:
        run_stream(
            stream(), "static", BucketConfig(2, default_k_max(log)),
            grace=50, eval_window=20, eval_every=100, metrics=("f1",),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / int(log.lengths().sum())


def test_run_stream_peak_memory_per_event_stays_small():
    # The replayed run holds the open cases' handles and codes, the models
    # and the integer resolutions: ~60 B/event here. A stream that first
    # lists every item of the log peaks near 150, and one that lists the
    # whole stream order as Python ints near 95.
    log = parse_log(io.StringIO(to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3)))))
    _run_peak_per_event(log, lambda: replay(log))  # warm up, untimed and unchecked
    assert _run_peak_per_event(log, lambda: replay(log)) < 80
    assert _run_peak_per_event(log, lambda: iter(list(replay(log)))) > 80
