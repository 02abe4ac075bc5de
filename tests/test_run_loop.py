"""The two-pass run loop against the online reference loop.

``run_stream`` over a parsed log records the labels and issued predictions
as integers from the log's arrays, then serves each bucket's model from
gathered rows and makes every series in one array pass;
``oracles.reference_run_stream`` over ``oracles.event_replay`` builds an
``Event`` per item, encodes each prefix from scratch with a text-keyed
codec, trains the models one labeled sample at a time (window-retrain as
``oracles.ReferenceWindowRetrain``) and computes each point's metrics from
a window as its label arrives. Both must give the same series, ledger and
models, a window-retrain model's held window included, on drawn, seeded
and hand-made logs; the
recording pass must also give the integers of ``oracles.reference_record``,
which walks the replay event by event.
"""

import io
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stability_meter.classifiers import LearnerParams, model_class
from stability_meter.errors import SettingError, StabilityMeterError
from stability_meter.evaluation import METRICS, _Record, metrics_from_confusion, run_stream
from stability_meter.event_model import parse_log
from stability_meter.prefixing import BucketConfig, default_k_max
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from log_strategies import csv_logs, many_case_logs
from oracles import TextCodec, event_replay, loop_metrics, reference_record, reference_run_stream
from parsed_logs import shuffled_blanked_csv

POLICIES = ("incremental", "window-retrain", "static")
ATTRS = ((), ("amount", "channel"))


def _assert_same_run(text, policy, attrs, grace, eval_window, eval_every, retrain_every):
    log = parse_log(io.StringIO(text))
    attrs = tuple(name for name in attrs if name in log.names)  # drawn logs may lack a column
    buckets = BucketConfig(2, max(2, default_k_max(log)))
    params = LearnerParams(train_window=30, retrain_every=retrain_every, memory=40)
    options = dict(grace=grace, eval_window=eval_window, eval_every=eval_every, attrs=attrs, params=params)
    ledger, want_ledger = [], []
    result = run_stream(log, policy, buckets, ledger=ledger, **options)
    want, labels_seen, want_models = reference_run_stream(
        event_replay(log), TextCodec(text), policy, buckets, ledger=want_ledger, **options
    )
    assert result.labels_seen == labels_seen
    # A bucket longer than every case gets no model and so no series, where the reference's stays empty.
    longest = int(log.lengths().max())
    assert all(not series.values for (k, _), series in want.items() if k > longest)
    assert list(result.series) == [key for key in want if key[0] <= longest]
    for key, series in result.series.items():
        assert series.label_indices.tolist() == want[key].label_indices, key
        assert np.array_equal(
            np.array(series.values).view(np.int64), np.array(want[key].values).view(np.int64)
        ), key
    assert ledger == want_ledger
    for k, model in result.models.items():
        reference = want_models[k]
        assert (model.version, model.is_ready) == (reference.version, reference.is_ready), k
        if policy == "incremental":
            assert (model._class_counts, model._counts) == (reference._class_counts, reference._counts), k
        elif policy == "window-retrain":
            assert (model._tree.to_dict() if model.is_ready else None) == reference.tree, k
            assert model._rows.tolist() == [list(row) for row, _ in reference.window], k
            assert model._labels.tolist() == [label for _, label in reference.window], k
        elif model.is_ready:
            assert model._tree.to_dict() == reference._tree.to_dict(), k
    return ledger


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
        parse_log(io.StringIO(text))
    except StabilityMeterError:
        return
    _assert_same_run(text, policy, attrs, grace, eval_window, eval_every, retrain_every)


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
    _assert_same_run(text, policy, attrs, grace, eval_window, eval_every, retrain_every)


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("attrs", ATTRS, ids=["activities", "attributes"])
@pytest.mark.parametrize("policy", POLICIES)
def test_run_loop_matches_the_reference_on_shuffled_synth_logs(policy, attrs, seed):
    rng = random.Random(f"{policy}/{attrs}/{seed}")
    _assert_same_run(
        shuffled_blanked_csv(seed),
        policy,
        attrs,
        grace=rng.randint(5, 20),
        eval_window=rng.randint(1, 10),
        eval_every=rng.randint(1, 7),
        retrain_every=rng.randint(1, 7),
    )


def _edge_csv():
    """The CSV text of a log whose first four cases (the grace period) have two events, then longer ones.

    Cases, in stream order: four grace cases of length 2, so buckets 3..7
    get no label during grace; one of length 2, which ends on an event
    that bucket 2 predicts; two of length 3; case ``A1`` of length 7; cases
    ``B1`` and ``B2`` of length 9, interleaved so that their last events
    are adjacent; then the other cases of length 7 and 9 one after another.
    Lengths make ``k_max`` 7, so bucket 7 trains only on the cases of
    length 7 and 9, and ``B1`` and ``B2`` train it twice in a row with no
    bucket-7 prediction in between.
    """
    cases = [(f"g{i}", 2) for i in range(4)] + [("s1", 2), ("m1", 3), ("m2", 3), ("A1", 7)]
    events = [(name, position) for name, length in cases for position in range(1, length + 1)]
    events += [(name, position) for position in range(1, 10) for name in ("B1", "B2")]
    for name, length in [("A2", 7), ("B3", 9), ("A3", 7), ("B4", 9), ("A4", 7)]:
        events += [(name, position) for position in range(1, length + 1)]
    number = {name: index for index, name in enumerate(dict.fromkeys(name for name, _ in events))}
    rows = ["case_id,activity,timestamp,label,amount,channel"]
    for time, (name, position) in enumerate(events):
        case = number[name]
        activity = "abcd"[(case + position) % 4]
        channel = ("web", "shop", "app")[(case * position) % 3]
        rows.append(f"{name},{activity},{time},{(case * 5 + 3) % 7 % 2},{10 + 3.5 * case - position},{channel}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("attrs", ATTRS, ids=["activities", "attributes"])
@pytest.mark.parametrize("policy", POLICIES)
def test_run_loop_matches_the_reference_at_readiness_and_interval_edges(policy, attrs):
    text = _edge_csv()
    assert default_k_max(parse_log(io.StringIO(text))) == 7
    ledger = _assert_same_run(text, policy, attrs, grace=4, eval_window=3, eval_every=1, retrain_every=1)
    # A prediction on the case's own last event, resolved by that event's label.
    assert any(pair.issued_at == pair.stream_index for pair in ledger)
    top = sorted((pair.issued_at, pair.model_version) for pair in ledger if pair.bucket == 7)
    if policy == "static":
        assert not top  # bucket 7 had no grace label, so its static model never predicts
    else:
        # B1's and B2's labels change bucket 7's model twice between two of its predictions.
        assert any(later - earlier == 2 for (_, earlier), (_, later) in zip(top, top[1:]))


# Grace periods against a log's label count, one label per case.
GRACE = {"below": lambda labels: labels // 3 + 1, "at": lambda labels: labels, "above": lambda labels: labels + 1}


def _assert_same_record(text, policy, grace, retrain_every, k_min):
    log = parse_log(io.StringIO(text))
    buckets = BucketConfig(k_min, max(k_min, default_k_max(log)))
    model_type, params = model_class(policy), LearnerParams(retrain_every=retrain_every)
    grace = GRACE[grace](len(log))
    record = _Record.of(log, model_type, buckets.buckets(), grace, params)
    for name, want in reference_record(log, model_type, buckets, grace, params).items():
        assert getattr(record, name).tolist() == want, name


@pytest.mark.parametrize("grace", GRACE)
@pytest.mark.parametrize("retrain_every", [1, 7])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(text=many_case_logs(), k_min=st.integers(2, 4))
def test_recording_pass_matches_the_replay_walk_on_random_logs(policy, retrain_every, grace, text, k_min):
    # Drawn cases have 1 to 5 events, so k_min is above some case lengths.
    _assert_same_record(text, policy, grace, retrain_every, k_min)


@pytest.mark.parametrize("grace", GRACE)
@pytest.mark.parametrize("retrain_every", [1, 7])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "text, k_min",
    # Synth cases have 4 to 16 events; the edge log's grace cases have 2.
    [(shuffled_blanked_csv(4), 5), (_edge_csv(), 2)],
    ids=["shuffled-synth", "edge"],
)
def test_recording_pass_matches_the_replay_walk_on_fixed_logs(text, k_min, policy, retrain_every, grace):
    _assert_same_record(text, policy, grace, retrain_every, k_min)


@pytest.mark.parametrize(
    "attrs, message",
    [
        (("amount", "channel", "amount"), "attrs names 'amount' twice"),
        (("amount", "ghost"), "attrs names 'ghost', which is not an attribute column of the log"),
        (("timestamp",), "attrs names 'timestamp', which is not an attribute column of the log"),
    ],
    ids=["repeated", "unknown", "required column"],
)
def test_run_stream_rejects_a_repeated_or_unknown_attribute_name(attrs, message):
    log = parse_log(io.StringIO("case_id,activity,timestamp,label,amount,channel\na,x,1,,1.5,web\na,y,2,1,,\n"))
    with pytest.raises(SettingError) as raised:
        run_stream(log, "static", BucketConfig(2, 2), grace=1, attrs=attrs)
    assert raised.value.settings == ("attrs",)
    assert str(raised.value) == message


def test_equal_gain_categories_split_on_the_one_first_in_the_file():
    # Channel b holds only positive cases and channel c only negative ones,
    # so a root split on either has the same Gini gain; channel a is mixed.
    # One case of channel c is moved to the top of the file, but its
    # timestamps keep it late in the stream, after every case of channel b:
    # the tie goes to c, whose string id, and so code, is the lower one.
    channels = ["b", "c", "a"] * 10
    rows = [
        f"{case},{activity},{2 * case + position},{label if position == 2 else ''},{channel if position == 1 else ''}"
        for case, channel in enumerate(channels)
        for label in [{"b": 1, "c": 0, "a": case % 2}[channel]]
        for position, activity in ((1, "x"), (2, "y"))
    ]
    last_c = 3 * 9 + 1
    rows = rows[2 * last_c : 2 * last_c + 2] + rows[: 2 * last_c] + rows[2 * last_c + 2 :]
    log = parse_log(io.StringIO("\n".join(["case_id,activity,timestamp,label,channel", *rows]) + "\n"))
    assert log.strings.index("c") < log.strings.index("b")
    result = run_stream(log, "static", BucketConfig(2, 2), grace=len(channels), attrs=("channel",))
    root = result.models[2]._tree.to_dict()
    assert (root["kind"], root["feature"], root["threshold"]) == ("cat", 2, log.strings.index("c"))


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


def _run_peak_per_event(log, policy="static", attrs=(), params=LearnerParams(), held=None):
    """Peak traced bytes per event of a run over ``log``, with few series points.

    ``held(log)``, when given, is made before the run and kept until it ends.
    """
    tracemalloc.start()
    try:
        kept = held(log) if held else None
        run_stream(
            log, policy, BucketConfig(2, default_k_max(log)),
            grace=50, eval_window=20, eval_every=100, metrics=("f1",), attrs=attrs, params=params,
        )
        peak = tracemalloc.get_traced_memory()[1]
        del kept
    finally:
        tracemalloc.stop()
    return peak / int(log.lengths().sum())


def _stream_items(log):
    """One (case, position, is_case_end) tuple per event, in stream order."""
    case = np.searchsorted(log.bounds, log.order, side="right") - 1
    position = log.order - log.bounds[case] + 1
    return list(zip(case.tolist(), position.tolist(), (log.order + 1 == log.bounds[case + 1]).tolist()))


def test_run_stream_peak_memory_per_event_stays_small():
    # The run holds the integers it records, the models and a bounded batch
    # of gathered rows: ~36 B/event here. A run that also holds one tuple
    # per event, as a listed per-event stream did, peaks near 120.
    log = parse_log(io.StringIO(to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3)))))
    _run_peak_per_event(log)  # warm up, untimed and unchecked
    assert _run_peak_per_event(log) < 80
    assert _run_peak_per_event(log, held=_stream_items) > 80


def test_window_retrain_with_attributes_gathers_rows_in_bounded_batches():
    # Rows are gathered a bounded batch of cases at a time: ~40 B/event
    # here, with a small window so that the fits stay small. Gathering each
    # bucket's rows at once peaks near 63.
    log = parse_log(io.StringIO(to_csv(generate(DriftLogSpec(n_cases=1000, drift_at=500, seed=3)))))
    params = LearnerParams(train_window=30, retrain_every=64)
    run = dict(policy="window-retrain", attrs=("amount", "channel"), params=params)
    _run_peak_per_event(log, **run)  # warm up, untimed and unchecked
    assert _run_peak_per_event(log, **run) < 52
