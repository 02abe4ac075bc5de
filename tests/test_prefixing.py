from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings

from stability_meter.errors import ConfigError, StabilityMeterError
from stability_meter.evaluation import run_stream
from stability_meter.event_model import Event, Trace, parse_log
from stability_meter.prefixing import (
    MISSING_CODE,
    BucketConfig,
    check_attrs,
    default_k_max,
    encode,
    feature_mask,
)

from log_strategies import csv_logs
from oracles import Prefix, TextCodec, scratch_encode
from parsed_logs import csv_text, parsed_log, shuffled_blanked_csv


def prefixes_of(trace, cfg):
    """All prefixes of the trace with lengths in [k_min, min(k_max, N)]."""
    top = min(cfg.k_max, len(trace.events))
    return [
        Prefix(case_id=trace.case_id, k=k, events=tuple(trace.events[:k]))
        for k in range(cfg.k_min, top + 1)
    ]


def _trace(case_id, activities, attrs=None):
    """A trace whose i-th event has the names and values of ``attrs[i - 1]``."""
    attrs = attrs or [{}] * len(activities)
    events = [
        Event(
            case_id=case_id,
            activity=activity,
            timestamp=i,
            position=i,
            names=tuple(attrs[i - 1]),
            values=tuple(attrs[i - 1].values()),
            row=i + 1,
        )
        for i, activity in enumerate(activities, start=1)
    ]
    return Trace(case_id=case_id, events=events, label=1)


_COLUMNS = ("case_id", "activity", "timestamp", "label", "amount", "channel", "extra")


def _one_case_log(activities, attrs=None, case_id="c"):
    """A parsed one-case log whose i-th event has the cells of ``attrs[i - 1]``."""
    return parse_log(StringIO(_one_case_csv(activities, attrs, case_id)))


def _one_case_csv(activities, attrs=None, case_id="c"):
    attrs = attrs or [{}] * len(activities)
    last = len(activities)
    return csv_text(
        [
            (case_id, activity, i, 1 if i == last else None, *(cells.get(name) for name in _COLUMNS[4:]))
            for i, (activity, cells) in enumerate(zip(activities, attrs), start=1)
        ],
        columns=_COLUMNS,
    )


def _encode(log, cases, k, attrs):
    """``encode``'s rows of the ``k``-prefixes of ``cases`` as tuples."""
    return [tuple(row) for row in encode(log, np.array(cases), k, attrs).tolist()]


def _code(log, text):
    """The code of ``text`` in ``log``: its string id."""
    return log.strings.index(text)


def _log_of_lengths(*lengths):
    return parsed_log(
        (f"c{i}", "a", position, 1 if position == n else None)
        for i, n in enumerate(lengths)
        for position in range(1, n + 1)
    )


def test_default_k_max_odd_median():
    assert default_k_max(_log_of_lengths(3, 5, 7)) == 5


def test_default_k_max_even_uses_lower_median():
    assert default_k_max(_log_of_lengths(4, 8)) == 4


def test_default_k_max_irregular_lengths_with_median_12():
    lengths = [11, 12, 12, 13, 10, 12, 14, 12, 11, 13, 12]
    assert default_k_max(_log_of_lengths(*lengths)) == 12


def test_bucket_config_validation():
    with pytest.raises(ConfigError, match="^k_min must be >= 2, got 1$"):
        BucketConfig(k_min=1, k_max=5)
    with pytest.raises(ConfigError, match="^k_max must be >= k_min 5, got 4$"):
        BucketConfig(k_min=5, k_max=4)
    assert list(BucketConfig(k_min=2, k_max=4).buckets()) == [2, 3, 4]


def test_prefixes_of_basic_range():
    cfg = BucketConfig(k_min=2, k_max=12)
    prefixes = prefixes_of(_trace("c", ["a", "b", "c", "d"]), cfg)
    assert [p.k for p in prefixes] == [2, 3, 4]
    assert [event.activity for event in prefixes[1].events] == ["a", "b", "c"]


def test_prefixes_of_caps_at_k_max():
    cfg = BucketConfig(k_min=2, k_max=12)
    prefixes = prefixes_of(_trace("c", [f"a{i}" for i in range(15)]), cfg)
    assert [p.k for p in prefixes] == list(range(2, 13))


def test_short_trace_yields_no_prefixes():
    cfg = BucketConfig(k_min=2, k_max=12)
    assert prefixes_of(_trace("c", ["only"]), cfg) == []


def test_encode_activities_only():
    log = _one_case_log(["A", "B"])
    (row,) = _encode(log, [0], 2, ())
    assert row == (_code(log, "A"), _code(log, "B")) == (1, 2)


def test_encode_appends_attributes_per_position():
    log = _one_case_log(["A", "B"], attrs=[{"amount": 10.0}, {"amount": 20.0}])
    assert _encode(log, [0], 2, ("amount",)) == [(_code(log, "A"), _code(log, "B"), 10.0, 20.0)]


def test_encode_missing_attribute_uses_reserved_code():
    log = _one_case_log(["A", "B"], attrs=[{"channel": "web"}, {}])
    (row,) = _encode(log, [0], 2, ("channel",))
    assert row[-1] == MISSING_CODE
    assert row[-2] == _code(log, "web")


def test_encode_looks_attributes_up_by_name():
    # the names come in another order than the log's columns
    attrs = [
        {"amount": 1.5, "channel": "web"},
        {"channel": "phone", "amount": 4.0, "extra": "x"},
        {},
        {"channel": None, "amount": None},
    ]
    text = _one_case_csv(["A", "B", "C", "D"], attrs=attrs)
    log = parse_log(StringIO(text))
    names = ("channel", "amount")
    events = log[0].events
    want = [scratch_encode(Prefix("c", k, tuple(events[:k])), names, TextCodec(text)) for k in range(1, 5)]
    assert [_encode(log, [0], k, names)[0] for k in range(1, 5)] == want
    assert want[-1][4:] == (
        _code(log, "web"), 1.5,
        _code(log, "phone"), 4.0,
        MISSING_CODE, 0.0,
        MISSING_CODE, 0.0,
    )


def test_codes_number_texts_by_first_appearance_in_the_file():
    # row by row, the activity before the attributes; the rows' timestamps
    # put "C" and "x" first in the case, which does not change their codes
    log = parsed_log(
        [("c", "A", 3, None, "web"), ("c", "B", 4, 1, None), ("c", "C", 1, None, "x")],
        columns=_COLUMNS[:4] + ("channel",),
    )
    assert log.strings[1:] == ["A", "web", "B", "C", "x"]
    assert _encode(log, [0], 3, ("channel",)) == [(4, 1, 3, 5, 2, MISSING_CODE)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(csv_logs())
def test_the_string_table_numbers_texts_as_the_reference_codec_does(text):
    # Drawn channel cells include "10" and "nan", so a column often reads
    # as numbers until a later text turns it categorical.
    try:
        log = parse_log(StringIO(text))
    except StabilityMeterError:
        return
    assert log.strings[0] is None
    assert log.strings[1:] == TextCodec(text).texts()


def test_a_column_empty_on_every_row_is_categorical_and_missing():
    log = parse_log(
        StringIO("case_id,activity,timestamp,label,note,amount\na,x,1,,,2\na,y,2,1, ,3\n")
    )
    assert log.kinds() == {"amount": True}
    (row,) = _encode(log, [0], 2, ("note", "amount"))
    assert row[2:] == (MISSING_CODE, 2.0, MISSING_CODE, 3.0)


def test_codes_are_stable_across_cases():
    log = parsed_log([("c1", "A", 1, None), ("c1", "B", 2, 1), ("c2", "B", 3, None), ("c2", "A", 4, 0)])
    one, two = _encode(log, [0, 1], 2, ())
    assert one == (two[1], two[0])
    assert sorted(one) == [1, 2]


def test_activities_and_categories_with_one_text_share_a_code():
    log = _one_case_log(["web", "B"], attrs=[{"channel": "B"}, {"channel": "web"}])
    assert _encode(log, [0], 2, ("channel",)) == [(1, 2, 2, 1)]


def test_identical_prefix_content_encodes_identically():
    log = parsed_log(
        [("c1", "A", 1, None, 1.0), ("c2", "A", 2, None, 1.0), ("c1", "B", 3, 1, 2.0), ("c2", "B", 4, 1, 2.0)],
        columns=("case_id", "activity", "timestamp", "label", "amount"),
    )
    one, two = _encode(log, [0, 1], 2, ("amount",))
    assert one == two


def test_feature_width_is_a_function_of_k_and_schema():
    # the schema is the attribute kinds, in encoding order
    assert len(feature_mask((True, False), 3)) == 9
    assert feature_mask((True, False), 2) == (False, False, True, False, True, False)
    assert feature_mask((), 3) == (False, False, False)


def test_check_attrs_names_the_first_repeated_or_unknown_name():
    log = parse_log(StringIO("case_id,activity,timestamp,label,amount,channel\na,x,1,1,5.5,web\n"))
    check_attrs(("channel", "amount"), log)
    check_attrs(("ghost", "x"))  # without a log, only repetition is checked
    with pytest.raises(ConfigError, match="^attrs names 'ghost' twice$"):
        check_attrs(("amount", "ghost", "ghost"))
    with pytest.raises(ConfigError, match="^attrs names 'ghost', which is not an attribute column of the log$"):
        check_attrs(("amount", "ghost", "amount"), log)
    with pytest.raises(ConfigError, match="^attrs names 'label', which is not an attribute column of the log$"):
        check_attrs(("label",), log)
    with pytest.raises(ConfigError) as raised:
        check_attrs(("{x}", "{x}"))
    assert raised.value.template.format("--attrs") == "--attrs names '{x}' twice"


def test_schema_from_traces_sniffs_kinds():
    # run_stream encodes each named attribute as the kind the log holds;
    # note is empty on every row, so it is categorical.
    log = parse_log(
        StringIO("case_id,activity,timestamp,label,amount,channel,note\na,x,1,,5.5,web,\na,y,2,1,6.5,phone, \n")
    )
    models = run_stream(log, "static", BucketConfig(2, 2), grace=1, attrs=("channel", "note", "amount")).models
    assert models[2]._mask == feature_mask((False, False, True), 2)


def test_schema_without_attributes_does_not_read_the_traces(monkeypatch):
    # without names, run_stream scans no column for its kind
    log = parse_log(StringIO("case_id,activity,timestamp,label,amount\na,x,1,,1.5\na,y,2,1,\n"))

    def kinds():
        raise AssertionError("the columns were scanned")

    monkeypatch.setattr(log, "kinds", kinds)
    assert run_stream(log, "static", BucketConfig(2, 2), grace=1).labels_seen == 1


def test_bucket_population_matches_case_lengths():
    # bucket k receives exactly one sample per case of length >= k
    traces = _log_of_lengths(2, 3, 5, 5, 7)
    cfg = BucketConfig(k_min=2, k_max=6)
    population = {k: 0 for k in cfg.buckets()}
    for trace in traces:
        for prefix in prefixes_of(trace, cfg):
            population[prefix.k] += 1
    expected = {
        k: sum(1 for trace in traces if len(trace) >= k) for k in cfg.buckets()
    }
    assert population == expected


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("attrs", [(), ("amount", "channel")], ids=["activities", "attributes"])
def test_encode_matches_the_scratch_encoder_on_every_prefix_length(attrs, seed):
    # Shuffled rows and blank cells; names in another order than the log's columns.
    text = shuffled_blanked_csv(seed, n_cases=60)
    log = parse_log(StringIO(text))
    names = tuple(reversed(attrs))
    lengths = log.lengths()
    scratch = TextCodec(text)
    assert [scratch.numeric[name] for name in names] == [log.kinds()[name] for name in names]
    want = {
        k: [
            scratch_encode(Prefix(trace.case_id, k, tuple(trace.events[:k])), names, scratch)
            for trace in log
            if len(trace) >= k
        ]
        for k in range(1, int(lengths.max()) + 1)
    }
    for k, rows in want.items():
        assert _encode(log, np.flatnonzero(lengths >= k), k, names) == rows, k
