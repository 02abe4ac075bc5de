import random
from io import StringIO

import pytest

from stability_meter.errors import ConfigError
from stability_meter.event_model import Case, Event, Trace, parse_log
from stability_meter.prefixing import (
    MISSING_CODE,
    AttributeSchema,
    BucketConfig,
    CategoryCodec,
    default_k_max,
    encode,
)
from stability_meter.synthgen import DriftLogSpec

from oracles import Prefix, TextCodec, scratch_encode
from parsed_logs import coded_texts, parsed_log


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


def _case(activities, attrs=None, case_id="c"):
    """Case 0 of a parsed one-case log whose i-th event has the cells of ``attrs[i - 1]``."""
    attrs = attrs or [{}] * len(activities)
    last = len(activities)
    log = parsed_log(
        [
            (case_id, activity, i, 1 if i == last else None, *(cells.get(name) for name in _COLUMNS[4:]))
            for i, (activity, cells) in enumerate(zip(activities, attrs), start=1)
        ],
        columns=_COLUMNS,
    )
    return Case(log, 0)


def _code(codec, case, text):
    """The code ``codec`` gave ``text`` in the case's log."""
    return codec[case.log.strings.index(text)]


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
    with pytest.raises(ConfigError):
        BucketConfig(k_min=1, k_max=5)
    with pytest.raises(ConfigError):
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
    codec = CategoryCodec()
    schema = AttributeSchema()
    case = _case(["A", "B"])
    sample = encode(case, 2, schema, codec)
    assert sample.bucket == 2
    assert sample.features == (_code(codec, case, "A"), _code(codec, case, "B")) == (1, 2)
    assert sample.label is None


def test_encode_appends_attributes_per_position():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("amount",), numeric=(True,))
    case = _case(["A", "B"], attrs=[{"amount": 10.0}, {"amount": 20.0}])
    sample = encode(case, 2, schema, codec, label=1)
    assert sample.features == (_code(codec, case, "A"), _code(codec, case, "B"), 10.0, 20.0)
    assert sample.label == 1


def test_encode_missing_attribute_uses_reserved_code():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("channel",), numeric=(False,))
    case = _case(["A", "B"], attrs=[{"channel": "web"}, {}])
    sample = encode(case, 2, schema, codec)
    assert sample.features[-1] == MISSING_CODE
    assert sample.features[-2] == _code(codec, case, "web")


def test_encode_looks_attributes_up_by_name():
    # the schema names its attributes in its own order, and one the log lacks
    attrs = [
        {"amount": 1.5, "channel": "web"},
        {"channel": "phone", "amount": 4.0, "extra": "x"},
        {},
        {"channel": None, "amount": None},
    ]
    case = _case(["A", "B", "C", "D"], attrs=attrs)
    schema = AttributeSchema(names=("channel", "ghost", "amount"), numeric=(False, False, True))
    codec, scratch = CategoryCodec(), TextCodec()
    events = case.log[0].events
    for k in range(1, 5):
        want = scratch_encode(Prefix("c", k, tuple(events[:k])), schema, scratch)
        assert encode(case, k, schema, codec) == want
    assert want.features[4:] == (
        _code(codec, case, "web"), MISSING_CODE, 1.5,
        _code(codec, case, "phone"), MISSING_CODE, 4.0,
        MISSING_CODE, MISSING_CODE, 0.0,
        MISSING_CODE, MISSING_CODE, 0.0,
    )
    assert coded_texts(codec, case.log) == scratch._codes


def test_a_column_empty_on_every_row_is_categorical_and_missing():
    log = parse_log(
        StringIO("case_id,activity,timestamp,label,note,amount\na,x,1,,,2\na,y,2,1, ,3\n")
    )
    schema = AttributeSchema.from_traces(["note", "amount"], log)
    assert schema.numeric == (False, True)
    codec = CategoryCodec()
    sample = encode(Case(log, 0), 2, schema, codec)
    assert sample.features[2:] == (MISSING_CODE, 2.0, MISSING_CODE, 3.0)
    assert len(codec) == 2


def test_codes_are_stable_across_cases():
    log = parsed_log([("c1", "A", 1, None), ("c1", "B", 2, 1), ("c2", "B", 3, None), ("c2", "A", 4, 0)])
    codec = CategoryCodec()
    schema = AttributeSchema()
    one = encode(Case(log, 0), 2, schema, codec)
    two = encode(Case(log, 1), 2, schema, codec)
    assert one.features == (two.features[1], two.features[0])
    assert len(codec) == 2


def test_activities_and_categories_with_one_text_share_a_code():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("channel",), numeric=(False,))
    case = _case(["web", "B"], attrs=[{"channel": "B"}, {"channel": "web"}])
    assert encode(case, 2, schema, codec).features == (1, 2, 2, 1)


def test_identical_prefix_content_encodes_identically():
    log = parsed_log(
        [("c1", "A", 1, None, 1.0), ("c2", "A", 2, None, 1.0), ("c1", "B", 3, 1, 2.0), ("c2", "B", 4, 1, 2.0)],
        columns=("case_id", "activity", "timestamp", "label", "amount"),
    )
    codec = CategoryCodec()
    schema = AttributeSchema(names=("amount",), numeric=(True,))
    s1 = encode(Case(log, 0), 2, schema, codec)
    s2 = encode(Case(log, 1), 2, schema, codec)
    assert s1.features == s2.features


@pytest.mark.parametrize(
    "schema, attrs",
    [
        (AttributeSchema(names=("amount",), numeric=(False,)), [{"amount": 1.5}, {}]),
        (AttributeSchema(names=("channel",), numeric=(True,)), [{}, {"channel": "web"}]),
    ],
    ids=["numbers declared categorical", "text declared numeric"],
)
def test_a_schema_that_contradicts_the_log_is_a_config_error(schema, attrs):
    with pytest.raises(ConfigError, match="in the log; the schema declares it"):
        encode(_case(["A", "B"], attrs=attrs), 2, schema, CategoryCodec())


def test_a_contradicting_schema_codes_a_case_without_values_as_missing():
    log = parsed_log(
        [("a", "x", 1, 1, None, None), ("b", "x", 2, None, 2.5, "web"), ("b", "y", 3, 0, None, None)],
        columns=_COLUMNS[:6],
    )
    schema = AttributeSchema(names=("amount", "channel"), numeric=(False, True))
    assert encode(Case(log, 0), 1, schema, CategoryCodec()).features == (1, MISSING_CODE, 0.0)
    with pytest.raises(ConfigError, match="'amount' holds numbers in the log; the schema declares it categorical"):
        encode(Case(log, 1), 2, schema, CategoryCodec())


def test_feature_width_is_a_function_of_k_and_schema():
    schema = AttributeSchema(names=("x", "y"), numeric=(True, False))
    assert schema.width(3) == 9
    assert schema.feature_mask(2) == (False, False, True, False, True, False)


def test_schema_from_traces_sniffs_kinds():
    log = (
        "case_id,activity,timestamp,label,amount,channel\n"
        "a,x,1,,5.5,web\n"
        "a,y,2,1,6.5,phone\n"
    )
    traces = parse_log(StringIO(log))
    schema = AttributeSchema.from_traces(["amount", "channel", "ghost"], traces)
    assert schema.numeric == (True, False, False)


def test_schema_without_attributes_does_not_read_the_traces():
    class Unreadable:
        def __iter__(self):
            raise AssertionError("traces were read")

    assert AttributeSchema.from_traces((), Unreadable()) == AttributeSchema()


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


_SYNTH_SCHEMA = AttributeSchema(names=("amount", "channel"), numeric=(True, False))


def _assert_same_coding(log, lengths_of):
    """Encode once per case and from scratch, in the same call order."""
    fresh, scratch = CategoryCodec(), TextCodec()
    for index, trace in enumerate(log):
        case = Case(log, index)
        for k in lengths_of(trace):
            got = encode(case, k, _SYNTH_SCHEMA, fresh, label=trace.label)
            want = scratch_encode(
                Prefix(trace.case_id, k, tuple(trace.events[:k])),
                _SYNTH_SCHEMA,
                scratch,
                label=trace.label,
            )
            assert got == want
    assert coded_texts(fresh, log) == scratch._codes


def test_encode_matches_the_scratch_encoder_on_every_prefix():
    log = parsed_log(DriftLogSpec(n_cases=120, drift_at=60, seed=5))
    _assert_same_coding(log, lambda trace: range(1, len(trace) + 1))


def test_encode_matches_the_scratch_encoder_when_lengths_are_skipped():
    # run_stream encodes a case only at some lengths (after grace, when the
    # bucket's model is ready), starting anywhere and then at its case end
    rng = random.Random(7)
    log = parsed_log(DriftLogSpec(n_cases=120, drift_at=60, seed=6))

    def some_lengths(trace):
        return sorted(rng.sample(range(1, len(trace) + 1), rng.randint(1, len(trace))))

    _assert_same_coding(log, some_lengths)


def test_encode_codes_no_event_beyond_the_largest_k():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("channel",), numeric=(False,))
    case = _case(["A", "B", "C"], attrs=[{"channel": "web"}, {"channel": "x"}, {"channel": "y"}])
    encode(case, 2, schema, codec)
    assert coded_texts(codec, case.log) == {"A": 1, "B": 2, "web": 3, "x": 4}
    assert (case.acts, case.slots) == ([1, 2], [3, 4])
