import random
from io import StringIO

import pytest

from stability_meter.errors import ConfigError
from stability_meter.event_model import Event, Trace, parse_log
from stability_meter.prefixing import (
    MISSING_CODE,
    AttributeSchema,
    BucketConfig,
    CasePrefix,
    CategoryCodec,
    default_k_max,
    encode,
)
from stability_meter.synthgen import DriftLogSpec, generate

from oracles import Prefix, scratch_encode
from parsed_logs import parsed_log


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


def _open_case(trace):
    case = CasePrefix()
    case.events.extend(trace.events)
    return case


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
    sample = encode(_open_case(_trace("c", ["A", "B"])), 2, schema, codec)
    assert sample.bucket == 2
    assert sample.features == (codec.code("A"), codec.code("B"))
    assert sample.label is None


def test_encode_appends_attributes_per_position():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("amount",), numeric=(True,))
    trace = _trace("c", ["A", "B"], attrs=[{"amount": 10.0}, {"amount": 20.0}])
    sample = encode(_open_case(trace), 2, schema, codec, label=1)
    assert sample.features == (codec.code("A"), codec.code("B"), 10.0, 20.0)
    assert sample.label == 1


def test_encode_missing_attribute_uses_reserved_code():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("channel",), numeric=(False,))
    trace = _trace("c", ["A", "B"], attrs=[{"channel": "web"}, {}])
    sample = encode(_open_case(trace), 2, schema, codec)
    assert sample.features[-1] == MISSING_CODE
    assert sample.features[-2] == codec.code("web")


def test_encode_looks_attributes_up_by_name():
    # events built in code need not share a name tuple or its order
    attrs = [
        {"amount": 1.5, "channel": "web"},
        {"channel": "phone", "amount": 4.0, "extra": "x"},
        {},
        {"channel": None, "amount": None},
    ]
    trace = _trace("c", ["A", "B", "C", "D"], attrs=attrs)
    assert trace.events[0].names == ("amount", "channel")
    assert trace.events[1].names == ("channel", "amount", "extra")
    schema = AttributeSchema(names=("channel", "ghost", "amount"), numeric=(False, False, True))
    codec, scratch = CategoryCodec(), CategoryCodec()
    case = _open_case(trace)
    for k in range(1, 5):
        want = scratch_encode(Prefix("c", k, tuple(trace.events[:k])), schema, scratch)
        assert encode(case, k, schema, codec) == want
    assert want.features[4:] == (
        codec.code("web"), MISSING_CODE, 1.5,
        codec.code("phone"), MISSING_CODE, 4.0,
        MISSING_CODE, MISSING_CODE, 0.0,
        MISSING_CODE, MISSING_CODE, 0.0,
    )


def test_a_column_empty_on_every_row_is_categorical_and_missing():
    traces = parse_log(
        StringIO("case_id,activity,timestamp,label,note,amount\na,x,1,,,2\na,y,2,1, ,3\n")
    )
    schema = AttributeSchema.from_traces(["note", "amount"], traces)
    assert schema.numeric == (False, True)
    codec = CategoryCodec()
    sample = encode(_open_case(traces[0]), 2, schema, codec)
    assert sample.features[2:] == (MISSING_CODE, 2.0, MISSING_CODE, 3.0)
    assert len(codec) == 2


def test_codes_are_stable_across_cases():
    codec = CategoryCodec()
    schema = AttributeSchema()
    one = encode(_open_case(_trace("c1", ["A", "B"])), 2, schema, codec)
    two = encode(_open_case(_trace("c2", ["B", "A"])), 2, schema, codec)
    assert one.features == (two.features[1], two.features[0])
    assert len(codec) == 2


def test_identical_prefix_content_encodes_identically():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("amount",), numeric=(True,))
    t1 = _trace("c1", ["A", "B"], attrs=[{"amount": 1.0}, {"amount": 2.0}])
    t2 = _trace("c2", ["A", "B"], attrs=[{"amount": 1.0}, {"amount": 2.0}])
    s1 = encode(_open_case(t1), 2, schema, codec)
    s2 = encode(_open_case(t2), 2, schema, codec)
    assert s1.features == s2.features


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


def _assert_same_coding(traces, lengths_of):
    """Encode once per case and from scratch, in the same call order."""
    fresh, scratch = CategoryCodec(), CategoryCodec()
    for trace in traces:
        case = CasePrefix()
        for k in lengths_of(trace):
            while len(case.events) < k:
                case.events.append(trace.events[len(case.events)])
            got = encode(case, k, _SYNTH_SCHEMA, fresh, label=trace.label)
            want = scratch_encode(
                Prefix(trace.case_id, k, tuple(trace.events[:k])),
                _SYNTH_SCHEMA,
                scratch,
                label=trace.label,
            )
            assert got == want
    assert fresh._codes == scratch._codes


def test_encode_matches_the_scratch_encoder_on_every_prefix():
    traces = generate(DriftLogSpec(n_cases=120, drift_at=60, seed=5))
    _assert_same_coding(traces, lambda trace: range(1, len(trace) + 1))


def test_encode_matches_the_scratch_encoder_when_lengths_are_skipped():
    # run_stream encodes a case only at some lengths (after grace, when the
    # bucket's model is ready), starting anywhere and then at its case end
    rng = random.Random(7)
    traces = generate(DriftLogSpec(n_cases=120, drift_at=60, seed=6))

    def some_lengths(trace):
        return sorted(rng.sample(range(1, len(trace) + 1), rng.randint(1, len(trace))))

    _assert_same_coding(traces, some_lengths)


def test_encode_codes_no_event_beyond_the_largest_k():
    codec = CategoryCodec()
    schema = AttributeSchema(names=("channel",), numeric=(False,))
    trace = _trace("c", ["A", "B", "C"], attrs=[{"channel": "web"}, {"channel": "x"}, {"channel": "y"}])
    case = _open_case(trace)
    encode(case, 2, schema, codec)
    assert codec._codes == {"A": 1, "B": 2, "web": 3, "x": 4}
    assert (case.acts, case.slots) == ([1, 2], [3, 4])
