from io import StringIO

import pytest

from stability_meter.errors import EmptyLogError, LogFormatError, LogValueError
from stability_meter.event_model import attribute_types, parse_log, replay


def _parse(text):
    return parse_log(StringIO(text))


BASIC = """case_id,activity,timestamp,label
a,start,1,
a,work,3,
a,end,6,1
b,start,2,0
b,end,4,0
"""


def test_parse_groups_cases_and_orders_events():
    traces = _parse(BASIC)
    assert len(traces) == 2
    by_id = {trace.case_id: trace for trace in traces}
    assert len(by_id["a"]) == 3 and by_id["a"].label == 1
    assert len(by_id["b"]) == 2 and by_id["b"].label == 0
    assert [event.position for event in by_id["a"].events] == [1, 2, 3]
    assert [event.activity for event in by_id["a"].events] == ["start", "work", "end"]


def test_equal_timestamps_keep_row_order():
    traces = _parse(
        "case_id,activity,timestamp,label\n"
        "a,first,5,\n"
        "a,second,5,\n"
        "a,end,5,1\n"
    )
    assert [event.activity for event in traces[0].events] == ["first", "second", "end"]


def test_label_on_every_row_is_accepted():
    traces = _parse(
        "case_id,activity,timestamp,label\n"
        "a,x,1,1\n"
        "a,y,2,1\n"
    )
    assert traces[0].label == 1


def test_non_binary_label_reports_row():
    with pytest.raises(LogValueError) as err:
        _parse("case_id,activity,timestamp,label\na,x,1,\na,y,2,2\n")
    assert "row 3" in str(err.value)


def test_conflicting_labels_rejected():
    with pytest.raises(LogValueError, match="conflicting"):
        _parse("case_id,activity,timestamp,label\na,x,1,0\na,y,2,1\n")


def test_unlabeled_case_rejected():
    with pytest.raises(LogValueError, match="no label"):
        _parse("case_id,activity,timestamp,label\na,x,1,\na,y,2,\n")


def test_missing_column_is_named():
    with pytest.raises(LogFormatError, match="label"):
        _parse("case_id,activity,timestamp\na,x,1\n")


def test_empty_inputs():
    with pytest.raises(EmptyLogError):
        _parse("")
    with pytest.raises(EmptyLogError):
        _parse("case_id,activity,timestamp,label\n")


def test_iso_timestamps_normalized_to_milliseconds():
    traces = _parse(
        "case_id,activity,timestamp,label\n"
        "a,x,1970-01-01T00:00:01,\n"
        "a,y,1970-01-01T00:00:02.500Z,1\n"
    )
    assert [event.timestamp for event in traces[0].events] == [1000, 2500]


def test_bad_timestamp_rejected():
    with pytest.raises(LogFormatError, match="timestamp"):
        _parse("case_id,activity,timestamp,label\na,x,not-a-time,1\n")


def test_attribute_type_sniffing():
    traces = _parse(
        "case_id,activity,timestamp,label,amount,channels\n"
        "a,x,1,,10.5,web\n"
        "a,y,2,1,20,phone\n"
    )
    events = traces[0].events
    assert events[0].attributes == {"amount": 10.5, "channels": "web"}
    assert events[1].attributes == {"amount": 20.0, "channels": "phone"}
    assert attribute_types(traces) == {"amount": True, "channels": False}


def test_mixed_values_make_attribute_categorical():
    traces = _parse(
        "case_id,activity,timestamp,label,size\n"
        "a,x,1,,10\n"
        "a,y,2,1,large\n"
    )
    assert attribute_types(traces) == {"size": False}
    assert traces[0].events[0].attributes["size"] == "10"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_numeric_value_is_rejected_with_row_and_column(cell):
    with pytest.raises(LogValueError, match=f"row 3: numeric column 'amount'.*{cell!r}"):
        _parse(
            "case_id,activity,timestamp,label,amount\n"
            "a,x,1,,10.5\n"
            f"a,y,2,1,{cell}\n"
        )


def test_nan_in_a_categorical_column_is_a_plain_string():
    traces = _parse(
        "case_id,activity,timestamp,label,size\n"
        "a,x,1,,nan\n"
        "a,y,2,1,large\n"
    )
    assert attribute_types(traces) == {"size": False}
    assert traces[0].events[0].attributes["size"] == "nan"


def test_empty_attribute_cells_are_missing():
    traces = _parse(
        "case_id,activity,timestamp,label,amount\n"
        "a,x,1,,\n"
        "a,y,2,1,3.5\n"
    )
    assert "amount" not in traces[0].events[0].attributes
    assert traces[0].events[1].attributes["amount"] == 3.5


def test_replay_interleaves_cases_by_timestamp():
    traces = _parse(
        "case_id,activity,timestamp,label\n"
        "x,x1,1,\n"
        "x,x2,5,1\n"
        "y,y1,2,\n"
        "y,y2,3,0\n"
    )
    items = list(replay(traces))
    order = [(item.event.case_id, item.event.position) for item in items]
    assert order == [("x", 1), ("y", 1), ("y", 2), ("x", 2)]
    assert [item.is_case_end for item in items] == [False, False, True, True]
    assert [item.label for item in items] == [None, None, 0, 1]


def test_replay_single_case():
    traces = _parse(
        "case_id,activity,timestamp,label\n"
        + "".join(f"a,s{i},{i},\n" for i in range(1, 4))
        + "a,end,4,1\n"
    )
    items = list(replay(traces))
    assert len(items) == 4
    assert [item.is_case_end for item in items] == [False, False, False, True]
    assert items[-1].label == 1


def test_replay_breaks_timestamp_ties_by_row_order():
    # both case-end events share a timestamp; row order decides
    text = (
        "case_id,activity,timestamp,label\n"
        "p,p1,1,\n"
        "q,q1,2,\n"
        "p,p2,7,1\n"
        "q,q2,7,0\n"
    )
    items = list(replay(_parse(text)))
    tail = [(item.event.case_id, item.label) for item in items[-2:]]
    assert tail == [("p", 1), ("q", 0)]
    # flipping the two rows flips the emission order
    flipped = (
        "case_id,activity,timestamp,label\n"
        "p,p1,1,\n"
        "q,q1,2,\n"
        "q,q2,7,0\n"
        "p,p2,7,1\n"
    )
    items = list(replay(_parse(flipped)))
    tail = [(item.event.case_id, item.label) for item in items[-2:]]
    assert tail == [("q", 0), ("p", 1)]


def test_replay_conservation_and_order_invariants():
    traces = _parse(BASIC)
    items = list(replay(traces))
    assert len(items) == sum(len(trace) for trace in traces)
    assert sum(1 for item in items if item.is_case_end) == len(traces)
    assert all(item.label is None or item.is_case_end for item in items)
    stamps = [item.event.timestamp for item in items]
    assert stamps == sorted(stamps)


def test_replay_is_deterministic():
    first = list(replay(_parse(BASIC)))
    second = list(replay(_parse(BASIC)))
    assert first == second
