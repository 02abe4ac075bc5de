import calendar
import random
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stability_meter.errors import EmptyLogError, LogFormatError, LogValueError, StabilityMeterError
from stability_meter.event_model import Event, EventLog, Trace, parse_log
from stability_meter.prefixing import encode
from stability_meter.synthgen import DriftLogSpec, generate, to_csv

from log_strategies import csv_logs
from oracles import attribute_map, dict_reader_parse_log, tuple_replay


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
        "a,y,1970-01-01T00:00:02.500Z,\n"
        "a,z,2004-05-12T20:36:25.195Z,1\n"  # its float seconds times 1000 is 1084394185194.9998
    )
    assert [event.timestamp for event in traces[0].events] == [1000, 2500, 1084394185195]


def _epoch_milliseconds(moment):
    """Whole milliseconds from the epoch to ``moment`` (UTC when naive), counted without ``timedelta``."""
    utc = moment.utctimetuple() if moment.tzinfo else moment.timetuple()
    return calendar.timegm(utc) * 1000 + moment.microsecond // 1000


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    moment=st.datetimes(min_value=datetime(1800, 1, 1), max_value=datetime(2200, 1, 1)),
    fraction=st.sampled_from(["milliseconds", "microseconds"]),
    offset=st.none() | st.just("Z") | st.integers(-(23 * 60 + 59), 23 * 60 + 59),
)
def test_iso_timestamps_drop_a_millisecond_fraction_toward_the_past(moment, fraction, offset):
    text = moment.isoformat(timespec=fraction)
    if offset == "Z":
        text += "Z"
        moment = moment.replace(tzinfo=timezone.utc)
    elif offset is not None:
        moment = moment.replace(tzinfo=timezone(timedelta(minutes=offset)))
        text = moment.isoformat(timespec=fraction)
    if fraction == "milliseconds":
        moment = moment.replace(microsecond=moment.microsecond // 1000 * 1000)
    traces = _parse(f"case_id,activity,timestamp,label\na,x,{text},1\n")
    assert traces[0].events[0].timestamp == _epoch_milliseconds(moment), text


def test_a_file_with_a_byte_order_mark_parses_as_the_file_without_it(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("case_id,activity,timestamp,label,amount\na,x,1,,2.5\na,y,2,1,\nb,x,3,0,4\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = parse_log(plain), parse_log(marked)
    assert got.names == want.names == ("amount",)
    assert list(got) == list(want)


def test_bytes_that_are_not_utf8_after_a_byte_order_mark_report_their_row(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"\xef\xbb\xbfcase_id,activity,timestamp,label\nx,a,1,\nx,\xff,2,1\n")
    with pytest.raises(LogFormatError, match="^row 3: not valid UTF-8"):
        parse_log(log)


@pytest.mark.parametrize("cell", ["", " ", "\t"])
def test_empty_activity_is_rejected_with_its_row(cell):
    with pytest.raises(LogValueError, match="^row 3: empty activity$"):
        _parse(f"case_id,activity,timestamp,label\na,x,1,\na,{cell},2,1\n")


def test_activities_keep_their_whitespace():
    traces = _parse("case_id,activity,timestamp,label\na, a ,1,\na,a,2,\na,a ,3,1\n")
    assert [event.activity for event in traces[0].events] == [" a ", "a", "a "]


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
    assert attribute_map(events[0]) == {"amount": 10.5, "channels": "web"}
    assert attribute_map(events[1]) == {"amount": 20.0, "channels": "phone"}
    assert traces.kinds() == {"amount": True, "channels": False}


def test_mixed_values_make_attribute_categorical():
    traces = _parse(
        "case_id,activity,timestamp,label,size\n"
        "a,x,1,,10\n"
        "a,y,2,1,large\n"
    )
    assert traces.kinds() == {"size": False}
    assert traces[0].events[0].attribute("size") == "10"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_numeric_value_is_rejected_with_row_and_column(cell):
    with pytest.raises(LogValueError, match=f"row 3: numeric column 'amount'.*{cell!r}"):
        _parse(
            "case_id,activity,timestamp,label,amount\n"
            "a,x,1,,10.5\n"
            f"a,y,2,1,{cell}\n"
        )


@pytest.mark.parametrize("stamp", ["1_000", "\u0663\u0660\u0660\u0660", "\uff11\uff12", "+\u0661", "-1_0"])
def test_an_integer_timestamp_is_ascii_digits_only(stamp):
    # int() reads each of these; as timestamps they are neither integers nor ISO moments.
    with pytest.raises(LogFormatError, match=re.escape(f"row 2: cannot parse timestamp {stamp!r}")):
        _parse(f"case_id,activity,timestamp,label\na,x,{stamp},1\n")


@pytest.mark.parametrize("stamp, millis", [("+12", 12), ("-5", -5), (" 007 ", 7)])
def test_a_signed_ascii_integer_timestamp_is_milliseconds(stamp, millis):
    log = _parse(f"case_id,activity,timestamp,label\na,x,{stamp},1\n")
    assert log.timestamp.tolist() == [millis]


@pytest.mark.parametrize("cell", ["10_20", "\u0663\u0660\u0660\u0660", "\uff11\uff12", "1_0.5", "\u0661e3"])
def test_a_cell_float_reads_only_through_non_ascii_digits_or_underscores_is_categorical(cell):
    log = _parse(
        "case_id,activity,timestamp,label,code\n"
        "a,x,1000,,7\n"
        f"a,y,3000,1,{cell}\n"
    )
    assert log.kinds() == {"code": False}
    assert [event.attribute("code") for event in log[0].events] == ["7", cell]


def test_the_rows_with_underscores_and_arabic_indic_digits_are_rejected_at_the_timestamp():
    text = "case_id,activity,timestamp,label,code\na,x,1_000,,10_20\na,y,\u0663\u0660\u0660\u0660,1,7\n"
    with pytest.raises(LogFormatError, match="row 2: cannot parse timestamp '1_000'"):
        _parse(text)
    log = _parse(text.replace("1_000", "1000").replace("\u0663\u0660\u0660\u0660", "3000"))
    assert log.timestamp.tolist() == [1000, 3000]
    assert log.kinds() == {"code": False}
    assert [event.attribute("code") for event in log[0].events] == ["10_20", "7"]


@pytest.mark.parametrize("cell, number", [("1e3", 1000.0), ("+.5", 0.5), (" -2 ", -2.0), ("1E-2", 0.01)])
def test_an_ascii_decimal_cell_stays_numeric(cell, number):
    log = _parse(f"case_id,activity,timestamp,label,amount\na,x,1,1,{cell}\n")
    assert log.kinds() == {"amount": True}
    assert log[0].events[0].attribute("amount") == number


def test_a_non_finite_cell_after_many_blank_and_numeric_cells_is_reported_with_its_row():
    # Beyond the first cells whose text the reader joins into one string.
    rows = [f"c{i},x,{i},1,{'' if i % 7 == 0 else i}" for i in range(3000)]
    rows[2500] = "c2500,x,2500,1,-inf"
    with pytest.raises(LogValueError, match="^row 2502: numeric column 'amount' has non-finite value '-inf'$"):
        _parse("case_id,activity,timestamp,label,amount\n" + "\n".join(rows) + "\n")


def test_nan_in_a_categorical_column_is_a_plain_string():
    traces = _parse(
        "case_id,activity,timestamp,label,size\n"
        "a,x,1,,nan\n"
        "a,y,2,1,large\n"
    )
    assert traces.kinds() == {"size": False}
    assert traces[0].events[0].attribute("size") == "nan"


def test_empty_attribute_cells_are_missing():
    traces = _parse(
        "case_id,activity,timestamp,label,amount\n"
        "a,x,1,,\n"
        "a,y,2,1,3.5\n"
    )
    assert traces[0].events[0].values == (None,)
    assert traces[0].events[0].attribute("amount") is None
    assert traces[0].events[1].attribute("amount") == 3.5


def _stream(log):
    """The log's events in stream order, read through ``log.order``."""
    events = [event for trace in log for event in trace.events]
    return [events[at] for at in log.order.tolist()]


def test_stream_order_interleaves_cases_by_timestamp():
    log = _parse(
        "case_id,activity,timestamp,label\n"
        "x,x1,1,\n"
        "x,x2,5,1\n"
        "y,y1,2,\n"
        "y,y2,3,0\n"
    )
    stream = _stream(log)
    assert [(event.case_id, event.position) for event in stream] == [("x", 1), ("y", 1), ("y", 2), ("x", 2)]
    assert stream == [item.event for item in tuple_replay(log)]


def test_stream_order_of_a_single_case_is_the_case():
    log = _parse(
        "case_id,activity,timestamp,label\n"
        + "".join(f"a,s{i},{i},\n" for i in range(1, 4))
        + "a,end,4,1\n"
    )
    assert log.order.tolist() == [0, 1, 2, 3]


def test_stream_order_breaks_timestamp_ties_by_row_order():
    # both case-end events share a timestamp; row order decides
    text = (
        "case_id,activity,timestamp,label\n"
        "p,p1,1,\n"
        "q,q1,2,\n"
        "p,p2,7,1\n"
        "q,q2,7,0\n"
    )
    log = _parse(text)
    assert [event.case_id for event in _stream(log)[-2:]] == ["p", "q"]
    assert _stream(log) == [item.event for item in tuple_replay(log)]
    # flipping the two rows flips the stream order
    flipped = (
        "case_id,activity,timestamp,label\n"
        "p,p1,1,\n"
        "q,q1,2,\n"
        "q,q2,7,0\n"
        "p,p2,7,1\n"
    )
    log = _parse(flipped)
    assert [event.case_id for event in _stream(log)[-2:]] == ["q", "p"]
    assert _stream(log) == [item.event for item in tuple_replay(log)]


def test_stream_order_is_a_timestamp_sorted_permutation_of_the_events():
    log = _parse(BASIC)
    assert sorted(log.order.tolist()) == list(range(sum(len(trace) for trace in log)))
    stamps = log.timestamp[log.order].tolist()
    assert stamps == sorted(stamps)


def test_stream_order_is_deterministic():
    assert _stream(_parse(BASIC)) == _stream(_parse(BASIC))


# ---------------------------------------------------------------------------
# differential checks against the DictReader parser and the tuple replay
# ---------------------------------------------------------------------------

_H = "case_id,activity,timestamp,label"

HAND_LOGS = {
    "blank lines": f"\n{_H}\n\na,x,1,\n\n\nb,y,2,0\na,z,3,1\n\n",
    "blank header": f"\n\n{_H}\na,x,1,1\n",
    "short and extra cells": (
        f"{_H},amount,channel\na,x,1\na,y,2,1,6\nb,x,3,0,,web,extra,more\nb,y,4\n"
    ),
    "duplicate attribute names": f"{_H},x,x\na,p,1,,1,web\na,q,2,1,2,3\n",
    "duplicate required names": f"{_H},label,activity\na,p,1,2,1,q\na,p,2,,,r\n",
    "whitespace": (
        f"{_H},amount,channel\n a , x , 1 , , 7.5 , web \n a ,y,  2 , 1 ,\t8\t, web\n"
    ),
    "iso timestamps and ties": (
        f"{_H}\nb,x,1970-01-01T00:00:01Z,\na,x,1000,\n"
        "a,y,1970-01-01T01:00:01+01:00,\nb,y,1970-01-01T00:00:02.500,1\na,z,2500,0\n"
    ),
    "rows out of order": f"{_H},amount\na,z,9,1,3\nb,x,4,,1\na,x,2,,2\nb,y,4,0,\na,y,5,,\n",
    "label on the first row": f"{_H}\na,x,1,1\na,y,2,\na,z,3,\n",
    "label on a middle row": f"{_H}\na,x,1,\na,y,2,0\na,z,3,\n",
    "label on every row": f"{_H}\na,x,1,0\na,y,2,0\n",
    "quoted newline": f'{_H},channel\na,"two\nlines",1,,"w,eb"\na,y,2,1,"say ""hi"""\n',
    "mixed column": f"{_H},size\na,x,1,,10\na,y,2,,large\nb,x,3,1,10\na,z,4,0,\n",
    "numeric column with inf": f"{_H},amount,w\na,x,1,,1,2\na,y,2,1,inf,-inf\n",
    "empty": "",
    "header only": f"{_H}\n",
    "missing column": "case_id,activity,label\na,x,1\n",
    "empty case id": f"{_H}\na,x,1,\n ,y,2,1\n",
    "empty activity before a bad timestamp": f"{_H}\na,x,1,\na, ,later,1\n",
    "bad timestamp before bad label": f"{_H}\na,x,later,7\n",
    "bad label": f"{_H}\na,x,1,yes\n",
    "no label before a later non-finite value": f"{_H},amount\na,x,1,,1\nb,x,2,1,nan\n",
    "non-finite value before a later conflict": f"{_H},amount\na,x,1,1,inf\nb,x,2,1,1\nb,y,3,0,2\n",
    "conflicting labels": f"{_H}\na,x,1,0\na,y,2,1\n",
    "timestamp out of range": f"{_H}\na,x,1,\na,y,99999999999999999999,1\n",
    "timestamp below the range": f"{_H}\na,x,-9223372036854775809,1\n",
    "timestamps at the ends of the range": (
        f"{_H}\na,x,-9223372036854775808,\na,y,9223372036854775807,1\n"
    ),
    "timestamp one past the range": f"{_H}\na,x,9223372036854775808,1\n",
    "numeric column turns categorical after many rows": (
        f"{_H},amount\n"
        + "".join(f"c{i % 7},x,{i},{i % 7 % 2},{i}.50\n" for i in range(3000))
        + "c0,y,3000,, \nc1,y,3001,,large\nc2,y,3002,,1e3\n"
    ),
    "nan in the first row": f"{_H},amount\na,x,1,,nan\na,y,2,,1\nb,x,3,1,2\na,z,4,1,3\n",
    "inf in a middle row": f"{_H},amount\na,x,1,,1\nb,x,2,,inf\nb,y,3,1,2\na,y,4,0,3\n",
    "-inf in the last row": f"{_H},amount\na,x,1,,1\nb,x,2,1,2\na,y,3,0,-inf\n",
    "non-finite cells in rows out of order": (
        f"{_H},amount,w\nb,x,1,0,1,1\na,z,9,1,1,inf\na,x,2,,nan,1\na,y,5,,1,Infinity\n"
    ),
    "non-finite value in a case with conflicting labels": f"{_H},amount\na,x,1,0,nan\na,y,2,1,1\n",
    "conflict before a later non-finite value": f"{_H},amount\na,x,1,0,1\na,y,2,1,1\nb,x,3,1,inf\n",
    "blank numeric cells": f"{_H},amount\na,x,1,,\na,y,2,, \nb,x,3,0,2.5\na,z,4,1,\n",
    "column empty on every row": f"{_H},note,amount\na,x,1,,,2\na,y,2,1, ,3\nb,x,3,0,,\n",
    "case spread across the file": (
        f"{_H},amount,channel\na,x,1,,1,web\nb,x,2,,2,web\nc,x,3,1,3,\na,y,4,,,phone\n"
        "b,y,5,0,5,web\nc,y,6,,6,web\na,z,3,1,7,web\n"
    ),
}


def _outcome(parser, text):
    try:
        return parser(StringIO(text))
    except StabilityMeterError as err:
        return (type(err), str(err))


def _assert_parsers_agree(text):
    log, want = _outcome(parse_log, text), _outcome(dict_reader_parse_log, text)
    got = list(log) if isinstance(log, EventLog) else log  # the log's trace views
    assert got == want
    if isinstance(want, list):
        for new, old in zip(got, want):
            for new_event, old_event in zip(new.events, old.events):
                new_map, old_map = attribute_map(new_event), attribute_map(old_event)
                assert new_map == old_map
                assert [type(v) for v in new_map.values()] == [type(v) for v in old_map.values()]
        assert _stream(log) == [item.event for item in tuple_replay(want)]


@pytest.mark.parametrize("text", HAND_LOGS.values(), ids=HAND_LOGS.keys())
def test_parse_and_replay_match_the_reference_on_hand_written_logs(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_parse_and_replay_match_the_reference_on_synth_logs(seed):
    text = to_csv(generate(DriftLogSpec(n_cases=150, drift_at=75, seed=seed)))
    header, *rows = text.splitlines(keepends=True)
    random.Random(seed).shuffle(rows)  # cases interleave and arrive out of order
    _assert_parsers_agree(text)
    _assert_parsers_agree(header + "".join(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_logs())
def test_parse_and_replay_match_the_reference_on_random_logs(text):
    _assert_parsers_agree(text)


def test_parse_shares_one_string_per_case_id_activity_and_category():
    # multi-character strings: CPython shares one-character strings anyway
    traces = _parse(
        "case_id,activity,timestamp,label,channel,amount\n"
        "ca,start,1,,web,1\ncb,start,2,,web,1\nca,start,3,1,web,2\ncb,end,4,0,phone,2\n"
    )
    events = [event for trace in traces for event in trace.events]
    assert all(event.case_id is trace.case_id for trace in traces for event in trace.events)
    assert events[0].activity is events[1].activity is events[2].activity
    webs = [event.attribute("channel") for event in events[:3]]
    assert webs[0] is webs[1] is webs[2]
    assert all(event.names is events[0].names for event in events)


def test_events_are_slotted_and_immutable():
    event = _parse(BASIC)[0].events[0]
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.activity = "other"


def test_parsed_events_hold_tuples_not_dicts():
    traces = _parse(
        "case_id,activity,timestamp,label,amount,channel\n"
        "a,x,1,,5,web\na,y,2,1,,\nb,x,3,0,7.5,phone\n"
    )
    for trace in traces:
        for event in trace.events:
            assert type(event.names) is tuple and type(event.values) is tuple
            assert len(event.values) == len(event.names) == 2
            assert not any(isinstance(getattr(event, slot), dict) for slot in Event.__slots__)
    assert traces[0].events[1].values == (None, None)
    assert traces[0].events[1].attribute("ghost") is None


def test_replay_matches_the_reference_on_logs_with_timestamp_ties():
    # events share timestamps within and across cases and the rows arrive
    # shuffled, so the row number alone breaks most ties
    rng = random.Random(4)
    rows = []
    for case in range(40):
        activities = "xyz"[: rng.randint(1, 3)]
        stamps = sorted(rng.randint(0, 4) for _ in range(3))
        label = rng.randint(0, 1)
        rows.extend(
            f"c{case},{activity},{stamp},{label if position == len(activities) else ''}\n"
            for position, (activity, stamp) in enumerate(zip(activities, stamps), start=1)
        )
    rng.shuffle(rows)
    text = f"{_H}\n" + "".join(rows)
    log = _parse(text)
    stamps = log.timestamp[log.order].tolist()
    assert len(set(stamps)) < len(stamps)
    _assert_parsers_agree(text)


def test_parse_peak_memory_per_event_stays_small(tmp_path):
    # Parsing through csv.DictReader, with a dict per row kept next to the
    # finished events, peaked at ~950 B/event here; one pass over
    # csv.reader rows into per-case lists, with an attribute dict per
    # event, at ~430; one value tuple per event sharing one name tuple per
    # log at ~280, keeping ~265. Typed columns with no event objects peak
    # near 95 and keep near 50.
    path = tmp_path / "log.csv"
    path.write_text(to_csv(generate(DriftLogSpec(n_cases=400, drift_at=200, seed=3))))
    tracemalloc.start()
    try:
        log = parse_log(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = int(log.lengths().sum())
    assert peak / events < 150
    assert retained / events < 64


def test_blank_numeric_cells_are_missing_in_the_view_and_encode_as_zero():
    log = _parse(HAND_LOGS["blank numeric cells"])
    assert log.kinds() == {"amount": True}
    assert [event.attribute("amount") for event in log[0].events] == [None, None, None]
    assert encode(log, [0], 3, ["amount"])[0, 3:].tolist() == [0.0, 0.0, 0.0]


def test_a_numeric_looking_column_turned_categorical_keeps_its_cells_as_written():
    log = _parse(HAND_LOGS["numeric column turns categorical after many rows"])
    assert log.kinds() == {"amount": False}
    first = log[0].events
    assert [event.attribute("amount") for event in first[:2]] == ["0.50", "7.50"]
    assert first[-1].attribute("amount") is None
    assert log[2].events[-1].attribute("amount") == "1e3"


def test_the_log_is_a_sequence_of_trace_views():
    log = _parse(BASIC)
    assert isinstance(log, EventLog) and len(log) == 2
    assert log[-1] == log[1] == Trace("b", log[1].events, 0)
    assert log[0].events is not log[0].events  # each view is built on demand
    assert [len(trace) for trace in log] == [3, 2]
    with pytest.raises(IndexError):
        log[2]
