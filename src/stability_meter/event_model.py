"""Event log model: events, labeled traces, and replay of a log as a stream.

A log is a CSV file with one row per event (columns ``case_id``, ``activity``,
``timestamp``, ``label``, plus arbitrary attribute columns). Replay turns the
parsed traces back into a single timestamp-ordered stream in which the outcome
label of a case travels with its last event.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import isfinite
from pathlib import Path
from typing import IO, Iterator, Sequence, Union

from .errors import EmptyLogError, LogFormatError, LogValueError

REQUIRED_COLUMNS = ("case_id", "activity", "timestamp", "label")

LogSource = Union[str, Path, IO[str]]


@dataclass(frozen=True)
class Event:
    """One activity occurrence within a case.

    ``timestamp`` is normalized to integer milliseconds. ``position`` is the
    1-based index of the event within its case. ``row`` is the physical line
    the event came from (header = line 1) and breaks timestamp ties during
    replay. ``attributes`` maps attribute names to typed values (float for
    numeric columns, str otherwise); names missing on this event are absent.
    """

    case_id: str
    activity: str
    timestamp: int
    position: int
    attributes: dict = field(default_factory=dict)
    row: int = 0


@dataclass
class Trace:
    """A case's ordered event sequence with its binary outcome label."""

    case_id: str
    events: list[Event]
    label: int

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class StreamItem:
    """A replayed event; carries the case label iff it closes the case."""

    event: Event
    is_case_end: bool
    label: int | None = None


def _parse_timestamp(raw: str, row: int) -> int:
    """Normalize an integer or ISO-8601 timestamp to milliseconds."""
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        iso = text.replace("Z", "+00:00")
        moment = datetime.fromisoformat(iso)
    except ValueError:
        raise LogFormatError(f"row {row}: cannot parse timestamp {raw!r}") from None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp() * 1000)


def _parse_label(raw: str, row: int) -> int | None:
    text = raw.strip()
    if text == "":
        return None
    if text in ("0", "1"):
        return int(text)
    raise LogValueError(f"row {row}: label must be 0 or 1, got {raw!r}")


def _is_decimal(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def parse_log(source: LogSource) -> list[Trace]:
    """Parse a CSV event log into labeled traces.

    Rows are grouped by ``case_id``; within a case, events are ordered by
    timestamp with ties broken by the original row order, and positions are
    assigned 1..N. The case label may appear on any subset of its rows but
    must be consistent; the last row of a case closes it.

    Extra columns become event attributes and are sniffed as numeric when
    every non-empty value parses as a decimal, otherwise kept as strings.
    A numeric column must hold finite values only; in a string column
    ``"nan"`` is a plain string.

    Raises:
        LogFormatError: missing required column or unparseable timestamp.
        LogValueError: non-binary or conflicting label values, or a
            ``nan``/``inf`` value in a numeric column.
        EmptyLogError: no data rows.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return parse_log(handle)

    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise EmptyLogError("log is empty (no header row)")
    for column in REQUIRED_COLUMNS:
        if column not in reader.fieldnames:
            raise LogFormatError(f"missing required column '{column}'")
    attr_names = [name for name in reader.fieldnames if name not in REQUIRED_COLUMNS]

    # (case_id, activity, timestamp, label, raw attrs, row number) per event
    rows: list[tuple[str, str, int, int | None, dict, int]] = []
    numeric: dict[str, bool] = {name: True for name in attr_names}
    for record in reader:
        row = reader.line_num
        case_id = (record["case_id"] or "").strip()
        if not case_id:
            raise LogValueError(f"row {row}: empty case_id")
        timestamp = _parse_timestamp(record["timestamp"] or "", row)
        label = _parse_label(record["label"] or "", row)
        attrs = {}
        for name in attr_names:
            value = record.get(name)
            if value is None or value.strip() == "":
                continue
            attrs[name] = value.strip()
            if not _is_decimal(value):
                numeric[name] = False
        rows.append((case_id, record["activity"] or "", timestamp, label, attrs, row))
    if not rows:
        raise EmptyLogError("log contains no events")

    by_case: dict[str, list[tuple]] = {}
    for item in rows:
        by_case.setdefault(item[0], []).append(item)

    traces = []
    for case_id, case_rows in by_case.items():
        case_rows.sort(key=lambda item: (item[2], item[5]))
        labels = {item[3] for item in case_rows if item[3] is not None}
        if not labels:
            raise LogValueError(f"case {case_id!r} has no label")
        if len(labels) > 1:
            raise LogValueError(f"case {case_id!r} has conflicting labels {sorted(labels)}")
        events = []
        for position, (_, activity, timestamp, _, attrs, row) in enumerate(case_rows, start=1):
            typed = {}
            for name, value in attrs.items():
                if numeric[name]:
                    number = float(value)
                    if not isfinite(number):
                        raise LogValueError(
                            f"row {row}: numeric column {name!r} has non-finite value {value!r}"
                        )
                    typed[name] = number
                else:
                    typed[name] = value
            events.append(
                Event(
                    case_id=case_id,
                    activity=activity,
                    timestamp=timestamp,
                    position=position,
                    attributes=typed,
                    row=row,
                )
            )
        traces.append(Trace(case_id=case_id, events=events, label=labels.pop()))
    return traces


def replay(traces: Sequence[Trace]) -> Iterator[StreamItem]:
    """Replay traces as one stream ordered by (timestamp, original row).

    The last event of each case is flagged ``is_case_end`` and carries the
    case label; every other item carries no label. The output order is a
    deterministic function of the input.
    """
    entries = []
    for trace in traces:
        last = len(trace.events)
        for event in trace.events:
            is_end = event.position == last
            entries.append((event.timestamp, event.row, event, is_end, trace.label))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    for _, _, event, is_end, label in entries:
        yield StreamItem(event=event, is_case_end=is_end, label=label if is_end else None)


def attribute_types(traces: Sequence[Trace]) -> dict[str, bool]:
    """Map attribute name -> True when its values are numeric (floats)."""
    kinds: dict[str, bool] = {}
    for trace in traces:
        for event in trace.events:
            for name, value in event.attributes.items():
                kinds[name] = isinstance(value, float)
    return kinds
