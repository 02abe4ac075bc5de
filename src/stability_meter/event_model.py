"""Event log model: events, labeled traces, and replay of a log as a stream.

A log is a CSV file with one row per event (columns ``case_id``, ``activity``,
``timestamp``, ``label``, plus arbitrary attribute columns). Replay turns the
parsed traces back into a single timestamp-ordered stream in which the outcome
label of a case travels with its last event.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from math import isfinite
from pathlib import Path
from typing import IO, Iterator, Sequence, Union

from .errors import EmptyLogError, LogFormatError, LogValueError

REQUIRED_COLUMNS = ("case_id", "activity", "timestamp", "label")

LogSource = Union[str, Path, IO[str]]


@dataclass(frozen=True, slots=True)
class Event:
    """One activity occurrence within a case.

    ``timestamp`` is normalized to integer milliseconds. ``position`` is the
    1-based index of the event within its case. ``row`` is the physical line
    the event came from (header = line 1) and breaks timestamp ties during
    replay. ``values`` holds the attribute values aligned with ``names``:
    float for numeric columns, str otherwise, ``None`` for an empty cell.
    Every event of a parsed log shares one ``names`` tuple.
    """

    case_id: str
    activity: str
    timestamp: int
    position: int
    names: tuple[str, ...] = ()
    values: tuple = ()
    row: int = 0

    def attribute(self, name: str):
        """The value of attribute ``name``, or None when absent or empty."""
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            return None


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


def _undecodable_line(path: str | Path) -> int:
    """1-based line of the first bytes in ``path`` that are not UTF-8.

    Lines end at ``\\r``, ``\\n`` or ``\\r\\n``, as for the CSV reader. Each
    undecodable byte reads as a lone surrogate, which cannot be re-encoded.
    """
    number = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                break
    return number


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

    Blank lines are skipped, missing cells of a short row count as empty,
    cells beyond the header are ignored, and of repeated header names the
    last column wins. Case ids and attribute values are stripped of
    surrounding whitespace; activities are kept as written. Events share
    one tuple of attribute names, and one string object per distinct case
    id and activity, and per categorical value once its column has shown a
    non-numeric value.

    Raises:
        LogFormatError: missing required column, unparseable timestamp,
            bytes that are not UTF-8, or a CSV field the reader rejects
            (such as one above the field size limit).
        LogValueError: empty case id or activity, non-binary or
            conflicting label values, or a ``nan``/``inf`` value in a
            numeric column.
        EmptyLogError: no data rows.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            try:
                return parse_log(handle)
            except UnicodeDecodeError as err:
                raise LogFormatError(
                    f"row {_undecodable_line(source)}: not valid UTF-8 ({err.reason})"
                ) from None

    reader = csv.reader(source)
    try:
        by_case, names, numeric_at = _read_cases(reader)
    except csv.Error as err:
        raise LogFormatError(f"row {reader.line_num}: {err}") from None

    traces = []
    for case_id, rows in by_case.items():
        rows.sort()  # (timestamp, row, ...): rows are unique, so later fields never compare
        labels = {label for _, _, _, label, _ in rows if label is not None}
        if not labels:
            raise LogValueError(f"case {case_id!r} has no label")
        if len(labels) > 1:
            raise LogValueError(f"case {case_id!r} has conflicting labels {sorted(labels)}")
        events = []
        for position, (timestamp, row, activity, _, values) in enumerate(rows, start=1):
            if numeric_at:
                typed = list(values)
                for at in numeric_at:
                    value = typed[at]
                    if value is None:
                        continue
                    number = float(value)
                    if not isfinite(number):
                        raise LogValueError(
                            f"row {row}: numeric column {names[at]!r} has non-finite value {value!r}"
                        )
                    typed[at] = number
                values = tuple(typed)
            events.append(Event(case_id, activity, timestamp, position, names, values, row))
        by_case[case_id] = None  # release the row tuples as the events replace them
        traces.append(Trace(case_id=case_id, events=events, label=labels.pop()))
    return traces


def _read_cases(reader) -> tuple[dict[str, list[tuple]], tuple[str, ...], list[int]]:
    """Group the data rows by case and sniff which attribute columns are numeric.

    Returns ``{case_id: [(timestamp, row, activity, label, values), ...]}``
    in first-appearance order, the attribute names, and the indices of the
    numeric ones. ``values`` aligns with the names and holds stripped
    strings, or None for an empty cell.
    """
    header = next(reader, None)
    if header is None:
        raise EmptyLogError("log is empty (no header row)")
    column = {name: index for index, name in enumerate(header)}
    for name in REQUIRED_COLUMNS:
        if name not in column:
            raise LogFormatError(f"missing required column '{name}'")
    case_at, activity_at, time_at, label_at = (column[name] for name in REQUIRED_COLUMNS)
    names = tuple(name for name in dict.fromkeys(header) if name not in REQUIRED_COLUMNS)
    attr_at = [column[name] for name in names]
    width = len(header)

    numeric = [True] * len(names)
    strings: dict[str, str] = {}  # one object per activity and categorical value
    by_case: dict[str, list[tuple]] = {}
    for cells in reader:
        if not cells:
            continue
        row = reader.line_num
        if len(cells) < width:
            cells.extend([""] * (width - len(cells)))
        case_id = cells[case_at].strip()
        if not case_id:
            raise LogValueError(f"row {row}: empty case_id")
        activity = cells[activity_at]
        if not activity.strip():
            raise LogValueError(f"row {row}: empty activity")
        timestamp = _parse_timestamp(cells[time_at], row)
        label = _parse_label(cells[label_at], row)
        values = []
        for index, at in enumerate(attr_at):
            value = cells[at].strip()
            if not value:
                value = None
            elif not numeric[index] or not _is_decimal(value):
                numeric[index] = False
                value = strings.setdefault(value, value)
            values.append(value)
        rows = by_case.get(case_id)
        if rows is None:
            rows = by_case[case_id] = []
        rows.append((timestamp, row, strings.setdefault(activity, activity), label, tuple(values)))
    if not by_case:
        raise EmptyLogError("log contains no events")
    return by_case, names, [index for index, is_numeric in enumerate(numeric) if is_numeric]


def replay(traces: Sequence[Trace]) -> Iterator[StreamItem]:
    """Replay traces as one stream ordered by (timestamp, original row).

    The last event of each case is flagged ``is_case_end`` and carries the
    case label; every other item carries no label. The output order is a
    deterministic function of the input: full ties keep the trace order.
    """
    # Keyed by the identity of each trace's last event, not by case id:
    # traces built in code may share a case id.
    ends = {id(trace.events[-1]): trace.label for trace in traces if trace.events}
    events = [event for trace in traces for event in trace.events]
    events.sort(key=lambda event: (event.timestamp, event.row))
    for event in events:
        if id(event) in ends:
            yield StreamItem(event=event, is_case_end=True, label=ends[id(event)])
        else:
            yield StreamItem(event=event, is_case_end=False)


def attribute_types(traces: Sequence[Trace]) -> dict[str, bool]:
    """Map attribute name -> True when its values are numeric (floats)."""
    kinds: dict[str, bool] = {}
    for trace in traces:
        for event in trace.events:
            for name, value in zip(event.names, event.values):
                if value is not None:
                    kinds[name] = isinstance(value, float)
    return kinds
