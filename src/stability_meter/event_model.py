"""Event log model: a columnar event table.

A log is a CSV file with one row per event (columns ``case_id``, ``activity``,
``timestamp``, ``label``, plus arbitrary attribute columns). :func:`parse_log`
reads it into an :class:`EventLog`, which holds typed per-event columns, one
string table and one label per case; there is no per-event object.
:func:`parse_log` is the only way to build an :class:`EventLog`; a log
written in code is parsed from its text, ``parse_log(io.StringIO(text))``.
``log[i]`` is the range of case ``i``'s event indices in the columns.
``EventLog.order`` is the stream: the events sorted by (timestamp, row), and
the outcome label of a case comes with its last event.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Sequence
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import EmptyLogError, LogFormatError, LogValueError

REQUIRED_COLUMNS = ("case_id", "activity", "timestamp", "label")

LogSource = Union[str, Path, IO[str]]

# Timestamps are held as int64 milliseconds since the Unix epoch.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MILLISECOND = timedelta(milliseconds=1)
# Cells of a numeric-looking column whose text is joined into one string.
_TEXT_CHUNK = 1024


class _StringTable(dict):
    """Text -> id, ids given in first-use order; ``strings[id]`` is the text.

    Id 0 stands for an empty cell and reads back as None.
    """

    def __init__(self) -> None:
        super().__init__()
        self.strings: list = [None]

    def __missing__(self, text: str) -> int:
        at = self[text] = len(self.strings)
        self.strings.append(text)
        return at


class EventLog(Sequence):
    """A log held as columns: a ``Sequence`` of each case's event-index range.

    Built by :func:`parse_log`. Events are stored grouped by case, cases in
    first-appearance order, each case's events in (timestamp, row) order.
    Per event there is an activity string id, an int64 ``timestamp``, the
    ``row`` and, per attribute of ``names``, one column: float64 values with
    a bool ``missing`` mask for a numeric attribute, string ids (0 for an
    empty cell) with ``missing`` None for a categorical one. ``strings``
    maps ids back to text. Case ``i`` owns the events ``log[i] ==
    range(bounds[i], bounds[i + 1])`` and has id ``case_ids[i]`` and label
    ``labels[i]``. ``order`` is the stream order: a stable sort of the
    events by (timestamp, row). A numeric column holds 0.0 in its empty
    cells, and activities and categorical values share one string table.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        strings: list,
        case_ids: list[str],
        labels: list[int],
        bounds: np.ndarray,
        activity: np.ndarray,
        timestamp: np.ndarray,
        row: np.ndarray,
        columns: list[np.ndarray],
        missing: list[np.ndarray | None],
    ) -> None:
        self.names = names
        self.strings = strings
        self.case_ids = case_ids
        self.labels = labels
        self.bounds = bounds
        self.activity = activity
        self.timestamp = timestamp
        self.row = row
        self.columns = columns
        self.missing = missing
        self.order = np.lexsort((row, timestamp))

    def __len__(self) -> int:
        return len(self.case_ids)

    def __getitem__(self, index: int) -> range:
        # Kept so that perfbench/bench_trace.py, which counts a parsed log's
        # events as the sum of len() over its items, works on the columns: a
        # range of event indices costs O(1) per case.
        case = range(len(self.case_ids))[index]
        return range(self.bounds[case], self.bounds[case + 1])

    def lengths(self) -> np.ndarray:
        """The number of events of each case."""
        return np.diff(self.bounds)

    def kinds(self) -> dict[str, bool]:
        """Attribute name -> True when numeric, for each column with a non-empty cell."""
        return {
            name: mask is not None
            for name, column, mask in zip(self.names, self.columns, self.missing)
            if (column.any() if mask is None else not mask.all())
        }


def _parse_timestamp(raw: str, row: int) -> int:
    """Normalize an integer or ISO-8601 timestamp to milliseconds.

    An integer is ASCII: an optional sign, then digits 0-9. An ISO moment's
    fraction of a millisecond is dropped toward the past, computed exactly,
    with no float in between.
    """
    text = raw.strip()
    try:
        if not text.isascii() or "_" in text:  # int() alone takes other scripts' digits and "_" too
            raise ValueError(text)
        value = int(text)
    except ValueError:
        try:
            iso = text.replace("Z", "+00:00")
            moment = datetime.fromisoformat(iso)
        except ValueError:
            raise LogFormatError(f"row {row}: cannot parse timestamp {raw!r}") from None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        value = (moment - _EPOCH) // _MILLISECOND
    if not -(2**63) <= value < 2**63:  # int64; cheaper than a range() lookup
        raise LogFormatError(f"row {row}: timestamp out of range")
    return value


def _parse_label(raw: str, row: int) -> int | None:
    text = raw.strip()
    if text == "":
        return None
    if text in ("0", "1"):
        return int(text)
    raise LogValueError(f"row {row}: label must be 0 or 1, got {raw!r}")


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


class _Cells:
    """One attribute column while the log is read.

    While every non-empty cell so far is an ASCII decimal with no ``_``, the
    column holds float values, an empty-cell mask and the text of every cell,
    joined ``_TEXT_CHUNK`` cells at a time. Its first other cell turns it
    categorical: the kept text becomes string ids, so each earlier cell reads
    back as written.
    """

    __slots__ = ("numbers", "empty", "chunks", "texts", "ids")

    def __init__(self) -> None:
        self.numbers = array("d")
        self.empty = bytearray()
        self.chunks: list[str] = []
        self.texts: list[str] = []
        self.ids: array | None = None

    def add(self, text: str, table: _StringTable) -> None:
        """Append the stripped cell ``text`` of the next event."""
        if self.ids is None:
            if text:
                try:
                    if not text.isascii() or "_" in text:  # float() alone takes these texts too
                        raise ValueError(text)
                    number = float(text)
                except ValueError:
                    self._become_categorical(table)
                    self.ids.append(table[text])
                    return
                self.numbers.append(number)
                self.empty.append(0)
            else:
                self.numbers.append(0.0)
                self.empty.append(1)
            texts = self.texts
            texts.append(text)  # a decimal's text holds no newline
            if len(texts) == _TEXT_CHUNK:
                self.chunks.append("\n".join(texts))
                texts.clear()
        else:
            self.ids.append(table[text] if text else 0)

    def _become_categorical(self, table: _StringTable) -> None:
        ids = self.ids = array("i")
        for chunk in self.chunks:
            ids.extend(table[text] if text else 0 for text in chunk.split("\n"))
        ids.extend(table[text] if text else 0 for text in self.texts)
        self.numbers = self.empty = self.chunks = self.texts = None

    def non_finite(self) -> list[tuple[int, str]]:
        """(event, text) of each non-finite cell of the numeric column."""
        events = np.flatnonzero(~np.isfinite(np.frombuffer(self.numbers, np.float64))).tolist()
        texts = "\n".join([*self.chunks, *self.texts]).split("\n") if events else []
        return [(event, texts[event]) for event in events]

    def finish(self, order: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The column and its empty-cell mask (None if categorical), events in ``order``.

        The read buffers are released.
        """
        if self.ids is not None:
            column, mask = np.frombuffer(self.ids, np.int32)[order], None
        else:
            column = np.frombuffer(self.numbers, np.float64)[order]
            mask = np.frombuffer(self.empty, bool)[order]
        self.numbers = self.empty = self.chunks = self.texts = self.ids = None
        return column, mask


def parse_log(source: LogSource) -> EventLog:
    """Parse a CSV event log into an :class:`EventLog`.

    Rows are grouped by ``case_id``; within a case, events are ordered by
    timestamp with ties broken by the original row order. The case label
    may appear on any subset of its rows but must be consistent; the last
    row of a case closes it.

    Extra columns become event attributes and are sniffed as numeric when
    every non-empty value parses as a decimal, otherwise kept as strings.
    A numeric column must hold finite values only; in a string column
    ``"nan"`` is a plain string. An empty numeric cell is marked missing,
    not stored as a number.

    A file may start with a UTF-8 byte-order mark, which is not part of the
    header. Blank lines are skipped, missing cells of a short row count as
    empty, cells beyond the header are ignored, and of repeated header names
    the last column wins. Case ids and attribute values are stripped of
    surrounding whitespace; activities are kept as written. Activities and
    categorical values share one string table, which holds one string per
    distinct text.

    Errors come in this order: the first bad row while reading (its case
    id, activity, timestamp, then label), then, per case in first-appearance
    order, a missing or conflicting label, then the case's first non-finite
    numeric cell in (timestamp, row) order.

    Raises:
        LogFormatError: missing required column, unparseable or out-of-range
            timestamp, bytes that are not UTF-8, or a CSV field the reader
            rejects (such as one above the field size limit).
        LogValueError: empty case id or activity, non-binary or
            conflicting label values, or a ``nan``/``inf`` value in a
            numeric column.
        EmptyLogError: no data rows.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            try:
                return parse_log(handle)
            except UnicodeDecodeError as err:
                raise LogFormatError(
                    f"row {_undecodable_line(source)}: not valid UTF-8 ({err.reason})"
                ) from None

    reader = csv.reader(source)
    try:
        return _read_log(reader)
    except csv.Error as err:
        raise LogFormatError(f"row {reader.line_num}: {err}") from None


def _read_log(reader) -> EventLog:
    header = next(reader, None)
    if header is None:
        raise EmptyLogError("log is empty (no header row)")
    column = {name: index for index, name in enumerate(header)}
    for name in REQUIRED_COLUMNS:
        if name not in column:
            raise LogFormatError(f"missing required column '{name}'")
    case_at, activity_at, time_at, label_at = (column[name] for name in REQUIRED_COLUMNS)
    names = tuple(name for name in dict.fromkeys(header) if name not in REQUIRED_COLUMNS)
    attributes = [(column[name], _Cells()) for name in names]
    width = len(header)

    table = _StringTable()
    case_of: dict[str, int] = {}
    case_ids: list[str] = []
    labels: list[int | None] = []  # per case: None until labeled, -1 once conflicting
    cases, activities, timestamps, rows = array("i"), array("i"), array("q"), array("q")
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
        case = case_of.get(case_id)
        if case is None:
            case = case_of[case_id] = len(case_ids)
            case_ids.append(case_id)
            labels.append(label)
        elif label is not None:
            seen = labels[case]
            if seen is None:
                labels[case] = label
            elif seen != label:
                labels[case] = -1
        cases.append(case)
        activities.append(table[activity])
        timestamps.append(timestamp)
        rows.append(row)
        for at, cells_of in attributes:
            cells_of.add(cells[at].strip(), table)
    if not case_ids:
        raise EmptyLogError("log contains no events")

    first_unlabeled = next(
        (case for case, label in enumerate(labels) if label is None or label < 0), len(case_ids)
    )
    non_finite = min(
        (
            (cases[event], timestamps[event], rows[event], index, text)
            for index, (_, cells_of) in enumerate(attributes)
            if cells_of.ids is None
            for event, text in cells_of.non_finite()
        ),
        default=None,
    )
    if non_finite is not None and non_finite[0] < first_unlabeled:
        _, _, row, index, text = non_finite
        raise LogValueError(f"row {row}: numeric column {names[index]!r} has non-finite value {text!r}")
    if first_unlabeled < len(case_ids):
        case_id = case_ids[first_unlabeled]
        if labels[first_unlabeled] is None:
            raise LogValueError(f"case {case_id!r} has no label")
        raise LogValueError(f"case {case_id!r} has conflicting labels [0, 1]")

    # Group the events by case, each case in (timestamp, row) order. Each
    # read buffer is released once its column is rearranged.
    timestamp, row = np.frombuffer(timestamps, np.int64), np.frombuffer(rows, np.int64)
    case = np.frombuffer(cases, np.int32)
    del timestamps, rows, cases
    order = np.lexsort((row, timestamp, case))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(case, minlength=len(case_ids)))))
    del case
    columns, missing = [], []
    for _, cells_of in attributes:
        values, mask = cells_of.finish(order)
        columns.append(values)
        missing.append(mask)
    activity = np.frombuffer(activities, np.int32)[order]
    del activities
    timestamp = timestamp[order]
    row = row[order]
    return EventLog(
        names=names,
        strings=table.strings,
        case_ids=case_ids,
        labels=labels,
        bounds=bounds,
        activity=activity,
        timestamp=timestamp,
        row=row,
        columns=columns,
        missing=missing,
    )
