"""Prefix extraction, prefix-length bucketing, and index-based encoding.

Each completed case yields one prefix per length k in [k_min, min(k_max, N)].
A prefix is encoded as the sequence of its activity codes followed, position
by position, by the declared attribute values, so every row of bucket k has
the same width. A category's code is its id in the log's string table, which
activities and categorical values share: texts are numbered by their first
appearance in the file (the earlier cells of a column that reads as numbers
until a later text are numbered at that text), and an empty cell is the
missing code 0. :func:`encode`, the one encoder, gathers the rows of the
``k``-prefixes of many cases at once from the log's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, SettingError, require_at_least
from .event_model import EventLog

# Categorical code reserved for values absent from an event: the string id of an empty cell.
MISSING_CODE = 0


@dataclass(frozen=True)
class BucketConfig:
    """Range of prefix lengths that get their own bucket (and model)."""

    k_min: int = 2
    k_max: int = 2

    def __post_init__(self) -> None:
        require_at_least(2, k_min=self.k_min)
        if self.k_max < self.k_min:
            raise SettingError(f"{{}} must be >= {{}} {self.k_min}, got {self.k_max}", "k_max", "k_min")

    def buckets(self) -> range:
        return range(self.k_min, self.k_max + 1)


@dataclass(frozen=True)
class AttributeSchema:
    """Which event attributes participate in encoding, and their kinds.

    ``numeric`` is parallel to ``names``; numeric attributes pass through as
    floats, categorical ones as their codes in the log's string table.
    """

    names: tuple[str, ...] = ()
    numeric: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if len(self.names) != len(self.numeric):
            raise ConfigError("attribute schema names/numeric flags must align")

    @classmethod
    def from_traces(cls, names: Sequence[str], log: EventLog) -> "AttributeSchema":
        """Build a schema for ``names`` with the column kinds of a parsed log.

        ``log`` comes from :func:`parse_log`, whose sniffing decides each
        column's kind. A name never observed in the log, or whose cells are
        all empty, is treated as categorical (it will always encode to the
        missing code).
        """
        if not names:
            return cls()
        kinds = log.kinds()
        return cls(
            names=tuple(names),
            numeric=tuple(bool(kinds.get(name, False)) for name in names),
        )

    def feature_mask(self, k: int) -> tuple[bool, ...]:
        """Per-feature flag: True where the slot holds a raw numeric value."""
        mask = [False] * k
        for _ in range(k):
            mask.extend(self.numeric)
        return tuple(mask)


def default_k_max(log: EventLog) -> int:
    """Lower median of the case lengths of a parsed log (deterministic for even counts).

    ``log`` comes from :func:`parse_log`, which rejects a log without cases.
    """
    lengths = np.sort(log.lengths())
    return int(lengths[(len(lengths) - 1) // 2])


GATHER = 128  # cases whose feature rows are gathered at once


def attribute_columns(log: EventLog, schema: AttributeSchema) -> list[np.ndarray | None]:
    """Per schema attribute, its log column, or None when the log lacks it or holds the other kind."""
    columns = []
    for name, numeric in zip(schema.names, schema.numeric):
        at = log.names.index(name) if name in log.names else None
        held = at is not None and (log.missing[at] is not None) == numeric
        columns.append(log.columns[at] if held else None)
    return columns


def check_schema(log: EventLog, schema: AttributeSchema) -> None:
    """Raise ``ConfigError`` when the schema contradicts a column of ``log`` that holds a value.

    A schema contradicts a column when it calls an attribute numeric where
    the log holds text, or categorical where it holds numbers. Of several
    such columns, the error names the schema's first.
    """
    kinds = log.kinds()
    for name, numeric in zip(schema.names, schema.numeric):
        if kinds.get(name, numeric) != numeric:
            held, declared = ("text", "numeric") if numeric else ("numbers", "categorical")
            raise ConfigError(f"attribute {name!r} holds {held} in the log; the schema declares it {declared}")


def encode(log: EventLog, cases: np.ndarray, k: int, schema: AttributeSchema) -> np.ndarray:
    """The feature rows of the ``k``-prefixes of ``cases``, one per case.

    ``cases`` are indices of cases of ``log`` with at least ``k`` events. A
    row is the prefix's activity codes at positions 1..k followed, event by
    event, by the schema's attribute values: numeric ones as stored (0.0
    when empty), categorical ones as codes. A name the log lacks, or a
    column the schema contradicts, reads 0.
    """
    events = log.bounds[cases][:, None] + np.arange(k)
    width = len(schema.names)
    rows = np.zeros((len(events), k * (1 + width)))
    rows[:, :k] = log.activity[events]
    for at, column in enumerate(attribute_columns(log, schema)):
        if column is not None:
            rows[:, k + at :: width] = column[events]
    return rows


class FeatureRows:
    """The feature rows and labels of a log's cases; :meth:`blocks` gathers rows with :func:`encode`."""

    def __init__(self, log: EventLog, schema: AttributeSchema) -> None:
        self.log = log
        self.schema = schema
        self.labels = np.array(log.labels, dtype=np.int64)

    def gather(self, cases: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows and labels of ``cases``, gathered at once."""
        return encode(self.log, cases, k, self.schema), self.labels[cases]

    def blocks(self, cases: np.ndarray, k: int):
        """A taker of the next rows (and labels) of ``cases``, gathered ``GATHER`` at a time."""
        block = labels = None
        gathered = used = 0

        def take(n: int) -> tuple[np.ndarray, np.ndarray]:
            """Up to ``n`` next rows and their labels: the rest of the current block at most."""
            nonlocal block, labels, gathered, used
            if used == gathered:
                chunk = cases[gathered : gathered + GATHER]
                block, labels = self.gather(chunk, k)
                gathered += len(chunk)
            start = used - (gathered - len(block))
            stop = start + min(n, gathered - used)
            used += stop - start
            return block[start:stop], labels[start:stop]

        return take
