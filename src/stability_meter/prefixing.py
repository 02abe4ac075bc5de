"""Prefix extraction, prefix-length bucketing, and index-based encoding.

Each completed case yields one prefix per length k in [k_min, min(k_max, N)].
A prefix is encoded as the sequence of its activity codes followed, position
by position, by the declared attribute values, so every row of bucket k has
the same width. :class:`CategoryCodec` codes the log's string ids, not their
text; the order in which it assigns codes belongs to the caller (the run
codes events in its protocol's order). :func:`encode`, the one encoder,
reads a finished codec and gathers the rows of the ``k``-prefixes of many
cases at once from the log's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .event_model import EventLog

# Categorical code reserved for values absent from an event.
MISSING_CODE = 0


@dataclass(frozen=True)
class BucketConfig:
    """Range of prefix lengths that get their own bucket (and model)."""

    k_min: int = 2
    k_max: int = 2

    def __post_init__(self) -> None:
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigError(
                f"bucket range must satisfy 2 <= k_min <= k_max, got "
                f"[{self.k_min}, {self.k_max}]"
            )

    def buckets(self) -> range:
        return range(self.k_min, self.k_max + 1)


@dataclass(frozen=True)
class AttributeSchema:
    """Which event attributes participate in encoding, and their kinds.

    ``numeric`` is parallel to ``names``; numeric attributes pass through as
    floats, categorical ones go through the shared code table.
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

    def width(self, k: int) -> int:
        return k * (1 + len(self.names))

    def feature_mask(self, k: int) -> tuple[bool, ...]:
        """Per-feature flag: True where the slot holds a raw numeric value."""
        mask = [False] * k
        for _ in range(k):
            mask.extend(self.numeric)
        return tuple(mask)


class CategoryCodec(dict):
    """Append-only table from the string ids of a parsed log to stable integer codes.

    Keys are ids of the log's string table (``log.strings[id]`` is the
    text), which activities and categorical values share, so one text has
    one code wherever it appears. Codes are assigned first-come-first-served
    starting at 1, on the first lookup of an id; id 0, an empty cell, is
    the reserved missing code 0. ``len`` counts the assigned codes.
    """

    def __init__(self) -> None:
        super().__init__({0: MISSING_CODE})

    def __missing__(self, string_id: int) -> int:
        code = self[string_id] = dict.__len__(self)
        return code

    def __len__(self) -> int:
        return dict.__len__(self) - 1

    def array(self, log: EventLog) -> np.ndarray:
        """The codes indexed by ``log``'s string ids, as floats; an id not coded reads 0."""
        codes = np.zeros(len(log.strings))
        ids, values = zip(*dict.items(self))
        codes[list(ids)] = values
        return codes


def default_k_max(log: EventLog) -> int:
    """Lower median of the case lengths of a parsed log (deterministic for even counts).

    ``log`` comes from :func:`parse_log`, which rejects a log without cases.
    """
    lengths = np.sort(log.lengths())
    return int(lengths[(len(lengths) - 1) // 2])


GATHER = 128  # cases whose feature rows are gathered, or labels coded, at once


def attribute_columns(log: EventLog, schema: AttributeSchema) -> list[np.ndarray | None]:
    """Per schema attribute, its log column, or None when the log lacks it or holds the other kind."""
    columns = []
    for name, numeric in zip(schema.names, schema.numeric):
        at = log.names.index(name) if name in log.names else None
        held = at is not None and (log.missing[at] is not None) == numeric
        columns.append(log.columns[at] if held else None)
    return columns


def contradictions(log: EventLog, schema: AttributeSchema) -> list[tuple[np.ndarray, str]]:
    """Per attribute the schema contradicts: which cases hold a value in it, and the error.

    A schema contradicts a column when it calls an attribute numeric where
    the log holds text, or categorical where it holds numbers. Such a
    column reads empty; it is an error at the first case coded that holds
    a value in it, and of several, the first attribute's.
    """
    found = []
    for name, numeric, column in zip(schema.names, schema.numeric, attribute_columns(log, schema)):
        if column is not None or name not in log.names:
            continue
        at = log.names.index(name)
        mask = log.missing[at]
        filled = ~mask if mask is not None else log.columns[at] != MISSING_CODE
        held, declared = ("text", "numeric") if numeric else ("numbers", "categorical")
        found.append(
            (
                np.logical_or.reduceat(filled, log.bounds[:-1]),
                f"attribute {name!r} holds {held} in the log; the schema declares it {declared}",
            )
        )
    return found


def encode(log: EventLog, cases: np.ndarray, k: int, schema: AttributeSchema, codes: np.ndarray) -> np.ndarray:
    """The feature rows of the ``k``-prefixes of ``cases``, one per case.

    ``cases`` are indices of cases of ``log`` with at least ``k`` events,
    and ``codes`` is a finished codec as an array (:meth:`CategoryCodec.array`).
    A row is the prefix's activity codes at positions 1..k followed, event
    by event, by the schema's attribute values: numeric ones as stored (0.0
    when empty), categorical ones coded. A name the log lacks, or a column
    the schema contradicts, reads 0.
    """
    events = log.bounds[cases][:, None] + np.arange(k)
    width = len(schema.names)
    rows = np.zeros((len(events), k * (1 + width)))
    rows[:, :k] = codes[log.activity[events]]
    for at, (column, numeric) in enumerate(zip(attribute_columns(log, schema), schema.numeric)):
        if column is not None:
            rows[:, k + at :: width] = column[events] if numeric else codes[column[events]]
    return rows


class FeatureRows:
    """The feature rows and labels of a log's cases, coded by a finished codec.

    The codec's id-to-code array is built once, here; :meth:`blocks` gathers
    rows with :func:`encode`, ``GATHER`` cases at a time.
    """

    def __init__(self, log: EventLog, schema: AttributeSchema, codec: CategoryCodec) -> None:
        self.log = log
        self.schema = schema
        self.codes = codec.array(log)
        self.labels = np.array(log.labels, dtype=np.int64)

    def blocks(self, cases: np.ndarray, k: int):
        """A taker of the next rows (and labels) of ``cases``, gathered ``GATHER`` at a time."""
        block = labels = None
        gathered = used = 0

        def take(n: int) -> tuple[np.ndarray, np.ndarray]:
            """Up to ``n`` next rows and their labels: the rest of the current block at most."""
            nonlocal block, labels, gathered, used
            if used == gathered:
                chunk = cases[gathered : gathered + GATHER]
                block, labels = encode(self.log, chunk, k, self.schema, self.codes), self.labels[chunk]
                gathered += len(chunk)
            start = used - (gathered - len(block))
            stop = start + min(n, gathered - used)
            used += stop - start
            return block[start:stop], labels[start:stop]

        return take
