"""Prefix extraction, prefix-length bucketing, and index-based encoding.

Each completed case yields one prefix per length k in [k_min, min(k_max, N)].
A prefix is encoded as the sequence of its activity codes followed, position
by position, by the values of the named attributes, whose kinds the parsed
log gives, so every row of bucket k has the same width. A category's code is
its id in the log's string table, which activities and categorical values
share: texts are numbered by their first appearance in the file (the earlier
cells of a column that reads as numbers until a later text are numbered at
that text), and an empty cell is the missing code 0. :func:`encode`, the one
encoder, gathers the rows of the ``k``-prefixes of many cases at once from
the log's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SettingError, require_at_least
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


def check_attrs(names: Sequence[str], log: EventLog | None = None) -> None:
    """Raise a :class:`SettingError` for the first name of ``names`` given twice.

    With ``log``, a name that is not an attribute column of it is rejected
    too. ``names`` are the event attributes a run encodes; the log's columns
    give their kinds (:meth:`~.event_model.EventLog.kinds`).
    """
    for at, name in enumerate(names):
        quoted = repr(name).replace("{", "{{").replace("}", "}}")  # a template, formatted with the setting's name
        if name in names[:at]:
            raise SettingError(f"{{}} names {quoted} twice", "attrs")
        if log is not None and name not in log.names:
            raise SettingError(f"{{}} names {quoted}, which is not an attribute column of the log", "attrs")


def feature_mask(numeric: tuple[bool, ...], k: int) -> tuple[bool, ...]:
    """Per feature of a ``k``-prefix row: True where it holds a raw numeric value.

    ``numeric`` flags each encoded attribute's kind, in encoding order.
    """
    return (False,) * k + numeric * k


def default_k_max(log: EventLog) -> int:
    """Lower median of the case lengths of a parsed log (deterministic for even counts).

    ``log`` comes from :func:`parse_log`, which rejects a log without cases.
    """
    lengths = np.sort(log.lengths())
    return int(lengths[(len(lengths) - 1) // 2])


GATHER = 128  # cases whose feature rows are gathered at once


def encode(log: EventLog, cases: np.ndarray, k: int, attrs: Sequence[str]) -> np.ndarray:
    """The feature rows of the ``k``-prefixes of ``cases``, one per case.

    ``cases`` are indices of cases of ``log`` with at least ``k`` events, and
    ``attrs`` names attribute columns of ``log``. A row is the prefix's
    activity codes at positions 1..k followed, event by event, by the named
    attributes' values: numeric ones as stored (0.0 when empty), categorical
    ones as codes.
    """
    events = log.bounds[cases][:, None] + np.arange(k)
    width = len(attrs)
    rows = np.empty((len(events), k * (1 + width)))
    rows[:, :k] = log.activity[events]
    for at, name in enumerate(attrs):
        rows[:, k + at :: width] = log.columns[log.names.index(name)][events]
    return rows


class FeatureRows:
    """The feature rows and labels of a log's cases; :meth:`blocks` gathers rows with :func:`encode`."""

    def __init__(self, log: EventLog, attrs: Sequence[str]) -> None:
        self.log = log
        self.attrs = attrs
        self.labels = np.array(log.labels, dtype=np.int64)

    def gather(self, cases: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows and labels of ``cases``, gathered at once."""
        return encode(self.log, cases, k, self.attrs), self.labels[cases]

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
