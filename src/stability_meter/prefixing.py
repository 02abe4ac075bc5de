"""Prefix extraction, prefix-length bucketing, and index-based encoding.

Each completed case yields one prefix per length k in [k_min, min(k_max, N)].
A prefix is encoded as the sequence of its activity codes followed, position
by position, by the declared attribute values, so every sample of bucket k
has the same feature-vector width. :func:`encode` reads a replayed case's
events from the log's columns through its :class:`~.event_model.Case`
handle, and :class:`CategoryCodec` codes the log's string ids, not their
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .event_model import Case, EventLog

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
class EncodedSample:
    """Feature vector for one prefix; label present for training samples."""

    bucket: int
    features: tuple
    label: int | None = None


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


def default_k_max(log: EventLog) -> int:
    """Lower median of the case lengths of a parsed log (deterministic for even counts).

    ``log`` comes from :func:`parse_log`, which rejects a log without cases.
    """
    lengths = np.sort(log.lengths())
    return int(lengths[(len(lengths) - 1) // 2])


def _case_cells(case: Case, schema: AttributeSchema) -> tuple[list, list]:
    """The case's activity string ids and, event by event, its attribute cells.

    A numeric attribute's cell is its float (0.0 when empty), a categorical
    one's its string id (0 when empty); a name the log lacks reads empty.
    """
    log, start, stop = case.log, case.start, case.stop
    columns = []
    for name, numeric in zip(schema.names, schema.numeric):
        empty = 0.0 if numeric else MISSING_CODE
        if name not in log.names:
            columns.append([empty] * (stop - start))
            continue
        at = log.names.index(name)
        column, mask = log.columns[at], log.missing[at]
        if (mask is not None) == numeric:
            columns.append(column[start:stop].tolist())
            continue
        filled = ~mask[start:stop] if mask is not None else column[start:stop] != 0
        if filled.any():
            held, declared = ("text", "numeric") if numeric else ("numbers", "categorical")
            raise ConfigError(f"attribute {name!r} holds {held} in the log; the schema declares it {declared}")
        columns.append([empty] * (stop - start))
    cells = [cell for row in zip(*columns) for cell in row]
    return log.activity[start:stop].tolist(), cells


def encode(
    case: Case,
    k: int,
    schema: AttributeSchema,
    codec: CategoryCodec,
    label: int | None = None,
) -> EncodedSample:
    """Index-based encoding of the case's first ``k`` events.

    Features are the activity codes at positions 1..k followed by, per
    position, the schema's attribute values (numeric passed through,
    categorical coded, missing encoded as the reserved missing code).

    The first call on a case takes its activity ids and the schema's
    attribute cells from the log's columns, once; ``case.acts`` and
    ``case.slots`` then hold the events coded so far. Events not coded yet
    are coded up to position ``k`` only: their activities first, then their
    attributes. Coding a case's prefixes in increasing ``k`` therefore
    assigns the codec's codes in the same order as coding each prefix from
    scratch. A schema that calls an attribute numeric where the log holds
    text, or categorical where it holds numbers, is a ``ConfigError`` at
    the first case coded with a value in that column.
    """
    acts = case.acts
    done = len(acts)
    width = len(schema.names)
    if done < k:
        if case.cells is None:
            case.cells = _case_cells(case, schema)
        ids, cells = case.cells
        acts.extend(map(codec.__getitem__, ids[done:k]))
        if width:
            slots = case.slots
            for cell, numeric in zip(cells[done * width : k * width], cycle(schema.numeric)):
                slots.append(cell if numeric else codec[cell])
    features = tuple(acts[:k]) + tuple(case.slots[: k * width])
    return EncodedSample(bucket=k, features=features, label=label)
