"""Prefix extraction, prefix-length bucketing, and index-based encoding.

Each completed case yields one prefix per length k in [k_min, min(k_max, N)].
A prefix is encoded as the sequence of its activity codes followed, position
by position, by the declared attribute values, so every sample of bucket k
has the same feature-vector width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .event_model import Event, EventLog

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


class CategoryCodec:
    """Append-only table mapping categorical strings to stable integer codes.

    Codes are assigned first-come-first-served starting at 1; code 0 is
    reserved for missing values. The same string always maps to the same
    code within a run, across cases and buckets.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}

    def code(self, text: str) -> int:
        existing = self._codes.get(text)
        if existing is not None:
            return existing
        fresh = len(self._codes) + 1
        self._codes[text] = fresh
        return fresh

    def __len__(self) -> int:
        return len(self._codes)


def default_k_max(log: EventLog) -> int:
    """Lower median of the case lengths of a parsed log (deterministic for even counts).

    ``log`` comes from :func:`parse_log`, which rejects a log without cases.
    """
    lengths = np.sort(log.lengths())
    return int(lengths[(len(lengths) - 1) // 2])


class CasePrefix:
    """An open case: its events so far and the codes of its first events.

    ``acts`` holds the activity codes and ``slots`` the attribute slots
    (``len(schema.names)`` per event) of the events coded so far; :func:`encode`
    extends both lazily, so each event is coded once per case.
    """

    __slots__ = ("events", "acts", "slots")

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.acts: list[int] = []
        self.slots: list = []


def encode(
    case: CasePrefix,
    k: int,
    schema: AttributeSchema,
    codec: CategoryCodec,
    label: int | None = None,
) -> EncodedSample:
    """Index-based encoding of the case's first ``k`` events.

    Features are the activity codes at positions 1..k followed by, per
    position, the schema's attribute values (numeric passed through,
    categorical coded, missing encoded as the reserved missing code).

    Events not coded yet are coded up to position ``k`` only: their
    activities first, then their attributes. Coding a case's prefixes in
    increasing ``k`` therefore assigns the codec's codes in the same order
    as coding each prefix from scratch.
    """
    acts = case.acts
    if len(acts) < k:
        fresh = case.events[len(acts) : k]
        acts.extend(codec.code(event.activity) for event in fresh)
        slots = case.slots
        for event in fresh:
            for name, is_numeric in zip(schema.names, schema.numeric):
                value = event.attribute(name)
                if value is None:
                    slots.append(0.0 if is_numeric else MISSING_CODE)
                elif is_numeric:
                    slots.append(float(value))
                else:
                    slots.append(codec.code(str(value)))
    features = tuple(acts[:k]) + tuple(case.slots[: k * len(schema.names)])
    return EncodedSample(bucket=k, features=features, label=label)
