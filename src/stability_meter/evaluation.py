"""Continuous evaluation of per-bucket outcome models over a replayed stream.

Each prefix-length bucket gets one model of the run's update policy. The
protocol: the first ``grace`` labels only train the models (no predictions,
no evaluation). Afterwards, every event that completes a prefix of a
bucketed length gets a prediction from the bucket's current model, pending
until its case completes. Each arriving label resolves the case's pending
predictions into per-bucket moving windows of the last ``eval_window``
completed cases, triggers the policy's model update, and appends one point
per (bucket, metric) to the performance series, computed over the bucket's
current window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .classifiers import MODELS, LearnerParams, OutcomeModel, UpdatePolicy
from .errors import ConfigError
from .event_model import StreamItem
from .prefixing import AttributeSchema, BucketConfig, CasePrefix, CategoryCodec, encode

METRICS = ("accuracy", "precision", "recall", "f1")


class EvalWindow:
    """Ring of the most recent resolved (predicted, actual) pairs of a bucket."""

    def __init__(self, bucket: int, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"evaluation window must be >= 1, got {capacity}")
        self.bucket = bucket
        self.capacity = capacity
        self.entries: deque = deque()
        self._tp = self._fp = self._fn = self._tn = 0

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, predicted: int, actual: int) -> None:
        self.entries.append((predicted, actual))
        self._bump(predicted, actual, +1)
        if len(self.entries) > self.capacity:
            old_predicted, old_actual = self.entries.popleft()
            self._bump(old_predicted, old_actual, -1)

    def _bump(self, predicted: int, actual: int, delta: int) -> None:
        if actual == 1:
            if predicted == 1:
                self._tp += delta
            else:
                self._fn += delta
        elif predicted == 1:
            self._fp += delta
        else:
            self._tn += delta

    def counts(self) -> tuple[int, int, int, int]:
        return (self._tp, self._fp, self._fn, self._tn)


def metrics_from_confusion(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    """Accuracy/precision/recall/f1 with zero denominators mapped to 0."""
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


@dataclass
class PerformanceSeries:
    """Windowed metric values of one (bucket, metric) pair over time.

    Each point is stamped with the ordinal of the triggering label among all
    labels received.
    """

    bucket: int
    metric: str
    values: list[float] = field(default_factory=list)
    label_indices: list[int] = field(default_factory=list)

    def append(self, value: float, label_index: int) -> None:
        self.values.append(value)
        self.label_indices.append(label_index)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ResolvedPair:
    """Ledger entry: one prediction resolved by its case's label."""

    label_index: int
    stream_index: int
    case_id: str
    bucket: int
    predicted: int
    actual: int
    model_version: int
    issued_at: int


@dataclass
class RunResult:
    series: dict[tuple[int, str], PerformanceSeries]
    labels_seen: int
    models: dict[int, OutcomeModel]  # bucket -> its model, as trained by the run


def run_stream(
    stream: Iterable[StreamItem],
    policy: UpdatePolicy | str,
    buckets: BucketConfig,
    grace: int = 200,
    eval_window: int = 100,
    metrics: Sequence[str] = METRICS,
    eval_every: int = 1,
    schema: AttributeSchema | None = None,
    params: LearnerParams = LearnerParams(),
    ledger: list | None = None,
) -> RunResult:
    """Replay the stream through one ``policy`` model per bucket.

    Returns the per-(bucket, metric) series and the trained models. When
    ``ledger`` is a list, each resolved prediction/label pair is appended to
    it as a :class:`ResolvedPair` (the raw material an offline recomputation
    can be checked against); by default none is kept.
    """
    if grace < 1:
        raise ConfigError(f"grace period must be >= 1, got {grace}")
    if eval_window < 1:
        raise ConfigError(f"evaluation window must be >= 1, got {eval_window}")
    if eval_every < 1:
        raise ConfigError(f"evaluation cadence must be >= 1, got {eval_every}")
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
    schema = schema if schema is not None else AttributeSchema()
    codec = CategoryCodec()

    model_class = MODELS[UpdatePolicy(policy)]
    models = {k: model_class(k, schema.feature_mask(k), params) for k in buckets.buckets()}

    windows = {k: EvalWindow(k, eval_window) for k in buckets.buckets()}
    series = {
        (k, metric): PerformanceSeries(bucket=k, metric=metric)
        for k in buckets.buckets()
        for metric in metrics
    }
    open_cases: dict[str, CasePrefix] = {}
    pending: dict[str, list[tuple]] = {}  # case id -> (bucket, predicted, version, issued_at)
    labels_seen = 0
    grace_done = False

    for stream_index, item in enumerate(stream, start=1):
        case_id = item.event.case_id
        case = open_cases.get(case_id)
        if case is None:
            case = open_cases[case_id] = CasePrefix()
        case.events.append(item.event)
        k = len(case.events)

        if grace_done and buckets.k_min <= k <= buckets.k_max:
            model = models[k]
            if model.is_ready:
                sample = encode(case, k, schema, codec)
                pending.setdefault(case_id, []).append(
                    (k, model.predict(sample), model.version, stream_index)
                )

        if not item.is_case_end:
            continue

        label = item.label
        labels_seen += 1

        for bucket, predicted, version, issued_at in pending.pop(case_id, ()):
            windows[bucket].add(predicted, label)
            if ledger is not None:
                ledger.append(
                    ResolvedPair(
                        labels_seen, stream_index, case_id, bucket, predicted, label, version, issued_at
                    )
                )

        for train_k in range(buckets.k_min, min(buckets.k_max, k) + 1):
            sample = encode(case, train_k, schema, codec, label=label)
            models[train_k].observe_label(sample)
        del open_cases[case_id]

        if not grace_done:
            if labels_seen >= grace:
                for model in models.values():
                    model.finish_grace()
                grace_done = True
            continue

        if (labels_seen - grace) % eval_every != 0:
            continue
        for eval_k in buckets.buckets():
            window = windows[eval_k]
            if len(window) == 0:
                continue
            values = metrics_from_confusion(*window.counts())
            for metric in metrics:
                series[(eval_k, metric)].append(values[metric], labels_seen)

    return RunResult(series=series, labels_seen=labels_seen, models=models)
