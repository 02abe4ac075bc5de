"""Continuous evaluation of per-bucket outcome models over a replayed stream.

Each prefix-length bucket gets one model of the run's update policy. The
protocol: the first ``grace`` labels only train the models (no predictions,
no evaluation). Afterwards, every event that completes a prefix of a
bucketed length gets a prediction from the bucket's current model, pending
until its case completes. Each arriving label resolves the case's pending
predictions into per-bucket moving windows of the last ``eval_window``
completed cases, triggers the policy's model update, and adds one point per
(bucket, metric) to the performance series, computed over the bucket's
current window.

The replay loop keeps only integers: each resolution is recorded per
bucket as its outcome (``2 * predicted + actual``) and the index of the
label that resolved it. When the stream ends, one array pass per bucket
turns them into every series: confusion counts of each window from a
cumulative sum lagged by ``eval_window`` resolutions, then
:func:`metrics_from_confusion` over all points at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .classifiers import LearnerParams, OutcomeModel, UpdatePolicy, model_class
from .errors import ConfigError
from .event_model import StreamItem
from .prefixing import AttributeSchema, BucketConfig, CategoryCodec, encode

METRICS = ("accuracy", "precision", "recall", "f1")


def metrics_from_confusion(tp, fp, fn, tn) -> dict[str, np.ndarray]:
    """Accuracy/precision/recall/f1 of confusion counts, zero denominators mapped to 0.

    The counts are integers or equal-shaped integer arrays, one element per
    window; each metric comes back as float64 of that shape, computed with
    the float operations of the scalar formulas, in their order.
    """
    tp, fp, fn, tn = (np.asarray(count, dtype=np.int64) for count in (tp, fp, fn, tn))
    total = tp + fp + fn + tn
    if (total == 0).any():
        raise ValueError("empty confusion matrix")

    def ratio(part, whole):
        return np.divide(part, whole, out=np.zeros(np.shape(whole)), where=whole != 0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = ratio(2.0 * precision * recall, precision + recall)
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall, "f1": f1}


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

    ``stream`` is :func:`~.event_model.replay` of a parsed log. Returns the
    per-(bucket, metric) series and the trained models. When ``ledger`` is
    a list, each resolved prediction/label pair is appended to it as a
    :class:`ResolvedPair` (the raw material an offline recomputation can be
    checked against); by default none is kept.
    """
    if grace < 1:
        raise ConfigError(f"grace period must be >= 1, got {grace}")
    if eval_every < 1:
        raise ConfigError(f"evaluation cadence must be >= 1, got {eval_every}")
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
    schema = schema if schema is not None else AttributeSchema()
    codec = CategoryCodec()

    model_type = model_class(policy)
    if eval_window < 1:
        raise ConfigError(f"evaluation window must be >= 1, got {eval_window}")
    models = {k: model_type(k, schema.feature_mask(k), params) for k in buckets.buckets()}
    k_min, k_max = buckets.k_min, buckets.k_max

    # Per bucket, each resolution's 2 * predicted + actual and its label index.
    outcomes = {k: array("b") for k in buckets.buckets()}
    resolved_at = {k: array("q") for k in buckets.buckets()}
    pending: dict = {}  # case handle -> [(bucket, predicted, version, issued_at)]
    labels_seen = 0
    grace_done = False

    for stream_index, (case, k, is_end) in enumerate(stream, start=1):
        if grace_done and k_min <= k <= k_max:
            model = models[k]
            if model.is_ready:
                sample = encode(case, k, schema, codec)
                pending.setdefault(case, []).append(
                    (k, model.predict(sample), model.version, stream_index)
                )

        if not is_end:
            continue

        label = case.label
        labels_seen += 1

        for bucket, predicted, version, issued_at in pending.pop(case, ()):
            outcomes[bucket].append(2 * predicted + label)
            resolved_at[bucket].append(labels_seen)
            if ledger is not None:
                ledger.append(
                    ResolvedPair(
                        labels_seen, stream_index, case.case_id, bucket, predicted, label, version, issued_at
                    )
                )

        for train_k in range(k_min, min(k_max, k) + 1):
            models[train_k].observe_label(encode(case, train_k, schema, codec, label=label))

        if not grace_done and labels_seen >= grace:
            for model in models.values():
                model.finish_grace()
            grace_done = True

    # The labels after grace at which the series take a point.
    points = np.arange(grace + eval_every, labels_seen + 1, eval_every)
    series = {}
    for k in buckets.buckets():
        values, label_indices = _window_series(
            outcomes[k], resolved_at[k], points, eval_window, metrics
        )
        for metric in metrics:
            series[(k, metric)] = PerformanceSeries(k, metric, values[metric], list(label_indices))
    return RunResult(series=series, labels_seen=labels_seen, models=models)


def _window_series(
    outcomes: array, resolved_at: array, points: np.ndarray, eval_window: int, metrics: Sequence[str]
) -> tuple[dict[str, list[float]], list[int]]:
    """A bucket's metric values and label indices at the ``points`` its window is not empty.

    The window at label ``L`` holds the last ``eval_window`` of the bucket's
    resolutions made at labels up to ``L``.
    """
    seen = np.searchsorted(np.frombuffer(resolved_at, np.int64), points, side="right")
    kept = seen > 0
    seen = seen[kept]
    # Row r counts the outcomes 0..3 of the first r resolutions.
    counts = np.zeros((len(outcomes) + 1, 4), np.int64)
    counts[np.arange(1, len(outcomes) + 1), np.frombuffer(outcomes, np.int8)] = 1
    np.cumsum(counts, axis=0, out=counts)
    window = counts[seen] - counts[np.maximum(seen - eval_window, 0)]
    tn, fn, fp, tp = window.T
    values = metrics_from_confusion(tp, fp, fn, tn)
    return {metric: values[metric].tolist() for metric in metrics}, points[kept].tolist()
