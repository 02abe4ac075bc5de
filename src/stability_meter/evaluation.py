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

:func:`run_stream` computes this in two passes. The recording pass walks
the replay and keeps only integers: per label, its case and stream index;
per issued prediction, its case, bucket and stream index. Whether a
bucket's model is ready to predict follows from label counts alone (each
model's ``labels_to_ready``), so no model is trained in this pass. A
category's code is its string id in the log (see :mod:`~.prefixing`), so no
pass numbers the categories. A schema that contradicts a column holding a
value is rejected once the log is known, before any model learns
(:func:`~.prefixing.check_schema`).

The evaluation pass serves one bucket at a time. A model changes only when
it learns, so the bucket's labels, in label order, split where its model
can change (``labels_until_change``: at each retrain for window-retrain,
never after grace for static, at every label for naive Bayes). Between two
changes, its predictions are served by one model version, one
``predict(row)`` each, and its training rows are learned as a block. The
rows come from :class:`~.prefixing.FeatureRows`, which gathers them with
:func:`~.prefixing.encode`, at most ``GATHER`` cases at a time. Each
resolution is its outcome (``2 * predicted + actual``) and the index of the
label that resolved it; one array pass per bucket turns them into every
series: confusion counts of each window from a cumulative sum lagged by
``eval_window`` resolutions, then :func:`metrics_from_confusion` over all
points at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .classifiers import LearnerParams, OutcomeModel, UpdatePolicy, model_class
from .errors import ConfigError
from .event_model import EventLog, StreamItem
from .prefixing import AttributeSchema, BucketConfig, FeatureRows, check_schema
from .prefixing import encode  # noqa: F401  -- the batch encoder; only the tracer reads this name (ROADMAP item 6)

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

    ``stream`` is :func:`~.event_model.replay` of a parsed log; the run
    holds that log from the stream's first item to its end. Returns the
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

    model_type = model_class(policy)
    if eval_window < 1:
        raise ConfigError(f"evaluation window must be >= 1, got {eval_window}")
    models = {k: model_type(k, schema.feature_mask(k), params) for k in buckets.buckets()}

    record = _Record.of(stream, model_type, buckets, grace, params)
    labels_seen = len(record.labelled)
    if labels_seen:
        check_schema(record.log, schema)
        rows = FeatureRows(record.log, schema)
    kept = [] if ledger is not None else None  # per bucket: what the ledger needs
    # The labels after grace at which the series take a point.
    points = np.arange(grace + eval_every, labels_seen + 1, eval_every)
    series = {}
    for k, model in models.items():
        resolutions = _serve_bucket(model, k, record, rows, grace, kept) if labels_seen else _NO_RESOLUTIONS
        values, label_indices = _window_series(*resolutions, points, eval_window, metrics)
        for metric in metrics:
            series[(k, metric)] = PerformanceSeries(k, metric, values[metric], list(label_indices))
    if kept:
        _write_ledger(ledger, record, kept)
    return RunResult(series=series, labels_seen=labels_seen, models=models)


_NO_RESOLUTIONS = (np.empty(0, np.int64), np.empty(0, np.int64))


@dataclass
class _Record:
    """What the recording pass keeps of a replay: the log and integers, in stream order.

    ``labelled`` and ``labelled_at`` hold each label's case and stream index,
    ``label_lengths`` its case's length, and ``label_index`` each case's
    1-based label index (0 for a case that never ended); ``issued``,
    ``issued_k`` and ``issued_at`` hold each issued prediction's case, bucket
    and stream index.
    """

    log: EventLog | None
    labelled: np.ndarray
    labelled_at: np.ndarray
    label_lengths: np.ndarray
    label_index: np.ndarray
    issued: np.ndarray
    issued_k: np.ndarray
    issued_at: np.ndarray

    @classmethod
    def of(cls, stream, model_type, buckets: BucketConfig, grace: int, params: LearnerParams) -> "_Record":
        """Walk the stream and record its labels and the predictions the protocol issues.

        A bucket is ready once grace is over and its model's
        ``labels_to_ready`` rule, applied to the bucket's label counts, says
        so. A prediction at an event is issued before the event's label.
        """
        items = iter(stream)
        first = next(items, None)
        if first is None:
            nothing = np.empty(0, np.int32)
            return cls(None, nothing, nothing, nothing, nothing, nothing, nothing, nothing)
        log = first.case.log
        k_max = buckets.k_max
        # The narrowest integer columns that hold a case, a bucket and a stream index.
        at = "i" if len(log.order) < 2**31 else "q"
        labelled, labelled_at = array("i"), array(at)
        issued, issued_k, issued_at = array("i"), array("b" if k_max < 128 else "i"), array(at)
        ready = bytearray(k_max + 1)  # ready[k]: bucket k's model predicts
        waiting: dict[int, int] = {}  # bucket -> post-grace labels it needs to be ready
        for stream_index, (case, k, is_end) in enumerate(chain((first,), items), start=1):
            if k <= k_max and ready[k]:
                issued.append(case.index)
                issued_k.append(k)
                issued_at.append(stream_index)
            if not is_end:
                continue
            labelled.append(case.index)
            labelled_at.append(stream_index)
            if waiting:
                for bucket in [bucket for bucket in waiting if bucket <= k]:
                    waiting[bucket] -= 1
                    if not waiting[bucket]:
                        del waiting[bucket]
                        ready[bucket] = 1
            if len(labelled) == grace:
                lengths = log.lengths()[np.array(labelled)]
                for bucket in buckets.buckets():
                    need = model_type.labels_to_ready(int(np.count_nonzero(lengths >= bucket)), params)
                    if need == 0:
                        ready[bucket] = 1
                    elif need is not None:
                        waiting[bucket] = need

        # Copied to exact size, so the columns' spare capacity goes.
        labelled, labelled_at, issued, issued_k, issued_at = (
            np.array(values) for values in (labelled, labelled_at, issued, issued_k, issued_at)
        )
        label_index = np.zeros(len(log), np.int32)
        label_index[labelled] = np.arange(1, len(labelled) + 1)
        return cls(log, labelled, labelled_at, log.lengths()[labelled], label_index, issued, issued_k, issued_at)


def _serve_bucket(
    model: OutcomeModel, k: int, record: _Record, rows: FeatureRows, grace: int, kept: list | None
) -> tuple[np.ndarray, np.ndarray]:
    """Train bucket ``k``'s model on its labels and serve its issued predictions, in stream order.

    The bucket's labels are those of cases with at least ``k`` events. A
    prediction is served by the model as it was before the label at its own
    stream index, so it sees the labels before it. The labels between two
    predictions are learned as one block, and the predictions between two
    changes of the model (``labels_until_change``) are served by one
    version. Returns the resolutions in resolution order: each one's
    outcome (``2 * predicted + actual``) and label index. When ``kept`` is
    a list, the predictions' labels and model versions go to it for the
    ledger.
    """
    trained = record.label_lengths >= k
    label_cases = record.labelled[trained]
    label_at = record.labelled_at[trained]
    issued = np.flatnonzero(record.issued_k == k)
    cases, issued_at = record.issued[issued], record.issued_at[issued]
    predicted = np.empty(len(cases), np.int8)
    versions = np.empty(len(cases), np.int64)

    take_labels = rows.blocks(label_cases, k)
    learned = 0

    def learn(stop: int) -> None:
        nonlocal learned
        while learned < stop:
            block, labels = take_labels(stop - learned)
            model.learn(block, labels)
            learned += len(block)

    learn(int(np.count_nonzero(trained[:grace])))
    if len(record.labelled) < grace:
        return _NO_RESOLUTIONS  # grace never ended: no prediction was issued
    model.finish_grace()
    take_predictions = rows.blocks(cases, k)
    served = 0

    def serve(stop: int) -> None:
        nonlocal served
        while served < stop:
            block, _ = take_predictions(stop - served)
            outcome = [model.predict(row) for row in block.tolist()]
            predicted[served : served + len(outcome)] = outcome
            versions[served : served + len(outcome)] = model.version
            served += len(outcome)

    if model.labels_until_change() is None:
        serve(len(cases))  # no label changes this model any more
    else:
        # Per prediction, the labels before it; per label, the predictions up to it.
        labels_before = np.searchsorted(label_at, issued_at, side="left")
        served_by = np.searchsorted(issued_at, label_at, side="right")
        while served < len(cases):
            learn(int(labels_before[served]))
            change = learned + model.labels_until_change()
            serve(len(cases) if change > len(label_cases) else int(served_by[change - 1]))
        learn(len(label_cases))

    if kept is not None:
        kept.append((k, issued, predicted, versions))
    resolved = record.label_index[cases]
    order = np.argsort(resolved, kind="stable")
    order = order[resolved[order] > 0]  # a prediction whose case never ends stays pending
    return 2 * predicted[order] + rows.labels[cases[order]], resolved[order]


def _write_ledger(ledger: list, record: _Record, kept: list) -> None:
    """Append every resolved pair to ``ledger`` by label index, then issuing stream index."""
    ks, issued, predicted, versions = zip(*kept)
    buckets = np.concatenate([np.full(len(part), k) for k, part in zip(ks, issued)])
    issued, predicted, versions = (np.concatenate(parts) for parts in (issued, predicted, versions))
    cases, issued_at = record.issued[issued], record.issued_at[issued]
    resolved = record.label_index[cases]
    order = np.lexsort((issued_at, resolved))
    order = order[resolved[order] > 0]
    log = record.log
    for label, stream_index, case, bucket, guess, version, issued_index in zip(
        resolved[order].tolist(),
        record.labelled_at[resolved[order] - 1].tolist(),
        cases[order].tolist(),
        buckets[order].tolist(),
        predicted[order].tolist(),
        versions[order].tolist(),
        issued_at[order].tolist(),
    ):
        ledger.append(
            ResolvedPair(
                label, stream_index, log.case_ids[case], bucket, guess, log.labels[case], version, issued_index
            )
        )


def _window_series(
    outcomes: np.ndarray, resolved_at: np.ndarray, points: np.ndarray, eval_window: int, metrics: Sequence[str]
) -> tuple[dict[str, list[float]], list[int]]:
    """A bucket's metric values and label indices at the ``points`` its window is not empty.

    The window at label ``L`` holds the last ``eval_window`` of the bucket's
    resolutions made at labels up to ``L``.
    """
    seen = np.searchsorted(resolved_at, points, side="right")
    kept = seen > 0
    seen = seen[kept]
    # Row r counts the outcomes 0..3 of the first r resolutions.
    counts = np.zeros((len(outcomes) + 1, 4), np.int64)
    counts[np.arange(1, len(outcomes) + 1), outcomes] = 1
    np.cumsum(counts, axis=0, out=counts)
    window = counts[seen] - counts[np.maximum(seen - eval_window, 0)]
    tn, fn, fp, tp = window.T
    values = metrics_from_confusion(tp, fp, fn, tn)
    return {metric: values[metric].tolist() for metric in metrics}, points[kept].tolist()
