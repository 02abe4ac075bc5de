"""Continuous evaluation of per-bucket outcome models over a log's event stream.

Each prefix-length bucket gets one model of the run's update policy. The
protocol: the first ``grace`` labels only train the models (no predictions,
no evaluation). Afterwards, every event that completes a prefix of a
bucketed length gets a prediction from the bucket's current model, pending
until its case completes. Each arriving label resolves the case's pending
predictions into per-bucket moving windows of the last ``eval_window``
completed cases, triggers the policy's model update, and adds one point per
(bucket, metric) to the performance series, computed over the bucket's
current window.

The stream is the parsed log's events in (timestamp, row) order,
``log.order``. :func:`run_stream` computes this in two passes. The
recording pass derives only integers from the log's arrays: per label, its
case and stream index; per issued prediction, its case, bucket and stream
index. Whether a bucket's model is ready to predict follows from label
counts alone (each model's ``labels_to_ready``), so no model is trained in
this pass. A category's code is its string id in the log (see
:mod:`~.prefixing`), so no pass numbers the categories. A bucket longer
than the log's longest case gets no model: no prefix reaches it.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import LearnerParams, OutcomeModel, UpdatePolicy, model_class
from .errors import ConfigError, require_at_least
from .event_model import EventLog
from .prefixing import BucketConfig, FeatureRows, check_attrs, feature_mask
from .prefixing import encode  # noqa: F401  -- the batch encoder; only the tracer reads this name (ROADMAP item 6)

METRICS = ("accuracy", "precision", "recall", "f1")

# Events whose stream positions the recording pass reads at once.
_CHUNK = 1024


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


@dataclass(eq=False)
class PerformanceSeries:
    """Windowed metric values of one (bucket, metric) pair over time.

    Each point is stamped with the ordinal of the triggering label among all
    labels received. The metrics of one bucket share one ``label_indices`` array.
    """

    bucket: int
    metric: str
    values: np.ndarray
    label_indices: np.ndarray

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


def check_run_settings(grace: int, eval_window: int, eval_every: int) -> None:
    """Reject a :func:`run_stream` count below 1 as a :class:`~.errors.SettingError`."""
    require_at_least(1, grace=grace, eval_window=eval_window, eval_every=eval_every)


def run_stream(
    log: EventLog,
    policy: UpdatePolicy | str,
    buckets: BucketConfig,
    grace: int = 200,
    eval_window: int = 100,
    metrics: Sequence[str] = METRICS,
    eval_every: int = 1,
    attrs: Sequence[str] = (),
    params: LearnerParams = LearnerParams(),
    ledger: list | None = None,
) -> RunResult:
    """Run the events of a parsed log, in stream order, through one ``policy`` model per bucket.

    ``log`` comes from :func:`~.event_model.parse_log`. ``attrs`` names the
    attribute columns encoded after the activities, each as the kind the
    log holds (:meth:`~.event_model.EventLog.kinds`: a column empty on every
    row is categorical). Returns the per-(bucket, metric) series and the
    trained models of the buckets up to the longest case. When ``ledger`` is
    a list, each resolved prediction/label pair is appended to it as a
    :class:`ResolvedPair` (the raw material an offline recomputation can be
    checked against); by default none is kept.
    """
    check_run_settings(grace, eval_window, eval_every)
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
    check_attrs(attrs, log)
    kinds = log.kinds() if attrs else {}
    numeric = tuple(kinds.get(name, False) for name in attrs)

    model_type = model_class(policy)
    reached = range(buckets.k_min, min(buckets.k_max, int(log.lengths().max())) + 1)
    models = {k: model_type(k, feature_mask(numeric, k), params) for k in reached}

    record = _Record.of(log, model_type, reached, grace, params)
    rows = FeatureRows(log, attrs)
    labels_seen = len(record.labelled)
    kept = [] if ledger is not None else None  # per bucket: what the ledger needs
    # The labels after grace at which the series take a point.
    points = np.arange(grace + eval_every, labels_seen + 1, eval_every)
    series = {}
    for k, model in models.items():
        values, label_indices = _window_series(
            *_serve_bucket(model, k, record, rows, grace, kept), points, eval_window, metrics
        )
        for metric in metrics:
            series[(k, metric)] = PerformanceSeries(k, metric, values[metric], label_indices)
    if kept:
        _write_ledger(ledger, record, kept)
    return RunResult(series=series, labels_seen=labels_seen, models=models)


_NO_RESOLUTIONS = (np.empty(0, np.int64), np.empty(0, np.int64))


@dataclass
class _Record:
    """What the recording pass keeps of a log: the log and integers, in stream order.

    ``labelled`` and ``labelled_at`` hold each label's case and stream index,
    ``label_lengths`` its case's length, and ``label_index`` each case's
    1-based label index; ``issued``, ``issued_k`` and ``issued_at`` hold each
    issued prediction's case, bucket and stream index.
    """

    log: EventLog
    labelled: np.ndarray
    labelled_at: np.ndarray
    label_lengths: np.ndarray
    label_index: np.ndarray
    issued: np.ndarray
    issued_k: np.ndarray
    issued_at: np.ndarray

    @classmethod
    def of(cls, log: EventLog, model_type, buckets: range, grace: int, params: LearnerParams) -> "_Record":
        """Record the log's labels and the predictions the protocol issues to ``buckets``, from its arrays.

        The stream is ``log.order``, and a case's label comes with its last
        event. A bucket is ready once grace is over and its model's
        ``labels_to_ready`` rule, applied to the bucket's label counts, says
        so; from the next event on, it predicts at each event that completes
        a prefix of its length. A prediction at an event is issued before
        the event's label.
        """
        bounds, order = log.bounds, log.order
        # The narrowest integer columns that hold a case, a bucket and a stream index.
        index = np.int32 if len(order) < 2**31 else np.int64
        k_max = buckets.stop - 1
        ends = np.zeros(len(order), bool)
        ends[bounds[1:] - 1] = True
        labelled_at = np.flatnonzero(ends[order]).astype(index) + 1
        del ends
        labelled = (np.searchsorted(bounds, order[labelled_at - 1], side="right") - 1).astype(index)
        label_lengths = log.lengths()[labelled]

        # ready_after[k]: the stream index after which bucket k predicts; the
        # last one when it never does, as for the lengths outside the buckets.
        ready_after = np.full(k_max + 2, len(order))
        if len(labelled) >= grace:
            later = label_lengths[grace:]
            for k in buckets:
                need = model_type.labels_to_ready(int(np.count_nonzero(label_lengths[:grace] >= k)), params)
                if need == 0:
                    ready_after[k] = labelled_at[grace - 1]
                elif need is not None:
                    counted = np.flatnonzero(later >= k)
                    if need <= len(counted):
                        ready_after[k] = labelled_at[grace + counted[need - 1]]

        bucket = np.int8 if k_max < 128 else np.int32
        parts = []
        for begin in range(0, len(order), _CHUNK):
            at = order[begin : begin + _CHUNK]
            case = np.searchsorted(bounds, at, side="right") - 1
            k = np.minimum(at - bounds[case] + 1, k_max + 1)
            stream_index = np.arange(begin + 1, begin + 1 + len(at))
            issue = stream_index > ready_after[k]
            parts.append((case[issue].astype(index), k[issue].astype(bucket), stream_index[issue].astype(index)))
        issued, issued_k, issued_at = map(np.concatenate, zip(*parts))
        label_index = np.zeros(len(log), index)
        label_index[labelled] = np.arange(1, len(labelled) + 1)
        return cls(log, labelled, labelled_at, label_lengths, label_index, issued, issued_k, issued_at)


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
        step = learn
        batched = model.policy is UpdatePolicy.WINDOW_RETRAIN
        if batched:
            # Every tree a prediction reads, and the last, is known now: fit them ahead in batches.
            def gather(at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                return rows.gather(label_cases[at], k)

            trees = model.fitted_trees(np.append(labels_before, len(label_cases)), gather)

            def step(stop: int) -> None:
                nonlocal learned
                model.advance(stop - learned, trees)
                learned = stop

        while served < len(cases):
            step(int(labels_before[served]))
            change = learned + model.labels_until_change()
            serve(len(cases) if change > len(label_cases) else int(served_by[change - 1]))
        step(len(label_cases))
        if batched:
            model.fill(gather)

    if kept is not None:
        kept.append((k, issued, predicted, versions))
    resolved = record.label_index[cases]
    order = np.argsort(resolved, kind="stable")
    return 2 * predicted[order] + rows.labels[cases[order]], resolved[order]


def _write_ledger(ledger: list, record: _Record, kept: list) -> None:
    """Append every resolved pair to ``ledger`` by label index, then issuing stream index."""
    ks, issued, predicted, versions = zip(*kept)
    buckets = np.concatenate([np.full(len(part), k) for k, part in zip(ks, issued)])
    issued, predicted, versions = (np.concatenate(parts) for parts in (issued, predicted, versions))
    cases, issued_at = record.issued[issued], record.issued_at[issued]
    resolved = record.label_index[cases]
    order = np.lexsort((issued_at, resolved))
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
) -> tuple[dict[str, np.ndarray], np.ndarray]:
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
    return {metric: values[metric] for metric in metrics}, points[kept]
