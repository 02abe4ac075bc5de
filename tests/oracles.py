"""Independent brute-force reference implementations used by the tests.

Everything here recomputes each window from scratch; nothing is shared
with the package's code paths. ``brute_*`` use plain Python and
``math.fsum`` precision. ``loop_moving_stats`` is the per-point numpy loop
the package used before it vectorised the full windows, kept as the
bit-exact reference for that change. ``ReferenceTree`` is the Gini tree
that searched splits one feature at a time, kept as the reference for the
per-node split search. ``ReferenceWindowRetrain`` is the window-retrain
policy over a deque of rows, fitting a ``ReferenceTree`` at cadence points,
kept as the reference for the model that learns through its fit-ahead
path. ``dict_reader_parse_log``, ``tuple_replay`` and
``scratch_encode`` are the log parser, replay and prefix encoder the package
used before it stored events compactly and gathered prefix rows from the
log's columns, kept as the references for those changes; they read
attributes through ``attribute_map``, not ``Event.attribute``, and code
text with ``TextCodec``, which numbers texts by first appearance in the CSV
text, read apart from the parsed log's string table.
``event_replay``, ``EvalWindow``, ``loop_metrics`` and ``reference_run_stream``
are the replay that built an ``Event`` per item and the run loop that kept a
window per bucket and computed every point's metrics as its label arrived,
kept as the references for the run loop that keeps only integers.
``reference_record`` is that run loop's recording pass, which walked the
replay event by event, kept as the reference for the pass that derives the
same integers from the log's arrays.
``fstring_rows`` is the per-row formatter of ``performance.csv`` rows that
``SeriesReport.rows`` replaced with one ``repr`` per distinct float.
``Event``, ``Trace``, ``log_events`` and ``trace_views`` are the object form
of a log that the package kept next to its columns until it read columns
only: ``trace_views(log)`` builds each parsed case as a ``Trace`` of
``Event``s, for the references above that read events and for the parser
tests that compare cases event by event.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from math import fsum, isfinite
from pathlib import Path

import numpy as np

from stability_meter.classifiers import MIN_LEAF, LearnerParams, model_class
from stability_meter.errors import EmptyLogError, LogFormatError, LogValueError
from stability_meter.evaluation import METRICS, PerformanceSeries, ResolvedPair
from stability_meter.event_model import REQUIRED_COLUMNS, _parse_label, _parse_timestamp
from stability_meter.prefixing import MISSING_CODE
from stability_meter.stability import MovingStats


def loop_moving_stats(points, window):
    """Per-point (ma, phi) arrays, one numpy reduction per point.

    Same arithmetic as the package's moving statistics: pairwise-summed
    ``mean`` over each window, population std, and a constant window gives
    ma = its first value and phi = exactly 0.
    """
    series = np.asarray(points, dtype=float)
    n = len(series)
    ma = np.empty(n)
    phi = np.empty(n)
    for i in range(n):
        view = series[max(0, i - window + 1) : i + 1]
        if view.max() == view.min():
            ma[i] = view[0]
            phi[i] = 0.0
        else:
            mean = view.mean()
            ma[i] = mean
            phi[i] = math.sqrt(((view - mean) ** 2).mean())
    return ma, phi


def loop_drop_runs(below):
    """(start, end) inclusive index pairs of the maximal True runs, walked one by one."""
    runs = []
    i = 0
    n = len(below)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and below[j + 1]:
            j += 1
        runs.append((i, j))
        i = j + 1
    return runs


def brute_moving_stats(points, window):
    """Per-point (ma, phi, lb, ub) recomputed from scratch at every index."""
    values = [float(p) for p in points]
    ma, phi = [], []
    for i in range(len(values)):
        chunk = values[max(0, i - window + 1) : i + 1]
        if max(chunk) == min(chunk):
            mean, std = chunk[0], 0.0
        else:
            mean = fsum(chunk) / len(chunk)
            std = math.sqrt(fsum((x - mean) ** 2 for x in chunk) / len(chunk))
        ma.append(mean)
        phi.append(std)
    lb = [m - s for m, s in zip(ma, phi)]
    ub = [m + s for m, s in zip(ma, phi)]
    return ma, phi, lb, ub


def stats_from_ma_phi(ma, phi):
    """``MovingStats`` assembled from supplied ma/phi values, not computed ones."""
    ma, phi = np.asarray(ma, dtype=float), np.asarray(phi, dtype=float)
    return MovingStats(ma=ma, phi=phi)


def brute_drop_runs(points, window):
    """Maximal runs of indices with p_i strictly below its lower bound.

    Matches the production guard: margins within 1e-12 (relative) of zero
    sit on the bound and do not count as drops.
    """
    values = [float(p) for p in points]
    _, _, lb, _ = brute_moving_stats(values, window)
    runs = []
    current = None
    for i, value in enumerate(values):
        if value < lb[i] - 1e-12 * max(1.0, abs(lb[i])):
            if current is None:
                current = [i, i]
            else:
                current[1] = i
        elif current is not None:
            runs.append(tuple(current))
            current = None
    if current is not None:
        runs.append(tuple(current))
    return runs


def brute_meta(points, window):
    """drop count, volatility, max/avg magnitude, recovery rate, drop indices."""
    values = [float(p) for p in points]
    ma, phi, _, _ = brute_moving_stats(values, window)
    runs = brute_drop_runs(values, window)
    magnitudes = [abs(values[i] - ma[i]) for start, end in runs for i in range(start, end + 1)]
    count = len(runs)
    return {
        "drops": count,
        "volatility": fsum(phi) / len(phi),
        "max_magnitude": max(magnitudes) if count else None,
        "avg_magnitude": fsum(magnitudes) / len(magnitudes) if count else None,
        "recovery_rate": fsum(float(end - start + 1) for start, end in runs) / count if count else None,
        "runs": runs,
        "total_drop_points": len(magnitudes),
    }


def confusion_metrics(pairs):
    """Accuracy/precision/recall/f1 recomputed from a list of (pred, actual)."""
    tp = sum(1 for p, a in pairs if p == 1 and a == 1)
    fp = sum(1 for p, a in pairs if p == 1 and a == 0)
    fn = sum(1 for p, a in pairs if p == 0 and a == 1)
    tn = sum(1 for p, a in pairs if p == 0 and a == 0)
    n = len(pairs)
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def nb_posterior_scores(samples, features, alpha=1.0, bins=None, numeric_mask=None):
    """Log posterior scores of a categorical naive Bayes, recounted batch-style.

    ``samples`` is a list of (features, label). Numeric positions (per
    ``numeric_mask``) are binned by counting how many of the feature's
    ``bins`` edges are <= value, mirroring decile discretization.
    """
    numeric_mask = numeric_mask or [False] * len(features)
    bins = bins or {}

    def key(index, value):
        if numeric_mask[index]:
            edges = bins.get(index, [])
            return float(sum(1 for edge in edges if value >= edge))
        return float(value)

    n_class = [0, 0]
    counts = [dict() for _ in features]
    for feats, label in samples:
        n_class[label] += 1
        for index, value in enumerate(feats):
            entry = counts[index].setdefault(key(index, value), [0, 0])
            entry[label] += 1

    total = sum(n_class)
    scores = []
    for label in (0, 1):
        if n_class[label] == 0:
            scores.append(float("-inf"))
            continue
        score = math.log(n_class[label] / total)
        for index, value in enumerate(features):
            seen = counts[index]
            count = seen.get(key(index, value), (0, 0))[label]
            score += math.log((count + alpha) / (n_class[label] + alpha * len(seen)))
        scores.append(score)
    return scores


def _ref_gini(n1, n):
    p = n1 / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class ReferenceTree:
    """Greedy Gini tree that searches splits one feature at a time.

    Candidates are visited in feature-index order, then by ascending value;
    a feature replaces the best so far only with a strictly larger gain, and
    within a feature the first maximum wins. ``to_dict`` has the package
    tree's node layout.
    """

    def __init__(self, max_depth=6, min_leaf=5):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root = None

    def fit(self, features, labels, numeric_mask):
        matrix = np.asarray(features, dtype=float)
        target = np.asarray(labels, dtype=np.int64)
        mask = np.asarray(numeric_mask, dtype=bool)
        self.root = self._build(matrix, target, mask, depth=0)
        return self

    def to_dict(self):
        return self.root

    def _build(self, matrix, target, mask, depth):
        n = len(target)
        ones = int(target.sum())
        leaf = {"kind": "leaf", "prediction": int(ones > n - ones)}
        if ones == 0 or ones == n or depth >= self.max_depth or n < 2 * self.min_leaf:
            return leaf
        split = self._best_split(matrix, target, mask)
        if split is None:
            return leaf
        feature, numeric_split, threshold, left_rows = split
        return {
            "kind": "num" if numeric_split else "cat",
            "feature": feature,
            "threshold": threshold,
            "left": self._build(matrix[left_rows], target[left_rows], mask, depth + 1),
            "right": self._build(matrix[~left_rows], target[~left_rows], mask, depth + 1),
        }

    def _best_split(self, matrix, target, mask):
        n = len(target)
        parent = _ref_gini(float(target.sum()), float(n))
        best_gain = -np.inf
        best = None
        for feature in range(matrix.shape[1]):
            column = matrix[:, feature]
            if mask[feature]:
                found = self._numeric_candidates(column, target, n, parent)
            else:
                found = self._categorical_candidates(column, target, n, parent)
            if found is not None and found[0] > best_gain:
                best_gain, threshold, left_rows = found
                best = (feature, bool(mask[feature]), threshold, left_rows)
        return best

    def _numeric_candidates(self, column, target, n, parent):
        order = np.argsort(column, kind="stable")
        values = column[order]
        ones = np.cumsum(target[order])
        cuts = np.nonzero(values[:-1] != values[1:])[0]
        if len(cuts) == 0:
            return None
        n_left = cuts + 1
        n_right = n - n_left
        valid = (n_left >= self.min_leaf) & (n_right >= self.min_leaf)
        if not valid.any():
            return None
        gains = self._gains(ones[cuts], n_left, float(ones[-1]), n, parent)
        gains[~valid] = -np.inf
        pick = int(np.argmax(gains))
        threshold = float((values[cuts[pick]] + values[cuts[pick] + 1]) / 2.0)
        return float(gains[pick]), threshold, column <= threshold

    def _categorical_candidates(self, column, target, n, parent):
        values, inverse = np.unique(column, return_inverse=True)
        if len(values) < 2:
            return None
        n_left = np.bincount(inverse)
        ones_left = np.bincount(inverse, weights=target.astype(float))
        n_right = n - n_left
        valid = (n_left >= self.min_leaf) & (n_right >= self.min_leaf)
        if not valid.any():
            return None
        gains = self._gains(ones_left, n_left, float(target.sum()), n, parent)
        gains[~valid] = -np.inf
        pick = int(np.argmax(gains))
        value = float(values[pick])
        return float(gains[pick]), value, column == value

    @staticmethod
    def _gains(ones_left, n_left, ones_total, n, parent):
        n_left = n_left.astype(float)
        n_right = n - n_left
        ones_left = ones_left.astype(float)
        ones_right = ones_total - ones_left
        with np.errstate(divide="ignore", invalid="ignore"):
            p_left = ones_left / n_left
            p_right = ones_right / n_right
            gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
            gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
            weighted = (n_left * gini_left + n_right * gini_right) / n
        return parent - np.nan_to_num(weighted, nan=np.inf)


class ReferenceWindowRetrain:
    """The window-retrain policy over a deque of the last ``train_window`` rows.

    The first tree is fit when the grace period ends; after it, every
    ``retrain_every``-th labeled row is a cadence point. A block of rows
    that passes several fits one ``ReferenceTree``, on the window at the
    last of them, while ``version`` counts each. ``tree`` is the tree's
    dict, and ``predict`` walks it.
    """

    def __init__(self, bucket, numeric_mask, params=LearnerParams()):
        self.bucket = bucket
        self.numeric_mask = tuple(numeric_mask)
        self.params = params
        self.window = deque(maxlen=params.train_window)  # (row, label) pairs in label order
        self.version = 0
        self.pending = 0  # labels since the last cadence point
        self.grace_done = False
        self.tree = None

    @property
    def is_ready(self):
        return self.tree is not None

    def labels_until_change(self):
        return self.params.retrain_every - self.pending

    def learn(self, rows, labels):
        fit_on = None
        for row, label in zip(rows, labels):
            self.window.append((tuple(float(value) for value in row), int(label)))
            if self.grace_done:
                self.pending += 1
                if self.pending == self.params.retrain_every:
                    self.pending = 0
                    self.version += 1
                    fit_on = list(self.window)
        if fit_on is not None:
            self._fit(fit_on)

    def observe_label(self, features, label):
        self.learn([features], [label])

    def finish_grace(self):
        self.grace_done = True
        if self.window:
            self.version += 1
            self._fit(list(self.window))

    def _fit(self, samples):
        rows, labels = zip(*samples)
        tree = ReferenceTree(max_depth=self.params.tree_depth, min_leaf=MIN_LEAF)
        self.tree = tree.fit(rows, labels, self.numeric_mask).to_dict()

    def predict(self, features):
        return walk_tree_dict(self.tree, features)


def walk_tree_dict(tree, features):
    """The label a tree dict (``ReferenceTree.to_dict()``'s layout) gives one feature row.

    A numeric split sends the row left when its value is ``<=`` the
    threshold, so a NaN threshold sends every row right; a categorical split
    sends it left on ``==``, where -0.0 equals 0.0.
    """
    node = tree
    while node["kind"] != "leaf":
        value = float(features[node["feature"]])
        left = value <= node["threshold"] if node["kind"] == "num" else value == node["threshold"]
        node = node["left"] if left else node["right"]
    return node["prediction"]


@dataclass(frozen=True, slots=True)
class Event:
    """One activity occurrence within a case.

    ``timestamp`` is normalized to integer milliseconds. ``position`` is the
    1-based index of the event within its case. ``row`` is the physical line
    the event came from (header = line 1) and breaks timestamp ties in the
    stream. ``values`` holds the attribute values aligned with ``names``:
    float for numeric columns, str otherwise, ``None`` for an empty cell.
    """

    case_id: str
    activity: str
    timestamp: int
    position: int
    names: tuple[str, ...] = ()
    values: tuple = ()
    row: int = 0

    def attribute(self, name: str):
        """The value of attribute ``name``, or None when absent or empty."""
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            return None


@dataclass
class Trace:
    """A case's ordered event sequence with its binary outcome label."""

    case_id: str
    events: list[Event]
    label: int

    def __len__(self) -> int:
        return len(self.events)


def log_events(log, at, case):
    """The ``Event``s at indices ``at`` of a parsed log's columns, which belong to the cases ``case``.

    Every event shares the log's tuple of attribute names and reads each text
    from its string table.
    """
    names, case_ids, strings = log.names, log.case_ids, log.strings
    cells = []
    for column, mask in zip(log.columns, log.missing):
        if mask is None:
            cells.append(map(strings.__getitem__, column[at].tolist()))
        else:
            numbers = column[at].tolist()
            for empty in np.flatnonzero(mask[at]).tolist():
                numbers[empty] = None
            cells.append(numbers)
    for case_at, activity, timestamp, position, row, values in zip(
        case.tolist(),
        map(strings.__getitem__, log.activity[at].tolist()),
        log.timestamp[at].tolist(),
        (at - log.bounds[case] + 1).tolist(),
        log.row[at].tolist(),
        zip(*cells) if cells else repeat(()),
    ):
        yield Event(case_ids[case_at], activity, timestamp, position, names, values, row)


def trace_views(log):
    """A parsed log's cases as ``Trace``s, in case order, each with its ``Event``s."""
    at = np.arange(len(log.order))
    case = np.repeat(np.arange(len(log)), log.lengths())
    events = list(log_events(log, at, case))
    return [
        Trace(case_id, events[start:stop], label)
        for case_id, label, start, stop in zip(
            log.case_ids, log.labels, log.bounds[:-1].tolist(), log.bounds[1:].tolist()
        )
    ]


def _is_decimal(text):
    """Whether a stripped cell is numeric: ASCII text with no ``_`` that ``float()`` reads."""
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
        return True
    except ValueError:
        return False


def dict_reader_parse_log(source):
    """Parse a CSV event log with ``csv.DictReader``, one dict per row."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return dict_reader_parse_log(handle)

    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise EmptyLogError("log is empty (no header row)")
    for column in REQUIRED_COLUMNS:
        if column not in reader.fieldnames:
            raise LogFormatError(f"missing required column '{column}'")
    attr_names = [name for name in reader.fieldnames if name not in REQUIRED_COLUMNS]
    names = tuple(dict.fromkeys(attr_names))

    rows = []
    numeric = {name: True for name in attr_names}
    for record in reader:
        row = reader.line_num
        case_id = (record["case_id"] or "").strip()
        if not case_id:
            raise LogValueError(f"row {row}: empty case_id")
        activity = record["activity"] or ""
        if not activity.strip():
            raise LogValueError(f"row {row}: empty activity")
        timestamp = _parse_timestamp(record["timestamp"] or "", row)
        label = _parse_label(record["label"] or "", row)
        attrs = {}
        for name in attr_names:
            value = record.get(name)
            if value is None or value.strip() == "":
                continue
            attrs[name] = value.strip()
            if not _is_decimal(attrs[name]):
                numeric[name] = False
        rows.append((case_id, activity, timestamp, label, attrs, row))
    if not rows:
        raise EmptyLogError("log contains no events")

    by_case = {}
    for item in rows:
        by_case.setdefault(item[0], []).append(item)

    traces = []
    for case_id, case_rows in by_case.items():
        case_rows.sort(key=lambda item: (item[2], item[5]))
        labels = {item[3] for item in case_rows if item[3] is not None}
        if not labels:
            raise LogValueError(f"case {case_id!r} has no label")
        if len(labels) > 1:
            raise LogValueError(f"case {case_id!r} has conflicting labels {sorted(labels)}")
        events = []
        for position, (_, activity, timestamp, _, attrs, row) in enumerate(case_rows, start=1):
            typed = {}
            for name, value in attrs.items():
                if numeric[name]:
                    number = float(value)
                    if not isfinite(number):
                        raise LogValueError(
                            f"row {row}: numeric column {name!r} has non-finite value {value!r}"
                        )
                    typed[name] = number
                else:
                    typed[name] = value
            events.append(
                Event(
                    case_id=case_id,
                    activity=activity,
                    timestamp=timestamp,
                    position=position,
                    names=names,
                    values=tuple(typed.get(name) for name in names),
                    row=row,
                )
            )
        traces.append(Trace(case_id=case_id, events=events, label=labels.pop()))
    return traces


@dataclass(frozen=True)
class EventItem:
    """A replayed event; carries the case label iff it closes the case."""

    event: Event
    is_case_end: bool
    label: int | None = None


def event_replay(log):
    """Replay a parsed log in ``log.order``, building each ``Event`` as it is yielded."""
    bounds, labels = log.bounds, log.labels
    for start in range(0, len(log.order), 1024):
        at = log.order[start : start + 1024]
        case = np.searchsorted(bounds, at, side="right") - 1
        ends = (at + 1 == bounds[case + 1]).tolist()
        for event, case_at, is_end in zip(log_events(log, at, case), case.tolist(), ends):
            if is_end:
                yield EventItem(event=event, is_case_end=True, label=labels[case_at])
            else:
                yield EventItem(event=event, is_case_end=False)


def tuple_replay(traces):
    """Replay through one (timestamp, row, event, is_end, label) tuple per event."""
    entries = []
    for trace in traces:
        last = len(trace.events)
        for event in trace.events:
            is_end = event.position == last
            entries.append((event.timestamp, event.row, event, is_end, trace.label))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    for _, _, event, is_end, label in entries:
        yield EventItem(event=event, is_case_end=is_end, label=label if is_end else None)


@dataclass(frozen=True)
class Prefix:
    """The first k events of a case."""

    case_id: str
    k: int
    events: tuple


def attribute_map(event):
    """``{name: value}`` of the event's non-empty attributes, in name order."""
    return {
        name: value for name, value in zip(event.names, event.values, strict=True) if value is not None
    }


class TextCodec:
    """Table from categorical text to code: 1, 2, ... by first appearance in the CSV text.

    Numbers the texts itself, with ``csv.DictReader``, as ``parse_log`` is
    meant to number its string table: row by row, the activity (as written)
    before each attribute column's stripped cell. A column that reads as
    numbers holds no code until its first other text; then its earlier cells
    are coded in row order, just before that text. An empty cell is never
    coded. ``numeric`` maps each attribute column to its kind: numeric when
    it reads as numbers to the end and holds at least one.
    """

    def __init__(self, text):
        self._codes = {}
        reader = csv.DictReader(io.StringIO(text))
        attr_names = [name for name in dict.fromkeys(reader.fieldnames) if name not in REQUIRED_COLUMNS]
        numeric_texts = {name: [] for name in attr_names}  # None once the column is categorical
        for record in reader:
            self._add(record["activity"])
            for name in attr_names:
                value = (record.get(name) or "").strip()
                earlier = numeric_texts[name]
                if earlier is None:
                    self._add(value)
                elif _is_decimal(value) or not value:
                    earlier.append(value)
                else:
                    for cell in earlier + [value]:
                        self._add(cell)
                    numeric_texts[name] = None
        self.numeric = {name: texts is not None and any(texts) for name, texts in numeric_texts.items()}

    def _add(self, text):
        if text and text not in self._codes:
            self._codes[text] = len(self._codes) + 1

    def code(self, text):
        return self._codes[text]

    def texts(self):
        """The coded texts, in code order."""
        return list(self._codes)


def scratch_encode(prefix, attrs, codec):
    """The feature tuple of a prefix's index-based encoding, coding every event from scratch.

    ``attrs`` names the encoded attributes; ``codec`` gives their kinds.
    """
    features = [codec.code(event.activity) for event in prefix.events]
    for event in prefix.events:
        attributes = attribute_map(event)
        for name in attrs:
            is_numeric = codec.numeric[name]
            value = attributes.get(name)
            if value is None:
                features.append(0.0 if is_numeric else MISSING_CODE)
            elif is_numeric:
                features.append(float(value))
            else:
                features.append(codec.code(str(value)))
    return tuple(features)


def loop_metrics(tp, fp, fn, tn):
    """Accuracy/precision/recall/f1 of one confusion matrix, in Python floats."""
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


class EvalWindow:
    """Ring of the most recent resolved (predicted, actual) pairs of a bucket."""

    def __init__(self, bucket, capacity):
        self.bucket = bucket
        self.capacity = capacity
        self.entries = deque()
        self._tp = self._fp = self._fn = self._tn = 0

    def __len__(self):
        return len(self.entries)

    def add(self, predicted, actual):
        self.entries.append((predicted, actual))
        self._bump(predicted, actual, +1)
        if len(self.entries) > self.capacity:
            old_predicted, old_actual = self.entries.popleft()
            self._bump(old_predicted, old_actual, -1)

    def _bump(self, predicted, actual, delta):
        if actual == 1:
            if predicted == 1:
                self._tp += delta
            else:
                self._fn += delta
        elif predicted == 1:
            self._fp += delta
        else:
            self._tn += delta

    def counts(self):
        return (self._tp, self._fp, self._fn, self._tn)


def reference_run_stream(
    stream, codec, policy, buckets, grace=200, eval_window=100, metrics=METRICS, eval_every=1,
    attrs=(), params=LearnerParams(), ledger=None,
):
    """The run loop over :class:`EventItem`s: a window per bucket, metrics per label.

    Encodes each prefix from scratch with ``codec``, a ``TextCodec`` of the
    replayed log. Returns the series keyed by (bucket, metric), the number
    of labels and the models, trained one labeled sample at a time; the
    window-retrain models are ``ReferenceWindowRetrain``. Each attribute of
    ``attrs`` is numeric or categorical as ``codec`` reads its column.
    """
    model_type = ReferenceWindowRetrain if policy == "window-retrain" else model_class(policy)
    numeric = [codec.numeric[name] for name in attrs]
    models = {k: model_type(k, [False] * k + numeric * k, params) for k in buckets.buckets()}
    windows = {k: EvalWindow(k, eval_window) for k in buckets.buckets()}
    series = {
        (k, metric): PerformanceSeries(bucket=k, metric=metric, values=[], label_indices=[])
        for k in buckets.buckets()
        for metric in metrics
    }
    open_cases = {}
    pending = {}
    labels_seen = 0
    grace_done = False

    for stream_index, item in enumerate(stream, start=1):
        case_id = item.event.case_id
        events = open_cases.setdefault(case_id, [])
        events.append(item.event)
        k = len(events)

        if grace_done and buckets.k_min <= k <= buckets.k_max:
            model = models[k]
            if model.is_ready:
                features = scratch_encode(Prefix(case_id, k, tuple(events)), attrs, codec)
                pending.setdefault(case_id, []).append(
                    (k, model.predict(features), model.version, stream_index)
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
            prefix = Prefix(case_id, train_k, tuple(events[:train_k]))
            models[train_k].observe_label(scratch_encode(prefix, attrs, codec), label)
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
            values = loop_metrics(*window.counts())
            for metric in metrics:
                series[(eval_k, metric)].values.append(values[metric])
                series[(eval_k, metric)].label_indices.append(labels_seen)

    return series, labels_seen, models


def labels_to_ready(policy, grace_labels, params):
    """Post-grace labels a bucket's ``policy`` model learns before it predicts; None for never.

    A model that learned ``grace_labels > 0`` labels during grace is ready
    at its end. Without one, naive Bayes is ready at its first label,
    window-retrain at its first cadence point, and static never.
    """
    if grace_labels:
        return 0
    return {"incremental": 1, "window-retrain": params.retrain_every, "static": None}[policy]


def reference_record(log, policy, buckets, grace, params):
    """The labels and issued predictions of a run as a walk over :func:`event_replay`, as integer columns by name.

    ``labelled``, ``labelled_at``, ``label_lengths`` and ``label_index`` are
    ``_Record``'s columns; ``issued``, ``issued_k`` and ``issued_at`` hold
    each issued prediction's case, bucket and stream index. A bucket's
    readiness is counted down label by label: once grace ends, its
    :func:`labels_to_ready` need, then one less at each later label of a
    case at least as long as the bucket. A prediction at an event is issued
    before the event's label.
    """
    case_index = {case_id: index for index, case_id in enumerate(log.case_ids)}
    case_lengths = [len(trace) for trace in log]
    labelled, labelled_at, issued, issued_k, issued_at = [], [], [], [], []
    ready = [False] * (buckets.k_max + 1)  # ready[k]: bucket k's model predicts
    waiting = {}  # bucket -> post-grace labels it needs to be ready
    for stream_index, item in enumerate(event_replay(log), start=1):
        case, k = case_index[item.event.case_id], item.event.position
        if k <= buckets.k_max and ready[k]:
            issued.append(case)
            issued_k.append(k)
            issued_at.append(stream_index)
        if not item.is_case_end:
            continue
        labelled.append(case)
        labelled_at.append(stream_index)
        for bucket in [bucket for bucket in waiting if bucket <= k]:
            waiting[bucket] -= 1
            if not waiting[bucket]:
                del waiting[bucket]
                ready[bucket] = True
        if len(labelled) == grace:
            lengths = [case_lengths[case] for case in labelled]
            for bucket in buckets.buckets():
                need = labels_to_ready(policy, sum(length >= bucket for length in lengths), params)
                if need == 0:
                    ready[bucket] = True
                elif need is not None:
                    waiting[bucket] = need
    label_index = [0] * len(log)
    for index, case in enumerate(labelled, start=1):
        label_index[case] = index
    return {
        "labelled": labelled,
        "labelled_at": labelled_at,
        "label_lengths": [case_lengths[case] for case in labelled],
        "label_index": label_index,
        "issued": issued,
        "issued_k": issued_k,
        "issued_at": issued_at,
    }


def fstring_rows(annotation):
    """Each point's ``value,ma,std,lb,ub,is_drop,drop_id`` CSV fields, one f-string per row."""
    return [
        f"{value!r},{ma!r},{std!r},{lb!r},{ub!r},"
        + (f"true,{drop_id}" if drop_id else "false,")
        for value, ma, std, lb, ub, drop_id in zip(
            annotation.value.tolist(),
            annotation.ma.tolist(),
            annotation.std.tolist(),
            annotation.lb.tolist(),
            annotation.ub.tolist(),
            annotation.drop_id.tolist(),
        )
    ]
