"""Binary outcome classifiers, one per bucket, under three update policies.

The three policies differ only in how they react to newly labeled cases:

* ``incremental``: a categorical naive Bayes whose counts are updated on
  every label, with bounded memory so old evidence ages out.
* ``window-retrain``: a decision tree refit from scratch on a sliding
  window of the most recent labeled samples, kept as a ring buffer of
  feature rows that each fit reads in place.
* ``static``: the same tree learner fit once on the grace-period samples
  and frozen afterwards.

Every model works on feature rows, as :func:`~.prefixing.encode` gathers
them: ``predict(features)`` labels one row, and the model takes labeled
rows in blocks (``learn``), of which ``observe_label(features, label)`` is
the one-row case. It says when it can next change
(``labels_until_change``) and, from label counts alone, when it becomes
ready to predict (``labels_to_ready``), so a run can know both before any
model is trained.

All learners are deterministic: identical sample streams produce identical
model states and predictions. Prediction ties break toward label 0. The
tree depends only on the multiset of its training rows, not on their order,
and its per-node split search is exact: ``tests/oracles.py`` keeps a
one-feature-at-a-time reference that it must match tree for tree.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import log
from typing import Sequence

import numpy as np

from .errors import ConfigError, NotReadyError, require_at_least


class UpdatePolicy(str, Enum):
    INCREMENTAL = "incremental"
    WINDOW_RETRAIN = "window-retrain"
    STATIC = "static"


MIN_LEAF = 5  # fewest samples a tree split may leave on either side
LAPLACE = 1.0  # naive Bayes likelihood smoothing
_FIRST_WINDOW_ROWS = 64  # a window-retrain buffer's first size; it doubles up to train_window


@dataclass(frozen=True)
class LearnerParams:
    """Hyperparameters shared by every bucket model of a run."""

    tree_depth: int = 6
    train_window: int = 200
    retrain_every: int = 1
    memory: int = 300

    def __post_init__(self) -> None:
        require_at_least(1, **vars(self))  # every field is a count


# ---------------------------------------------------------------------------
# Decision tree learner (shared by window-retrain and static policies)
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    prediction: int | None = None
    feature: int = -1
    numeric_split: bool = False
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    def to_dict(self) -> dict:
        if self.prediction is not None:
            return {"kind": "leaf", "prediction": self.prediction}
        return {
            "kind": "num" if self.numeric_split else "cat",
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _gini(n1: float, n: float) -> float:
    p = n1 / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _gains(ones_left: np.ndarray, n_left: np.ndarray, ones_total: int, n: int, parent: float):
    """Gini gain of each candidate (float counts); every candidate leaves rows on both sides."""
    n_right = n - n_left
    ones_right = ones_total - ones_left
    p_left = ones_left / n_left
    p_right = ones_right / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    return parent - (n_left * gini_left + n_right * gini_right) / n


_NO_CANDIDATES = np.empty(0, dtype=np.int64)


def _check_width(width: int, mask: tuple, bucket: int) -> None:
    if width != len(mask):
        raise ValueError(
            f"bucket-{bucket} model expects {len(mask)} features, "
            f"row has {width} (encoding schema mismatch)"
        )


class DecisionTree:
    """Greedy binary classification tree using Gini impurity.

    Categorical features split on equality with a code, numeric features on
    midpoint thresholds. Candidates are enumerated in a fixed order (feature
    index, then sorted value), and the first candidate with the best gain
    wins, so fitting is fully deterministic. Splits must leave at least
    ``min_leaf`` samples on each side.

    Each node searches all features at once (histogram split finding): one
    sort with cumulative label counts covers the numeric columns, and two
    ``bincount`` calls over (feature, value) keys cover the categorical
    columns, whose values are coded once per fit. One gain computation
    scores both kinds of candidate. A node's row and label counts come from
    its parent's chosen split, and a child that will be a leaf is never
    sliced out, so the cost of a fit is a few numpy calls per searched node.
    """

    def __init__(self, max_depth: int = LearnerParams.tree_depth, min_leaf: int = MIN_LEAF) -> None:
        require_at_least(1, max_depth=max_depth, min_leaf=min_leaf)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: _Node | None = None

    def fit(
        self,
        features: Sequence[Sequence[float]] | np.ndarray,
        labels: Sequence[int] | np.ndarray,
        numeric_mask: Sequence[bool],
    ) -> "DecisionTree":
        matrix = np.asarray(features, dtype=float)
        target = np.asarray(labels, dtype=bool)
        if matrix.ndim != 2 or len(matrix) == 0:
            raise ValueError("fit requires a non-empty 2-D sample matrix")
        mask = np.asarray(numeric_mask, dtype=bool)
        if mask.shape != (matrix.shape[1],):
            raise ValueError(f"numeric mask has {mask.size} flags for {matrix.shape[1]} features")
        self._numeric = mask.nonzero()[0]
        self._categorical = (~mask).nonzero()[0]
        # Code every categorical cell against one sorted table of the
        # distinct values (ascending within each column too) and offset
        # column c by c * width, so one bincount histograms them all.
        cells = matrix[:, self._categorical].T
        self._table, codes = np.unique(cells, return_inverse=True)
        self._width = len(self._table)
        offsets = np.arange(len(cells), dtype=np.int64)[:, None] * self._width
        keys = codes.reshape(cells.shape).astype(np.int64, copy=False) + offsets
        numeric = np.ascontiguousarray(matrix[:, self._numeric].T)
        self._lanes = np.arange(len(numeric))[:, None]  # row index of each numeric feature
        ones = int(np.count_nonzero(target))
        self.root = self._node(numeric, keys, target, slice(None), len(target), ones, depth=0)
        return self

    def _node(self, numeric, keys, target, rows, n: int, ones: int, depth: int) -> _Node:
        """The subtree over ``rows`` of the parent's arrays: ``n`` rows, ``ones`` of label 1.

        ``numeric`` holds one row per numeric feature and ``keys`` one row
        of offset codes per categorical feature, both in feature-index
        order. The numeric cuts and then the categorical cells go into one
        gain array; ``argmax`` picks the first maximum, which within each
        block is the lowest feature and then the lowest value. A numeric
        pick yields to an equal categorical gain of a lower feature index.
        """
        if ones == 0 or ones == n or depth >= self.max_depth or n < 2 * self.min_leaf:
            return _Node(prediction=int(ones > n - ones))
        numeric, keys, target = numeric[:, rows], keys[:, rows], target[rows]
        min_leaf = self.min_leaf
        num_n = num_ones = cat_n = cat_ones = _NO_CANDIDATES
        if len(numeric):
            # A cut after sorted position lo + i leaves lo + i + 1 rows on the left.
            lo, hi = min_leaf - 1, n - min_leaf
            order = numeric.argsort(axis=1, kind="stable")
            values = numeric[self._lanes, order]
            feature, cut = (values[:, lo:hi] != values[:, lo + 1 : hi + 1]).nonzero()
            num_n = cut + min_leaf
            num_ones = target[order].cumsum(axis=1)[:, lo:hi][feature, cut]
        if len(keys):
            size = len(keys) * self._width
            counts = np.bincount(keys.ravel(), minlength=size)
            cells = ((counts >= min_leaf) & (counts <= n - min_leaf)).nonzero()[0]
            cat_n = counts[cells]
            cat_ones = np.bincount(keys[:, target].ravel(), minlength=size)[cells]
        split_n = np.concatenate((num_n, cat_n), dtype=float)
        if not len(split_n):
            return _Node(prediction=int(ones > n - ones))
        split_ones = np.concatenate((num_ones, cat_ones), dtype=float)
        gains = _gains(split_ones, split_n, ones, n, _gini(float(ones), float(n)))
        pick = int(gains.argmax())
        boundary = len(num_n)
        if pick < boundary < len(gains):
            rival = boundary + int(gains[boundary:].argmax())
            if gains[rival] == gains[pick]:
                column = int(cells[rival - boundary]) // self._width
                if self._categorical[column] < self._numeric[feature[pick]]:
                    pick = rival
        n_left, ones_left = int(split_n[pick]), int(split_ones[pick])
        if pick < boundary:
            f, i = feature[pick], lo + cut[pick]
            threshold = float((values[f, i] + values[f, i + 1]) / 2.0)
            node = _Node(feature=int(self._numeric[f]), numeric_split=True, threshold=threshold)
            left = numeric[f] <= threshold
            if not values[f, i] <= threshold < values[f, i + 1]:
                # The midpoint of adjacent doubles can round up to the upper
                # value, and a sum past the float range becomes +-inf: the
                # rows sent left are then not the cut's, so count the mask.
                n_left = int(np.count_nonzero(left))
                ones_left = int(np.count_nonzero(target[left]))
        else:
            cell = int(cells[pick - boundary])
            column, code = divmod(cell, self._width)
            node = _Node(feature=int(self._categorical[column]), threshold=float(self._table[code]))
            left = keys[column] == cell
        node.left = self._node(numeric, keys, target, left, n_left, ones_left, depth + 1)
        node.right = self._node(numeric, keys, target, ~left, n - n_left, ones - ones_left, depth + 1)
        return node

    def predict(self, features: Sequence[float]) -> int:
        if self.root is None:
            raise NotReadyError("decision tree has not been fit")
        node = self.root
        while node.prediction is None:
            value = float(features[node.feature])
            if node.numeric_split:
                node = node.left if value <= node.threshold else node.right
            else:
                node = node.left if value == node.threshold else node.right
        return node.prediction

    def to_dict(self) -> dict:
        if self.root is None:
            raise NotReadyError("decision tree has not been fit")
        return self.root.to_dict()


# ---------------------------------------------------------------------------
# Policy models
# ---------------------------------------------------------------------------


class IncrementalNaiveBayes:
    """Categorical naive Bayes updated on every label, with bounded memory.

    Counts cover the most recent ``memory`` labeled samples; evicted samples
    are subtracted so the state equals a batch recount over the window. The
    bound lets the model unlearn a stale concept at a fixed rate instead of
    needing as many new labels as it ever saw old ones.

    Numeric features are discretized into deciles estimated from the grace
    period: until :meth:`finish_grace` freezes the bin edges, samples are
    buffered and nothing is counted (models without numeric features count
    immediately).

    Scoring uses an unsmoothed class prior ``n_c / n`` and Laplace-smoothed
    per-feature likelihoods ``(count(f_i = v, c) + a) / (n_c + a * V_i)``
    where ``V_i`` is the number of distinct values of feature i currently in
    the window and ``a`` is :data:`LAPLACE`. Ties break toward label 0.
    """

    policy = UpdatePolicy.INCREMENTAL

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        self.bucket = bucket
        self.version = 0
        self._mask = tuple(bool(flag) for flag in numeric_mask)
        self._capacity = params.memory
        self._window: deque = deque()
        self._frozen = not any(self._mask)
        self._bins: dict[int, list[float]] = {}
        self._counts: list[dict[float, list[int]]] = [{} for _ in self._mask]
        self._class_counts = [0, 0]

    @property
    def is_ready(self) -> bool:
        return sum(self._class_counts) > 0

    @staticmethod
    def labels_to_ready(grace_labels: int, params: LearnerParams) -> int | None:
        """Post-grace labels before predicting: its first label, or none after grace labels."""
        return 0 if grace_labels else 1

    def labels_until_change(self) -> int | None:
        """Every label is an update."""
        return 1

    def observe_label(self, features: Sequence[float], label: int) -> None:
        """Incorporate one labeled feature row (the incremental update)."""
        self.learn(np.array([features], dtype=float), np.array([label]))

    def learn(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Incorporate labeled feature rows one after another, in order."""
        _check_width(rows.shape[1], self._mask, self.bucket)
        window = self._window
        for features, label in zip(rows.tolist(), labels.tolist()):
            window.append((features, label))
            if self._frozen:
                self._count(features, label, +1)
            if len(window) > self._capacity:
                old_features, old_label = window.popleft()
                if self._frozen:
                    self._count(old_features, old_label, -1)
            self.version += 1

    def finish_grace(self) -> None:
        """Freeze numeric decile bins on the grace samples and start counting."""
        if self._frozen:
            return
        for index, is_numeric in enumerate(self._mask):
            if not is_numeric:
                continue
            values = sorted(float(features[index]) for features, _ in self._window)
            if values:
                edges = np.quantile(values, [q / 10 for q in range(1, 10)])
                self._bins[index] = [float(edge) for edge in edges]
            else:
                self._bins[index] = []
        self._frozen = True
        for features, label in self._window:
            self._count(features, label, +1)

    def _key(self, index: int, value) -> float:
        if self._mask[index]:
            return float(bisect.bisect_right(self._bins.get(index, []), float(value)))
        return float(value)

    def _count(self, features, label: int, delta: int) -> None:
        for index, value in enumerate(features):
            key = self._key(index, value)
            entry = self._counts[index].setdefault(key, [0, 0])
            entry[label] += delta
            if entry[0] <= 0 and entry[1] <= 0:
                del self._counts[index][key]
        self._class_counts[label] += delta

    def predict(self, features: Sequence[float]) -> int:
        """The predicted label of one feature row."""
        if not self.is_ready:
            raise NotReadyError(f"bucket-{self.bucket} incremental model has no training yet")
        _check_width(len(features), self._mask, self.bucket)
        total = self._class_counts[0] + self._class_counts[1]
        scores = []
        for label in (0, 1):
            n_label = self._class_counts[label]
            if n_label == 0:
                scores.append(float("-inf"))
                continue
            score = log(n_label / total)
            for index, value in enumerate(features):
                seen = self._counts[index]
                count = seen.get(self._key(index, value), (0, 0))[label]
                score += log((count + LAPLACE) / (n_label + LAPLACE * len(seen)))
            scores.append(score)
        return int(scores[1] > scores[0])


class _TreeModel:
    """A bucket's decision tree; the subclass decides what it is fit on and when.

    The tree policies stay siblings: the benchmark tracer wraps each policy
    class's methods by name, and a policy subclassing another would have
    its inherited methods wrapped twice.
    """

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        self.bucket = bucket
        self.version = 0
        self._mask = tuple(bool(flag) for flag in numeric_mask)
        self._depth = params.tree_depth
        self._tree: DecisionTree | None = None

    @property
    def is_ready(self) -> bool:
        return self._tree is not None

    def predict(self, features: Sequence[float]) -> int:
        """The predicted label of one feature row."""
        if self._tree is None:
            raise NotReadyError(f"bucket-{self.bucket} {self.policy.value} model has no training yet")
        return self._tree.predict(features)

    def observe_label(self, features: Sequence[float], label: int) -> None:
        """Learn one labeled feature row: ``learn`` of a one-row block."""
        self.learn(np.array([features], dtype=float), np.array([label]))

    def _fit(self, features, labels) -> None:
        """Fit a fresh tree on aligned features and labels and bump the version."""
        self._tree = DecisionTree(max_depth=self._depth).fit(features, labels, self._mask)
        self.version += 1


class WindowRetrainModel(_TreeModel):
    """Decision tree refit from scratch on a sliding window of samples.

    The first fit happens when the grace period ends; after it, every
    ``retrain_every``-th labeled sample is a cadence point. A block of labels
    that passes several fits one tree, at the last, while ``version`` counts each.
    The window is a ring buffer of at most ``train_window`` feature rows and
    labels: each block of labeled rows overwrites the oldest slots once the
    window is full, and a fit reads the filled slots as they lie, since row
    order does not change the tree. The buffer grows by doubling up to
    ``train_window`` rows, so a large window costs only what it holds.
    """

    policy = UpdatePolicy.WINDOW_RETRAIN

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        super().__init__(bucket, numeric_mask, params)
        self._train_window = params.train_window
        rows = min(params.train_window, _FIRST_WINDOW_ROWS)
        self._rows = np.empty((rows, len(self._mask)))
        self._labels = np.empty(rows, dtype=np.int64)
        self._seen = 0  # labeled samples written so far
        self._retrain_every = params.retrain_every
        self._pending = 0
        self._grace_done = False

    @staticmethod
    def labels_to_ready(grace_labels: int, params: LearnerParams) -> int | None:
        """Post-grace labels before predicting: none after grace labels, else a cadence's worth."""
        return 0 if grace_labels else params.retrain_every

    def labels_until_change(self) -> int | None:
        """Labels until the next retrain (after grace; before it, only ``finish_grace`` fits)."""
        return self._retrain_every - self._pending

    def learn(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Add labeled rows to the window in order, fitting once, at the last cadence point they pass."""
        _check_width(rows.shape[1], self._mask, self.bucket)
        cut = 0
        if self._grace_done:
            passed, pending = divmod(self._pending + len(rows), self._retrain_every)
            if passed:
                cut = len(rows) - pending
                self._write(rows[:cut], labels[:cut])
                self.retrain()
                self.version += passed - 1
            self._pending = pending
        self._write(rows[cut:], labels[cut:])

    def _write(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Write the rows into the oldest slots; only the last ``train_window`` of them stay."""
        capacity = self._train_window
        skipped = max(len(rows) - capacity, 0)
        rows, labels = rows[skipped:], labels[skipped:]
        self._seen += skipped
        size = len(self._labels)
        needed = min(self._seen + len(rows), capacity)
        if needed > size:
            while size < needed:
                size = min(2 * size, capacity)
            grown = size - len(self._labels)
            self._rows = np.concatenate((self._rows, np.empty((grown, len(self._mask)))))
            self._labels = np.concatenate((self._labels, np.empty(grown, dtype=np.int64)))
        slot = self._seen % capacity
        first = min(len(rows), capacity - slot)
        self._rows[slot : slot + first] = rows[:first]
        self._labels[slot : slot + first] = labels[:first]
        self._rows[: len(rows) - first] = rows[first:]
        self._labels[: len(rows) - first] = labels[first:]
        self._seen += len(rows)

    def retrain(self) -> None:
        """Fit a fresh tree on the current window."""
        if not self._seen:
            raise NotReadyError(f"bucket-{self.bucket} training window is empty")
        filled = min(self._seen, self._train_window)
        self._fit(self._rows[:filled], self._labels[:filled])
        self._pending = 0

    def finish_grace(self) -> None:
        self._grace_done = True
        if self._seen:
            self.retrain()


class StaticModel(_TreeModel):
    """Decision tree trained once on the grace samples, then frozen.

    Labeled samples seen before the end of the grace period are collected as
    the grace set; samples seen afterwards are ignored and do not change the
    version. A bucket with no grace samples is never trained.
    """

    policy = UpdatePolicy.STATIC

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        super().__init__(bucket, numeric_mask, params)
        self._grace: list[tuple] | None = []  # blocks of (rows, labels); None once past grace

    @staticmethod
    def labels_to_ready(grace_labels: int, params: LearnerParams) -> int | None:
        """Ready at the end of grace if it had grace labels; otherwise never."""
        return 0 if grace_labels else None

    def labels_until_change(self) -> int | None:
        """No label changes the model: after grace it ignores them."""
        return None

    def learn(self, rows: np.ndarray, labels: np.ndarray) -> None:
        """Collect labeled rows into the grace set; after grace, ignore them."""
        if self._grace is None:
            return
        _check_width(rows.shape[1], self._mask, self.bucket)
        if len(rows):
            self._grace.append((rows, labels))

    def finish_grace(self) -> None:
        if self._grace:
            rows, labels = zip(*self._grace)
            self._fit(np.concatenate(rows), np.concatenate(labels))
        self._grace = None


OutcomeModel = IncrementalNaiveBayes | WindowRetrainModel | StaticModel
MODELS = {model.policy: model for model in (IncrementalNaiveBayes, WindowRetrainModel, StaticModel)}


def model_class(policy: UpdatePolicy | str) -> type[OutcomeModel]:
    """The model class of an update policy; an unknown one is a ``ConfigError``."""
    try:
        return MODELS[UpdatePolicy(policy)]
    except ValueError:
        expected = ", ".join(known.value for known in UpdatePolicy)
        raise ConfigError(f"unknown model {policy!r}; expected one of {expected}") from None
