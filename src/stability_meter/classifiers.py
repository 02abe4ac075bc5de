"""Binary outcome classifiers, one per bucket, under three update policies.

The three policies differ only in how they react to newly labeled cases:

* ``incremental``: a categorical naive Bayes whose counts are updated on
  every label, with bounded memory so old evidence ages out.
* ``window-retrain``: a decision tree refit from scratch on a sliding
  window of the most recent labeled samples.
* ``static``: the same tree learner fit once on the grace-period samples
  and frozen afterwards.

All learners are deterministic: identical sample streams produce identical
model states and predictions. Prediction ties break toward label 0.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import log
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NotReadyError
from .prefixing import EncodedSample


class UpdatePolicy(str, Enum):
    INCREMENTAL = "incremental"
    WINDOW_RETRAIN = "window-retrain"
    STATIC = "static"


MIN_LEAF = 5  # fewest samples a tree split may leave on either side
LAPLACE = 1.0  # naive Bayes likelihood smoothing


@dataclass(frozen=True)
class LearnerParams:
    """Hyperparameters shared by every bucket model of a run."""

    tree_depth: int = 6
    train_window: int = 200
    retrain_every: int = 1
    memory: int = 300

    def __post_init__(self) -> None:
        if self.tree_depth < 1:
            raise ConfigError("tree depth must be >= 1")
        if self.train_window < 1 or self.retrain_every < 1 or self.memory < 1:
            raise ConfigError("window sizes and retrain cadence must be >= 1")


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
    """Gini gain of each candidate; every candidate leaves rows on both sides."""
    n_left = n_left.astype(float)
    n_right = n - n_left
    ones_left = ones_left.astype(float)
    ones_right = float(ones_total) - ones_left
    p_left = ones_left / n_left
    p_right = ones_right / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    return parent - (n_left * gini_left + n_right * gini_right) / n


def _check_width(sample: EncodedSample, mask: tuple, bucket: int) -> None:
    if len(sample.features) != len(mask):
        raise ValueError(
            f"bucket-{bucket} model expects {len(mask)} features, "
            f"sample has {len(sample.features)} (encoding schema mismatch)"
        )


class DecisionTree:
    """Greedy binary classification tree using Gini impurity.

    Categorical features split on equality with a code, numeric features on
    midpoint thresholds. Candidates are enumerated in a fixed order (feature
    index, then sorted value), and the first candidate with the best gain
    wins, so fitting is fully deterministic. Splits must leave at least
    ``min_leaf`` samples on each side.

    Each node searches all features at once (histogram split finding): one
    stable sort with cumulative label counts covers the numeric columns, and
    two ``bincount`` calls over (feature, value) keys cover the categorical
    columns, whose values are coded once per fit.
    """

    def __init__(self, max_depth: int = LearnerParams.tree_depth, min_leaf: int = MIN_LEAF) -> None:
        if max_depth < 1 or min_leaf < 1:
            raise ConfigError("max_depth and min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: _Node | None = None

    def fit(
        self,
        features: Sequence[Sequence[float]],
        labels: Sequence[int],
        numeric_mask: Sequence[bool],
    ) -> "DecisionTree":
        matrix = np.asarray(features, dtype=float)
        target = np.asarray(labels, dtype=np.int64)
        if matrix.ndim != 2 or len(matrix) == 0:
            raise ValueError("fit requires a non-empty 2-D sample matrix")
        mask = np.asarray(numeric_mask, dtype=bool)
        if mask.shape != (matrix.shape[1],):
            raise ValueError(f"numeric mask has {mask.size} flags for {matrix.shape[1]} features")
        self._numeric = np.flatnonzero(mask)
        self._categorical = np.flatnonzero(~mask)
        # Code every categorical cell against one sorted table of the
        # distinct values (ascending within each column too) and offset
        # column c by c * width, so one bincount histograms them all.
        cells = matrix[:, self._categorical].T
        self._table, codes = np.unique(cells, return_inverse=True)
        self._width = len(self._table)
        offsets = np.arange(len(cells), dtype=np.int64)[:, None] * self._width
        keys = codes.reshape(cells.shape).astype(np.int64, copy=False) + offsets
        numeric = np.ascontiguousarray(matrix[:, self._numeric].T)
        self.root = self._build(numeric, keys, target, depth=0)
        return self

    def _build(self, numeric: np.ndarray, keys: np.ndarray, target: np.ndarray, depth: int) -> _Node:
        n = len(target)
        ones = int(target.sum())
        if ones == 0 or ones == n or depth >= self.max_depth or n < 2 * self.min_leaf:
            return _Node(prediction=int(ones > n - ones))
        split = self._best_split(numeric, keys, target, ones)
        if split is None:
            return _Node(prediction=int(ones > n - ones))
        node, left = split
        right = ~left
        node.left = self._build(numeric[:, left], keys[:, left], target[left], depth + 1)
        node.right = self._build(numeric[:, right], keys[:, right], target[right], depth + 1)
        return node

    def _best_split(self, numeric, keys, target, ones):
        """Best (node, left-row mask) over all features, or None.

        ``numeric`` holds one row per numeric feature and ``keys`` one row
        of offset codes per categorical feature, both in feature-index
        order. Within each block a flat ``argmax`` over the candidates,
        feature by feature in ascending value, picks the first maximum;
        between the blocks a tie goes to the lower feature index.
        """
        n = len(target)
        parent = _gini(float(ones), float(n))
        found = []
        if len(numeric):
            # A cut after sorted position i leaves i + 1 rows on the left.
            lo, hi = self.min_leaf - 1, n - self.min_leaf
            order = np.argsort(numeric, axis=1, kind="stable")
            values = np.take_along_axis(numeric, order, axis=1)
            ones_left = np.cumsum(target[order], axis=1)
            feature, cut = np.nonzero(values[:, lo:hi] != values[:, lo + 1 : hi + 1])
            if len(cut):
                cut += lo
                gains = _gains(ones_left[feature, cut], cut + 1, ones, n, parent)
                pick = int(np.argmax(gains))
                f, i = feature[pick], cut[pick]
                threshold = float((values[f, i] + values[f, i + 1]) / 2.0)
                node = _Node(feature=int(self._numeric[f]), numeric_split=True, threshold=threshold)
                found.append((gains[pick], node, numeric[f] <= threshold))
        if len(keys):
            flat = keys.ravel()
            size = len(keys) * self._width
            n_left = np.bincount(flat, minlength=size)
            ones_left = np.bincount(flat, np.broadcast_to(target, keys.shape).ravel(), size)
            cells = np.flatnonzero((n_left >= self.min_leaf) & (n_left <= n - self.min_leaf))
            if len(cells):
                gains = _gains(ones_left[cells], n_left[cells], ones, n, parent)
                pick = int(np.argmax(gains))
                c, code = divmod(int(cells[pick]), self._width)
                value = float(self._table[code])
                node = _Node(feature=int(self._categorical[c]), threshold=value)
                found.append((gains[pick], node, keys[c] == cells[pick]))
        if not found:
            return None
        _, node, left = max(found, key=lambda entry: (entry[0], -entry[1].feature))
        return node, left

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

    def observe_label(self, sample: EncodedSample) -> None:
        """Incorporate one labeled sample (the incremental update)."""
        if sample.label is None:
            raise ValueError("incremental update requires a labeled sample")
        _check_width(sample, self._mask, self.bucket)
        self._window.append((sample.features, sample.label))
        if self._frozen:
            self._count(sample.features, sample.label, +1)
        if len(self._window) > self._capacity:
            old_features, old_label = self._window.popleft()
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

    def predict(self, sample: EncodedSample) -> int:
        if not self.is_ready:
            raise NotReadyError(f"bucket-{self.bucket} incremental model has no training yet")
        _check_width(sample, self._mask, self.bucket)
        total = self._class_counts[0] + self._class_counts[1]
        scores = []
        for label in (0, 1):
            n_label = self._class_counts[label]
            if n_label == 0:
                scores.append(float("-inf"))
                continue
            score = log(n_label / total)
            for index, value in enumerate(sample.features):
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

    def predict(self, sample: EncodedSample) -> int:
        if self._tree is None:
            raise NotReadyError(f"bucket-{self.bucket} {self.policy.value} model has no training yet")
        return self._tree.predict(sample.features)

    def _fit(self, pairs: Iterable[tuple]) -> None:
        """Fit a fresh tree on (features, label) pairs and bump the version."""
        features = [entry[0] for entry in pairs]
        labels = [entry[1] for entry in pairs]
        self._tree = DecisionTree(max_depth=self._depth).fit(features, labels, self._mask)
        self.version += 1


class WindowRetrainModel(_TreeModel):
    """Decision tree refit from scratch on a sliding window of samples.

    Retraining fires on every ``retrain_every``-th labeled sample once the
    grace period is over; the first fit happens when the grace period ends.
    The stored window never exceeds ``train_window`` samples.
    """

    policy = UpdatePolicy.WINDOW_RETRAIN

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        super().__init__(bucket, numeric_mask, params)
        self._window: deque = deque(maxlen=params.train_window)
        self._retrain_every = params.retrain_every
        self._pending = 0
        self._grace_done = False

    def observe_label(self, sample: EncodedSample) -> None:
        if sample.label is None:
            raise ValueError("window update requires a labeled sample")
        _check_width(sample, self._mask, self.bucket)
        self._window.append((sample.features, sample.label))
        if not self._grace_done:
            return
        self._pending += 1
        if self._pending >= self._retrain_every:
            self.retrain()

    def retrain(self) -> None:
        """Fit a fresh tree on the current window."""
        if not self._window:
            raise NotReadyError(f"bucket-{self.bucket} training window is empty")
        self._fit(self._window)
        self._pending = 0

    def finish_grace(self) -> None:
        self._grace_done = True
        if self._window:
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
        self._grace: list[tuple] | None = []  # None once past grace

    def observe_label(self, sample: EncodedSample) -> None:
        if self._grace is None:
            return
        if sample.label is None:
            raise ValueError("training samples must be labeled")
        _check_width(sample, self._mask, self.bucket)
        self._grace.append((sample.features, sample.label))

    def finish_grace(self) -> None:
        if self._grace:
            self._fit(self._grace)
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
