"""Binary outcome classifiers, one per bucket, under three update policies.

The three policies differ only in how they react to newly labeled cases:

* ``incremental``: a categorical naive Bayes whose counts are updated on
  every label, with bounded memory so old evidence ages out.
* ``window-retrain``: a decision tree refit from scratch on a sliding
  window of the most recent labeled samples, held in label order. A run
  knows every window its predictions read before it fits any, so it fits a
  bucket's trees ahead, in batches, with one search (:func:`fit_windows`),
  and the model takes each tree at its cadence point; learning a block
  after grace takes the same path.
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
and its split search is exact: ``tests/oracles.py`` keeps a
one-feature-at-a-time reference that every tree must match, whether it was
grown alone or in a batch of windows.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import floor, log
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, NotReadyError, require_at_least


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


def _gains(ones_left: np.ndarray, n_left: np.ndarray, ones: np.ndarray, n: np.ndarray, parent: np.ndarray):
    """Gini gain of each candidate, from float arrays of equal shape; overwrites all but ``n``.

    ``ones`` and ``n`` are the candidate's node's label-1 and row counts and
    ``parent`` its Gini impurity. Every candidate leaves rows on both sides.
    The float operations are those of the scalar formula, in its order.
    """
    ones_right = np.subtract(ones, ones_left, out=ones)
    left = _weighted_gini(ones_left, n_left)
    n_right = np.subtract(n, n_left, out=n_left)
    left += _weighted_gini(ones_right, n_right)
    left /= n
    return np.subtract(parent, left, out=parent)


def _weighted_gini(ones: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``count * gini`` of each side, in ``ones``'s storage: ``1 - p**2 - (1 - p)**2`` with ``p = ones / count``."""
    p = np.divide(ones, count, out=ones)
    rest = np.subtract(1.0, p)
    rest *= rest
    p *= p
    np.subtract(1.0, p, out=p)
    p -= rest
    p *= count
    return p


def _check_width(width: int, mask: tuple, bucket: int) -> None:
    if width != len(mask):
        raise ValueError(
            f"bucket-{bucket} model expects {len(mask)} features, "
            f"row has {width} (encoding schema mismatch)"
        )


def _fit_input(features, labels, numeric_mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample matrix, 0/1 labels and numeric mask of a fit, or a one-line ``ValueError``."""
    matrix = np.asarray(features, dtype=float)
    if matrix.ndim != 2 or len(matrix) == 0:
        raise ValueError("fit requires a non-empty 2-D sample matrix")
    mask = np.asarray(numeric_mask, dtype=bool)
    if mask.shape != (matrix.shape[1],):
        raise ValueError(f"numeric mask has {mask.size} flags for {matrix.shape[1]} features")
    target = np.asarray(labels)
    if target.shape != (len(matrix),):
        raise ValueError(f"fit has {target.size} labels for {len(matrix)} rows")
    if ((target != 0) & (target != 1)).any():
        raise ValueError("fit labels must be 0 or 1")
    if matrix.size and np.isnan(matrix.min()):
        raise ValueError("fit features must not be NaN")
    return matrix, target.astype(np.int8), mask


class DecisionTree:
    """Greedy binary classification tree using Gini impurity.

    Categorical features split on equality with a code, numeric features on
    midpoint thresholds. Candidates are enumerated in a fixed order (feature
    index, then sorted value), and the first candidate with the best gain
    wins, so fitting is fully deterministic. Splits must leave at least
    ``min_leaf`` samples on each side. A fit is :func:`fit_windows` of one
    window.
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
        matrix, target, mask = _fit_input(features, labels, numeric_mask)
        (self.root,) = _grow(matrix, target, np.array([[0, len(matrix)]]), mask, self.max_depth, self.min_leaf)
        return self

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


# Window cells (rows times features, summed over its windows) in one
# fit_windows call. Each depth of a call costs a fixed number of numpy calls,
# so larger calls cost fewer per tree; the working set grows with the cells,
# but scoring only boundary cuts keeps the candidate arrays small.
FIT_CELLS = 1 << 16
_GAIN_CHUNK = 1024  # split candidates whose gains are computed at once
_BOUNDARY_ROWS = 5000  # the largest node whose candidate cuts are its boundary cuts; _Splits shows 5478 safe
_CODED_COLUMNS = 8  # columns whose cells are coded at once


def fit_windows(
    rows: np.ndarray,
    labels: np.ndarray,
    windows,
    numeric_mask: Sequence[bool],
    max_depth: int = LearnerParams.tree_depth,
    min_leaf: int = MIN_LEAF,
) -> list[DecisionTree]:
    """The trees of many windows of one row sequence, grown together by one exact search.

    ``windows`` holds (start, stop) ranges of ``rows``, which may overlap;
    each tree is the one :meth:`DecisionTree.fit` grows on its window's rows
    and labels. The working set grows with the window cells (rows times
    features, summed over the windows), so callers keep it near
    :data:`FIT_CELLS`.
    """
    require_at_least(1, max_depth=max_depth, min_leaf=min_leaf)
    matrix, target, mask = _fit_input(rows, labels, numeric_mask)
    bounds = np.asarray(windows, dtype=np.int64).reshape(-1, 2)
    if ((bounds[:, 0] < 0) | (bounds[:, 0] >= bounds[:, 1]) | (bounds[:, 1] > len(matrix))).any():
        raise ValueError(f"every window must be a non-empty range of the {len(matrix)} rows")
    trees = [DecisionTree(max_depth, min_leaf) for _ in bounds]
    for tree, root in zip(trees, _grow(matrix, target, bounds, mask, max_depth, min_leaf)):
        tree.root = root
    return trees


def _grow(matrix, target, windows, mask, max_depth: int, min_leaf: int) -> list[_Node]:
    """The root of each window's tree, grown breadth-first: one split search per depth for all windows.

    The open nodes of a depth hold their rows as indices into the matrix, in
    node order. A node whose rows are pure or too few, or that is at
    ``max_depth``, becomes a leaf; the others are searched together
    (:class:`_Splits`), and the rows of each split node move to the child
    its split sends them to.
    """
    sizes = windows[:, 1] - windows[:, 0]
    index = np.int32 if len(matrix) < 2**31 else np.int64
    members = (np.arange(sizes.sum()) + np.repeat(windows[:, 0] - (np.cumsum(sizes) - sizes), sizes)).astype(index)
    node_of = np.repeat(np.arange(len(windows), dtype=index), sizes)
    ones_before = np.concatenate(([0], np.cumsum(target, dtype=np.int64)))
    n, ones = sizes, ones_before[windows[:, 1]] - ones_before[windows[:, 0]]
    splits = _Splits(matrix, target, mask, min_leaf, int(sizes.sum()))
    roots = [_Node() for _ in windows]
    nodes = roots
    for depth in range(max_depth + 1):
        searched = (ones > 0) & (ones < n) & (n >= 2 * min_leaf) & (depth < max_depth)
        members, node_of, n, ones, nodes = _keep(searched, members, node_of, n, ones, nodes)
        if not nodes:
            break
        feature, numeric, threshold = splits.best(members, node_of, n, ones)
        split = feature >= 0
        members, node_of, n, ones, nodes = _keep(split, members, node_of, n, ones, nodes)
        if not nodes:
            break
        feature, numeric, threshold = feature[split], numeric[split], threshold[split]
        value, bound = matrix[members, feature[node_of]], threshold[node_of]
        # As in predict: left when value <= threshold (numeric), value == threshold (categorical).
        child = 2 * node_of + ~np.where(numeric[node_of], value <= bound, value == bound)
        del value, bound
        counts = np.bincount(2 * child + target[members], minlength=4 * len(feature)).reshape(-1, 2)
        n, ones = counts.sum(axis=1), counts[:, 1]
        order = np.argsort(child, kind="stable")
        members, node_of = members[order], child[order]
        del child, order
        for node, f, is_numeric, cut in zip(nodes, feature.tolist(), numeric.tolist(), threshold.tolist()):
            node.feature, node.numeric_split, node.threshold = f, is_numeric, cut
            node.left, node.right = _Node(), _Node()
        nodes = [child for node in nodes for child in (node.left, node.right)]
    return roots


def _keep(kept: np.ndarray, members, node_of, n, ones, nodes: list):
    """The ``kept`` nodes, their rows (nodes numbered among the kept ones) and counts; the others become leaves."""
    if kept.all():
        return members, node_of, n, ones, nodes
    for node, keep, n_node, ones_node in zip(nodes, kept.tolist(), n.tolist(), ones.tolist()):
        if not keep:
            node.prediction = int(ones_node > n_node - ones_node)
    rows = kept[node_of]
    members, node_of = members[rows], (np.cumsum(kept, dtype=node_of.dtype) - 1)[node_of[rows]]
    return members, node_of, n[kept], ones[kept], [node for node, keep in zip(nodes, kept.tolist()) if keep]


class _Splits:
    """The exact split search of :func:`_grow` over one matrix: tables built once, one search per depth.

    Each cell is coded once by its column's sorted distinct values
    (:func:`_column_codes`). A numeric cell's code is its rank, and it
    becomes a ``feature | rank | label`` integer row key; a depth adds each
    row's node on top and sorts all keys with one sort, which groups every
    (node, feature) segment by value. A cut after a run of equal ranks is
    allowed if it leaves ``min_leaf`` rows on each side, and its label-1
    count comes from a running count over the sorted keys. Only boundary
    cuts are candidates: an allowed cut between two runs that hold one label
    is not, unless it is its segment's first or last allowed cut. A
    categorical cell's code names its (feature, value) cell; a depth counts
    each node's cells and labels in one ``bincount`` table, and each cell is
    a candidate. One gain formula scores both kinds. A node takes its first
    best candidate, which is the lowest feature index and then the lowest
    value.

    A cut that is not a candidate never wins (the boundary points of Fayyad
    and Irani, 1992, shown here for Gini). Take a node of ``n`` rows, not
    pure, and a stretch of runs that all hold label ``c``. Along the
    stretch, a cut that leaves ``x`` rows left has a fixed count ``A`` of
    rows of the other label on its left and ``B`` on its right, with ``A +
    B >= 1``. Its weighted Gini is ``W(x) = 2A - 2A**2/x + 2B - 2B**2/(n -
    x)``, and ``W'' = -4A**2/x**3 - 4B**2/(n - x)**3 < -4/n**3``. Between
    two cuts ``a < x < b`` of the stretch, ``(x - a) * (b - x) >= 1``, so
    ``W(x)`` lies more than ``2/n**3`` above the chord, and so above
    ``min(W(a), W(b))``, and its gain ``parent - W/n`` more than ``2/n**4``
    below the better one's. Each dropped cut lies between two candidates of
    its stretch: at each side, the cut at the stretch's end, or the
    segment's first or last allowed cut where that end is not allowed.

    The gains are floats. With exact integer counts, and ``u = 2**-53``
    the bound on each rounding's relative error, :func:`_gains` is off by
    less than ``7.6u`` in a side's ``1 - p**2 - (1 - p)**2``, ``8.1u``
    times the count in its weighted Gini, ``8.6u * n`` in their sum,
    ``9.1u`` after dividing by ``n`` and ``10u`` in the gain. Gains more
    than ``2/n**4`` apart therefore keep their strict order while ``2/n**4
    >= 20u``, that is for ``n <= 5478``, and the first best candidate is the
    one a search of every allowed cut finds. Nodes of more than
    :data:`_BOUNDARY_ROWS` rows take every allowed cut as a candidate.
    """

    def __init__(self, matrix, target, mask, min_leaf: int, window_rows: int) -> None:
        self.min_leaf = min_leaf
        self.numeric, self.categorical = mask.nonzero()[0], (~mask).nonzero()[0]
        labels = target[:, None]
        self.values, ranks, sizes = _column_codes(matrix, self.numeric)
        self.first_ranks = np.cumsum(sizes) - sizes
        # A key is node * stride + rank * 2 + label; the ranks of each feature follow the last one's.
        self.stride = 2 * len(self.values)
        # Searched nodes hold at least 2 * min_leaf of the windows' rows each.
        nodes = window_rows // (2 * min_leaf) + 1
        self.dtype = np.int32 if nodes * self.stride < 2**31 else np.int64
        self.numeric_keys = (2 * ranks + labels).astype(self.dtype)
        self.cell_value, cells, sizes = _column_codes(matrix, self.categorical)
        self.cell_feature = np.repeat(self.categorical, sizes)
        self.cell_keys = 2 * cells + labels

    def best(self, rows, node, n, ones):
        """Per node, the feature, kind and threshold of its first best split; feature -1 where none.

        ``rows`` and ``node`` pair each row index with its node, in node
        order; ``n`` and ``ones`` hold each node's row and label-1 counts.
        """
        n_float, ones_float = n.astype(float), ones.astype(float)
        p = ones_float / n_float
        scored = n_float, ones_float, 1.0 - p * p - (1.0 - p) * (1.0 - p)
        cell, *cells = self._cells(rows, node, n)
        cell_best, cell_first = _first_best(*cells, scored)
        cut_at, *cuts, keys = self._cuts(rows, node, n)
        cut_best, cut_first = _first_best(*cuts, scored)
        feature = np.full(len(n), -1)
        threshold = np.zeros(len(n))
        has_cut = cut_first >= 0
        at = cut_at[cut_first[has_cut]]
        rank, upper = keys[at] % len(self.values), keys[at + 1] % len(self.values)
        feature[has_cut] = self.numeric[np.searchsorted(self.first_ranks, rank, side="right") - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            # The midpoint of adjacent doubles can round up to the upper value,
            # a sum past the float range is +-inf, and -inf + inf is NaN: rows
            # go left by comparing their values with it, so the split stays
            # exact either way.
            threshold[has_cut] = (self.values[rank] + self.values[upper]) / 2.0
        has_cell = cell_first >= 0
        cell_feature = np.full(len(n), len(self.numeric) + len(self.categorical))
        cell_feature[has_cell] = self.cell_feature[cell[cell_first[has_cell]]]
        # A cell wins with a larger gain, or an equal one at a lower feature index.
        take = has_cell & ((cell_best > cut_best) | ((cell_best == cut_best) & (cell_feature < feature)) | ~has_cut)
        feature[take] = cell_feature[take]
        threshold[take] = self.cell_value[cell[cell_first[take]]]
        return feature, ~take, threshold

    def _cuts(self, rows, node, n):
        """The candidate numeric cuts: sorted-key positions, label-1 and row counts on the left, nodes, and the keys.

        The keys come back sorted and without their label bit: ``node |
        feature | rank``.
        """
        width, min_leaf = len(self.numeric), self.min_leaf
        if not width:
            return (np.empty(0, np.int64),) * 5
        keys = self.numeric_keys[rows]
        keys += (node * self.stride).astype(self.dtype)[:, None]
        keys = keys.ravel()
        keys.sort()
        ones_upto = np.zeros(len(keys) + 1, self.dtype)  # label-1 keys before each position
        np.cumsum(keys & 1, dtype=self.dtype, out=ones_upto[1:])
        keys >>= 1
        # Position p is a cut when the next key differs, and leaves min_leaf rows on each side.
        cut = np.zeros(len(keys), bool)
        np.not_equal(keys[1:], keys[:-1], out=cut[:-1])
        segment = np.repeat(n, width)
        start = np.cumsum(segment) - segment
        edge = np.concatenate((np.arange(min_leaf - 1), -np.arange(1, min_leaf + 1)))
        edge = np.where(edge < 0, segment[:, None] + edge, edge) + start[:, None]
        cut[edge.ravel()] = False
        at = np.flatnonzero(cut).astype(np.int32)
        del cut
        start = start.astype(np.int32)
        ones_left = ones_upto[1:][at]  # label-1 keys up to each cut
        ones_before = ones_upto[start]  # and before each segment
        del ones_upto
        # Inside a segment's allowed cuts, the cuts on either side of one
        # bound the two runs that it lies between. It is dropped when those
        # runs hold no label-1 key, or nothing else.
        keep = np.ones(len(at), bool)
        both = ones_left[2:] - ones_left[:-2]  # label-1 keys of those two runs
        np.not_equal(both, 0, out=keep[1:-1])
        both -= at[2:]
        both += at[:-2]  # minus all their keys
        keep[1:-1] &= both != 0
        del both
        bounds = np.searchsorted(at, start)
        ends = np.append(bounds[1:], len(at))
        keep[bounds[bounds < len(at)]] = True  # each segment's first allowed cut
        keep[ends[ends > 0] - 1] = True  # and its last
        if segment.max() > _BOUNDARY_ROWS:
            keep |= np.repeat(segment > _BOUNDARY_ROWS, ends - bounds)
        kept = np.flatnonzero(keep)
        del keep
        at, ones_left = at[kept], ones_left[kept]
        del kept
        bounds = np.searchsorted(at, start)
        per_segment = np.append(bounds[1:], len(at)) - bounds
        ones_left -= np.repeat(ones_before, per_segment)
        first = np.repeat(start, per_segment)  # each cut's segment start
        after = at + 1
        after -= first
        cut_node = np.repeat(np.repeat(np.arange(len(n), dtype=np.int32), width), per_segment)
        return at, ones_left, after, cut_node, keys

    def _cells(self, rows, node, n):
        """The categorical candidates: cells, label-1 and row counts of each, and nodes."""
        cells, min_leaf = len(self.cell_value), self.min_leaf
        if not cells:
            return (np.empty(0, np.int64),) * 4
        keys = self.cell_keys[rows].astype(np.intp)  # bincount's index type
        keys += (2 * cells * node)[:, None]
        counts = np.bincount(keys.ravel(), minlength=2 * cells * len(n)).reshape(-1, 2)
        del keys
        sizes = counts.sum(axis=1)
        (at,) = ((sizes >= min_leaf) & (sizes <= np.repeat(n, cells) - min_leaf)).nonzero()
        cell_node, cell = np.divmod(at, cells)
        return cell, counts[at, 1], sizes[at], cell_node


def _column_codes(matrix, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A table of the listed columns' sorted distinct values, each cell's index in it, and each column's count.

    Indices ascend with the value within a column, and each column's follow
    the previous column's. Equal values share an index, +0.0 and -0.0 too.
    Columns are coded ``_CODED_COLUMNS`` at a time.
    """
    codes = np.empty((len(matrix), len(columns)), np.int32)
    tables, sizes = [], []
    offset = 0
    for lo in range(0, len(columns), _CODED_COLUMNS):
        part = matrix[:, columns[lo : lo + _CODED_COLUMNS]]
        order = part.argsort(axis=0)
        part = np.take_along_axis(part, order, axis=0)
        distinct = np.empty(part.shape, bool)
        distinct[0] = True
        np.not_equal(part[1:], part[:-1], out=distinct[1:])
        index = np.cumsum(distinct, axis=0, dtype=np.int32)  # 1 + the index within the column
        count = index[-1].astype(np.int64)
        index += (offset + np.cumsum(count) - count - 1).astype(np.int32)
        np.put_along_axis(codes[:, lo : lo + len(count)], order, index, axis=0)
        tables.append(part.T[distinct.T])
        sizes.append(count)
        offset += int(count.sum())
    if not tables:
        return np.empty(0), codes, np.empty(0, np.int64)
    return np.concatenate(tables), codes, np.concatenate(sizes)


def _first_best(ones_left, n_left, node, scored):
    """Per node, its largest gain and the index of its first candidate with it; -inf and -1 where none.

    The candidates are in node order; ``scored`` holds each node's float
    row count, label-1 count and impurity. Gains are computed
    ``_GAIN_CHUNK`` candidates at a time.
    """
    n, ones, parent = scored
    best, first = np.full(len(n), -np.inf), np.full(len(n), -1)
    if not len(node):
        return best, first
    gains = np.empty(len(node))
    for lo in range(0, len(node), _GAIN_CHUNK):
        part = slice(lo, lo + _GAIN_CHUNK)
        at = node[part]
        gains[part] = _gains(ones_left[part].astype(float), n_left[part].astype(float), ones[at], n[at], parent[at])
    starts = np.flatnonzero(_changes(node))
    best[node[starts]] = np.maximum.reduceat(gains, starts)
    hit = np.flatnonzero(gains == best[node])
    lead = _changes(node[hit])
    first[node[hit[lead]]] = hit[lead]
    return best, first


def _changes(values: np.ndarray) -> np.ndarray:
    """Whether each element differs from the one before it; the first does."""
    change = np.empty(len(values), bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return change


# ---------------------------------------------------------------------------
# Policy models
# ---------------------------------------------------------------------------


def _deciles(values: list[float]) -> list[float]:
    """The nine decile edges of sorted ``values`` (none if empty), as ``np.quantile`` computes them.

    The same float operations in its order: index ``(n - 1) * q``, its floor and fraction ``g``,
    then ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` when ``g >= 0.5``. One value is every edge.
    """
    if len(values) < 2:
        return values * 9
    edges = []
    for step in range(1, 10):
        index = (len(values) - 1) * (step / 10)
        below = floor(index)
        a, b, g = values[below], values[below + 1], index - below
        edges.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return edges


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
            self._bins[index] = _deciles(sorted(float(features[index]) for features, _ in self._window))
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
        _check_width(len(features), self._mask, self.bucket)
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
    The window is the last ``train_window`` feature rows and labels, in
    label order. After grace, :meth:`learn` takes the path of a run: it
    fits the block's tree with :meth:`fitted_trees` on the window and the
    block, and :meth:`advance` counts the block.
    """

    policy = UpdatePolicy.WINDOW_RETRAIN

    def __init__(
        self, bucket: int, numeric_mask: Sequence[bool], params: LearnerParams = LearnerParams()
    ) -> None:
        super().__init__(bucket, numeric_mask, params)
        self._train_window = params.train_window
        self._rows = np.empty((0, len(self._mask)))
        self._labels = np.empty(0, dtype=np.int64)
        self._seen = 0  # labeled samples counted so far
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
        first = self._seen - len(self._labels)  # the label index of the first held row
        rows, labels = np.concatenate((self._rows, rows)), np.concatenate((self._labels, labels))
        stop = first + len(labels)
        if self._grace_done:

            def gather(at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                return rows[at - first], labels[at - first]

            self.advance(stop - self._seen, self.fitted_trees(np.array([stop]), gather))
        self._seen = stop
        # copies, so a large block is not kept alive by a view of its tail
        self._rows, self._labels = rows[-self._train_window :].copy(), labels[-self._train_window :].copy()

    def fitted_trees(self, reads: np.ndarray, gather) -> Iterator[DecisionTree]:
        """The trees of the cadence points ahead, fit in batches with :func:`fit_windows`, for :meth:`advance`.

        ``reads`` holds ascending counts of learned labels at which the tree
        will be read; the last is the count the model stops at. After ``c``
        labels the tree is the fit at the last cadence point up to ``c``, on
        the ``train_window`` labeled rows before that point. This yields the
        tree of each such point past the current count, in order. A batch
        holds about :data:`FIT_CELLS` window cells, and ``gather(indices)``
        returns the rows and labels of 0-based label indices.
        """
        seen = self._seen
        points = reads - (reads - seen + self._pending) % self._retrain_every
        points = points[points > seen]
        points = points[_changes(points)]  # points ascend: one of each run of equal ones
        return self._fit_ahead(np.maximum(points - self._train_window, 0), points, gather)

    def _fit_ahead(self, starts: np.ndarray, points: np.ndarray, gather) -> Iterator[DecisionTree]:
        """The trees of the windows ``starts[i]:points[i]``, grown about ``FIT_CELLS`` window cells at a time."""
        cells = np.cumsum((points - starts) * len(self._mask))
        first = 0
        while first < len(points):
            done = cells[first - 1] if first else 0
            stop = max(first + 1, int(np.searchsorted(cells, done + FIT_CELLS, side="right")))
            windows = np.stack((starts[first:stop], points[first:stop]), axis=1)
            held = np.zeros(windows[-1, 1] - windows[0, 0], bool)
            for start, point in windows - windows[0, 0]:
                held[start:point] = True
            union = windows[0, 0] + np.flatnonzero(held)  # the label indices of the windows' rows
            trees = fit_windows(*gather(union), np.searchsorted(union, windows), self._mask, self._depth)
            yield from trees
            first = stop

    def advance(self, labels: int, trees: Iterator[DecisionTree]) -> None:
        """Count ``labels`` labeled rows; if they pass a cadence point, take the next of ``trees``.

        ``trees`` comes from :meth:`fitted_trees`: the fit at the last point they pass.
        """
        passed, self._pending = divmod(self._pending + labels, self._retrain_every)
        if passed:
            self._tree = next(trees)
            self.version += passed
        self._seen += labels

    def fill(self, gather) -> None:
        """Hold the last ``train_window`` counted rows as the window; ``gather`` as for :meth:`fitted_trees`."""
        self._rows, self._labels = gather(np.arange(max(self._seen - self._train_window, 0), self._seen))

    def finish_grace(self) -> None:
        self._grace_done = True
        if self._seen:
            self._fit(self._rows, self._labels)


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
