import json
import tracemalloc
from collections import deque
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stability_meter.classifiers import (
    FIT_CELLS,
    MIN_LEAF,
    MODELS,
    DecisionTree,
    IncrementalNaiveBayes,
    LearnerParams,
    StaticModel,
    UpdatePolicy,
    WindowRetrainModel,
    _BOUNDARY_ROWS,
    _deciles,
    fit_windows,
)
from stability_meter.errors import NotReadyError, SettingError
from stability_meter.evaluation import run_stream
from stability_meter.event_model import REQUIRED_COLUMNS
from stability_meter.prefixing import BucketConfig, encode, feature_mask
from stability_meter.synthgen import DriftLogSpec

from oracles import ReferenceTree, ReferenceWindowRetrain, nb_posterior_scores, walk_tree_dict
from parsed_logs import parsed_log
from tree_counts import count_scored, count_trees


@pytest.mark.parametrize("field", ["tree_depth", "train_window", "retrain_every", "memory"])
def test_learner_params_name_the_setting_below_one(field):
    with pytest.raises(SettingError, match=f"^{field} must be >= 1, got 0$") as raised:
        LearnerParams(**{field: 0})
    assert raised.value.settings == (field,)
    assert raised.value.template.format("X") == "X must be >= 1, got 0"


def _tree_json(model):
    """The tree model's current tree, as canonical JSON."""
    return json.dumps(model._tree.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# incremental naive Bayes
# ---------------------------------------------------------------------------


def test_nb_trained_on_one_class_predicts_that_class_everywhere():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, False))
    for features in [(1, 2), (3, 4), (1, 4)]:
        model.observe_label(features, 1)
    assert model.predict((9, 9)) == 1
    assert model.predict((1, 2)) == 1


def test_nb_exact_tie_breaks_toward_zero():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, False))
    model.observe_label((1, 2), 0)
    model.observe_label((1, 2), 1)
    assert model.predict((1, 2)) == 0


def test_nb_predict_before_any_training_raises():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False,))
    assert not model.is_ready
    with pytest.raises(NotReadyError):
        model.predict((1,))


def test_nb_matches_hand_recomputed_posterior_on_holdout():
    rng = np.random.default_rng(11)
    train = [
        (tuple(int(v) for v in rng.integers(1, 4, size=3)), int(rng.integers(0, 2)))
        for _ in range(20)
    ]
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, False, False))
    for features, label in train:
        model.observe_label(features, label)
    for held_out in [(1, 1, 1), (3, 2, 1), (2, 2, 2), (9, 1, 3)]:
        scores = nb_posterior_scores(train, held_out)
        expected = int(scores[1] > scores[0])
        assert model.predict(held_out) == expected


def test_nb_counts_equal_batch_recount_within_memory():
    rng = np.random.default_rng(5)
    model = IncrementalNaiveBayes(
        bucket=2, numeric_mask=(False, False), params=LearnerParams(memory=500)
    )
    history = []
    for _ in range(100):
        features = tuple(int(v) for v in rng.integers(0, 3, size=2))
        label = int(rng.integers(0, 2))
        history.append((features, label))
        model.observe_label(features, label)
    assert model.version == 100
    expected_class = [sum(1 for _, y in history if y == c) for c in (0, 1)]
    assert model._class_counts == expected_class
    for index in range(2):
        for value, entry in model._counts[index].items():
            for label in (0, 1):
                recount = sum(
                    1 for f, y in history if float(f[index]) == value and y == label
                )
                assert entry[label] == recount


def test_nb_counts_cover_only_the_memory_window():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False,), params=LearnerParams(memory=10))
    for i in range(25):
        model.observe_label((i % 4,), i % 2)
    assert sum(model._class_counts) == 10
    assert len(model._window) == 10
    # decision follows the window: feed a burst of one class
    for _ in range(10):
        model.observe_label((0,), 1)
    assert model.predict((0,)) == 1


def test_nb_numeric_features_use_grace_deciles():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, True))
    rng = np.random.default_rng(3)
    grace = []
    for _ in range(60):
        features = (int(rng.integers(0, 3)), float(rng.uniform(0, 100)))
        label = int(features[1] > 50)
        grace.append((features, label))
        model.observe_label(features, label)
    assert not model.is_ready  # nothing counted until the bins are frozen
    model.finish_grace()
    assert model.is_ready
    bins = {1: model._bins[1]}
    for probe in [(0, 5.0), (1, 95.0), (2, 55.0)]:
        scores = nb_posterior_scores(
            grace, probe, bins=bins, numeric_mask=[False, True]
        )
        assert model.predict(probe) == int(scores[1] > scores[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 2.5, -1e308, 1e308])),
        min_size=1,
        max_size=60,
    )
)
@example([-0.0])
@example([7.0])
@example([-1e308, 1e308])
def test_decile_edges_are_the_bits_of_np_quantile(values):
    # np.quantile partitions its input, which may swap a tied 0.0 and -0.0,
    # so only the sign of a zero edge may differ. Adding 0.0 makes every zero
    # +0.0; the bins compare edges with ``<``, to which both zeros are equal.
    values = sorted(values)
    with np.errstate(all="ignore"):  # b - a may overflow, in both
        want = np.quantile(values, [q / 10 for q in range(1, 10)])
    got = np.array(_deciles(values))
    assert np.array_equal((got + 0.0).view(np.int64), (want + 0.0).view(np.int64)), (got, want)


def test_no_values_have_no_decile_edges():
    assert _deciles([]) == []


def test_models_reject_samples_of_the_wrong_width():
    nb = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, False))
    with pytest.raises(ValueError, match="schema mismatch"):
        nb.observe_label((1,), 0)
    static = StaticModel(bucket=3, numeric_mask=(False, False, False))
    with pytest.raises(ValueError, match="schema mismatch"):
        static.observe_label((1, 2), 0)


@pytest.mark.parametrize("policy", list(UpdatePolicy))
@pytest.mark.parametrize("row", [(1.0,), (1.0, 0.0, 2.0, 5.0)])
def test_trained_models_reject_a_row_of_the_wrong_width(policy, row):
    # A tree model raised a bare IndexError on a short row and labelled a long one.
    model = MODELS[policy](bucket=2, numeric_mask=(False, True, False))
    model.learn(np.array([(float(at % 2), float(at), 1.0) for at in range(12)]), np.arange(12) % 2)
    model.finish_grace()
    model.predict((1.0, 3.0, 1.0))
    message = rf"^bucket-2 model expects 3 features, row has {len(row)} \(encoding schema mismatch\)$"
    with pytest.raises(ValueError, match=message):
        model.predict(row)


def test_nb_version_counts_updates():
    model = IncrementalNaiveBayes(bucket=2, numeric_mask=(False,))
    before = model.version
    model.observe_label((1,), 1)
    assert model.version == before + 1
    prediction = model.predict((1,))
    assert model.version == before + 1  # predict does not mutate
    assert prediction == 1


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------


def test_tree_pure_window_predicts_constant():
    tree = DecisionTree(max_depth=3, min_leaf=1).fit(
        [(1, 1)] * 6, [1] * 6, numeric_mask=(False, False)
    )
    assert tree.predict((1, 1)) == 1
    assert tree.predict((7, 7)) == 1


def test_tree_solves_xor_with_depth_two():
    features = [(0, 0), (0, 1), (1, 0), (1, 1)]
    labels = [0, 1, 1, 0]
    tree = DecisionTree(max_depth=2, min_leaf=1).fit(
        features, labels, numeric_mask=(False, False)
    )
    assert [tree.predict(f) for f in features] == labels


def test_tree_is_deterministic_bit_for_bit():
    rng = np.random.default_rng(17)
    features = [tuple(map(float, rng.uniform(0, 1, size=3))) for _ in range(80)]
    labels = [int(f[0] + f[2] > 1.0) for f in features]
    mask = (True, True, True)
    first = DecisionTree(max_depth=4, min_leaf=2).fit(features, labels, mask)
    second = DecisionTree(max_depth=4, min_leaf=2).fit(features, labels, mask)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_tree_min_leaf_blocks_tiny_splits():
    features = [(0,), (1,), (0,), (1,)]
    labels = [0, 1, 0, 1]
    tree = DecisionTree(max_depth=3, min_leaf=5).fit(features, labels, (False,))
    assert tree.to_dict().get("prediction") is not None  # single leaf, no split possible


def test_tree_separable_numeric_data_fits_perfectly():
    rng = np.random.default_rng(23)
    features = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(40)]
    labels = [int(f[0] > 0.5) for f in features]
    tree = DecisionTree(max_depth=6, min_leaf=5).fit(features, labels, (True, True))
    assert all(tree.predict(f) == y for f, y in zip(features, labels))


def test_tree_leaf_tie_breaks_toward_zero():
    tree = DecisionTree(max_depth=1, min_leaf=1).fit(
        [(0,), (0,)], [0, 1], numeric_mask=(False,)
    )
    assert tree.predict((0,)) == 0


def _random_column(rng, n, numeric):
    if not numeric:
        # non-contiguous and negative category codes, sometimes a constant column
        values = rng.choice([-7.0, -3.0, -1.0, 0.0, 2.0, 5.0, 11.0, 40.0], int(rng.integers(1, 6)))
        return rng.choice(values, n)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return np.round(rng.normal(size=n), 1)  # some ties
    if kind == 2:
        return rng.integers(-2, 3, n).astype(float)  # heavy ties
    return np.full(n, 2.5)  # constant


def _random_fit_inputs(rng, masks):
    n = int(rng.integers(1, 200))
    width = int(rng.integers(1, 9))
    if masks == "numeric":
        mask = [True] * width
    elif masks == "categorical":
        mask = [False] * width
    else:
        mask = [bool(flag) for flag in rng.random(width) < 0.5]
    matrix = np.stack([_random_column(rng, n, flag) for flag in mask], axis=1)
    labels = (rng.random(n) < rng.random()).astype(int)
    return matrix.tolist(), labels.tolist(), mask


def _assert_same_tree(features, labels, mask, max_depth, min_leaf):
    fast = DecisionTree(max_depth=max_depth, min_leaf=min_leaf).fit(features, labels, mask)
    slow = ReferenceTree(max_depth=max_depth, min_leaf=min_leaf).fit(features, labels, mask)
    assert fast.to_dict() == slow.to_dict()
    return fast


@pytest.mark.parametrize("masks", ["mixed", "numeric", "categorical"])
def test_tree_matches_the_per_feature_reference_on_random_inputs(masks):
    rng = np.random.default_rng({"mixed": 1, "numeric": 2, "categorical": 3}[masks])
    for _ in range(300):
        features, labels, mask = _random_fit_inputs(rng, masks)
        _assert_same_tree(
            features, labels, mask, int(rng.integers(1, 8)), int(rng.integers(1, 10))
        )


@pytest.mark.parametrize(
    "low, high",
    [
        (0.3, 0.30000000000000004),  # the midpoint rounds up to the upper value
        (1e308, 1.7e308),  # the sum overflows to inf
        (-1.7e308, -1e308),  # the sum overflows to -inf
    ],
)
def test_tree_matches_the_reference_when_a_midpoint_is_not_between_its_values(low, high):
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        column = rng.choice([low, high], size=n)
        other = rng.integers(0, 3, size=n).astype(float)
        # Labels follow the two values, with some noise, so the cut is often chosen.
        labels = ((column == high) ^ (rng.random(n) < rng.random() * 0.3)).astype(int)
        features = np.stack([column, other], axis=1).tolist()
        mask = [True, bool(rng.random() < 0.5)]
        with np.errstate(over="ignore"):
            _assert_same_tree(
                features, labels.tolist(), mask, int(rng.integers(1, 7)), int(rng.integers(1, 6))
            )


def test_tree_ignores_the_order_of_its_rows():
    rng = np.random.default_rng(29)
    for _ in range(400):
        features, labels, mask = _random_fit_inputs(rng, "mixed")
        depth, min_leaf = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        order = rng.permutation(len(labels))
        fitted = DecisionTree(depth, min_leaf).fit(features, labels, mask)
        shuffled = DecisionTree(depth, min_leaf).fit(
            [features[i] for i in order], [labels[i] for i in order], mask
        )
        assert shuffled.to_dict() == fitted.to_dict()


@pytest.mark.parametrize(
    "features, labels, mask, min_leaf",
    [
        ([(1.5, 2.0)], [1], (True, False), 1),  # a single row
        ([(0.0,), (1.0,), (0.0,)], [0, 1, 1], (True,), 2),  # n < 2 * min_leaf
        ([(3.0, 3.0)] * 4 + [(3.0, 3.0)] * 4, [0, 1] * 4, (True, False), 1),  # constant columns
    ],
)
def test_tree_without_a_candidate_split_is_one_leaf(features, labels, mask, min_leaf):
    tree = _assert_same_tree(features, labels, mask, 3, min_leaf)
    assert tree.to_dict().get("prediction") is not None


@pytest.mark.parametrize("mask", [(True, False, True), (False, True, False), (False, False, True)])
def test_tree_equal_gains_go_to_the_lowest_feature_index(mask):
    # all three columns split the rows identically, so every feature has the same best gain
    column = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    features = [(value, value, value) for value in column]
    labels = [0, 0, 1, 1, 1, 1]
    tree = _assert_same_tree(features, labels, mask, 1, 1)
    assert tree.to_dict()["feature"] == 0


@pytest.mark.parametrize(
    "labels, row",
    [
        ([0] * 6 + [1] * 6, (1.0, 0.0, 2.0, 5.0)),  # longer than the rows it was fit on
        ([0] * 6 + [1] * 6, (1.0,)),  # shorter
        ([1] * 12, ()),  # a tree that is one leaf
    ],
    ids=["longer", "shorter", "one-leaf"],
)
def test_tree_rejects_a_row_of_the_wrong_width(labels, row):
    tree = DecisionTree(min_leaf=1).fit([(float(at), 1.0, 0.0) for at in range(12)], labels, (True, False, True))
    assert tree.predict((3.0, 1.0, 0.0)) == labels[3]
    with pytest.raises(ValueError, match=rf"^decision tree expects 3 features, row has {len(row)}$"):
        tree.predict(row)


def test_tree_rejects_a_mask_of_the_wrong_width():
    with pytest.raises(ValueError, match="numeric mask"):
        DecisionTree().fit([(1.0, 2.0)], [1], (True,))


def test_tree_rejects_labels_of_another_length_than_the_rows():
    # Too many labels failed with an IndexError deep in the search, too few with a broadcast error.
    features = [(float(value),) for value in range(10)]
    for labels in ([0, 1] * 5 + [1], [0, 1] * 4):
        with pytest.raises(ValueError, match=rf"^fit has {len(labels)} labels for 10 rows$"):
            DecisionTree().fit(features, labels, (True,))


def test_tree_rejects_a_label_other_than_0_or_1():
    # A label 2 was read as 1.
    with pytest.raises(ValueError, match="^fit labels must be 0 or 1$"):
        DecisionTree().fit([(0.0,), (1.0,), (2.0,)], [0, 1, 2], (False,))


def test_tree_rejects_nan_features():
    # A NaN row went left in training (no value sorts after it) and right in predict.
    features = [(float(value), 1.0) for value in range(12)]
    features[3] = (float("nan"), 1.0)
    with pytest.raises(ValueError, match="^fit features must not be NaN$"):
        DecisionTree(min_leaf=1).fit(features, [0] * 6 + [1] * 6, (True, False))


def test_fit_windows_rejects_a_window_outside_the_rows():
    features, labels = [(float(value),) for value in range(6)], [0, 1] * 3
    for window in ((0, 7), (-1, 3), (4, 4), (0.5, 3.9)):
        with pytest.raises(ValueError, match="non-empty range of the 6 rows"):
            fit_windows(features, labels, [(0, 2), window], (True,))


_EXTREMES = [1e308, 1.7e308, -1e308, -1.7e308]  # adjacent values whose midpoint overflows
_INFINITIES = [float("-inf"), float("inf")]  # the midpoint of the two is NaN, which sends every row right


@st.composite
def _window_batches(draw):
    """Rows, labels, windows of them and a mask: ties, signed zeros, extremes and constant columns."""
    kinds = draw(st.sampled_from(["categorical", "numeric", "mixed"]))
    width = draw(st.integers(1, 4))
    mask = [kinds == "numeric" or (kinds == "mixed" and draw(st.booleans())) for _ in range(width)]
    n = draw(st.integers(1, 90))
    columns = []
    for numeric in mask:
        if numeric:
            pool = draw(
                st.sampled_from(
                    [
                        [-2.0, -1.0, 0.0, 1.0, 2.0],  # ties
                        [0.0, -0.0, 1.0, -1.0],  # signed zeros
                        _EXTREMES + [0.0],
                        _INFINITIES + [0.0],
                        _INFINITIES,
                        [2.5],  # constant
                        None,  # mostly distinct
                    ]
                )
            )
            value = st.floats(-1e3, 1e3, allow_nan=False) if pool is None else st.sampled_from(pool)
        else:
            value = st.sampled_from(draw(st.lists(st.sampled_from([-7.0, -1.0, 0.0, 2.0, 5.0, 40.0]), min_size=1)))
        columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    numeric_columns = [column for column, numeric in zip(columns, mask) if numeric]
    if numeric_columns and draw(st.booleans()):
        # A noisy threshold function of one numeric column: long runs of one
        # label, some reaching the min_leaf edges, and tied values that flips
        # give both labels.
        column = np.array(draw(st.sampled_from(numeric_columns)))
        at = draw(st.one_of(st.integers(0, min(7, n - 1)), st.integers(max(0, n - 8), n - 1), st.integers(0, n - 1)))
        flips = draw(st.sets(st.integers(0, n - 1), max_size=3))
        above = (column > np.sort(column)[at]) ^ draw(st.booleans())
        labels = [int(high ^ (row in flips)) for row, high in enumerate(above.tolist())]
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    layout = draw(st.sampled_from(["overlapping", "disjoint", "short"]))
    if layout == "overlapping":
        # Cadence-point windows: the first ones are shorter than the window length.
        length = draw(st.integers(1, n))
        step = draw(st.integers(1, max(1, length - 1)))
        windows = [(max(0, point - length), point) for point in range(1, n + 1, step)]
    elif layout == "disjoint":
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
        bounds = list(zip([0] + cuts, cuts + [n]))
        windows = [window for at, window in enumerate(bounds) if at % 2 == 0 or draw(st.booleans())]
    else:
        starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        windows = [(start, min(n, start + draw(st.integers(1, 4)))) for start in starts]
    return np.array(columns).T.reshape(n, width), labels, windows, mask


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_window_batches(), st.integers(1, 6), st.integers(1, 6))
def test_fit_windows_grows_the_reference_tree_of_each_window(batch, max_depth, min_leaf):
    rows, labels, windows, mask = batch
    with np.errstate(over="ignore", invalid="ignore"):
        trees = fit_windows(rows, labels, windows, mask, max_depth, min_leaf)
        assert len(trees) == len(windows)
        for (start, stop), tree in zip(windows, trees):
            window = rows[start:stop], labels[start:stop], mask
            reference = _nan_equal(ReferenceTree(max_depth, min_leaf).fit(*window).to_dict())
            assert _nan_equal(tree.to_dict()) == reference, (start, stop)
            assert _nan_equal(DecisionTree(max_depth, min_leaf).fit(*window).to_dict()) == reference, (start, stop)


def _splits_of(tree: dict) -> list:
    """The (feature, threshold) of each split of a tree dict."""
    if tree["kind"] == "leaf":
        return []
    return [(tree["feature"], tree["threshold"]), *_splits_of(tree["left"]), *_splits_of(tree["right"])]


_NAN_CUT = (np.array([[value] for value in _INFINITIES * 6]), [0, 1] * 6, [(0, 12), (2, 12)], [True])
_ZERO_CODE = (np.array([[0.0, 1.0], [2.0, 1.0]] * 6), [1, 0] * 6, [(1, 12), (0, 12)], [False, True])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_window_batches(), st.integers(1, 6), st.integers(1, 6), st.lists(st.floats(allow_nan=False), max_size=4))
@example(_NAN_CUT, 2, 1, [0.0])  # the midpoint of -inf and inf is NaN
@example(_ZERO_CODE, 2, 1, [-0.0, 3.0])  # -0.0 matches the categorical split on 0.0
def test_tree_predicts_as_a_walk_of_the_reference_tree(batch, max_depth, min_leaf, unseen):
    # Each tree of a batch walks its node table from its own root: every fit
    # row, a row at each split's threshold and its negation, and rows of
    # values the fit never saw label as a walk of the reference tree's dict.
    rows, labels, windows, mask = batch
    with np.errstate(over="ignore", invalid="ignore"):
        trees = fit_windows(rows, labels, windows, mask, max_depth, min_leaf)
        for (start, stop), tree in zip(windows, trees):
            reference = ReferenceTree(max_depth, min_leaf).fit(rows[start:stop], labels[start:stop], mask).to_dict()
            queries = rows.tolist()
            for feature, value in [*_splits_of(reference), *((at, value) for value in unseen for at in range(len(mask)))]:
                for sign in (1.0, -1.0):
                    query = rows[start].tolist()
                    query[feature] = sign * value
                    queries.append(query)
            for query in queries:
                assert tree.predict(query) == walk_tree_dict(reference, query), (start, stop, query)


def _nan_equal(tree: dict) -> dict:
    """A tree dict whose NaN thresholds (a cut between -inf and inf) compare equal to each other."""
    if tree["kind"] == "leaf":
        return tree
    threshold = "nan" if np.isnan(tree["threshold"]) else tree["threshold"]
    return {**tree, "threshold": threshold, "left": _nan_equal(tree["left"]), "right": _nan_equal(tree["right"])}


def _segments(calls):
    """The candidate count of each (node, feature) segment of each numeric search in ``calls``.

    Within a node, a feature's cuts leave ever more rows left, so the next
    feature's begin where that count falls.
    """
    counts = []
    for node, n_left in calls:
        starts = np.flatnonzero((np.diff(node, prepend=-1) != 0) | (np.diff(n_left, prepend=np.inf) <= 0))
        counts.append((node[starts], np.diff(starts, append=len(node))))
    return counts


def test_a_step_function_window_scores_at_most_three_cuts_per_segment(monkeypatch):
    # Every column orders the rows alike, and the labels step once along
    # that order: each segment's candidates are its first and last allowed
    # cuts and the step, where scoring every cut gave it n - 2 * min_leaf + 1.
    rng = np.random.default_rng(5)
    latent = rng.permutation(400).astype(float)
    rows = np.stack((latent, 2.0 * latent + 0.5, -latent, np.exp(latent / 100.0)), axis=1)
    labels = (latent >= 37.0).astype(int)
    windows = [(0, 200), (100, 300), (150, 400), (390, 400)]
    calls = count_scored(monkeypatch)
    trees = fit_windows(rows, labels, windows, (True,) * 4)
    for (start, stop), tree in zip(windows, trees):
        assert tree.to_dict() == ReferenceTree().fit(rows[start:stop], labels[start:stop], (True,) * 4).to_dict()
    searched = [(node, counts) for node, counts in _segments(calls) if len(node)]
    assert searched
    for node, counts in searched:
        assert (np.bincount(node) == 4).all()  # one segment per feature of each node
        assert counts.max() <= 3


def _threshold_rows(n, seed):
    """``n`` rows of three numeric columns, with ties, and labels a noisy threshold of the first."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=n), 2)
    rows = np.stack((base, np.round(rng.normal(size=n), 1), base * base), axis=1)
    labels = (base > 0.4) ^ (rng.random(n) < 0.02)
    return rows, labels.astype(int)


def _allowed_cuts(column, min_leaf):
    """The cuts of a numeric column that leave ``min_leaf`` rows on each side."""
    values = np.sort(column)
    left = np.flatnonzero(values[1:] != values[:-1]) + 1
    return int(((left >= min_leaf) & (left <= len(values) - min_leaf)).sum())


@pytest.mark.parametrize("extra, pruned", [(0, True), (1, False)])
def test_boundary_cuts_are_the_candidates_up_to_the_row_limit(monkeypatch, extra, pruned):
    # The float bound of the boundary-cut rule holds up to _BOUNDARY_ROWS;
    # a larger node scores every allowed cut. Both fit the reference tree.
    rows, labels = _threshold_rows(_BOUNDARY_ROWS + extra, seed=13)
    calls = count_scored(monkeypatch)
    tree = DecisionTree().fit(rows, labels, (True,) * 3)
    assert tree.to_dict() == ReferenceTree().fit(rows, labels, (True,) * 3).to_dict()
    root, _ = calls[0]
    allowed = sum(_allowed_cuts(column, MIN_LEAF) for column in rows.T)
    assert (len(root) < allowed) == pruned and len(root) <= allowed


def test_one_batch_of_the_widest_bucket_stays_near_a_megabyte():
    # The widest bucket of a 5k retrain-attrs run: 10-prefixes with amount
    # and channel, 30 features, 200-row windows every 64 labels, as many as
    # FIT_CELLS holds. One tree on one such window peaks near 0.2 MB.
    mask, rows, labels = _synth_samples(("amount", "channel"), seed=7, k=10, cases=1500)
    count = FIT_CELLS // (200 * len(mask))
    windows = [(64 * at, 64 * at + 200) for at in range(count)]
    rows, labels = rows[: windows[-1][1]], labels[: windows[-1][1]]
    assert count >= 4 and len(rows) == windows[-1][1]
    fit_windows(rows, labels, windows, mask)  # warm up, unmeasured
    tracemalloc.start()
    try:
        fit_windows(rows, labels, windows, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# window-retrain model
# ---------------------------------------------------------------------------


def _labeled_stream(n, rng):
    for _ in range(n):
        features = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        yield features, int(features[0])


def test_window_retrain_memory_never_exceeds_capacity():
    rng = np.random.default_rng(2)
    model = WindowRetrainModel(
        bucket=2, numeric_mask=(False, False), params=LearnerParams(train_window=50)
    )
    model.finish_grace()  # empty window: nothing to train on yet
    assert not model.is_ready
    for features, label in _labeled_stream(200, rng):
        model.observe_label(features, label)
        assert len(model._rows) <= 50 and len(model._labels) <= 50
    assert model.is_ready
    model.learn(np.zeros((500, 2)), np.zeros(500, dtype=np.int64))
    # the held window owns its memory: no view keeps the 500-row block alive
    assert model._rows.base is None and model._labels.base is None
    assert len(model._rows) == 50


def test_window_retrain_same_window_gives_identical_trees():
    samples = list(_labeled_stream(60, np.random.default_rng(9)))
    trees = []
    for _ in range(2):
        model = WindowRetrainModel(
            bucket=2, numeric_mask=(False, False), params=LearnerParams(train_window=100)
        )
        for features, label in samples:
            model.observe_label(features, label)
        model.finish_grace()
        assert model.version == 1
        trees.append(_tree_json(model))
    assert trees[0] == trees[1]


def test_window_retrain_empty_window_is_not_ready():
    model = WindowRetrainModel(bucket=2, numeric_mask=(False,))
    model.finish_grace()
    assert not model.is_ready and model.version == 0
    with pytest.raises(NotReadyError):
        model.predict((1,))


def test_window_retrain_cadence_throttles_retraining():
    rng = np.random.default_rng(4)
    model = WindowRetrainModel(
        bucket=2,
        numeric_mask=(False, False),
        params=LearnerParams(train_window=100, retrain_every=5),
    )
    for features, label in _labeled_stream(10, rng):
        model.observe_label(features, label)
    model.finish_grace()
    base = model.version
    for features, label in _labeled_stream(9, rng):
        model.observe_label(features, label)
    assert model.version == base + 1  # one retrain after 5 labels, next at 10
    predicted = model.predict((1, 0))
    assert predicted in (0, 1)


def _synth_samples(attrs, seed, k=3, cases=320):
    """The feature mask, rows and labels of the k-prefixes of a seeded synth log, one per case of length >= k."""
    log = parsed_log(DriftLogSpec(n_cases=cases, drift_at=cases // 2, seed=seed))
    numeric = tuple(log.kinds()[name] for name in attrs)
    long_enough = np.flatnonzero(log.lengths() >= k)
    rows = encode(log, long_enough, k, attrs)
    return feature_mask(numeric, k), rows, np.array(log.labels)[long_enough]


@pytest.mark.parametrize("attrs", [(), ("amount", "channel")])
@pytest.mark.parametrize("retrain_every", [1, 7])
@pytest.mark.parametrize("train_window", [20, 200])
def test_window_retrain_trees_match_a_reference_fit_of_the_last_window(attrs, retrain_every, train_window):
    mask, rows, labels = _synth_samples(attrs, seed=retrain_every + train_window)
    params = LearnerParams(train_window=train_window, retrain_every=retrain_every)
    model = WindowRetrainModel(bucket=3, numeric_mask=mask, params=params)
    window = deque(maxlen=train_window)
    grace = 40
    retrains = 0
    for index, (features, label) in enumerate(zip(rows.tolist(), labels.tolist()), start=1):
        version = model.version
        model.observe_label(features, label)
        window.append((features, label))
        if index == grace:
            model.finish_grace()
        if model.version != version:
            retrains += 1
            reference = ReferenceTree(max_depth=params.tree_depth, min_leaf=MIN_LEAF).fit(
                [features for features, _ in window], [label for _, label in window], mask
            )
            assert model._tree.to_dict() == reference.to_dict(), f"retrain after sample {index}"
    assert retrains == 1 + (len(rows) - grace) // retrain_every


def _model_state(model):
    """What a run can observe of a model: its version, readiness and tree or counts."""
    if isinstance(model, IncrementalNaiveBayes):
        return model.version, model.is_ready, model._class_counts, model._counts
    return model.version, model.is_ready, model._tree.to_dict() if model.is_ready else None


@pytest.mark.parametrize("grace_labels", [0, 3])
@pytest.mark.parametrize("kind", [IncrementalNaiveBayes, WindowRetrainModel, StaticModel])
def test_labels_to_ready_says_after_how_many_labels_a_model_predicts(kind, grace_labels):
    params = LearnerParams(retrain_every=4)
    model = kind(2, (False, False), params)
    samples = list(_labeled_stream(grace_labels + 12, np.random.default_rng(1)))
    for features, label in samples[:grace_labels]:
        model.observe_label(features, label)
    model.finish_grace()
    need = kind.labels_to_ready(grace_labels, params)
    for seen, (features, label) in enumerate(samples[grace_labels:]):
        assert model.is_ready == (need is not None and seen >= need), seen
        model.observe_label(features, label)


@pytest.mark.parametrize("block", [1, 4, 25, 64])
@pytest.mark.parametrize("kind", [IncrementalNaiveBayes, WindowRetrainModel, StaticModel])
def test_learning_blocks_matches_observing_one_sample_at_a_time(kind, block):
    # Blocks longer than the window and than the cadence, cut anywhere.
    mask, rows, labels = _synth_samples(("amount", "channel"), seed=11)
    params = LearnerParams(train_window=20, retrain_every=3, memory=30)
    grace = 45
    one, blocks = kind(3, mask, params), kind(3, mask, params)
    for part in (slice(0, grace), slice(grace, len(rows))):
        for features, label in zip(rows[part].tolist(), labels[part].tolist()):
            one.observe_label(features, label)
        for start in range(part.start, part.stop, block):
            stop = min(start + block, part.stop)
            blocks.learn(rows[start:stop], labels[start:stop])
        assert _model_state(blocks) == _model_state(one)
        one.finish_grace()
        blocks.finish_grace()
        assert _model_state(blocks) == _model_state(one)


_cached_samples = cache(_synth_samples)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    retrain_every=st.sampled_from([1, 3, 7]),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=12),
)
def test_window_retrain_fits_once_per_block_that_passes_a_cadence_point(retrain_every, sizes):
    mask, rows, labels = _cached_samples(("amount", "channel"), seed=5)
    params = LearnerParams(train_window=20, retrain_every=retrain_every)
    one, blocks = WindowRetrainModel(3, mask, params), WindowRetrainModel(3, mask, params)
    grace = 25
    for model in (one, blocks):
        model.learn(rows[:grace], labels[:grace])
        model.finish_grace()
    with pytest.MonkeyPatch.context() as patch:
        fits = count_trees(patch)
        start = grace
        for size in sizes:
            stop = min(start + size, len(rows))
            for features, label in zip(rows[start:stop].tolist(), labels[start:stop].tolist()):
                one.observe_label(features, label)
            passes = stop - start >= blocks.labels_until_change()
            fits.clear()
            blocks.learn(rows[start:stop], labels[start:stop])
            assert len(fits) == passes
            assert _model_state(blocks) == _model_state(one)
            start = stop


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    retrain_every=st.sampled_from([1, 3, 7]),
    train_window=st.sampled_from([4, 20, 64]),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=12),
)
def test_trees_fit_ahead_leave_the_state_that_learning_leaves(retrain_every, train_window, sizes):
    # A run fits a window-retrain model's trees ahead, in batches, and counts
    # its labeled rows without holding them; at the end it gathers the rows
    # of the window.
    mask, rows, labels = _cached_samples(("amount", "channel"), seed=5)
    params = LearnerParams(train_window=train_window, retrain_every=retrain_every)
    learned, ahead = WindowRetrainModel(3, mask, params), WindowRetrainModel(3, mask, params)
    grace = 25
    for model in (learned, ahead):
        model.learn(rows[:grace], labels[:grace])
        model.finish_grace()
    stops = np.minimum(grace + np.cumsum(sizes), len(rows))

    def gather(at):
        return rows[at], labels[at]

    with pytest.MonkeyPatch.context() as patch:
        fitted = count_trees(patch)
        trees = ahead.fitted_trees(stops, gather)
        start, passing = grace, 0
        for stop in stops.tolist():
            passing += stop - start >= learned.labels_until_change()
            learned.learn(rows[start:stop], labels[start:stop])
            ahead.advance(stop - start, trees)
            assert _model_state(ahead) == _model_state(learned)
            start = stop
        assert next(trees, None) is None
    # Each block that passes a cadence point builds one tree for each model.
    assert len(fitted) == 2 * passing
    ahead.fill(gather)
    assert (ahead._seen, ahead._pending, len(ahead._labels)) == (learned._seen, learned._pending, len(learned._labels))
    filled = min(learned._seen, train_window)  # the rows the window holds
    assert np.array_equal(ahead._rows[:filled], learned._rows[:filled])
    assert np.array_equal(ahead._labels[:filled], learned._labels[:filled])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    retrain_every=st.integers(1, 9),
    train_window=st.integers(1, 40),
    grace_sizes=st.lists(st.integers(0, 45), max_size=3),
    sizes=st.lists(st.integers(0, 45), min_size=1, max_size=8),
)
def test_window_retrain_learns_as_the_reference_learns(retrain_every, train_window, grace_sizes, sizes):
    # Blocks of any size, empty ones and ones longer than the window
    # included, before and after grace.
    mask, rows, labels = _cached_samples(("amount", "channel"), seed=5)
    params = LearnerParams(train_window=train_window, retrain_every=retrain_every)
    model, reference = WindowRetrainModel(3, mask, params), ReferenceWindowRetrain(3, mask, params)

    def assert_same(after):
        assert model.version == reference.version, after
        assert model.labels_until_change() == reference.labels_until_change(), after
        assert (model._tree.to_dict() if model.is_ready else None) == reference.tree, after
        assert model._rows.tolist() == [list(row) for row, _ in reference.window], after
        assert model._labels.tolist() == [label for _, label in reference.window], after

    start = 0
    for grace_done, block_sizes in ((False, grace_sizes), (True, sizes)):
        if grace_done:
            model.finish_grace()
            reference.finish_grace()
            assert_same("grace")
        for size in block_sizes:
            stop = min(start + size, len(rows))
            model.learn(rows[start:stop], labels[start:stop])
            reference.learn(rows[start:stop].tolist(), labels[start:stop].tolist())
            assert_same(f"rows {start}:{stop}")
            start = stop


# ---------------------------------------------------------------------------
# static model
# ---------------------------------------------------------------------------


def test_static_model_trains_once_and_freezes():
    rng = np.random.default_rng(8)
    model = StaticModel(bucket=2, numeric_mask=(False, False))
    for features, label in _labeled_stream(200, rng):
        model.observe_label(features, label)
    model.finish_grace()
    assert model.version == 1
    snapshot = _tree_json(model)
    probes = [(i % 2, i % 3) for i in range(6)]
    before = [model.predict(p) for p in probes]
    # post-grace labels with inverted outcomes must change nothing
    for features, label in _labeled_stream(100, rng):
        model.observe_label(features, 1 - label)
    assert model.version == 1
    assert _tree_json(model) == snapshot
    assert [model.predict(p) for p in probes] == before


def test_static_model_without_grace_samples_ignores_later_labels():
    rng = np.random.default_rng(3)
    model = StaticModel(bucket=2, numeric_mask=(False, False))
    model.finish_grace()  # no grace samples: this bucket is never trained
    for features, label in _labeled_stream(1000, rng):
        model.observe_label(features, label)
    assert not model.is_ready
    assert model.version == 0
    assert not model._grace


def test_static_predict_before_training_raises():
    model = StaticModel(bucket=2, numeric_mask=(False,))
    with pytest.raises(NotReadyError):
        model.predict((0,))


# ---------------------------------------------------------------------------
# framework assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "policy,kind",
    [
        ("incremental", IncrementalNaiveBayes),
        ("window-retrain", WindowRetrainModel),
        ("static", StaticModel),
    ],
)
def test_framework_builds_one_model_per_bucket(policy, kind):
    buckets = BucketConfig(k_min=2, k_max=5)
    # One case of five events reaches every bucket.
    log = parsed_log(
        [("a", activity, at, 1 if at == 5 else None, 2.5 * at) for at, activity in enumerate("xyzxy", start=1)],
        REQUIRED_COLUMNS + ("amount",),
    )
    models = run_stream(log, policy, buckets, attrs=("amount",)).models
    assert sorted(models) == [2, 3, 4, 5]
    assert all(isinstance(model, kind) for model in models.values())
    assert all(model.policy is UpdatePolicy(policy) for model in models.values())
    assert models[3].bucket == 3
