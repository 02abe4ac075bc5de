import json
from collections import deque

import numpy as np
import pytest

from stability_meter.classifiers import (
    MIN_LEAF,
    DecisionTree,
    IncrementalNaiveBayes,
    LearnerParams,
    StaticModel,
    UpdatePolicy,
    WindowRetrainModel,
)
from stability_meter.errors import NotReadyError
from stability_meter.evaluation import run_stream
from stability_meter.event_model import REQUIRED_COLUMNS
from stability_meter.prefixing import AttributeSchema, BucketConfig, encode
from stability_meter.synthgen import DriftLogSpec

from oracles import ReferenceTree, nb_posterior_scores
from parsed_logs import parsed_log


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


def test_models_reject_samples_of_the_wrong_width():
    nb = IncrementalNaiveBayes(bucket=2, numeric_mask=(False, False))
    with pytest.raises(ValueError, match="schema mismatch"):
        nb.observe_label((1,), 0)
    static = StaticModel(bucket=3, numeric_mask=(False, False, False))
    with pytest.raises(ValueError, match="schema mismatch"):
        static.observe_label((1, 2), 0)


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
    assert tree.root.prediction is not None  # single leaf, no split possible


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
    assert tree.root.prediction is not None


@pytest.mark.parametrize("mask", [(True, False, True), (False, True, False), (False, False, True)])
def test_tree_equal_gains_go_to_the_lowest_feature_index(mask):
    # all three columns split the rows identically, so every feature has the same best gain
    column = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    features = [(value, value, value) for value in column]
    labels = [0, 0, 1, 1, 1, 1]
    tree = _assert_same_tree(features, labels, mask, 1, 1)
    assert tree.root.feature == 0


def test_tree_rejects_a_mask_of_the_wrong_width():
    with pytest.raises(ValueError, match="numeric mask"):
        DecisionTree().fit([(1.0, 2.0)], [1], (True,))


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


def test_window_retrain_same_window_gives_identical_trees():
    rng = np.random.default_rng(9)
    model = WindowRetrainModel(
        bucket=2, numeric_mask=(False, False), params=LearnerParams(train_window=100)
    )
    for features, label in _labeled_stream(60, rng):
        model.observe_label(features, label)
    model.retrain()
    first = _tree_json(model)
    version = model.version
    model.retrain()
    assert _tree_json(model) == first
    assert model.version == version + 1


def test_window_retrain_empty_window_is_not_ready():
    model = WindowRetrainModel(bucket=2, numeric_mask=(False,))
    with pytest.raises(NotReadyError):
        model.retrain()
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
    schema = AttributeSchema.from_traces(attrs, log)
    long_enough = np.flatnonzero(log.lengths() >= k)
    rows = encode(log, long_enough, k, schema)
    return schema.feature_mask(k), rows, np.array(log.labels)[long_enough]


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
    schema = AttributeSchema(names=("amount",), numeric=(True,))
    log = parsed_log([("a", "x", 1, None, 2.5), ("a", "y", 2, 1, 3)], REQUIRED_COLUMNS + ("amount",))
    models = run_stream(log, policy, buckets, schema=schema).models
    assert sorted(models) == [2, 3, 4, 5]
    assert all(isinstance(model, kind) for model in models.values())
    assert all(model.policy is UpdatePolicy(policy) for model in models.values())
    assert models[3].bucket == 3
